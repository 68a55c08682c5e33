package lint

import "sync"

// repoPackages loads the whole module once for every module-wide test in this
// test binary: loading and type-checking it is most of their time.
var repoPackages = sync.OnceValues(func() ([]*pkg, error) {
	return loadPackages("../..", "./...")
})

// RepoFindings is Run("../..", "./...") over the shared load of the module.
func RepoFindings() ([]Finding, error) {
	pkgs, err := repoPackages()
	if err != nil {
		return nil, err
	}
	return analyze(pkgs), nil
}
