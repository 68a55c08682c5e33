// Package load turns Go package patterns into type-checked syntax trees
// without any dependency beyond the standard library and the go tool itself.
// It shells out to `go list -export -deps -json`, which works fully offline
// (the module has no requirements) and leaves compiler export data for every
// dependency in the build cache; target packages are then parsed from source
// and type-checked against that export data via go/importer's gc importer.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one parsed, type-checked package.
type Package struct {
	PkgPath string
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
	// DepOnly marks an in-module dependency pulled in only so its facts
	// (e.g. which lock classes a function may acquire) are available to the
	// packages actually matched by the patterns. Diagnostics from DepOnly
	// packages are suppressed by callers.
	DepOnly bool
}

type listPkg struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
	Error      *struct{ Err string }
}

// Packages loads and type-checks the packages matched by patterns, rooted at
// dir. The result is in dependency order: every package appears after all
// packages it imports (among the results). Only non-test GoFiles are loaded,
// matching what `go vet` analyzes for the primary package.
func Packages(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{
		"list", "-export", "-deps",
		"-json=ImportPath,Name,Dir,Export,Standard,DepOnly,GoFiles,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	exports := make(map[string]string)
	var targets []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s", p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		// Non-standard dependencies are in-module (the module has no
		// requirements); load them too so fact-producing analyses see the
		// whole call graph even when patterns match only a sub-tree.
		if !p.DepOnly || !p.Standard {
			targets = append(targets, p)
		}
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
	var pkgs []*Package
	for _, p := range targets {
		pkg, err := check(fset, imp, p.ImportPath, p.Dir, p.GoFiles)
		if err != nil {
			return nil, err
		}
		pkg.DepOnly = p.DepOnly
		pkgs = append(pkgs, pkg)
	}
	// `go list -deps` emits dependencies before dependents and is itself
	// deterministic, so pkgs is already in a stable dependency order.
	return pkgs, nil
}

// Files type-checks the given source files as a single package named pkgPath.
// exports maps import paths to gc export-data files for anything the sources
// import; it may be nil for import-free fixtures.
func Files(fset *token.FileSet, pkgPath string, filenames []string, exports map[string]string) (*Package, error) {
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
	var dir string
	if len(filenames) > 0 {
		dir = filepath.Dir(filenames[0])
	}
	var base []string
	for _, f := range filenames {
		base = append(base, filepath.Base(f))
	}
	return check(fset, imp, pkgPath, dir, base)
}

// StdExports resolves export-data files for the named standard-library
// packages (and their dependencies) by asking the go tool once.
func StdExports(pkgs ...string) (map[string]string, error) {
	args := append([]string{"list", "-export", "-deps", "-json=ImportPath,Export"}, pkgs...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", pkgs, err, stderr.String())
	}
	exports := make(map[string]string)
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p struct{ ImportPath, Export string }
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports, nil
}

func check(fset *token.FileSet, imp types.Importer, pkgPath, dir string, goFiles []string) (*Package, error) {
	var files []*ast.File
	for _, gf := range goFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, gf), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", gf, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", pkgPath, err)
	}
	return &Package{
		PkgPath: pkgPath,
		Dir:     dir,
		Fset:    fset,
		Files:   files,
		Types:   tpkg,
		Info:    info,
	}, nil
}
