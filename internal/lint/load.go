package lint

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

// pkg is one parsed, type-checked package.
type pkg struct {
	fset  *token.FileSet
	files []*ast.File
	types *types.Package
	info  *types.Info
	// depOnly marks an in-module dependency pulled in only so its facts
	// (which lock classes a function may acquire) are available to the
	// packages actually matched by the patterns.
	depOnly bool
}

type listPkg struct {
	ImportPath string
	Dir        string
	Export     string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
	Error      *struct{ Err string }
}

// loadPackages loads and type-checks the packages matched by patterns, rooted
// at dir, with nothing beyond the standard library and the go tool itself. It
// shells out to `go list -export -deps -json`, which works fully offline (the
// module has no requirements) and leaves compiler export data for every
// dependency in the build cache; in-module packages are then parsed from
// source and type-checked against that export data. The result is in
// dependency order: every package appears after all packages it imports
// (among the results). Only non-test GoFiles are loaded, matching what
// `go vet` analyzes for the primary package.
func loadPackages(dir string, patterns ...string) ([]*pkg, error) {
	args := append([]string{
		"list", "-export", "-deps",
		"-json=ImportPath,Dir,Export,Standard,DepOnly,GoFiles,Error",
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
		// requirements); load them too so lockorder sees the whole call
		// graph even when patterns match only a sub-tree.
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
	// `go list -deps` emits dependencies before dependents and is itself
	// deterministic, so pkgs comes out in a stable dependency order.
	var pkgs []*pkg
	for _, t := range targets {
		p := &pkg{fset: fset, depOnly: t.DepOnly, info: &types.Info{
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}}
		for _, gf := range t.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(t.Dir, gf), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("parsing %s: %v", gf, err)
			}
			p.files = append(p.files, f)
		}
		conf := types.Config{Importer: imp}
		if p.types, err = conf.Check(t.ImportPath, fset, p.files, p.info); err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", t.ImportPath, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}
