package lint

import (
	"fmt"
	"go/token"
	"sort"

	"ltc/internal/lint/analysis"
	"ltc/internal/lint/load"
)

// Analyzers is the ltclint suite.
var Analyzers = []*analysis.Analyzer{LockOrder}

// Finding is one diagnostic, positioned and attributed.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// Run loads the packages matched by patterns (rooted at dir) and applies the
// whole suite, returning every finding. Packages are analyzed in dependency
// order so cross-package facts (e.g. which lock classes a callee may
// acquire) are available to importers.
func Run(dir string, patterns ...string) ([]Finding, error) {
	pkgs, err := load.Packages(dir, patterns...)
	if err != nil {
		return nil, err
	}
	facts := analysis.NewFactStore()
	var findings []Finding
	for _, pkg := range pkgs {
		fs, err := AnalyzePackage(Analyzers, pkg, facts)
		if err != nil {
			return nil, err
		}
		// In-module dependencies outside the requested patterns are analyzed
		// only for their facts; their diagnostics belong to their own run.
		if pkg.DepOnly {
			continue
		}
		findings = append(findings, fs...)
	}
	sortFindings(findings)
	return findings, nil
}

// AnalyzePackage applies analyzers to one type-checked package and returns
// their findings in position order. facts carries cross-package summaries
// between calls and may be shared across packages of one run.
func AnalyzePackage(analyzers []*analysis.Analyzer, pkg *load.Package, facts *analysis.FactStore) ([]Finding, error) {
	var findings []Finding
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Facts:     facts,
			Report: func(d analysis.Diagnostic) {
				findings = append(findings, Finding{
					Pos:      pkg.Fset.Position(d.Pos),
					Analyzer: a.Name,
					Message:  d.Message,
				})
			},
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: analyzing %s: %v", a.Name, pkg.PkgPath, err)
		}
	}
	sortFindings(findings)
	return findings, nil
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
}
