package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"ltc/internal/lint/analysis"
	"ltc/internal/lint/load"
)

// Analyzers is the full ltclint suite in reporting order.
var Analyzers = []*analysis.Analyzer{
	LockOrder,
	NoAlloc,
	FieldAlign,
}

// analyzerNames is a plain list (not derived from Analyzers) so that waiver
// parsing, which runs during analysis, avoids an initialization cycle.
var analyzerNames = []string{"lockorder", "noalloc", "fieldalign"}

func knownAnalyzer(name string) bool {
	for _, n := range analyzerNames {
		if n == name {
			return true
		}
	}
	return false
}

// Finding is one unwaived diagnostic, positioned and attributed.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// Run loads the packages matched by patterns (rooted at dir) and applies the
// whole suite, returning every unwaived finding. Packages are analyzed in
// dependency order so cross-package facts (e.g. which lock classes a callee
// may acquire) are available to importers.
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

// AnalyzePackage applies analyzers to one type-checked package, filters
// waived diagnostics, and reports malformed directives and unused waivers as
// findings of their own. facts carries cross-package summaries between calls
// and may be shared across packages of one run.
func AnalyzePackage(analyzers []*analysis.Analyzer, pkg *load.Package, facts *analysis.FactStore) ([]Finding, error) {
	var diags []analysis.Diagnostic
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Sizes:     pkg.Sizes,
			Facts:     facts,
			Report: func(d analysis.Diagnostic) {
				d.Category = a.Name
				diags = append(diags, d)
			},
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: analyzing %s: %v", a.Name, pkg.PkgPath, err)
		}
	}

	anns := annotationsCached(pkg.Fset, pkg.Files, pkg.Info, pkg.Types)
	var findings []Finding
	for _, d := range diags {
		if d.Category != "ltclint" && anns.waive(pkg.Fset, d.Category, d.Pos) {
			continue
		}
		findings = append(findings, Finding{
			Pos:      pkg.Fset.Position(d.Pos),
			Analyzer: d.Category,
			Message:  d.Message,
		})
	}
	// Malformed directives are never waivable.
	for _, d := range anns.malformed {
		findings = append(findings, Finding{
			Pos:      pkg.Fset.Position(d.Pos),
			Analyzer: d.Category,
			Message:  d.Message,
		})
	}
	// A waiver that suppressed nothing is stale; make it visible so waivers
	// cannot rot silently.
	for _, ws := range anns.waivers {
		for _, w := range ws {
			if !w.used {
				findings = append(findings, Finding{
					Pos:      pkg.Fset.Position(w.Pos),
					Analyzer: "ltclint",
					Message:  fmt.Sprintf("unused //ltclint:ignore waiver for %s", w.Analyzer),
				})
			}
		}
	}
	sortFindings(findings)
	return findings, nil
}

// annotationsCached mirrors annotationsFor for callers that hold a
// load.Package rather than a Pass.
func annotationsCached(fset *token.FileSet, files []*ast.File, info *types.Info, tpkg *types.Package) *Annotations {
	annsMu.Lock()
	defer annsMu.Unlock()
	if a, ok := annsCache[tpkg]; ok {
		return a
	}
	a := parseAnnotations(fset, files, info)
	annsCache[tpkg] = a
	return a
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
