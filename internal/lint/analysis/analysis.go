// Package analysis is a minimal, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis vocabulary: an Analyzer holds a name, a doc
// string and a Run function; a Pass hands the Run function one type-checked
// package plus a Report sink. The repo is intentionally zero-dependency, so
// ltclint carries this small framework instead of importing x/tools. The API
// mirrors the upstream shape closely enough that porting an analyzer to the
// real framework is mechanical.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics. It must be a valid Go
	// identifier.
	Name string

	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string

	// Run applies the analyzer to a single package.
	Run func(*Pass) error
}

// Pass provides one analyzer run with a single type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers a diagnostic.
	Report func(Diagnostic)

	// Facts is the run-wide cross-package summary store. Packages are
	// analyzed in dependency order, so facts exported while analyzing a
	// dependency are visible when its importers are analyzed.
	Facts *FactStore
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding; the driver attributes it to the analyzer.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// FactStore is a run-wide map of per-object summaries, keyed by a stable
// object path (e.g. "lockorder:" + types.Func.FullName). It stands in for
// go/analysis facts; one driver process analyzes every package, so values
// stay in memory and are never serialized.
type FactStore struct {
	m map[string]any
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore { return &FactStore{m: make(map[string]any)} }

// Set records a fact for key, replacing any previous value.
func (s *FactStore) Set(key string, v any) { s.m[key] = v }

// Get returns the fact for key, if any.
func (s *FactStore) Get(key string) (any, bool) {
	v, ok := s.m[key]
	return v, ok
}
