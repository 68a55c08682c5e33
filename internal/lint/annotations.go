// Package lint implements ltclint's one analyzer, lockorder, which enforces
// the dispatch layer's lock order (CONCURRENCY.md). It reads intent from
// //ltc:lock and //ltc:ascending annotations in the source; there are no
// waivers. (Atomic access discipline needs no analyzer: every atomically
// accessed field is a sync/atomic type.)
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"ltc/internal/lint/analysis"
)

// Lock classes in acquisition order. A lock may only be acquired while all
// held locks have a strictly lower level; leaf-class locks may only be
// acquired with nothing held at all. The levels linearize the contract from
// CONCURRENCY.md: regMu → shard mutex (ascending index) → async lifecycle →
// ingest queue, with the event bus (and other terminal mutexes) as leaves.
var lockLevels = map[string]int{
	"regMu": 10, // Dispatcher registry RWMutex
	"shard": 20, // per-shard engine mutex (indexed: multiple instances)
	"async": 30, // async-ingest lifecycle mutex
	"queue": 50, // async queue mutex (shardQueue.mu)
	"leaf":  90, // terminal locks: event bus, flush dedup; nothing may be held
}

// LockAnn is a parsed //ltc:lock annotation on a mutex field.
type LockAnn struct {
	Class   string
	Indexed bool // declared as e.g. `shard[i]`: many instances, ascending order
}

type posKey struct {
	file string
	line int
}

// Annotations holds the //ltc:lock and //ltc:ascending directives found in
// one package, resolved to type-checker objects.
type Annotations struct {
	LockClass map[types.Object]LockAnn

	ascending map[posKey]bool
}

// HasLockAnnotations reports whether the package declares any lock classes;
// the unannotated-mutex rule only applies to such packages.
func (a *Annotations) HasLockAnnotations() bool { return len(a.LockClass) > 0 }

// Ascending reports whether the line holding pos carries an //ltc:ascending
// marker, which permits a same-class indexed-lock acquisition.
func (a *Annotations) Ascending(fset *token.FileSet, pos token.Pos) bool {
	p := fset.Position(pos)
	return a.ascending[posKey{p.Filename, p.Line}]
}

// parseAnnotations collects the package's directives, reporting each
// malformed //ltc:lock as a diagnostic of its own.
func parseAnnotations(pass *analysis.Pass) *Annotations {
	a := &Annotations{
		LockClass: map[types.Object]LockAnn{},
		ascending: map[posKey]bool{},
	}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				// The marker must trail the acquisition statement itself.
				if strings.TrimPrefix(c.Text, "//") == "ltc:ascending" {
					pos := pass.Fset.Position(c.Pos())
					a.ascending[posKey{pos.Filename, pos.Line}] = true
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if st, ok := n.(*ast.StructType); ok {
				for _, field := range st.Fields.List {
					a.parseLockDirectives(pass, field)
				}
			}
			return true
		})
	}
	return a
}

func (a *Annotations) parseLockDirectives(pass *analysis.Pass, field *ast.Field) {
	for _, doc := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if doc == nil {
			continue
		}
		for _, c := range doc.List {
			text, ok := strings.CutPrefix(c.Text, "//ltc:lock")
			if !ok {
				continue
			}
			args := strings.Fields(text)
			if len(args) != 1 {
				pass.Reportf(c.Pos(), "malformed //ltc:lock: need exactly one lock class")
				continue
			}
			class := args[0]
			indexed := false
			if strings.HasSuffix(class, "[i]") {
				class, indexed = strings.TrimSuffix(class, "[i]"), true
			}
			if _, known := lockLevels[class]; !known {
				pass.Reportf(c.Pos(), "//ltc:lock names unknown lock class %q", class)
				continue
			}
			for _, name := range field.Names {
				if obj := pass.TypesInfo.Defs[name]; obj != nil {
					a.LockClass[obj] = LockAnn{Class: class, Indexed: indexed}
				}
			}
		}
	}
}
