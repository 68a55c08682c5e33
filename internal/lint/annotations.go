// Package lint implements the ltclint analyzer suite: three static checks
// that enforce the dispatch layer's documented concurrency contracts
// (CONCURRENCY.md) — lock ordering, hot-path allocation freedom, and
// hot-struct field alignment.
// (Atomic access discipline needs no analyzer: every atomically accessed
// field is a sync/atomic type.) Analyzers read intent from //ltc: annotations
// in the source and diagnostics can be suppressed only by an
// //ltclint:ignore waiver that names the analyzer and carries a reason.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"strings"
	"sync"

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

// Waiver is a parsed //ltclint:ignore directive.
type Waiver struct {
	Analyzer string
	Reason   string
	Pos      token.Pos
	used     bool
}

type posKey struct {
	file string
	line int
}

// Annotations holds every //ltc: and //ltclint: directive found in one
// package, resolved to type-checker objects.
type Annotations struct {
	LockClass map[types.Object]LockAnn
	NoAlloc   map[types.Object]bool
	Arena     map[types.Object]bool
	Hot       map[types.Object]bool

	ascending map[posKey]bool
	waivers   map[posKey][]*Waiver
	malformed []analysis.Diagnostic
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

// waive returns true (and marks the waiver used) if a waiver for analyzer
// covers the line of pos.
func (a *Annotations) waive(fset *token.FileSet, analyzer string, pos token.Pos) bool {
	p := fset.Position(pos)
	for _, w := range a.waivers[posKey{p.Filename, p.Line}] {
		if w.Analyzer == analyzer {
			w.used = true
			return true
		}
	}
	return false
}

// annsMu guards annsCache; analyzers for one package share a single parse.
var (
	annsMu    sync.Mutex
	annsCache = map[*types.Package]*Annotations{}
)

// annotationsFor parses (or returns cached) annotations for the pass's
// package.
func annotationsFor(pass *analysis.Pass) *Annotations {
	return annotationsCached(pass.Fset, pass.Files, pass.TypesInfo, pass.Pkg)
}

func parseAnnotations(fset *token.FileSet, files []*ast.File, info *types.Info) *Annotations {
	a := &Annotations{
		LockClass: map[types.Object]LockAnn{},
		NoAlloc:   map[types.Object]bool{},
		Arena:     map[types.Object]bool{},
		Hot:       map[types.Object]bool{},
		ascending: map[posKey]bool{},
		waivers:   map[posKey][]*Waiver{},
	}
	for _, f := range files {
		a.parseFile(fset, f, info)
	}
	return a
}

func (a *Annotations) parseFile(fset *token.FileSet, f *ast.File, info *types.Info) {
	// Line-anchored directives (waivers, ascending markers) need to know
	// whether a comment trails code or stands alone; consult the raw
	// source for that.
	filename := fset.Position(f.Pos()).Filename
	src, _ := os.ReadFile(filename)
	lines := strings.Split(string(src), "\n")

	for _, cg := range f.Comments {
		for _, c := range cg.List {
			a.parseLineDirective(fset, c, lines)
		}
	}

	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if obj := info.Defs[n.Name]; obj != nil && hasDirective(n.Doc, "ltc:noalloc") {
				a.NoAlloc[obj] = true
			}
		case *ast.StructType:
			for _, field := range n.Fields.List {
				a.parseFieldDirectives(fset, field, info)
			}
		case *ast.GenDecl:
			for _, spec := range n.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				for _, doc := range []*ast.CommentGroup{n.Doc, ts.Doc, ts.Comment} {
					if hasDirective(doc, "ltc:hot") {
						if obj := info.Defs[ts.Name]; obj != nil {
							a.Hot[obj] = true
						}
					}
				}
			}
		}
		return true
	})
}

// parseLineDirective handles //ltclint:ignore and //ltc:ascending, which
// attach to source lines rather than declarations. A trailing comment
// applies to its own line; a standalone comment applies to the next line.
func (a *Annotations) parseLineDirective(fset *token.FileSet, c *ast.Comment, lines []string) {
	text := strings.TrimPrefix(c.Text, "//")
	pos := fset.Position(c.Pos())
	target := posKey{pos.Filename, pos.Line}
	if standalone(lines, pos) {
		target.line++
	}
	switch {
	case strings.HasPrefix(text, "ltclint:ignore"):
		fields := strings.Fields(strings.TrimPrefix(text, "ltclint:ignore"))
		if len(fields) < 2 {
			a.malformed = append(a.malformed, analysis.Diagnostic{
				Pos:      c.Pos(),
				Category: "ltclint",
				Message:  "malformed //ltclint:ignore: need an analyzer name and a reason",
			})
			return
		}
		name := fields[0]
		if !knownAnalyzer(name) {
			a.malformed = append(a.malformed, analysis.Diagnostic{
				Pos:      c.Pos(),
				Category: "ltclint",
				Message:  fmt.Sprintf("//ltclint:ignore names unknown analyzer %q", name),
			})
			return
		}
		a.waivers[target] = append(a.waivers[target], &Waiver{
			Analyzer: name,
			Reason:   strings.Join(fields[1:], " "),
			Pos:      c.Pos(),
		})
	case text == "ltc:ascending":
		// The marker must trail the acquisition statement itself.
		a.ascending[posKey{pos.Filename, pos.Line}] = true
	}
}

// standalone reports whether the comment at pos has only whitespace before
// it on its source line.
func standalone(lines []string, pos token.Position) bool {
	if pos.Line-1 >= len(lines) {
		return true
	}
	prefix := lines[pos.Line-1]
	if pos.Column-1 <= len(prefix) {
		prefix = prefix[:pos.Column-1]
	}
	return strings.TrimSpace(prefix) == ""
}

func (a *Annotations) parseFieldDirectives(fset *token.FileSet, field *ast.Field, info *types.Info) {
	for _, doc := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if doc == nil {
			continue
		}
		for _, c := range doc.List {
			text := strings.TrimPrefix(c.Text, "//")
			switch {
			case strings.HasPrefix(text, "ltc:lock"):
				args := strings.Fields(strings.TrimPrefix(text, "ltc:lock"))
				if len(args) != 1 {
					a.malformed = append(a.malformed, analysis.Diagnostic{
						Pos:      c.Pos(),
						Category: "ltclint",
						Message:  "malformed //ltc:lock: need exactly one lock class",
					})
					continue
				}
				class := args[0]
				indexed := false
				if strings.HasSuffix(class, "[i]") {
					class, indexed = strings.TrimSuffix(class, "[i]"), true
				}
				if _, known := lockLevels[class]; !known {
					a.malformed = append(a.malformed, analysis.Diagnostic{
						Pos:      c.Pos(),
						Category: "ltclint",
						Message:  fmt.Sprintf("//ltc:lock names unknown lock class %q", class),
					})
					continue
				}
				for _, name := range field.Names {
					if obj := info.Defs[name]; obj != nil {
						a.LockClass[obj] = LockAnn{Class: class, Indexed: indexed}
					}
				}
			case text == "ltc:arena":
				for _, name := range field.Names {
					if obj := info.Defs[name]; obj != nil {
						a.Arena[obj] = true
					}
				}
			}
		}
	}
}

func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimPrefix(c.Text, "//") == directive {
			return true
		}
	}
	return false
}
