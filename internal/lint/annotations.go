package lint

import (
	"go/ast"
	"go/token"
	"strings"
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

// lockAnn is a parsed //ltc:lock annotation on a mutex field.
type lockAnn struct {
	class   string
	indexed bool // declared as e.g. `shard[i]`: many instances, ascending order
}

type posKey struct {
	file string
	line int
}

// ascendingAt reports whether the line holding pos carries an //ltc:ascending
// marker, which permits a same-class indexed-lock acquisition.
func (lo *lockOrderRun) ascendingAt(pos token.Pos) bool {
	p := lo.pkg.fset.Position(pos)
	return lo.ascending[posKey{p.Filename, p.Line}]
}

// parseAnnotations collects the package's //ltc:lock and //ltc:ascending
// directives, reporting each malformed //ltc:lock as a finding of its own.
func (lo *lockOrderRun) parseAnnotations() {
	for _, f := range lo.pkg.files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				// The marker must trail the acquisition statement itself.
				if strings.TrimPrefix(c.Text, "//") == "ltc:ascending" {
					pos := lo.pkg.fset.Position(c.Pos())
					lo.ascending[posKey{pos.Filename, pos.Line}] = true
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if st, ok := n.(*ast.StructType); ok {
				for _, field := range st.Fields.List {
					lo.parseLockDirectives(field)
				}
			}
			return true
		})
	}
}

func (lo *lockOrderRun) parseLockDirectives(field *ast.Field) {
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
				lo.reportf(c.Pos(), "malformed //ltc:lock: need exactly one lock class")
				continue
			}
			class := args[0]
			indexed := false
			if strings.HasSuffix(class, "[i]") {
				class, indexed = strings.TrimSuffix(class, "[i]"), true
			}
			if _, known := lockLevels[class]; !known {
				lo.reportf(c.Pos(), "//ltc:lock names unknown lock class %q", class)
				continue
			}
			for _, name := range field.Names {
				if obj := lo.pkg.info.Defs[name]; obj != nil {
					lo.lockClass[obj] = lockAnn{class: class, indexed: indexed}
				}
			}
		}
	}
}
