package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"ltc/internal/lint/analysis"
)

// LockOrder enforces the lock hierarchy documented in CONCURRENCY.md. Mutex
// fields are annotated //ltc:lock <class> (classes: regMu < shard < async <
// queue < leaf). The analyzer tracks the set of annotated locks held at each
// statement and reports:
//
//   - acquiring a lock whose class level is not strictly above every held
//     lock's level (same-class acquisitions of an indexed class are allowed
//     only on lines marked //ltc:ascending);
//   - acquiring a leaf-class lock — the event bus, the flush dedup mutex —
//     while ANY annotated lock is held (publication must happen after the
//     emitting call's locks are released);
//   - calling a function that may transitively acquire a conflicting class
//     (per-function summaries flow across packages as facts);
//   - in packages that annotate at least one lock, declaring a mutex field
//     with no //ltc:lock annotation.
//
// The walk is intra-procedural and flow-structured: branches are analyzed
// separately and merged by union, deferred unlocks hold to function end, and
// `go` statements start with an empty held set. A function literal is walked
// with the locks held where it is written — plus, when it is an argument to a
// package-local function that may acquire classes C (the dispatcher's
// eachShard), one lock of each class in C: the callee may call it under them.
var LockOrder = &analysis.Analyzer{
	Name: "lockorder",
	Doc:  "enforce the regMu → shard → async → queue lock order with the event bus as a leaf",
	Run:  runLockOrder,
}

const lockFactPrefix = "lockorder:"

type heldLock struct {
	class    string
	instance string // source rendering of the lock expression, e.g. "d.regMu"
	level    int
}

type heldSet []heldLock

func (h heldSet) clone() heldSet { return append(heldSet(nil), h...) }

func (h heldSet) describe() string {
	var names []string
	for _, l := range h {
		names = append(names, fmt.Sprintf("%s (%s)", l.instance, l.class))
	}
	return strings.Join(names, ", ")
}

type lockOrderRun struct {
	pass      *analysis.Pass
	anns      *Annotations
	summaries map[*types.Func]map[string]bool // transitive may-acquire, package-local
}

func runLockOrder(pass *analysis.Pass) error {
	lo := &lockOrderRun{
		pass:      pass,
		anns:      annotationsFor(pass),
		summaries: map[*types.Func]map[string]bool{},
	}

	var decls []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				decls = append(decls, fd)
			}
		}
	}

	lo.buildSummaries(decls)

	for _, fd := range decls {
		lo.walkBody(fd.Body, heldSet{})
	}

	lo.exportFacts(decls)
	lo.checkUnannotatedMutexes()
	return nil
}

// --- phase 1: per-function transitive may-acquire summaries ---

func (lo *lockOrderRun) buildSummaries(decls []*ast.FuncDecl) {
	direct := map[*types.Func]map[string]bool{}
	calls := map[*types.Func]map[*types.Func]bool{}

	for _, fd := range decls {
		fn, _ := lo.pass.TypesInfo.Defs[fd.Name].(*types.Func)
		if fn == nil {
			continue
		}
		d, c := map[string]bool{}, map[*types.Func]bool{}
		lo.collectAcquires(fd.Body, d, c)
		direct[fn], calls[fn] = d, c
	}

	// Transitive closure over the package-local call graph. Imported
	// callees already contribute their (final) fact classes via
	// collectAcquires, so only local edges need iterating.
	lo.summaries = direct
	for changed := true; changed; {
		changed = false
		for fn, callees := range calls {
			for callee := range callees {
				for class := range lo.summaries[callee] {
					if !lo.summaries[fn][class] {
						lo.summaries[fn][class] = true
						changed = true
					}
				}
			}
		}
	}
}

// collectAcquires gathers the lock classes directly acquired in body and the
// package-local functions it calls synchronously. Function literals started
// by `go` statements run on their own goroutine and are excluded.
func (lo *lockOrderRun) collectAcquires(body ast.Node, classes map[string]bool, calls map[*types.Func]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			// Evaluate only the call's arguments in this goroutine.
			for _, arg := range n.Call.Args {
				lo.collectAcquires(arg, classes, calls)
			}
			return false
		case *ast.CallExpr:
			if ann, _, ok := lo.lockTarget(n, "Lock", "RLock"); ok {
				classes[ann.Class] = true
				return true
			}
			if fn := lo.staticCallee(n); fn != nil {
				if fn.Pkg() == lo.pass.Pkg {
					calls[fn] = true
				} else {
					for _, class := range lo.importedClasses(fn) {
						classes[class] = true
					}
				}
			}
		}
		return true
	})
}

func (lo *lockOrderRun) exportFacts(decls []*ast.FuncDecl) {
	for _, fd := range decls {
		fn, _ := lo.pass.TypesInfo.Defs[fd.Name].(*types.Func)
		if fn == nil {
			continue
		}
		var classes []string
		for class := range lo.summaries[fn] {
			classes = append(classes, class)
		}
		sort.Strings(classes)
		lo.pass.Facts.Set(lockFactPrefix+fn.FullName(), classes)
	}
}

// mayAcquire returns the lock classes fn may transitively acquire.
func (lo *lockOrderRun) mayAcquire(fn *types.Func) []string {
	if fn.Pkg() == lo.pass.Pkg {
		var classes []string
		for class := range lo.summaries[fn] {
			classes = append(classes, class)
		}
		sort.Strings(classes)
		return classes
	}
	return lo.importedClasses(fn)
}

func (lo *lockOrderRun) importedClasses(fn *types.Func) []string {
	v, _ := lo.pass.Facts.Get(lockFactPrefix + fn.FullName())
	classes, _ := v.([]string)
	return classes
}

// --- phase 2: flow-structured held-set walk ---

// walkBody analyzes a statement list, mutating h in place.
func (lo *lockOrderRun) walkBody(block *ast.BlockStmt, h heldSet) {
	cur := &h
	for _, s := range block.List {
		lo.stmt(s, cur)
	}
}

func (lo *lockOrderRun) stmt(s ast.Stmt, h *heldSet) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, inner := range s.List {
			lo.stmt(inner, h)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			lo.stmt(s.Init, h)
		}
		lo.exprs(h, s.Cond)
		thenH := h.clone()
		lo.stmt(s.Body, &thenH)
		elseH := h.clone()
		if s.Else != nil {
			lo.stmt(s.Else, &elseH)
		}
		*h = merge(branchExit(s.Body, thenH), branchExit(s.Else, elseH))
	case *ast.ForStmt:
		if s.Init != nil {
			lo.stmt(s.Init, h)
		}
		lo.exprs(h, s.Cond)
		bodyH := h.clone()
		lo.stmt(s.Body, &bodyH)
		if s.Post != nil {
			lo.stmt(s.Post, &bodyH)
		}
		*h = merge(*h, bodyH)
	case *ast.RangeStmt:
		lo.exprs(h, s.X)
		bodyH := h.clone()
		lo.stmt(s.Body, &bodyH)
		*h = merge(*h, bodyH)
	case *ast.SwitchStmt:
		if s.Init != nil {
			lo.stmt(s.Init, h)
		}
		lo.exprs(h, s.Tag)
		lo.caseClauses(s.Body, h)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			lo.stmt(s.Init, h)
		}
		lo.caseClauses(s.Body, h)
	case *ast.SelectStmt:
		lo.caseClauses(s.Body, h)
	case *ast.LabeledStmt:
		lo.stmt(s.Stmt, h)
	case *ast.GoStmt:
		// Arguments are evaluated on this goroutine; the call itself
		// (and a function-literal body) runs concurrently with nothing
		// held.
		for _, arg := range s.Call.Args {
			lo.exprs(h, arg)
		}
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			empty := heldSet{}
			lo.walkBody(lit.Body, empty)
		}
	case *ast.DeferStmt:
		if ann, instance, ok := lo.lockTarget(s.Call, "Unlock", "RUnlock"); ok {
			// Deferred unlock: the lock stays held to function end;
			// nothing to update.
			_, _ = ann, instance
			break
		}
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			deferH := h.clone()
			lo.walkBody(lit.Body, deferH)
			break
		}
		lo.exprs(h, s.Call)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			lo.exprs(h, r)
		}
	case *ast.ExprStmt:
		lo.exprs(h, s.X)
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			lo.exprs(h, r)
		}
		for _, l := range s.Lhs {
			lo.exprs(h, l)
		}
	case *ast.DeclStmt, *ast.IncDecStmt, *ast.SendStmt:
		lo.exprs(h, s)
	case *ast.BranchStmt, *ast.EmptyStmt:
		// no effect
	default:
		if s != nil {
			lo.exprs(h, s)
		}
	}
}

// caseClauses analyzes each clause of a switch/select body on a clone of the
// entry held set and merges the non-terminating exits.
func (lo *lockOrderRun) caseClauses(body *ast.BlockStmt, h *heldSet) {
	exit := h.clone()
	for _, clause := range body.List {
		var stmts []ast.Stmt
		switch c := clause.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				lo.exprs(h, e)
			}
			stmts = c.Body
		case *ast.CommClause:
			if c.Comm != nil {
				lo.stmt(c.Comm, h)
			}
			stmts = c.Body
		}
		branchH := h.clone()
		for _, s := range stmts {
			lo.stmt(s, &branchH)
		}
		if !stmtsTerminate(stmts) {
			exit = merge(exit, branchH)
		}
	}
	*h = exit
}

// branchExit returns the exit held set of a branch, or nil if the branch
// always terminates (return/panic), excluding it from the merge.
func branchExit(body ast.Stmt, h heldSet) heldSet {
	switch b := body.(type) {
	case nil:
		return h
	case *ast.BlockStmt:
		if stmtsTerminate(b.List) {
			return nil
		}
	case *ast.ReturnStmt:
		return nil
	}
	return h
}

func stmtsTerminate(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch last := stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// merge unions two branch exits (nil means the branch terminated).
func merge(a, b heldSet) heldSet {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := a.clone()
	for _, l := range b {
		found := false
		for _, e := range out {
			if e.class == l.class && e.instance == l.instance {
				found = true
				break
			}
		}
		if !found {
			out = append(out, l)
		}
	}
	return out
}

// exprs processes every call (in source order) inside the given nodes,
// updating the held set and reporting violations.
func (lo *lockOrderRun) exprs(h *heldSet, nodes ...ast.Node) {
	for _, node := range nodes {
		if node == nil {
			continue
		}
		ast.Inspect(node, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				// Analyzed with the held set at its definition
				// site; its lock effects don't leak out (the
				// literal may run later or not at all).
				litH := h.clone()
				lo.walkBody(n.Body, litH)
				return false
			case *ast.CallExpr:
				// lo.call classifies n itself; its Fun and Args
				// are visited by the descent, unless the callee
				// runs literal arguments under its own locks.
				lo.call(n, h)
				if cbH := lo.callbackHeld(n, *h); cbH != nil {
					lo.exprs(h, n.Fun)
					for _, arg := range n.Args {
						if lit, ok := arg.(*ast.FuncLit); ok {
							lo.walkBody(lit.Body, cbH.clone())
						} else {
							lo.exprs(h, arg)
						}
					}
					return false
				}
			}
			return true
		})
	}
}

// callbackHeld returns the held set a function literal passed to call is
// walked with: h plus one lock of every class the callee may acquire, when
// the callee is a package-local function that acquires any (nil otherwise).
// It over-approximates — the callee may call the literal outside its locks,
// or not at all — and matches the dispatcher's eachShard, which calls it
// under each shard mutex in turn.
func (lo *lockOrderRun) callbackHeld(call *ast.CallExpr, h heldSet) heldSet {
	fn := lo.staticCallee(call)
	if fn == nil || fn.Pkg() != lo.pass.Pkg || len(lo.summaries[fn]) == 0 {
		return nil
	}
	held := h.clone()
	for _, class := range lo.mayAcquire(fn) {
		held = append(held, heldLock{class: class, instance: fn.Name() + "'s lock", level: lockLevels[class]})
	}
	return held
}

// call applies the effect of a single call expression on the held set.
func (lo *lockOrderRun) call(call *ast.CallExpr, h *heldSet) {
	if ann, instance, ok := lo.lockTarget(call, "Lock", "RLock"); ok {
		lo.checkAcquire(call, ann, instance, h)
		*h = append(*h, heldLock{class: ann.Class, instance: instance, level: lockLevels[ann.Class]})
		return
	}
	if _, instance, ok := lo.lockTarget(call, "Unlock", "RUnlock"); ok {
		for i, l := range *h {
			if l.instance == instance {
				*h = append((*h)[:i:i], (*h)[i+1:]...)
				break
			}
		}
		return
	}
	fn := lo.staticCallee(call)
	if fn == nil {
		return
	}
	for _, class := range lo.mayAcquire(fn) {
		lo.checkTransient(call, fn, class, *h)
	}
}

// checkAcquire validates a direct Lock/RLock against the held set.
func (lo *lockOrderRun) checkAcquire(call *ast.CallExpr, ann LockAnn, instance string, h *heldSet) {
	level := lockLevels[ann.Class]
	if ann.Class == "leaf" && len(*h) > 0 {
		lo.pass.Reportf(call.Pos(),
			"leaf lock %s acquired while holding %s; leaf locks (event bus, flush dedup) require an empty held set",
			instance, h.describe())
		return
	}
	for _, held := range *h {
		switch {
		case held.instance == instance:
			lo.pass.Reportf(call.Pos(), "lock %s is already held", instance)
		case level < held.level:
			lo.pass.Reportf(call.Pos(),
				"acquiring %s (class %s, level %d) while holding %s (class %s, level %d) violates the lock order",
				instance, ann.Class, level, held.instance, held.class, held.level)
		case level == held.level:
			if !(ann.Indexed && lo.anns.Ascending(lo.pass.Fset, call.Pos())) {
				lo.pass.Reportf(call.Pos(),
					"acquiring %s while holding same-class lock %s; indexed classes need an //ltc:ascending marker on the acquisition",
					instance, held.instance)
			}
		}
	}
}

// checkTransient validates a call that may transitively acquire class.
func (lo *lockOrderRun) checkTransient(call *ast.CallExpr, fn *types.Func, class string, h heldSet) {
	level := lockLevels[class]
	if class == "leaf" && len(h) > 0 {
		lo.pass.Reportf(call.Pos(),
			"call to %s may acquire a leaf lock (event bus) while holding %s; release all locks before publishing",
			fn.Name(), h.describe())
		return
	}
	for _, held := range h {
		switch {
		case level < held.level:
			lo.pass.Reportf(call.Pos(),
				"call to %s may acquire a %s-class lock (level %d) while holding %s (class %s, level %d), violating the lock order",
				fn.Name(), class, level, held.instance, held.class, held.level)
		case level == held.level:
			lo.pass.Reportf(call.Pos(),
				"call to %s may acquire a %s-class lock while one (%s) is already held",
				fn.Name(), class, held.instance)
		}
	}
}

// --- resolution helpers ---

// lockTarget reports whether call is `<expr>.<method>()` where method is one
// of names and expr resolves to an //ltc:lock-annotated mutex field.
func (lo *lockOrderRun) lockTarget(call *ast.CallExpr, names ...string) (LockAnn, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return LockAnn{}, "", false
	}
	match := false
	for _, n := range names {
		if sel.Sel.Name == n {
			match = true
		}
	}
	if !match {
		return LockAnn{}, "", false
	}
	field, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return LockAnn{}, "", false
	}
	obj := lo.pass.TypesInfo.Uses[field.Sel]
	if obj == nil {
		return LockAnn{}, "", false
	}
	ann, ok := lo.anns.LockClass[obj]
	if !ok {
		return LockAnn{}, "", false
	}
	return ann, types.ExprString(field), true
}

// staticCallee resolves the *types.Func a call statically invokes, or nil
// for builtins, conversions, function values and interface methods.
func (lo *lockOrderRun) staticCallee(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		// Interface method calls have no static body; skip them so
		// summaries stay precise (dynamic dispatch is out of scope).
		if sel, ok := lo.pass.TypesInfo.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			if types.IsInterface(sel.Recv()) {
				return nil
			}
		}
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := lo.pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}

// --- phase 4: annotation coverage ---

// checkUnannotatedMutexes reports mutex-typed struct fields that lack an
// //ltc:lock annotation, but only in packages that annotate at least one
// lock (packages outside the discipline are untouched).
func (lo *lockOrderRun) checkUnannotatedMutexes() {
	if !lo.anns.HasLockAnnotations() {
		return
	}
	for _, f := range lo.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					obj := lo.pass.TypesInfo.Defs[name]
					if obj == nil || !isMutexType(obj.Type()) {
						continue
					}
					if _, ok := lo.anns.LockClass[obj]; !ok {
						lo.pass.Reportf(name.Pos(),
							"mutex field %s has no //ltc:lock annotation in a lock-annotated package", name.Name)
					}
				}
			}
			return true
		})
	}
}

func isMutexType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}
