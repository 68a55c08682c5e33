package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"ltc/internal/lint/analysis"
)

// NoAlloc rejects heap-allocating constructs inside functions annotated
// //ltc:noalloc (the per-check-in hot path, queue push/pop, arena carve).
// Flagged constructs: function literals and method values (closure
// allocation), make/new, map and slice literals, map writes, escaping
// &composite literals, fmt/errors calls, go statements, string<->[]byte
// conversions, interface conversions of non-pointer-shaped operands, and
// append into any destination that is neither an //ltc:arena-annotated field
// nor rooted at a function parameter (caller-owned buffer idiom).
var NoAlloc = &analysis.Analyzer{
	Name: "noalloc",
	Doc:  "reject heap allocations in //ltc:noalloc hot-path functions",
	Run:  runNoAlloc,
}

func runNoAlloc(pass *analysis.Pass) error {
	anns := annotationsFor(pass)
	if len(anns.NoAlloc) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj := pass.TypesInfo.Defs[fd.Name]; obj != nil && anns.NoAlloc[obj] {
				na := &noAllocRun{pass: pass, anns: anns, params: paramObjects(pass.TypesInfo, fd)}
				na.checkBody(fd)
			}
		}
	}
	return nil
}

type noAllocRun struct {
	pass   *analysis.Pass
	anns   *Annotations
	params map[types.Object]bool
}

func paramObjects(info *types.Info, fd *ast.FuncDecl) map[types.Object]bool {
	params := map[types.Object]bool{}
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil {
					params[obj] = true
				}
			}
		}
	}
	return params
}

func (na *noAllocRun) checkBody(fd *ast.FuncDecl) {
	info := na.pass.TypesInfo

	// Method values are selectors not immediately called; collect the
	// called positions first so `x.m()` isn't flagged while `f(x.m)` is.
	calledFuns := map[ast.Expr]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			calledFuns[ast.Unparen(call.Fun)] = true
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			na.pass.Reportf(n.Pos(), "function literal allocates a closure in //ltc:noalloc function %s", fd.Name.Name)
			return false
		case *ast.GoStmt:
			na.pass.Reportf(n.Pos(), "go statement allocates a goroutine in //ltc:noalloc function %s", fd.Name.Name)
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[n]; ok && sel.Kind() == types.MethodVal && !calledFuns[n] {
				na.pass.Reportf(n.Pos(), "method value %s allocates in //ltc:noalloc function %s", types.ExprString(n), fd.Name.Name)
			}
		case *ast.CallExpr:
			na.checkCall(n, fd)
		case *ast.CompositeLit:
			na.checkCompositeLit(n, fd)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					na.pass.Reportf(n.Pos(), "&composite literal escapes to the heap in //ltc:noalloc function %s", fd.Name.Name)
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && isMapType(info.TypeOf(idx.X)) {
					na.pass.Reportf(lhs.Pos(), "map write may allocate in //ltc:noalloc function %s", fd.Name.Name)
				}
			}
			na.checkInterfaceAssign(n, fd)
		case *ast.ValueSpec:
			na.checkInterfaceValueSpec(n, fd)
		case *ast.ReturnStmt:
			na.checkInterfaceReturn(n, fd)
		}
		return true
	})
}

func (na *noAllocRun) checkCall(call *ast.CallExpr, fd *ast.FuncDecl) {
	info := na.pass.TypesInfo

	// Builtins and conversions.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		switch id.Name {
		case "make":
			if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
				na.pass.Reportf(call.Pos(), "make allocates in //ltc:noalloc function %s", fd.Name.Name)
				return
			}
		case "new":
			if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
				na.pass.Reportf(call.Pos(), "new allocates in //ltc:noalloc function %s", fd.Name.Name)
				return
			}
		case "append":
			if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
				na.checkAppend(call, fd)
				return
			}
		}
	}

	// Conversions: string <-> byte/rune slices allocate.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to := tv.Type
		from := info.TypeOf(call.Args[0])
		if isStringSliceConv(from, to) {
			na.pass.Reportf(call.Pos(), "conversion between string and byte/rune slice allocates in //ltc:noalloc function %s", fd.Name.Name)
		}
		if isBoxingConversion(from, to) {
			na.pass.Reportf(call.Pos(), "conversion of %s to interface %s boxes and allocates in //ltc:noalloc function %s", from, to, fd.Name.Name)
		}
		return
	}

	// Calls into fmt/errors allocate by design.
	if fn := calleeFunc(info, call); fn != nil && fn.Pkg() != nil {
		switch fn.Pkg().Path() {
		case "fmt", "errors":
			na.pass.Reportf(call.Pos(), "call to %s.%s allocates in //ltc:noalloc function %s", fn.Pkg().Name(), fn.Name(), fd.Name.Name)
		}
	}

	// Implicit interface conversions at call boundaries.
	if sig, ok := info.TypeOf(call.Fun).(*types.Signature); ok && sig != nil {
		na.checkCallArgs(call, sig, fd)
	}
}

// checkAppend allows append only into arena-annotated fields or
// parameter-rooted destinations (caller-owned buffers).
func (na *noAllocRun) checkAppend(call *ast.CallExpr, fd *ast.FuncDecl) {
	if len(call.Args) == 0 {
		return
	}
	dst := ast.Unparen(call.Args[0])
	if na.allowedAppendDst(dst) {
		return
	}
	na.pass.Reportf(call.Pos(),
		"append into non-arena, non-parameter destination %s may allocate in //ltc:noalloc function %s (annotate the field //ltc:arena or pass a caller-owned buffer)",
		types.ExprString(call.Args[0]), fd.Name.Name)
}

func (na *noAllocRun) allowedAppendDst(dst ast.Expr) bool {
	info := na.pass.TypesInfo
	switch dst := dst.(type) {
	case *ast.Ident:
		obj := info.Uses[dst]
		return obj != nil && na.params[obj]
	case *ast.SelectorExpr:
		obj := info.Uses[dst.Sel]
		if obj == nil {
			return false
		}
		if na.anns.Arena[obj] {
			return true
		}
		// Selector rooted at a parameter (e.g. appending to a field of
		// a caller-owned struct pointer).
		if root, ok := rootIdent(dst); ok {
			if robj := info.Uses[root]; robj != nil && na.params[robj] {
				return true
			}
		}
		return false
	case *ast.SliceExpr:
		return na.allowedAppendDst(ast.Unparen(dst.X))
	}
	return false
}

func rootIdent(e ast.Expr) (*ast.Ident, bool) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x, true
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil, false
		}
	}
}

func (na *noAllocRun) checkCompositeLit(lit *ast.CompositeLit, fd *ast.FuncDecl) {
	t := na.pass.TypesInfo.TypeOf(lit)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Map:
		na.pass.Reportf(lit.Pos(), "map literal allocates in //ltc:noalloc function %s", fd.Name.Name)
	case *types.Slice:
		na.pass.Reportf(lit.Pos(), "slice literal allocates in //ltc:noalloc function %s", fd.Name.Name)
	}
}

// checkCallArgs flags arguments whose assignment to an interface parameter
// boxes a non-pointer-shaped value.
func (na *noAllocRun) checkCallArgs(call *ast.CallExpr, sig *types.Signature, fd *ast.FuncDecl) {
	info := na.pass.TypesInfo
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // slice passed through, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if isBoxingConversion(info.TypeOf(arg), pt) {
			na.pass.Reportf(arg.Pos(),
				"passing %s as interface %s boxes and allocates in //ltc:noalloc function %s",
				info.TypeOf(arg), pt, fd.Name.Name)
		}
	}
}

func (na *noAllocRun) checkInterfaceAssign(n *ast.AssignStmt, fd *ast.FuncDecl) {
	info := na.pass.TypesInfo
	if len(n.Lhs) != len(n.Rhs) {
		return
	}
	for i := range n.Lhs {
		lt := info.TypeOf(n.Lhs[i])
		rt := info.TypeOf(n.Rhs[i])
		if isBoxingConversion(rt, lt) {
			na.pass.Reportf(n.Rhs[i].Pos(),
				"assigning %s to interface %s boxes and allocates in //ltc:noalloc function %s", rt, lt, fd.Name.Name)
		}
	}
}

// checkInterfaceValueSpec is checkInterfaceAssign for `var i I = x` forms.
func (na *noAllocRun) checkInterfaceValueSpec(n *ast.ValueSpec, fd *ast.FuncDecl) {
	info := na.pass.TypesInfo
	if len(n.Names) != len(n.Values) {
		return
	}
	for i, name := range n.Names {
		lt := info.TypeOf(name)
		rt := info.TypeOf(n.Values[i])
		if isBoxingConversion(rt, lt) {
			na.pass.Reportf(n.Values[i].Pos(),
				"assigning %s to interface %s boxes and allocates in //ltc:noalloc function %s", rt, lt, fd.Name.Name)
		}
	}
}

func (na *noAllocRun) checkInterfaceReturn(n *ast.ReturnStmt, fd *ast.FuncDecl) {
	info := na.pass.TypesInfo
	obj, _ := info.Defs[fd.Name].(*types.Func)
	if obj == nil {
		return
	}
	results := obj.Type().(*types.Signature).Results()
	if results.Len() != len(n.Results) {
		return
	}
	for i, r := range n.Results {
		if isBoxingConversion(info.TypeOf(r), results.At(i).Type()) {
			na.pass.Reportf(r.Pos(),
				"returning %s as interface %s boxes and allocates in //ltc:noalloc function %s",
				info.TypeOf(r), results.At(i).Type(), fd.Name.Name)
		}
	}
}

func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// isBoxingConversion reports whether assigning a value of type from to type
// to converts a non-interface, non-pointer-shaped value into an interface,
// which allocates. Pointer-shaped types (pointers, channels, maps, funcs,
// unsafe.Pointer) are stored directly in the interface word.
func isBoxingConversion(from, to types.Type) bool {
	if from == nil || to == nil {
		return false
	}
	if !types.IsInterface(to) || types.IsInterface(from) {
		return false
	}
	if from == types.Typ[types.UntypedNil] {
		return false
	}
	switch from.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	case *types.Basic:
		if from.Underlying().(*types.Basic).Kind() == types.UnsafePointer {
			return false
		}
	}
	return true
}

func isStringSliceConv(from, to types.Type) bool {
	return (isString(from) && isByteOrRuneSlice(to)) || (isByteOrRuneSlice(from) && isString(to))
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}
