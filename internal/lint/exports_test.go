package lint

import (
	"go/types"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestInternalExportsHaveCallers fails on every exported name in internal/...
// and cmd/... that no non-test file of the module uses. Such a name is dead
// code, or test scaffolding that belongs in a _test.go file. bench/ and
// examples/ count as callers. There is no allowlist.
func TestInternalExportsHaveCallers(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module")
	}
	pkgs, err := repoPackages()
	if err != nil {
		t.Fatalf("loading the module: %v", err)
	}
	inScope := func(path string) bool {
		return strings.HasPrefix(path, "ltc/internal/") || strings.HasPrefix(path, "ltc/cmd/")
	}
	for _, name := range deadExports(pkgs, inScope) {
		t.Errorf("%s is exported but only tests use it: delete it, or move it unexported into a _test.go file", name)
	}
}

// TestDeadExportsFixture runs the check over the exports fixture, whose
// dead names are exactly these.
func TestDeadExportsFixture(t *testing.T) {
	pkgs, err := loadPackages("testdata/src", "./exports/...")
	if err != nil {
		t.Fatalf("loading the fixture: %v", err)
	}
	const fixture = "ltc/internal/lint/testdata/src/exports"
	got := deadExports(pkgs, func(path string) bool { return path == fixture })
	want := []string{
		fixture + ".Other.Run", // same name as Runner's method, but Other is no Runner
		fixture + ".Unused",    // nothing calls it
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("dead exports = %q, want %q", got, want)
	}
}

// deadExports returns, sorted, the key (see objKey) of every exported
// package-level func, type, var and const, and every exported method of an
// exported type, that a package accepted by inScope declares and that no
// package in pkgs uses. (A method of an unexported type is no exported name:
// other packages reach it only when an exported type embeds the type.)
//
// A method also counts as used when its type, or a pointer to it, implements
// an interface that declares a method of that name: the module's own, or one
// of a package it imports (so String counts through fmt.Stringer). Calls
// through the interface never name the concrete method.
func deadExports(pkgs []*pkg, inScope func(path string) bool) []string {
	used := map[string]bool{}
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var addIfaces func(*types.Package)
	addIfaces = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		for _, name := range tp.Scope().Names() {
			if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, imp := range tp.Imports() {
			addIfaces(imp)
		}
	}
	for _, p := range pkgs {
		for _, obj := range p.info.Uses {
			if k := objKey(obj); k != "" {
				used[k] = true
			}
		}
		addIfaces(p.types)
	}

	var dead []string
	for _, p := range pkgs {
		if !inScope(p.types.Path()) {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !used[objKey(obj)] {
				dead = append(dead, objKey(obj))
			}
			tn, isType := obj.(*types.TypeName)
			named, isNamed := obj.Type().(*types.Named)
			if !isType || tn.IsAlias() || !isNamed || !obj.Exported() {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !used[objKey(m)] && !viaInterface(named, m.Name(), ifaces) {
					dead = append(dead, objKey(m))
				}
			}
		}
	}
	sort.Strings(dead)
	return dead
}

// objKey names a package-level object, or a method, by its package path,
// receiver type and name: "ltc/internal/flow.Network.Reset". Each package is
// type-checked against its imports' export data, so one declaration has a
// different types.Object in every package that sees it, but one key. Other
// objects (fields, locals, the universe) get "".
func objKey(obj types.Object) string {
	if obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Origin().Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				return obj.Pkg().Path() + "." + n.Origin().Obj().Name() + "." + obj.Name()
			}
			return ""
		}
	} else if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// viaInterface reports whether named or *named implements one of ifaces that
// declares a method called name.
func viaInterface(named *types.Named, name string, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == name && implements(types.NewPointer(named), it) {
				return true
			}
		}
	}
	return false
}

// implements is types.Implements for a type and an interface that may come
// from different type-checks: it compares method signatures as strings,
// where types.Implements would compare objects.
func implements(t types.Type, it *types.Interface) bool {
	ms := types.NewMethodSet(t)
	for i := 0; i < it.NumMethods(); i++ {
		m := it.Method(i)
		sel := ms.Lookup(m.Pkg(), m.Name())
		if sel == nil || sigString(sel.Obj().Type()) != sigString(m.Type()) {
			return false
		}
	}
	return true
}

// sigString spells a signature's parameter and result types, qualified by
// package path, without the parameter names that types.TypeString keeps.
func sigString(t types.Type) string {
	sig := t.(*types.Signature)
	qual := func(p *types.Package) string { return p.Path() }
	s := ""
	for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
		s += "("
		for i := 0; i < tup.Len(); i++ {
			s += types.TypeString(tup.At(i).Type(), qual) + ","
		}
		s += ")"
	}
	if sig.Variadic() {
		s += "..."
	}
	return s
}
