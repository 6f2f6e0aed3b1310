// Package deadexport keeps dead code out of internal/: it flags every
// exported package-level name or method, declared in a non-test file of an
// internal package, that no non-test file in the module references outside
// the name's own declaration. Under internal/ an export has no callers
// beyond the module, so one that only tests reach is code the engine
// carries and never runs — it and the tests that exist only for it go.
//
// A method also counts as referenced when its receiver type implements an
// interface that non-test code uses (or that fmt consults by assertion:
// error, fmt.Stringer) and the interface declares the method — that is
// how BlockStore's ReadAt or an io.Writer's Write is called. A package
// whose non-test files import testing is test support (analysistest), so
// its exports exist for tests and are not checked.
//
// The check needs every package at once, so it is a ModuleAnalyzer: cmd/lint
// runs it once over all loaded packages. A finding is suppressed by the
// usual justified //nolint:deadexport directive on the declaration.
package deadexport

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"dualindex/internal/analysis/framework"
)

// Analyzer checks that every internal export has a non-test caller.
var Analyzer = &framework.ModuleAnalyzer{
	Name: "deadexport",
	Doc: "every exported name in internal/ is referenced by non-test code: " +
		"an export only tests reach is dead code, and goes with the tests that exist only for it",
	Run: run,
}

// A candidate is one exported declaration under internal/: its object, the
// source range of its own declaration (uses inside it do not count) and
// its name in findings.
type candidate struct {
	obj      types.Object
	name     string
	from, to token.Pos
	used     bool
}

// run collects the candidates, marks those a types.Info.Uses entry outside
// their own declaration references, and reports the rest that satisfy no
// used interface. Candidates are matched to uses by key, not by object: the
// loader imports a package's dependencies from export data, so another
// package's use of a name resolves to a different object than the one its
// source declares.
func run(pkgs []*framework.Package) []framework.Diagnostic {
	cands := map[string]*candidate{}
	var order []*candidate
	recvIdents := map[*ast.Ident]bool{} // receiver type names: a method does not keep its type alive
	for _, pkg := range pkgs {
		if !internal(pkg.Path) || testSupport(pkg.Types) {
			continue
		}
		add := func(id *ast.Ident, name string, decl ast.Node) {
			if obj := pkg.Info.Defs[id]; obj != nil && id.IsExported() {
				c := &candidate{obj: obj, name: name, from: decl.Pos(), to: decl.End()}
				cands[key(obj)] = c
				order = append(order, c)
			}
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					name := pkg.Types.Name() + "." + d.Name.Name
					if d.Recv != nil {
						ast.Inspect(d.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								recvIdents[id] = true
							}
							return true
						})
						name = pkg.Types.Name() + "." + recvName(d.Recv.List[0].Type) + "." + d.Name.Name
					}
					add(d.Name, name, d)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							add(s.Name, pkg.Types.Name()+"."+s.Name.Name, s)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								add(id, pkg.Types.Name()+"."+id.Name, s)
							}
						}
					}
				}
			}
		}
	}

	ifaces := implicitInterfaces()
	seen := map[types.Type]bool{}
	for _, pkg := range pkgs {
		for id, obj := range pkg.Info.Uses {
			if c := cands[key(obj)]; c != nil && !recvIdents[id] && (id.Pos() < c.from || id.Pos() >= c.to) {
				c.used = true
			}
		}
		for _, tv := range pkg.Info.Types {
			ifaces = collectInterfaces(tv.Type, seen, ifaces)
		}
		for _, obj := range pkg.Info.Defs {
			if obj != nil {
				ifaces = collectInterfaces(obj.Type(), seen, ifaces)
			}
		}
	}

	var out []framework.Diagnostic
	for _, c := range order {
		if c.used || satisfiesUsedInterface(c.obj, ifaces) {
			continue
		}
		out = append(out, framework.Diagnostic{
			Pos: c.obj.Pos(),
			Message: c.name + " is exported but no non-test code references it: " +
				"delete it and the tests that exist only for it",
		})
	}
	return out
}

// internal reports whether the import path lies under an internal/ tree.
func internal(path string) bool {
	return strings.HasPrefix(path, "internal/") || strings.Contains(path, "/internal/")
}

// testSupport reports whether the package's non-test files import testing.
func testSupport(pkg *types.Package) bool {
	for _, imp := range pkg.Imports() {
		if imp.Path() == "testing" {
			return true
		}
	}
	return false
}

// recvName is the receiver's type name, without pointer or type parameters.
func recvName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return "?"
		}
	}
}

// key names a package-level object or a method as "path.Name" or
// "path.Type.Method", the same for its source and export-data objects; it is
// "" for anything else (locals, fields, interface methods never match).
func key(obj types.Object) string {
	if obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			return obj.Pkg().Path() + "." + typeName(recv.Type()) + "." + fn.Name()
		}
	}
	if obj.Pkg().Scope().Lookup(obj.Name()) != obj {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// typeName is a receiver type's name, through a pointer.
func typeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// implicitInterfaces are the interfaces fmt finds by type assertion, which
// therefore call their methods without any code naming them.
func implicitInterfaces() []*types.Interface {
	str := types.NewSignatureType(nil, nil, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, nil, "", types.Typ[types.String])), false)
	stringer := types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "String", str)}, nil).Complete()
	return []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface), stringer}
}

// collectInterfaces appends every interface with methods that t names or
// mentions through pointers, containers and signatures.
func collectInterfaces(t types.Type, seen map[types.Type]bool, out []*types.Interface) []*types.Interface {
	if t == nil || seen[t] {
		return out
	}
	seen[t] = true
	switch t := t.(type) {
	case *types.Named:
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			out = append(out, it)
		}
	case *types.Interface:
		if t.NumMethods() > 0 {
			out = append(out, t)
		}
	case *types.Pointer:
		out = collectInterfaces(t.Elem(), seen, out)
	case *types.Slice:
		out = collectInterfaces(t.Elem(), seen, out)
	case *types.Array:
		out = collectInterfaces(t.Elem(), seen, out)
	case *types.Chan:
		out = collectInterfaces(t.Elem(), seen, out)
	case *types.Map:
		out = collectInterfaces(t.Key(), seen, out)
		out = collectInterfaces(t.Elem(), seen, out)
	case *types.Signature:
		for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
			for i := 0; i < tup.Len(); i++ {
				out = collectInterfaces(tup.At(i).Type(), seen, out)
			}
		}
	}
	return out
}

// satisfiesUsedInterface reports whether obj is a method whose receiver
// type implements one of ifaces that declares a method of the same name.
func satisfiesUsedInterface(obj types.Object, ifaces []*types.Interface) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	mset := types.NewMethodSet(types.NewPointer(t))
	for _, it := range ifaces {
		if _, declares := lookupMethod(it, fn.Name()); declares && implements(mset, it) {
			return true
		}
	}
	return false
}

// implements is types.Implements compared by method name and signature
// text, which holds across the source and export-data copies of a type.
func implements(mset *types.MethodSet, it *types.Interface) bool {
	for i := 0; i < it.NumMethods(); i++ {
		m := it.Method(i)
		sel := mset.Lookup(m.Pkg(), m.Name())
		if sel == nil || sigString(sel.Obj().Type().(*types.Signature)) != sigString(m.Type().(*types.Signature)) {
			return false
		}
	}
	return true
}

func lookupMethod(it *types.Interface, name string) (*types.Func, bool) {
	for i := 0; i < it.NumMethods(); i++ {
		if m := it.Method(i); m.Name() == name {
			return m, true
		}
	}
	return nil, false
}

// sigString prints a signature's parameter and result types, without
// names and with every named type qualified by its full import path.
func sigString(sig *types.Signature) string {
	qual := func(p *types.Package) string { return p.Path() }
	var b strings.Builder
	for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < tup.Len(); i++ {
			t := types.Unalias(tup.At(i).Type())
			if it, ok := t.(*types.Interface); ok && it.Empty() {
				// Export data's any and source's interface{} print apart.
				t = types.Universe.Lookup("any").Type()
			}
			b.WriteString(types.TypeString(t, qual))
			b.WriteByte(',')
		}
		b.WriteByte(')')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}
