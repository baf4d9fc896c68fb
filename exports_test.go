package subdex_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"subdex/internal/analysis/framework"
)

// exportExceptions are the exports under internal/ that no program code
// reaches and that stay anyway, each with its reason. An entry names one
// export (pkg.Name, pkg.Type.Method, pkg.Type.Field) or a whole package
// (pkg), where pkg is the import path below subdex/internal/. An entry
// that matches nothing fails the census, so the list cannot outlive what
// it excuses.
var exportExceptions = []struct{ export, reason string }{
	{"cluster", "the cluster library leaves with bench/'s cluster_sweep (ROADMAP item 1); until then its tests drive more of it than bench/ does"},
}

// TestExportCensus holds program code to what a program calls: every
// export declared in the non-test Go under internal/ — function, method,
// type, field, constant and variable — needs a reference from non-test
// code, in the module or in bench/ (a module of its own that builds
// against this one). An export that only tests reach moves into test
// code: into its package's _test.go files, or into a test-support
// package (one whose name ends in "test", like leaktest) when other
// packages' tests need it. A test-support package's exports are test
// code and are not counted, and no program package may import one.
func TestExportCensus(t *testing.T) {
	found := exportCensus(t, "subdex/internal/", ".", "bench")
	left, stale := applyExceptions(found, exceptionNames())
	for _, e := range left {
		t.Errorf("%s: no program code reaches it; move it into test code or delete it", e)
	}
	for _, e := range stale {
		t.Errorf("exportExceptions names %s, which every export it covers no longer needs (or which no longer exists)", e)
	}
	t.Logf("%d exports reached only by tests, %d of them excepted", len(found), len(found)-len(left))
}

// TestExportCensusFixture runs the census over testdata/census, a module
// with one export of each kind the census must tell apart.
func TestExportCensusFixture(t *testing.T) {
	found := exportCensus(t, "censusfix/", filepath.Join("testdata", "census"))
	left, stale := applyExceptions(found, []string{"a.Unused", "a.Gone", "b"})
	if want := []string{"a.Lonely.Unset", "a.Planted", "a.T.Uncalled"}; !slices.Equal(left, want) {
		t.Errorf("flagged %q, want %q", left, want)
	}
	if want := []string{"a.Gone", "b"}; !slices.Equal(stale, want) {
		t.Errorf("stale exceptions %q, want %q", stale, want)
	}
}

func exceptionNames() []string {
	var names []string
	for _, e := range exportExceptions {
		names = append(names, e.export)
	}
	return names
}

// applyExceptions splits found into the exports no exception covers and
// the exceptions that cover none of found.
func applyExceptions(found, exceptions []string) (left, stale []string) {
	used := map[string]bool{}
	for _, f := range found {
		covered := false
		for _, e := range exceptions {
			if f == e || strings.HasPrefix(f, e+".") {
				used[e], covered = true, true
			}
		}
		if !covered {
			left = append(left, f)
		}
	}
	for _, e := range exceptions {
		if !used[e] {
			stale = append(stale, e)
		}
	}
	return left, stale
}

// An export is one exported identifier declared in program code.
type export struct {
	name   string      // pkg.Name, pkg.Type.Member; pkg relative to the scope
	key    string      // objKey of its object
	decl   token.Pos   // its declaration, from decl to end, whose own
	end    token.Pos   // references do not count
	method *types.Func // for a method: reached, too, through an interface it satisfies
}

// exportCensus loads the non-test Go of the module in dir and of each
// module in refDirs (relative to dir) and returns, sorted, the exports of
// the packages under scope (an import-path prefix) that nothing but their
// own declarations refers to. A method counts as called when a method of
// an interface it satisfies is called, and when it satisfies an interface
// of the standard library, whose callers the census cannot see. An
// embedded field is not counted, since it is there for what it promotes,
// nor is a method an interface declares, which is the interface's.
func exportCensus(t *testing.T, scope, dir string, refDirs ...string) []string {
	t.Helper()
	pkgs, err := framework.Load(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	all := slices.Clone(pkgs)
	for _, d := range refDirs {
		more, err := framework.Load(filepath.Join(dir, d), "./...")
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, more...)
	}

	inModule := map[string]bool{}
	for _, p := range pkgs {
		inModule[p.Types.Path()] = true
	}
	var exports []export
	for _, p := range pkgs {
		if isTestSupport(p.Types) {
			continue
		}
		for _, imp := range p.Types.Imports() {
			if inModule[imp.Path()] && isTestSupport(imp) {
				t.Errorf("%s imports the test-support package %s", p.Types.Path(), imp.Path())
			}
		}
		if strings.HasPrefix(p.Types.Path(), scope) {
			exports = append(exports, packageExports(p, strings.TrimPrefix(p.Types.Path(), scope))...)
		}
	}

	refs := map[string][]token.Position{}
	called := map[string][]*types.Interface{} // interface methods called, by name
	for _, p := range all {
		for id, obj := range p.TypesInfo.Uses {
			if obj.Pkg() != nil {
				k := objKey(p.Fset, obj)
				refs[k] = append(refs[k], p.Fset.Position(id.Pos()))
			}
		}
		for _, sel := range p.TypesInfo.Selections {
			if sel.Kind() == types.FieldVal {
				continue
			}
			if iface, ok := sel.Recv().Underlying().(*types.Interface); ok {
				called[sel.Obj().Name()] = append(called[sel.Obj().Name()], iface)
			}
		}
	}
	std := stdInterfaces(pkgs, inModule)

	fset := pkgs[0].Fset
	var unreached []string
	for _, e := range exports {
		if reached(fset, e, refs[e.key]) || (e.method != nil && (satisfiesAny(e.method, called) || satisfiesAny(e.method, std))) {
			continue
		}
		unreached = append(unreached, e.name)
	}
	slices.Sort(unreached)
	t.Logf("%d exports under %s", len(exports), scope)
	return unreached
}

// isTestSupport reports whether p is test code by name.
func isTestSupport(p *types.Package) bool { return strings.HasSuffix(p.Name(), "test") }

// objKey names obj the same way whether it was type-checked from source
// or read from another package's export data, which carries an object's
// file and line but is a universe of its own.
func objKey(fset *token.FileSet, obj types.Object) string {
	pos := fset.Position(obj.Pos())
	return obj.Pkg().Path() + " " + filepath.Base(pos.Filename) + ":" + strconv.Itoa(pos.Line) + " " + obj.Name()
}

// reached reports whether one of refs lies outside e's own declaration.
func reached(fset *token.FileSet, e export, refs []token.Position) bool {
	from, to := fset.Position(e.decl), fset.Position(e.end)
	for _, r := range refs {
		if r.Filename != from.Filename || r.Offset < from.Offset || r.Offset > to.Offset {
			return true
		}
	}
	return false
}

// packageExports lists the exports declared in p's files.
func packageExports(p *framework.Package, pkg string) []export {
	var out []export
	add := func(name string, id *ast.Ident, decl ast.Node, method *types.Func) {
		obj := p.TypesInfo.Defs[id]
		out = append(out, export{name: pkg + "." + name, key: objKey(p.Fset, obj), decl: decl.Pos(), end: decl.End(), method: method})
	}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					add(d.Name.Name, d.Name, d, nil)
					continue
				}
				fn := p.TypesInfo.Defs[d.Name].(*types.Func)
				add(recvName(fn)+"."+d.Name.Name, d.Name, d, fn)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if id.IsExported() {
								add(id.Name, id, id, nil)
							}
						}
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							add(s.Name.Name, s.Name, s.Name, nil)
						}
						ast.Inspect(s.Type, func(n ast.Node) bool {
							if st, ok := n.(*ast.StructType); ok {
								for _, field := range st.Fields.List {
									for _, id := range field.Names {
										if id.IsExported() {
											add(s.Name.Name+"."+id.Name, id, id, nil)
										}
									}
								}
							}
							return true
						})
					}
				}
			}
		}
	}
	return out
}

// recvName is the name of fn's receiver's type.
func recvName(fn *types.Func) string {
	t := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return t.(*types.Named).Obj().Name()
}

// stdInterfaces collects, by method name, the interfaces declared in the
// standard-library packages the module imports, directly or not.
func stdInterfaces(pkgs []*framework.Package, inModule map[string]bool) map[string][]*types.Interface {
	out := map[string][]*types.Interface{}
	addIface := func(iface *types.Interface) {
		for i := range iface.NumMethods() {
			out[iface.Method(i).Name()] = append(out[iface.Method(i).Name()], iface)
		}
	}
	addIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seen := map[string]bool{}
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if seen[p.Path()] {
			return
		}
		seen[p.Path()] = true
		if !inModule[p.Path()] {
			for _, name := range p.Scope().Names() {
				if obj, ok := p.Scope().Lookup(name).(*types.TypeName); ok && obj.Exported() {
					if iface, ok := obj.Type().Underlying().(*types.Interface); ok {
						addIface(iface)
					}
				}
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range pkgs {
		visit(p.Types)
	}
	return out
}

// satisfiesAny reports whether m's receiver type has every method of one
// of the interfaces in ifaces that declare m's name. Methods are matched
// by name and written signature, which read the same in every universe.
func satisfiesAny(m *types.Func, ifaces map[string][]*types.Interface) bool {
	recv := m.Type().(*types.Signature).Recv().Type()
	if _, ok := recv.(*types.Pointer); !ok {
		recv = types.NewPointer(recv)
	}
	ms := types.NewMethodSet(recv)
	have := map[string]string{}
	for i := range ms.Len() {
		fn := ms.At(i).Obj()
		have[fn.Name()] = sigString(fn.Type().(*types.Signature))
	}
	for _, iface := range ifaces[m.Name()] {
		all := true
		for i := range iface.NumMethods() {
			im := iface.Method(i)
			if have[im.Name()] != sigString(im.Type().(*types.Signature)) {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// sigString writes sig's parameter and result types, without their names.
func sigString(sig *types.Signature) string {
	var b strings.Builder
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteString("(")
		for i := range tuple.Len() {
			b.WriteString(types.TypeString(tuple.At(i).Type(), nil) + ",")
		}
		b.WriteString(")")
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}
