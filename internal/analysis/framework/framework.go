// Package framework is a self-contained reimplementation of the core of
// golang.org/x/tools/go/analysis, built only on the standard library's
// go/ast, go/types and go/importer packages.
//
// The real x/tools module is not vendored into this repository (SubDEx
// carries zero third-party dependencies by policy), so this package
// provides the same three-legged contract the upstream framework does:
//
//   - Analyzer / Pass / Diagnostic: an analyzer receives one type-checked
//     package per Pass and reports findings through Pass.Report.
//   - Package facts: an analyzer may export one JSON-serializable fact
//     blob per package and observe the facts of previously analyzed
//     packages, enabling cross-package invariants (lockorder composes
//     the module's lock-acquisition graph this way).
//   - One driver (load.go, Main): it loads the module's packages via
//     `go list -export`, analyzes them in dependency order in one
//     process and threads one in-memory FactStore through the run.
//
// The API deliberately mirrors x/tools so analyzers could be ported to
// the upstream framework by changing imports alone.
package framework

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one static check. Name must be a valid identifier; Doc
// is the one-paragraph description shown by `subdexvet help`.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Diagnostic is one finding, positioned in the analyzed package's file
// set.
type Diagnostic struct {
	Pos      token.Pos
	Position token.Position // resolved from Pos by the driver
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Position, d.Analyzer, d.Message)
}

// A Pass presents one type-checked package to one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
	store  FactStore
}

// Path returns the import path of the package under analysis.
func (p *Pass) Path() string { return p.Pkg.Path() }

// Report records a finding.
func (p *Pass) Report(pos token.Pos, msg string) {
	p.report(Diagnostic{Pos: pos, Position: p.Fset.Position(pos), Analyzer: p.Analyzer.Name, Message: msg})
}

// Reportf is Report with formatting.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(pos, fmt.Sprintf(format, args...))
}

// ExportFact stores this analyzer's package fact for the package under
// analysis. v must marshal to JSON. Calling it twice overwrites.
func (p *Pass) ExportFact(v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	byPkg := p.store[p.Analyzer.Name]
	if byPkg == nil {
		byPkg = make(map[string]json.RawMessage)
		p.store[p.Analyzer.Name] = byPkg
	}
	byPkg[p.Path()] = raw
	return nil
}

// ImportedFacts returns the facts this analyzer exported for previously
// analyzed packages, keyed by package path, in sorted-path order. The
// pass's own package is excluded.
func (p *Pass) ImportedFacts() []PackageFact {
	byPkg := p.store[p.Analyzer.Name]
	if len(byPkg) == 0 {
		return nil
	}
	paths := make([]string, 0, len(byPkg))
	for path := range byPkg {
		if path != p.Path() {
			paths = append(paths, path)
		}
	}
	sort.Strings(paths)
	out := make([]PackageFact, 0, len(paths))
	for _, path := range paths {
		out = append(out, PackageFact{Path: path, Fact: byPkg[path]})
	}
	return out
}

// PackageFact pairs a package path with the raw fact an analyzer
// exported for it.
type PackageFact struct {
	Path string
	Fact json.RawMessage
}

// FactStore accumulates facts across packages: analyzer name → package
// path → raw JSON fact. The driver threads one store through a run.
type FactStore map[string]map[string]json.RawMessage

// A Package is one loaded, type-checked package, ready for analysis; its
// import path is Types.Path().
type Package struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// Analyze runs every analyzer over pkg, reading and writing facts in
// store, and returns the findings sorted by position.
func Analyze(pkg *Package, analyzers []*Analyzer, store FactStore) ([]Diagnostic, error) {
	if store == nil {
		store = make(FactStore)
	}
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			store:     store,
			report:    func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: analyzer %s: %w", pkg.Types.Path(), a.Name, err)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := diags[i].Position, diags[j].Position
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// NewTypesInfo allocates a types.Info with every map populated — the
// shape the driver and the analysistest harness feed to analyzers.
func NewTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Instances:  make(map[*ast.Ident]types.Instance),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// ---------------------------------------------------------------------------
// Shared analyzer helpers
// ---------------------------------------------------------------------------

// IsTestFile reports whether pos sits in a _test.go file. Every SubDEx
// analyzer exempts test files: tests may use context.Background, range
// maps freely, and register scratch metrics.
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// FileOf returns the *ast.File of files containing pos, or nil.
func FileOf(files []*ast.File, pos token.Pos) *ast.File {
	for _, f := range files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// Annotation looks for a `//subdex:<marker> <reason>` suppression
// comment attached to node: either trailing on the node's first line or
// as the last line of a comment ending on the line immediately above.
// It returns the reason text and whether the annotation was found.
func Annotation(fset *token.FileSet, file *ast.File, node ast.Node, marker string) (reason string, found bool) {
	if file == nil {
		return "", false
	}
	nodeLine := fset.Position(node.Pos()).Line
	prefix := "//subdex:" + marker
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, prefix) {
				continue
			}
			line := fset.Position(c.Pos()).Line
			if line == nodeLine || line == nodeLine-1 {
				rest := strings.TrimPrefix(c.Text, prefix)
				return strings.TrimSpace(rest), true
			}
		}
	}
	return "", false
}

// EnclosingFuncName returns the name of the innermost *named* function
// declaration in stack (a path of AST nodes from the file root to some
// node), and "" when the node is not inside a FuncDecl. Function
// literals are transparent: a call inside a closure inside NewServer is
// attributed to NewServer.
func EnclosingFuncName(stack []ast.Node) string {
	for i := len(stack) - 1; i >= 0; i-- {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			return fd.Name.Name
		}
	}
	return ""
}

// WalkStack traverses every file, invoking fn with each node and the
// stack of its ancestors (outermost first, not including the node
// itself). Returning false skips the node's children.
func WalkStack(files []*ast.File, fn func(node ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			descend := fn(n, stack)
			if descend {
				stack = append(stack, n)
			}
			return descend
		})
	}
}

// NamedTypeIn reports whether t (after pointer indirection) is the named
// type pkgSuffix.typeName, where pkgSuffix matches the defining
// package's path exactly or as a "/"-delimited suffix. Suffix matching
// lets testdata fixtures stand in for real packages (a fixture package
// "obs" matches the same rules as "subdex/internal/obs").
func NamedTypeIn(t types.Type, pkgSuffix, typeName string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != typeName || obj.Pkg() == nil {
		return false
	}
	return PathHasSuffix(obj.Pkg().Path(), pkgSuffix)
}

// PathHasSuffix reports whether path equals one of suffixes or ends with
// "/"+suffix — how an analyzer scopes itself to a package list.
func PathHasSuffix(path string, suffixes ...string) bool {
	for _, suffix := range suffixes {
		if path == suffix || strings.HasSuffix(path, "/"+suffix) {
			return true
		}
	}
	return false
}

// CalleeFunc resolves the *types.Func a call expression invokes (through
// selections and qualified identifiers), or nil for calls to function
// values, built-ins, and type conversions.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			obj = sel.Obj()
		} else {
			obj = info.Uses[fun.Sel] // qualified identifier pkg.F
		}
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// ConstString returns the compile-time string value of expr, if it has
// one (string literal, named constant, or constant expression).
func ConstString(info *types.Info, expr ast.Expr) (string, bool) {
	tv, ok := info.Types[expr]
	if !ok || tv.Value == nil {
		return "", false
	}
	if tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
