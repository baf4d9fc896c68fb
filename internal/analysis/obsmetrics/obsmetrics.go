// Package obsmetrics enforces the part of SubDEx's metric-registry and
// wide-event discipline that nothing at run time can see:
//
//  1. The name of every (*obs.Registry).Counter / Gauge / Histogram call
//     is a compile-time string constant — names must be greppable, and
//     the naming test can only vouch for names it can scrape.
//  2. Registration calls appear only in constructor-shaped functions
//     (New*/new*/init): PR 1 shipped — and review had to catch — a
//     per-request reg.Histogram lookup in the HTTP middleware hot path,
//     a mutex acquisition per request that the registry's own doc
//     comment forbids. Resolve instruments once, then hammer them.
//  3. Flight-recorder wide events obey the same field discipline as
//     metric labels: every (*obs.WideEvent).Set key is a compile-time
//     snake_case string, and a field name is never reused with a value
//     of a different static type — queries over dumped JSONL (and the
//     /debug/flightrecorder?trace= filter) assume one name means one
//     shape everywhere. The check crosses packages via package facts.
//
// What a name must look like (subdex_ prefix, unit suffix by kind) is
// checked on a live /metrics scrape by internal/daemon's
// TestMetricNamesSayWhatTheyMeasure — rule 2 is why one scrape sees every
// instrument — and a name re-registered with another kind, help text or
// label-key set panics in obs.Registry itself.
//
// Test files are exempt, as is the obs package itself (it defines the
// API).
package obsmetrics

import (
	"encoding/json"
	"go/ast"
	"go/types"
	"regexp"
	"strings"

	"subdex/internal/analysis/framework"
)

// Analyzer is the obsmetrics check.
var Analyzer = &framework.Analyzer{
	Name: "obsmetrics",
	Doc:  "literal metric names, constructor-only registry lookups, and one snake_case name and one value type per wide-event field",
	Run:  run,
}

// obsPkgSuffix identifies the registry's package; suffix matching lets
// test fixtures provide a stand-in "obs" package.
const obsPkgSuffix = "internal/obs"

// fieldRx is the mandatory shape of a wide-event field key: snake_case,
// no leading/trailing/doubled underscores.
var fieldRx = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)

// fieldReg is one wide-event field's first-seen metadata.
type fieldReg struct {
	Type string `json:"type"` // static value type; "" = not statically known
	Pos  string `json:"pos"`  // "file:line" of the first Set
}

// fact is the package fact: every wide-event field the package sets.
type fact struct {
	Fields map[string]fieldReg `json:"fields,omitempty"`
}

func run(pass *framework.Pass) error {
	if isObsPackage(pass.Path()) {
		return nil
	}

	// Seed the field view with facts from already-analyzed packages so a
	// cross-package reshaping is diagnosed at the later site.
	seenFields := make(map[string]fieldReg)
	for _, pf := range pass.ImportedFacts() {
		var f fact
		if err := json.Unmarshal(pf.Fact, &f); err != nil {
			continue
		}
		for name, fr := range f.Fields {
			if _, ok := seenFields[name]; !ok {
				seenFields[name] = fr
			}
		}
	}
	local := fact{Fields: make(map[string]fieldReg)}

	framework.WalkStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isWideEventSet(pass, call) {
			if !framework.IsTestFile(pass.Fset, call.Pos()) {
				checkWideField(pass, call, seenFields, local.Fields)
			}
			return true
		}
		if !isRegistryCall(pass, call) || framework.IsTestFile(pass.Fset, call.Pos()) {
			return true
		}
		checkConstructorContext(pass, call, stack)
		if _, ok := framework.ConstString(pass.TypesInfo, call.Args[0]); !ok {
			pass.Reportf(call.Args[0].Pos(),
				"metric name must be a string literal or constant (dynamic names defeat dashboards and the naming test)")
		}
		return true
	})

	return pass.ExportFact(local)
}

// isObsPackage reports whether path is the obs package itself.
func isObsPackage(path string) bool {
	return framework.PathHasSuffix(path, obsPkgSuffix) || path == "obs"
}

// isRegistryCall reports whether call is a registration on obs.Registry.
func isRegistryCall(pass *framework.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || len(call.Args) < 2 {
		return false
	}
	if m := sel.Sel.Name; m != "Counter" && m != "Gauge" && m != "Histogram" {
		return false
	}
	selection, ok := pass.TypesInfo.Selections[sel]
	if !ok {
		return false
	}
	recv := selection.Recv()
	return framework.NamedTypeIn(recv, obsPkgSuffix, "Registry") || framework.NamedTypeIn(recv, "obs", "Registry")
}

// isWideEventSet reports whether call is (*obs.WideEvent).Set.
func isWideEventSet(pass *framework.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Set" || len(call.Args) != 2 {
		return false
	}
	selection, ok := pass.TypesInfo.Selections[sel]
	if !ok {
		return false
	}
	recv := selection.Recv()
	return framework.NamedTypeIn(recv, obsPkgSuffix, "WideEvent") ||
		framework.NamedTypeIn(recv, "obs", "WideEvent")
}

// checkWideField enforces rule 3 on one Set call, against both imported
// facts and earlier Sets in this package.
func checkWideField(pass *framework.Pass, call *ast.CallExpr, seen, local map[string]fieldReg) {
	key, ok := framework.ConstString(pass.TypesInfo, call.Args[0])
	if !ok {
		pass.Reportf(call.Args[0].Pos(),
			"wide-event field key must be a string literal or constant (dynamic keys defeat dump queries and the field-shape check)")
		return
	}
	if !fieldRx.MatchString(key) {
		pass.Reportf(call.Args[0].Pos(),
			"wide-event field key %q is not snake_case ([a-z0-9] words joined by single underscores)", key)
		return
	}
	fr := fieldReg{
		Type: valueTypeString(pass, call.Args[1]),
		Pos:  pass.Fset.Position(call.Pos()).String(),
	}
	for _, prev := range [2]map[string]fieldReg{local, seen} {
		p, ok := prev[key]
		if !ok {
			continue
		}
		if fr.Type != "" && p.Type != "" && fr.Type != p.Type {
			pass.Reportf(call.Pos(),
				"wide-event field %q set with type %s (was %s at %s): one field name, one shape",
				key, fr.Type, p.Type, p.Pos)
		}
		return
	}
	local[key] = fr
}

// valueTypeString renders the static type of a Set value, with untyped
// constants defaulted ("" when the type is not known).
func valueTypeString(pass *framework.Pass, e ast.Expr) string {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return ""
	}
	return types.Default(tv.Type).String()
}

// checkConstructorContext enforces rule 2: the (topmost) named function
// around the call must be constructor-shaped.
func checkConstructorContext(pass *framework.Pass, call *ast.CallExpr, stack []ast.Node) {
	name := framework.EnclosingFuncName(stack)
	if name == "" {
		// Package-level var initializer: resolved once at init time, which
		// is exactly the discipline.
		return
	}
	if name == "init" || strings.HasPrefix(name, "New") || strings.HasPrefix(name, "new") {
		return
	}
	pass.Reportf(call.Pos(),
		"registry lookup in %s: instruments must be resolved in a constructor (New*/new*/init) and stored, not looked up on the hot path (each lookup takes the registry mutex)", name)
}
