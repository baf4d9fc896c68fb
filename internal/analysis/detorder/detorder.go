// Package detorder guards the engine's bit-for-bit determinism
// invariant: PR 3's differential harness proves that sharded parallel
// accumulation equals the sequential scan exactly, and that proof is
// only as strong as the absence of map-iteration order in any path that
// feeds results. A `range` over a map in such a path reorders float
// additions (non-associative) and output sequences between runs.
//
// Within the determinism-critical packages (internal/engine and
// internal/ratingmap), non-test code may range over a map only when:
//
//   - it is the canonical collect-then-sort idiom — the loop body does
//     nothing but append keys (or values) to one slice, and that slice
//     is passed to sort.* / slices.Sort* later in the same function — or
//   - the statement is annotated `//subdex:orderinsensitive <reason>`
//     (trailing or on the line above), with a non-empty reason: the
//     author asserts the body commutes (pure max/min/int-sum reductions,
//     set membership fills) and says why.
//
// Everything else is an error.
package detorder

import (
	"go/ast"
	"go/types"

	"subdex/internal/analysis/framework"
)

// Analyzer is the detorder check.
var Analyzer = &framework.Analyzer{
	Name: "detorder",
	Doc:  "no map iteration in determinism-critical packages unless collect-and-sorted or annotated //subdex:orderinsensitive",
	Run:  run,
}

// criticalPkgs are the package-path suffixes under the determinism
// contract.
var criticalPkgs = []string{"internal/engine", "internal/ratingmap"}

func run(pass *framework.Pass) error {
	if !framework.PathHasSuffix(pass.Path(), criticalPkgs...) {
		return nil
	}

	framework.WalkStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if framework.IsTestFile(pass.Fset, rng.Pos()) {
			return false
		}
		tv, ok := pass.TypesInfo.Types[rng.X]
		if !ok || !isMap(tv.Type) {
			return true
		}

		file := framework.FileOf(pass.Files, rng.Pos())
		if reason, found := framework.Annotation(pass.Fset, file, rng, "orderinsensitive"); found {
			if reason == "" {
				pass.Reportf(rng.Pos(), "//subdex:orderinsensitive needs a reason: say why this loop commutes")
			}
			return true
		}
		if isCollectThenSort(pass, rng, stack) {
			return true
		}
		pass.Reportf(rng.Pos(),
			"map iteration order is nondeterministic and this package feeds bit-for-bit reproducible results; collect keys and sort them, or annotate //subdex:orderinsensitive <reason>")
		return true
	})
	return nil
}

// isMap reports whether t (possibly a named type) is a map.
func isMap(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// isCollectThenSort accepts the one blessed un-annotated shape: a body
// that only appends loop variables (or expressions over them) to a
// single slice, where that slice is sorted later in the same function.
func isCollectThenSort(pass *framework.Pass, rng *ast.RangeStmt, stack []ast.Node) bool {
	target := collectTarget(rng.Body)
	if target == "" {
		return false
	}
	// Find the innermost enclosing function body and scan statements after
	// the range statement for a sort call on the target.
	var fnBody *ast.BlockStmt
	for i := len(stack) - 1; i >= 0 && fnBody == nil; i-- {
		switch f := stack[i].(type) {
		case *ast.FuncDecl:
			fnBody = f.Body
		case *ast.FuncLit:
			fnBody = f.Body
		}
	}
	if fnBody == nil {
		return false
	}
	sorted := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		if isSortCall(pass, call, target) {
			sorted = true
		}
		return !sorted
	})
	return sorted
}

// collectTarget returns the name of the slice the body appends to, or ""
// when the body is anything but `target = append(target, ...)`
// statements onto one identifier.
func collectTarget(body *ast.BlockStmt) string {
	target := ""
	for _, stmt := range body.List {
		assign, ok := stmt.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
			return ""
		}
		lhs, ok := assign.Lhs[0].(*ast.Ident)
		if !ok {
			return ""
		}
		call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return ""
		}
		fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || fn.Name != "append" || len(call.Args) < 2 {
			return ""
		}
		first, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
		if !ok || first.Name != lhs.Name {
			return ""
		}
		if target != "" && target != lhs.Name {
			return "" // two different accumulation targets
		}
		target = lhs.Name
	}
	return target
}

// isSortCall reports whether call is sort.X(target, ...) or
// slices.SortX(target, ...).
func isSortCall(pass *framework.Pass, call *ast.CallExpr, target string) bool {
	fn := framework.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if pkg := fn.Pkg().Path(); pkg != "sort" && pkg != "slices" {
		return false
	}
	for _, arg := range call.Args {
		if id, ok := ast.Unparen(arg).(*ast.Ident); ok && id.Name == target {
			return true
		}
	}
	return false
}
