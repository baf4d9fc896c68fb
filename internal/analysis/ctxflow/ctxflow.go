// Package ctxflow enforces SubDEx's context-propagation discipline,
// the plumbing that deadline-aware cancellation (PR 2) relies on: a
// context that is dropped, renamed, or minted mid-library silently
// detaches the engine from the caller's deadline, and the failure mode
// is "step never degrades, request never times out" — invisible until
// production.
//
// Rules:
//
//  1. Any function taking a context.Context takes it as its first
//     parameter, named ctx.
//  2. Library code never calls context.Background() or context.TODO().
//     The permitted exceptions, matching the documented conventions:
//     - main packages (an entry point owns its root context),
//     - test files,
//     - the XCtx compatibility shims: inside a function named F whose
//     body calls F+"Ctx" — the one-line wrappers (engine.TopMaps,
//     core.Session.Step, core.Explorer.RMSet) that keep the pre-context
//     API alive by delegating to the context-aware implementation,
//     - a call annotated `//subdex:ctxflow <reason>` (trailing or on the
//     line above), reason mandatory: the one in the module is the nil-ctx
//     normalization of the nil-safe obs.StartSpan.
package ctxflow

import (
	"go/ast"
	"go/types"

	"subdex/internal/analysis/framework"
)

// Analyzer is the ctxflow check.
var Analyzer = &framework.Analyzer{
	Name: "ctxflow",
	Doc:  "context.Context first and named ctx; no context.Background/TODO outside main, tests, XCtx shims, and //subdex:ctxflow annotated calls",
	Run:  run,
}

func run(pass *framework.Pass) error {
	isMain := pass.Pkg.Name() == "main"

	framework.WalkStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		if framework.IsTestFile(pass.Fset, n.Pos()) {
			return false
		}
		switch node := n.(type) {
		case *ast.FuncDecl:
			checkSignature(pass, node.Type)
		case *ast.FuncLit:
			checkSignature(pass, node.Type)
		case *ast.CallExpr:
			if !isMain {
				checkRootContextCall(pass, node, stack)
			}
		}
		return true
	})
	return nil
}

// checkSignature enforces rule 1 on one function signature.
func checkSignature(pass *framework.Pass, ft *ast.FuncType) {
	if ft.Params == nil {
		return
	}
	paramIdx := 0
	for _, field := range ft.Params.List {
		names := len(field.Names)
		if names == 0 {
			names = 1 // unnamed parameter
		}
		if isContextType(pass.TypesInfo.Types[field.Type].Type) {
			if paramIdx != 0 {
				pass.Reportf(field.Pos(), "context.Context must be the first parameter")
			}
			for _, name := range field.Names {
				if name.Name != "ctx" && name.Name != "_" {
					pass.Reportf(name.Pos(), "context.Context parameter must be named ctx, not %s", name.Name)
				}
			}
			if len(field.Names) > 1 {
				pass.Reportf(field.Pos(), "a function takes at most one context.Context")
			}
		}
		paramIdx += names
	}
}

// checkRootContextCall enforces rule 2 on one call expression.
func checkRootContextCall(pass *framework.Pass, call *ast.CallExpr, stack []ast.Node) {
	fn := framework.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return
	}
	if fn.Name() != "Background" && fn.Name() != "TODO" {
		return
	}
	if inXCtxShim(stack) {
		return
	}
	file := framework.FileOf(pass.Files, call.Pos())
	if reason, found := framework.Annotation(pass.Fset, file, call, "ctxflow"); found {
		if reason == "" {
			pass.Reportf(call.Pos(), "//subdex:ctxflow needs a reason: say why no caller deadline is severed here")
		}
		return
	}
	pass.Reportf(call.Pos(),
		"context.%s() in library code severs caller cancellation; thread a ctx parameter, or make this an XCtx shim (a function F whose body delegates to FCtx)", fn.Name())
}

// inXCtxShim reports whether the call sits inside a function named F
// whose body calls F+"Ctx" — the compatibility-shim convention.
func inXCtxShim(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		fd, ok := stack[i].(*ast.FuncDecl)
		if !ok {
			continue
		}
		target := fd.Name.Name + "Ctx"
		found := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch fun := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				found = found || fun.Name == target
			case *ast.SelectorExpr:
				found = found || fun.Sel.Name == target
			}
			return !found
		})
		return found
	}
	return false
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	return t != nil && framework.NamedTypeIn(t, "context", "Context")
}
