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
//  2. Library code never makes a root or detached context
//     (context.Background, context.TODO, context.WithoutCancel) unless
//     the call is annotated `//subdex:ctxflow <reason>` (trailing or on
//     the line above), reason mandatory. main packages (an entry point
//     owns its root context) and test files are exempt.
package ctxflow

import (
	"go/ast"
	"go/types"

	"subdex/internal/analysis/framework"
)

// Analyzer is the ctxflow check.
var Analyzer = &framework.Analyzer{
	Name: "ctxflow",
	Doc:  "context.Context first and named ctx; no context.Background/TODO/WithoutCancel outside main and tests unless annotated //subdex:ctxflow <reason>",
	Run:  run,
}

func run(pass *framework.Pass) error {
	isMain := pass.Pkg.Name() == "main"
	for _, file := range pass.Files {
		if framework.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.FuncDecl:
				checkSignature(pass, node.Type)
			case *ast.FuncLit:
				checkSignature(pass, node.Type)
			case *ast.CallExpr:
				if !isMain {
					checkRootContextCall(pass, file, node)
				}
			}
			return true
		})
	}
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
func checkRootContextCall(pass *framework.Pass, file *ast.File, call *ast.CallExpr) {
	fn := framework.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return
	}
	switch fn.Name() {
	case "Background", "TODO", "WithoutCancel":
	default:
		return
	}
	if reason, found := framework.Annotation(pass.Fset, file, call, "ctxflow"); found {
		if reason == "" {
			pass.Reportf(call.Pos(), "//subdex:ctxflow needs a reason: say why no caller deadline is severed here")
		}
		return
	}
	pass.Reportf(call.Pos(),
		"context.%s() in library code severs caller cancellation; thread a ctx parameter, or annotate //subdex:ctxflow <reason>", fn.Name())
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	return t != nil && framework.NamedTypeIn(t, "context", "Context")
}
