package analyzers

import (
	"go/ast"

	"kdash/tools/kdashvet/internal/framework"
)

// CtxCancel enforces the cancellation contract on the query path: inside
// functions annotated //kdash:ctxloop, every loop that performs shard
// solves (a call whose name contains "solve", "search" or "topk") must
// consult a context between iterations — either directly (ctx.Err() /
// ctx.Done(), possibly behind a nil guard) or by passing the context
// into the per-iteration call. A solve loop that never looks at
// SearchOptions.Ctx turns a client disconnect into minutes of dead work
// and is exactly the regression the 499-tracking serve path exists to
// prevent.
var CtxCancel = &framework.Analyzer{
	Name: "ctxcancel",
	Doc:  "requires //kdash:ctxloop solve loops to consult a context between iterations",
	Run:  runCtxCancel,
}

func runCtxCancel(pass *framework.Pass) error {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !framework.FuncDirectives(fd)["ctxloop"] {
				continue
			}
			checkCtxLoops(pass, fd)
		}
	}
	return nil
}

func checkCtxLoops(pass *framework.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch n := n.(type) {
		case *ast.ForStmt:
			body = n.Body
		case *ast.RangeStmt:
			body = n.Body
		default:
			return true
		}
		if !loopSolves(pass, body) {
			return true // scan/accumulate loops are exempt
		}
		if !loopConsultsCtx(pass, body) {
			pass.Reportf(n.Pos(), "solve loop in //kdash:ctxloop function %s never consults a context between iterations (check SearchOptions.Ctx, or pass it into the per-iteration call)", fd.Name.Name)
		}
		return true
	})
	return
}

// loopSolves reports whether the loop body performs per-iteration solve
// or search work.
func loopSolves(pass *framework.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if callNameContains(pass.TypesInfo, call, "solve", "search", "topk") {
				found = true
			}
		}
		return !found
	})
	return found
}

// loopConsultsCtx reports whether any expression of type context.Context
// is used inside the body — an Err/Done check or delegation of the
// context into a callee both qualify.
func loopConsultsCtx(pass *framework.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok {
			if tv, ok := pass.TypesInfo.Types[e]; ok && tv.Type != nil && isContext(tv.Type) {
				found = true
			}
		}
		return !found
	})
	return found
}
