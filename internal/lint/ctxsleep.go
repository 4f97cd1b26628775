package lint

import (
	"go/ast"
)

// CtxSleep flags time.Sleep inside a loop in library code: a sleep-based
// retry/poll loop is blind to the caller's context — it keeps burning the
// deadline (and the worker) after cancellation. Such loops must wait in an
// explicit timer/ctx select. A one-shot sleep outside a loop, main
// packages and _test.go files stay legal; a reviewed exception carries a
// //lint:ignore ctxsleep directive.
var CtxSleep = &Analyzer{
	Name: "ctxsleep",
	Doc:  "no time.Sleep retry loops in library code: use a timer/ctx select",
	Run:  runCtxSleep,
}

func runCtxSleep(pass *Pass) {
	if pass.Pkg.IsMain() {
		return
	}
	for _, f := range pass.SourceFiles() {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch loop := n.(type) {
			case *ast.ForStmt:
				body = loop.Body
			case *ast.RangeStmt:
				body = loop.Body
			default:
				return true
			}
			checkLoopSleeps(pass, body)
			return true
		})
	}
}

// checkLoopSleeps reports every time.Sleep directly under a loop body.
// Function literals are skipped (a closure built inside the loop runs on
// its own schedule, not as the loop's backoff), and so are nested loops —
// the enclosing Inspect pass visits those itself, keeping each sleep
// reported exactly once.
func checkLoopSleeps(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncLit, *ast.ForStmt, *ast.RangeStmt:
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if pkgFunc(calleeFunc(pass.Pkg.Info, call)) == "time.Sleep" {
			pass.Reportf(call.Pos(), "time.Sleep in a loop is context-blind: use a timer/ctx select")
		}
		return true
	})
}
