package lint

import (
	"go/ast"
)

// TimeAfter flags time.After used in a select statement that runs
// inside a loop. Each iteration allocates a fresh timer that is not
// released until it fires: in a long-lived worker loop with a long
// timeout and a busy channel, the timers pile up — a slow leak the
// runtime never reclaims early. A loop-level time.NewTimer (reset per
// iteration) or time.NewTicker holds one timer for the loop's whole
// life and is the idiom the repo's job watch path uses.
// One-shot selects outside loops are fine, as is time.After feeding a
// plain channel receive outside select.
var TimeAfter = &Check{
	Name: "timeafter",
	Doc:  "time.After in a select inside a loop allocates an uncollectable timer per iteration; hoist a time.NewTimer or NewTicker out of the loop",
	Run:  runTimeAfter,
}

func runTimeAfter(p *Pass) {
	for _, f := range p.Files() {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				walkLoopForSelectAfter(p, n)
				return false
			}
			return true
		})
	}
}

// walkLoopForSelectAfter scans one loop (and its nested loops) for
// select statements whose comm clauses call time.After. Function
// literals are skipped: a goroutine spawned per iteration owns its own
// lifetime, and its single select fires exactly one timer.
func walkLoopForSelectAfter(p *Pass, loop ast.Node) {
	ast.Inspect(loop, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectStmt:
			for _, clause := range node.Body.List {
				comm, ok := clause.(*ast.CommClause)
				if !ok || comm.Comm == nil {
					continue
				}
				ast.Inspect(comm.Comm, func(c ast.Node) bool {
					call, ok := c.(*ast.CallExpr)
					if !ok {
						return true
					}
					if fn := calleeFunc(p, call); fn != nil && fn.Pkg() != nil &&
						fn.Pkg().Path() == "time" && fn.Name() == "After" {
						p.Reportf(call.Pos(), "time.After in a select inside a loop allocates a timer every iteration; hoist a time.NewTimer (or NewTicker) out of the loop and reset it")
					}
					return true
				})
			}
		}
		return true
	})
}
