package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoroLeak flags goroutines launched inside loops with no visible exit
// path: the spawned body neither consults a context, nor performs any
// channel operation (a done/work channel), nor signals a
// sync.WaitGroup. One such goroutine per loop iteration is an
// unbounded leak — under sustained traffic the certification service
// would accrete them until the scheduler drowns, long after the
// requests that spawned them were abandoned.
//
// Named-function launches (`go worker(...)`) are exempt when an
// exit path is visible at or behind the call: an argument carrying a
// context, channel, or *sync.WaitGroup; a same-package callee whose
// body contains one; or a method receiver whose struct holds a
// channel, WaitGroup, or context field (the worker-pool shape).
var GoroLeak = &Check{
	Name: "goroleak",
	Doc:  "goroutine launched in a loop with no ctx/channel/WaitGroup exit path",
	Run:  runGoroLeak,
}

func runGoroLeak(p *Pass) {
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, f := range p.Files() {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := p.Info().Defs[fd.Name].(*types.Func); ok {
					decls[fn] = fd
				}
			}
		}
	}
	for _, f := range p.Files() {
		ast.Inspect(f, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.ForStmt:
				checkLoopGoStmts(p, node.Body, decls)
			case *ast.RangeStmt:
				checkLoopGoStmts(p, node.Body, decls)
			}
			return true
		})
	}
}

// checkLoopGoStmts flags exit-less go statements in a loop body. Only
// statements of this loop's own dynamic scope count — a nested
// function literal's loops are visited by runGoroLeak on their own.
func checkLoopGoStmts(p *Pass, body *ast.BlockStmt, decls map[*types.Func]*ast.FuncDecl) {
	inspectSameFunc(body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		if argsCarryExit(p, g.Call) {
			return true
		}
		if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
			if !hasExitPath(p, lit.Body) {
				p.Reportf(g.Pos(), "goroutine launched per loop iteration has no exit path (no context, channel operation, or WaitGroup); it leaks under sustained load")
			}
			return true
		}
		if fn := calleeFunc(p, g.Call); fn != nil {
			if decl, ok := decls[fn]; ok {
				if !hasExitPath(p, decl.Body) {
					p.Reportf(g.Pos(), "goroutine launched per loop iteration runs %s, which has no exit path (no context, channel operation, or WaitGroup)", fn.Name())
				}
				return true
			}
			if receiverCarriesExit(p, g.Call) {
				return true
			}
		}
		p.Reportf(g.Pos(), "goroutine launched per loop iteration passes no context, channel, or *sync.WaitGroup to its callee; nothing bounds its lifetime")
		return true
	})
}

// receiverCarriesExit reports whether a method launch's receiver
// struct holds a channel, WaitGroup, or context field — the shape of a
// worker pool whose exit protocol lives in shared state rather than in
// the argument list.
func receiverCarriesExit(p *Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	t := p.TypeOf(sel.X)
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		ft := st.Field(i).Type()
		if isContextType(ft) {
			return true
		}
		switch u := ft.Underlying().(type) {
		case *types.Chan:
			return true
		case *types.Pointer:
			if named, ok := u.Elem().(*types.Named); ok && isWaitGroupNamed(named) {
				return true
			}
		default:
			if named, ok := ft.(*types.Named); ok && isWaitGroupNamed(named) {
				return true
			}
		}
	}
	return false
}

// hasExitPath reports whether a spawned body contains any of the
// recognized liveness signals: a context-typed value, a channel
// operation (send, receive, close, select), or a WaitGroup method
// call.
func hasExitPath(p *Pass, body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch node := n.(type) {
		case *ast.SendStmt, *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if node.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if t := p.TypeOf(node.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(node.Fun).(*ast.Ident); ok && id.Name == "close" {
				if _, isBuiltin := p.Info().Uses[id].(*types.Builtin); isBuiltin {
					found = true
					break
				}
			}
			if fn := calleeFunc(p, node); fn != nil && isWaitGroupMethod(fn) {
				found = true
			}
		case *ast.Ident:
			obj := p.Info().Uses[node]
			if obj == nil {
				obj = p.Info().Defs[node]
			}
			if obj != nil && isContextType(obj.Type()) {
				found = true
			}
		}
		return !found
	})
	return found
}

// argsCarryExit reports whether any call argument is a context, a
// channel, or a *sync.WaitGroup — the shapes through which a callee
// can learn when to stop.
func argsCarryExit(p *Pass, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		t := p.TypeOf(arg)
		if t == nil {
			continue
		}
		if isContextType(t) {
			return true
		}
		switch u := t.Underlying().(type) {
		case *types.Chan:
			return true
		case *types.Pointer:
			if named, ok := u.Elem().(*types.Named); ok && isWaitGroupNamed(named) {
				return true
			}
		}
	}
	return false
}

// isWaitGroupMethod reports whether fn is a method of sync.WaitGroup.
func isWaitGroupMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	named := namedRecv(sig.Recv().Type())
	return named != nil && isWaitGroupNamed(named)
}

// isWaitGroupNamed reports whether named is sync.WaitGroup.
func isWaitGroupNamed(named *types.Named) bool {
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}

// namedRecv unwraps a receiver type to its named base.
func namedRecv(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}
