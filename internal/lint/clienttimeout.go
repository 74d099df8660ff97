package lint

import (
	"go/ast"
	"go/types"
)

// ClientTimeout guards every outbound HTTP call the module makes
// against unbounded waits. A server that hangs mid-response (or a
// network that silently drops packets) holds an http.Client call
// forever unless something bounds it, and the two unbounded shapes are
// both one keystroke away from the correct ones:
//
//  1. an http.Client composite literal that sets no Timeout — such a
//     client waits indefinitely unless every single request it ever
//     performs carries its own context deadline, a property no local
//     literal can promise;
//
//  2. the package-level conveniences http.Get, http.Post,
//     http.PostForm and http.Head — they run on http.DefaultClient,
//     which has no timeout and accepts no context at all.
//
// The fix is mechanical: give the client literal a Timeout, or build
// the request with http.NewRequestWithContext against a client whose
// Timeout is set, as the benchmark's load generator (bench/load.go)
// does. A literal that deliberately relies on per-request contexts can
// say so with //lint:ignore clienttimeout <why>.
var ClientTimeout = &Check{
	Name: "clienttimeout",
	Doc:  "http.Client literal without Timeout, or http.Get/Post/PostForm/Head on the timeout-less DefaultClient",
	Run:  runClientTimeout,
}

// defaultClientFuncs are the net/http package-level helpers that
// round-trip on DefaultClient.
var defaultClientFuncs = map[string]bool{
	"Get": true, "Post": true, "PostForm": true, "Head": true,
}

func runClientTimeout(p *Pass) {
	for _, f := range p.Files() {
		ast.Inspect(f, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.CompositeLit:
				if isNetHTTPNamed(p.TypeOf(node), "Client") && !setsField(node, "Timeout") {
					p.Reportf(node.Pos(), "http.Client without Timeout waits forever on a hung server; set Timeout (or justify per-request deadlines with an ignore directive)")
				}
			case *ast.CallExpr:
				if fn := calleeFunc(p, node); fn != nil &&
					fn.Pkg() != nil && fn.Pkg().Path() == "net/http" &&
					defaultClientFuncs[fn.Name()] && isPackageLevel(fn) {
					p.Reportf(node.Pos(), "http.%s uses DefaultClient, which has no timeout and takes no context; use NewRequestWithContext with a client whose Timeout is set", fn.Name())
				}
			}
			return true
		})
	}
}

// isPackageLevel reports whether fn is a package-level function (not a
// method), so http.Get is flagged but a local type's Get method named
// identically is not.
func isPackageLevel(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}
