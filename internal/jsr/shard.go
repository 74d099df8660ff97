package jsr

import (
	"context"
	"fmt"
	"math"

	"adaptivertc/internal/mat"
)

// This file is the distribution seam of the Gripenberg engine. The
// search is level-synchronous with an index-ordered merge (see
// GripenbergCtx), so the only part worth farming out — and the only
// part that CAN be farmed out without changing the answer — is the
// per-level expansion: computing, for every parent word on the
// frontier, the spectral radius and branch certificate of its k
// children. An ExpandFunc intercepts exactly that step; everything
// that decides the bracket (lower-bound fold, prune threshold,
// survivor merge, budget accounting) stays on the caller, running the
// unmodified single-node code over the hook's numbers.
//
// Why not ship whole sub-trees? Independent sub-tree searches grow
// private lower bounds and therefore prune differently than one global
// search — the union of their results is a valid bracket but not the
// byte-identical one the service promises. Level sharding keeps one
// global lower bound and one global prune, so the distributed bracket
// is the single-node bracket, bit for bit, at any worker count and
// any shard interleaving.

// An ExpandRequest describes one level expansion (or an index-
// contiguous shard of one): the parent words to expand and the child
// depth. Requests are self-contained — parents are words, not
// products — so a stateless worker can evaluate any shard, and a
// re-dispatched shard recomputes exactly the same floats.
type ExpandRequest struct {
	// Depth is the child depth: every word in Words has length
	// Depth-1, and every child product is one matrix longer.
	Depth int
	// Words holds the parent words in frontier order.
	Words [][]int
}

// An ExpandResult carries the children of one expansion in
// frontier-major, matrix-index-minor order: child ci is parent
// Words[ci/k] extended on the left by matrix ci%k. Both slices have
// length len(Words)·k.
type ExpandResult struct {
	Rho  []float64 // spectral radius of each child product
	Cert []float64 // branch certificate min(parent cert, ‖child‖^(1/Depth))
}

// An ExpandFunc evaluates one level expansion on behalf of
// GripenbergCtx. It must be a pure function of (matrix set, request):
// GripenbergCtx may be resumed, and a distributed caller may evaluate
// the same request more than once (lease expiry, re-dispatch), so the
// hook's floats must not depend on timing, worker count, or call
// count. ExpandShard provides a conforming evaluator.
type ExpandFunc func(ctx context.Context, req ExpandRequest) (ExpandResult, error)

// expandViaHook runs one level expansion through the caller's hook and
// adapts the result to the merge loop's child layout. Children carry
// no products; mergeSurvivors rebuilds the survivors' products lazily.
func expandViaHook(ctx context.Context, hook ExpandFunc, frontier []gripNode, expand, depth, k int) ([]gripChild, error) {
	words := make([][]int, expand)
	for i := 0; i < expand; i++ {
		words[i] = frontier[i].word
	}
	res, err := hook(ctx, ExpandRequest{Depth: depth, Words: words})
	if err != nil {
		return nil, err
	}
	need := expand * k
	if len(res.Rho) != need || len(res.Cert) != need {
		return nil, fmt.Errorf("jsr: expand hook returned %d rho / %d cert values for %d children", len(res.Rho), len(res.Cert), need)
	}
	children := make([]gripChild, need)
	for ci := range children {
		children[ci] = gripChild{rho: res.Rho[ci], cert: res.Cert[ci]}
	}
	return children, nil
}

// ExpandShard evaluates one expansion shard against work, the searched
// (possibly preconditioned) matrix set. Parent products and
// certificates are rebuilt from the words by the same replay
// rebuildFrontier performs for Resume — proven bit-identical to the
// original incremental fold — and the children are then computed by
// the same zero-allocation kernel GripenbergCtx uses in-process, so
// the returned floats match a local expansion bit for bit. workers ≤ 0
// selects GOMAXPROCS; the result is identical for every value.
func ExpandShard(ctx context.Context, work []*mat.Dense, req ExpandRequest, workers int) (ExpandResult, error) {
	if _, err := validateSet(work); err != nil {
		return ExpandResult{}, err
	}
	if req.Depth < 2 {
		return ExpandResult{}, fmt.Errorf("jsr: shard depth %d out of range: children need a parent of at least one matrix", req.Depth)
	}
	if len(req.Words) == 0 {
		return ExpandResult{}, nil
	}
	st := &GripenbergState{K: len(work), Depth: req.Depth - 1, Frontier: req.Words}
	frontier, err := rebuildFrontier(work, st)
	if err != nil {
		return ExpandResult{}, err
	}
	workers = resolveWorkers(workers)
	g := newGripSearch(work, workers)
	// A request carries no lower bound, so every rho and every norm is
	// computed; the caller's merge reaches the same bracket either way.
	children, err := g.expandLevel(ctx, frontier, len(frontier), req.Depth, workers, math.Inf(-1), math.Inf(-1))
	if err != nil {
		return ExpandResult{}, err
	}
	res := ExpandResult{
		Rho:  make([]float64, len(children)),
		Cert: make([]float64, len(children)),
	}
	for ci := range children {
		res.Rho[ci] = children[ci].rho
		res.Cert[ci] = children[ci].cert
	}
	return res, nil
}
