package jsr

import (
	"context"
	"fmt"

	"adaptivertc/internal/mat"
)

// This file holds the switching graphs behind JSR bounds under
// *constrained* switching, after the tree-based algorithms of Dercole &
// Della Rossa (the paper's ref. [27]): switching sequences are
// restricted to the walks of a directed graph whose nodes carry matrix
// labels. The paper's main analysis assumes arbitrary switching (any
// interval can follow any other), which is the complete graph; the
// constrained variant connects the tool to the weakly-hard literature
// it compares against ([16]–[18]), where overrun patterns are limited
// to at most m overruns in any window of K jobs. Both estimators run on
// the same engines as their unconstrained forms (bruteForce and
// gripenberg in jsr.go): the entry points here only validate the graph.

// Graph is a switching constraint: Nodes[i] labels node i with a matrix
// index into the analyzed set, and Next[i] lists the admissible
// successor nodes. A switching sequence is admissible iff it is the
// label sequence of a walk.
type Graph struct {
	Nodes []int
	Next  [][]int
}

// Validate checks the graph against a set of k matrices.
func (g *Graph) Validate(k int) error {
	if len(g.Nodes) == 0 {
		return fmt.Errorf("jsr: empty constraint graph")
	}
	if len(g.Next) != len(g.Nodes) {
		return fmt.Errorf("jsr: %d nodes but %d adjacency rows", len(g.Nodes), len(g.Next))
	}
	for i, lbl := range g.Nodes {
		if lbl < 0 || lbl >= k {
			return fmt.Errorf("jsr: node %d labelled %d, want [0,%d)", i, lbl, k)
		}
		for _, nxt := range g.Next[i] {
			if nxt < 0 || nxt >= len(g.Nodes) {
				return fmt.Errorf("jsr: node %d has successor %d out of range", i, nxt)
			}
		}
	}
	return nil
}

// CompleteGraph returns the unconstrained graph over k matrices: node i
// carries label i, and every matrix may follow every other. It is the
// graph BruteForceBoundsCtx and GripenbergCtx search, so on it
// ConstrainedBoundsCtx and ConstrainedGripenbergCtx return exactly
// their bounds.
func CompleteGraph(k int) *Graph {
	g := &Graph{Nodes: make([]int, k), Next: make([][]int, k)}
	for i := 0; i < k; i++ {
		g.Nodes[i] = i
		g.Next[i] = make([]int, k)
		for j := 0; j < k; j++ {
			g.Next[i][j] = j
		}
	}
	return g
}

// WeaklyHardGraph builds the constraint automaton of the weakly-hard
// model (m, K): label 1 (overrun) may occur at most m times in any
// window of K consecutive jobs; label 0 is a nominal job. The analyzed
// set must therefore have exactly two matrices: index 0 = nominal
// closed loop, index 1 = overrun closed loop. Automaton states encode
// the last K-1 outcomes (at most 2^(K-1) states, pruned to reachable
// ones that already satisfy the constraint).
func WeaklyHardGraph(m, k int) (*Graph, error) {
	if k < 1 || m < 0 || m > k {
		return nil, fmt.Errorf("jsr: invalid weakly-hard parameters (m=%d, K=%d)", m, k)
	}
	type state = int // bitmask of the last K-1 outcomes (LSB = most recent)
	width := k - 1
	mask := (1 << width) - 1
	ones := func(s int) int {
		c := 0
		for ; s != 0; s >>= 1 {
			c += s & 1
		}
		return c
	}
	// Enumerate reachable, constraint-satisfying histories; each node is
	// (history, lastOutcome). To keep the node count small we label the
	// node with the outcome that *entered* it.
	type node struct {
		hist  int
		label int
	}
	index := map[node]int{}
	var nodes []node
	addNode := func(nd node) int {
		if id, ok := index[nd]; ok {
			return id
		}
		id := len(nodes)
		index[nd] = id
		nodes = append(nodes, nd)
		return id
	}
	// Start states: empty history entering either outcome (if allowed).
	var queue []int
	start0 := addNode(node{hist: 0, label: 0})
	queue = append(queue, start0)
	if m >= 1 {
		s1 := addNode(node{hist: 1 & mask, label: 1})
		if width == 0 {
			s1 = addNode(node{hist: 0, label: 1})
		}
		queue = append(queue, s1)
	}
	adj := map[int][]int{}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		if _, done := adj[id]; done {
			continue
		}
		nd := nodes[id]
		var succ []int
		for _, out := range []int{0, 1} {
			// Window = last K-1 outcomes + the new one.
			if ones(nd.hist)+out > m {
				continue
			}
			nh := 0
			if width > 0 {
				nh = ((nd.hist << 1) | out) & mask
			}
			nid := addNode(node{hist: nh, label: out})
			succ = append(succ, nid)
			if _, seen := adj[nid]; !seen {
				queue = append(queue, nid)
			}
		}
		adj[id] = succ
	}
	g := &Graph{Nodes: make([]int, len(nodes)), Next: make([][]int, len(nodes))}
	for id, nd := range nodes {
		g.Nodes[id] = nd.label
		g.Next[id] = adj[id]
	}
	return g, nil
}

// ConstrainedBoundsCtx brackets the constrained joint spectral radius:
// the largest asymptotic growth rate over switching sequences admitted
// by the graph. It runs BruteForceBoundsCtx's streamed Eq. 12 sweep over
// the walks of g of length 1..maxLen: lower bounds come from the
// spectral radii of products along closed walks (cycles), upper bounds
// from the norm sandwich over all admissible products of each length.
// The bounds are bit-identical for every Workers value. On cancellation
// the sandwich over the fully completed levels is returned together
// with an error wrapping ErrDeadline, and an inverted sandwich is
// ErrInverted, as with BruteForceBoundsCtx.
func ConstrainedBoundsCtx(ctx context.Context, set []*mat.Dense, g *Graph, maxLen int, opt BruteForceOptions) (Bounds, error) {
	if _, err := validateSet(set); err != nil {
		return Bounds{}, err
	}
	if err := g.Validate(len(set)); err != nil {
		return Bounds{}, err
	}
	return certified(bruteForce(ctx, set, g, maxLen, opt))
}

// closes reports whether a walk ending at `node` can immediately return
// to `start` (so the walk is a cycle when extended by that edge — we
// treat walks whose end links back to their start as repeatable).
func closes(g *Graph, node, start int) bool {
	for _, nxt := range g.Next[node] {
		if nxt == start {
			return true
		}
	}
	return false
}

// ConstrainedGripenbergCtx runs GripenbergCtx's branch-and-bound on a
// switching graph: the branches are the graph's walks, and lower bounds
// come only from closable walks (whose periodic repetition is
// admissible). Pruning, budgets, worker sharding and the deterministic
// merge are GripenbergCtx's, so the result is identical for every
// Workers value; combine with ConstrainedBoundsCtx via the caller.
// ErrBudget signals a valid but looser-than-requested bracket: as
// ErrNodeBudget only after the remaining node budget has been spent on
// a partial level, as ErrDepthCap when MaxDepth ends the search.
// Cancellation and an expired context deadline cut the search at a
// level boundary with the last fully merged bracket and an error
// wrapping ErrDeadline. The search runs on the set as given:
// DisableEllipsoid is implied (precondition the set first, as the
// weakly-hard experiment does). Snapshot/Resume are not supported (the
// frontier carries graph positions, not just words); setting either is
// an error.
func ConstrainedGripenbergCtx(ctx context.Context, set []*mat.Dense, g *Graph, opt GripenbergOptions) (Bounds, error) {
	if _, err := validateSet(set); err != nil {
		return Bounds{}, err
	}
	if err := g.Validate(len(set)); err != nil {
		return Bounds{}, err
	}
	if opt.Snapshot != nil || opt.Resume != nil {
		return Bounds{}, fmt.Errorf("jsr: Snapshot/Resume are not supported by the constrained search")
	}
	opt.DisableEllipsoid = true
	opt, err := opt.withDefaults()
	if err != nil {
		return Bounds{}, err
	}
	b, _, err := gripenberg(ctx, set, g, opt, 0)
	return certified(b, err)
}

// ConstrainedEstimateCtx is EstimateCtx over the walks of g: the set is
// split into its invariant blocks, each block is preconditioned and
// bracketed by ConstrainedBoundsCtx's sweep and ConstrainedGripenbergCtx's
// search under the prune floor, and the brackets combine as
// EstimateCtx combines them, with the witness replayed on the caller's
// matrices. The constrained JSR of a block-triangular family is the
// largest constrained JSR of its diagonal blocks, by the same argument
// as for arbitrary switching: every admissible product is block
// triangular, with the admissible products of the blocks on its
// diagonal. Snapshot/Resume are not supported, as with
// ConstrainedGripenbergCtx.
func ConstrainedEstimateCtx(ctx context.Context, set []*mat.Dense, g *Graph, bruteLen int, opt GripenbergOptions) (Bounds, error) {
	if _, err := validateSet(set); err != nil {
		return Bounds{}, err
	}
	if err := g.Validate(len(set)); err != nil {
		return Bounds{}, err
	}
	if opt.Snapshot != nil || opt.Resume != nil {
		return Bounds{}, fmt.Errorf("jsr: Snapshot/Resume are not supported by the constrained search")
	}
	return estimate(ctx, set, g, bruteLen, opt, true)
}
