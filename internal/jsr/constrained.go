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
// to at most m overruns in any window of K jobs. ConstrainedEstimateCtx
// runs the same engines as the unconstrained estimators (bruteForce and
// gripenberg in jsr.go) over the graph's walks.

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
// graph BruteForceBoundsCtx, GripenbergCtx and EstimateCtx search, so
// on it ConstrainedEstimateCtx returns exactly EstimateCtx's bounds.
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

// ConstrainedEstimateCtx is EstimateCtx over the walks of g: the set is
// split into its invariant blocks, each block is preconditioned and
// bracketed by the Eq. 12 sweep and the Gripenberg search over the
// block's admissible walks, the search under the prune floor, and the
// brackets combine as EstimateCtx combines them, with the witness
// replayed on the caller's matrices. Lower bounds come only from walks
// that close back to their start, whose periodic repetition is
// admissible. The constrained JSR of a block-triangular family is the
// largest constrained JSR of its diagonal blocks, by the same argument
// as for arbitrary switching: every admissible product is block
// triangular, with the admissible products of the blocks on its
// diagonal. Snapshot/Resume are not supported (the frontier carries
// graph positions, not just words); setting either is an error.
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
