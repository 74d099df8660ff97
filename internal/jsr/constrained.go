package jsr

import (
	"context"
	"fmt"
	"math"

	"adaptivertc/internal/mat"
)

// This file implements JSR bounds under *constrained* switching, after
// the tree-based algorithms of Dercole & Della Rossa (the paper's
// ref. [27]): switching sequences are restricted to the walks of a
// directed graph whose nodes carry matrix labels. The paper's main
// analysis assumes arbitrary switching (any interval can follow any
// other); the constrained variant connects the tool to the weakly-hard
// literature it compares against ([16]–[18]), where overrun patterns
// are limited to at most m overruns in any window of K jobs.

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

// CompleteGraph returns the unconstrained graph over k matrices (every
// matrix may follow every other) — with it, ConstrainedBounds reduces
// to BruteForceBounds.
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

// ConstrainedBounds brackets the constrained joint spectral radius: the
// largest asymptotic growth rate over switching sequences admitted by
// the graph. Lower bounds come from the spectral radii of products
// along closed walks (cycles); upper bounds from the norm sandwich over
// all admissible products of each length.
func ConstrainedBounds(set []*mat.Dense, g *Graph, maxLen int) (Bounds, error) {
	if _, err := validateSet(set); err != nil {
		return Bounds{}, err
	}
	if err := g.Validate(len(set)); err != nil {
		return Bounds{}, err
	}
	if maxLen < 1 {
		return Bounds{}, fmt.Errorf("jsr: maxLen must be ≥ 1, got %d", maxLen)
	}

	type walk struct {
		node  int
		start int // node where the walk began (for cycle detection)
		prod  *mat.Dense
		word  []int
	}
	var level []walk
	for i := range g.Nodes {
		level = append(level, walk{node: i, start: i, prod: set[g.Nodes[i]], word: []int{g.Nodes[i]}})
	}
	lower := 0.0
	upper := math.Inf(1)
	var witness []int
	for l := 1; l <= maxLen; l++ {
		maxNorm := 0.0
		exp := 1 / float64(l)
		gate := newRateGate(lower, l)
		for _, w := range level {
			if nv := norm(w.prod); nv > maxNorm {
				maxNorm = nv
			}
			// Cycles: only products along closed walks bound the
			// constrained JSR from below (they can be repeated forever).
			// Closed walks whose spectral-radius bound cannot beat lower
			// skip the eigenvalue solve: they would lose the strict > anyway.
			if closes(g, w.node, w.start) && gate.above(mat.SpectralRadiusBound(w.prod)) {
				rho, err := mat.SpectralRadius(w.prod)
				if err != nil {
					return Bounds{}, err
				}
				if lb := math.Pow(rho, exp); lb > lower {
					lower = lb
					witness = w.word
					gate = newRateGate(lower, l)
				}
			}
		}
		if ub := math.Pow(maxNorm, exp); ub < upper {
			upper = ub
		}
		if l == maxLen {
			break
		}
		var next []walk
		for _, w := range level {
			for _, nxt := range g.Next[w.node] {
				word := make([]int, len(w.word)+1)
				copy(word, w.word)
				word[len(word)-1] = g.Nodes[nxt]
				next = append(next, walk{
					node:  nxt,
					start: w.start,
					prod:  mat.Mul(set[g.Nodes[nxt]], w.prod),
					word:  word,
				})
			}
		}
		level = next
	}
	if upper < lower {
		upper = lower
	}
	return Bounds{Lower: lower, Upper: upper, WitnessWord: witness}, nil
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

// cgripNode is a live branch of the constrained search: a walk ending
// at graph node `at`, started at `start` (needed for cycle detection).
type cgripNode struct {
	at    int
	start int
	prod  *mat.Dense
	word  []int
	cert  float64
}

// cgripChild is one expanded successor; rho is meaningful only when cyc
// is set (spectral radii of non-closable walks never bound the
// constrained JSR from below, so they are not computed). Like
// Gripenberg's children, a closable child whose spectral-radius bounds
// cannot raise the level-start lower bound carries rho = 0, and a child
// whose certificate bound cannot exceed the level-start prune threshold
// carries that threshold as its certificate.
type cgripChild struct {
	at   int
	prod *mat.Dense
	rho  float64
	cyc  bool
	cert float64
}

func cgripFrontierMax(fr []cgripNode) float64 {
	m := 0.0
	for _, nd := range fr {
		if nd.cert > m {
			m = nd.cert
		}
	}
	return m
}

// cgripCutBounds is the valid constrained bracket at a level boundary
// where the search stops early.
func cgripCutBounds(lower, delta float64, witness []int, frontier []cgripNode) Bounds {
	return Bounds{Lower: lower, Upper: math.Max(lower+delta, cgripFrontierMax(frontier)), WitnessWord: witness}
}

// expandCGripNode computes the out-degree children of one constrained
// frontier node into out, in successor order, with the same gates as
// Gripenberg's expandNodeGuarded: lower holds the level-start lower
// bound that gates the eigenvalue solve, prune the level-start prune
// threshold that gates the norm.
func expandCGripNode(set []*mat.Dense, g *Graph, nd cgripNode, lower, prune rateGate, ms *mat.Scratch, out []cgripChild) error {
	for j, nxt := range g.Next[nd.at] {
		p := mat.Mul(set[g.Nodes[nxt]], nd.prod)
		nb := mat.NormBoundsScratch(p, ms)
		c := cgripChild{at: nxt, prod: p, cert: gatedCert(p, nb, ms, nd.cert, prune)}
		if closes(g, nxt, nd.start) {
			c.cyc = true
			rho, err := gatedRadius(p, nb, ms, lower)
			if err != nil {
				return err
			}
			c.rho = rho
		}
		out[j] = c
	}
	return nil
}

// ConstrainedGripenberg runs the branch-and-bound bound refinement on a
// switching graph with a background context; see
// ConstrainedGripenbergCtx.
func ConstrainedGripenberg(set []*mat.Dense, g *Graph, opt GripenbergOptions) (Bounds, error) {
	return ConstrainedGripenbergCtx(context.Background(), set, g, opt)
}

// ConstrainedGripenbergCtx runs the branch-and-bound bound refinement
// on a switching graph: identical pruning logic to Gripenberg, with the
// walk set restricted to the graph and lower bounds taken only from
// closable walks (whose periodic repetition is admissible). Levels are
// expanded in parallel with the same index-sharded, deterministically
// merged scheme as Gripenberg, so the result is identical for every
// Workers value. Combine with ConstrainedBounds via the caller;
// ErrBudget signals a valid but looser-than-requested bracket: as
// ErrNodeBudget only after the remaining node budget has been spent on
// a partial level, as ErrDepthCap when MaxDepth ends the search.
// Cancellation and the Deadline option cut the search at a level
// boundary with the last fully merged bracket and an error wrapping
// ErrDeadline, like GripenbergCtx. Snapshot/Resume are not supported on
// the constrained search (the frontier carries graph positions, not
// just words); setting either is an error.
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
	opt, err := opt.withDefaults()
	if err != nil {
		return Bounds{}, err
	}
	if opt.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.Deadline)
		defer cancel()
	}

	lower := 0.0
	var witness []int
	nodes := 0
	var frontier []cgripNode
	for i := range g.Nodes {
		p := set[g.Nodes[i]]
		nd := cgripNode{at: i, start: i, prod: p, word: []int{g.Nodes[i]}, cert: norm(p)}
		if closes(g, i, i) {
			rho, err := mat.SpectralRadius(p)
			if err != nil {
				return Bounds{}, err
			}
			if rho > lower {
				lower = rho
				witness = nd.word
			}
		}
		frontier = append(frontier, nd)
		nodes++
	}
	depth := 1
	n := set[0].Rows()
	scratch := make([]*mat.Scratch, opt.Workers)
	for len(frontier) > 0 && depth < opt.MaxDepth {
		if cerr := ctx.Err(); cerr != nil {
			return cgripCutBounds(lower, opt.Delta, witness, frontier), deadlineErr(ctx, cerr)
		}
		kept := frontier[:0]
		for _, nd := range frontier {
			if nd.cert > lower+opt.Delta {
				kept = append(kept, nd)
			}
		}
		frontier = kept
		if len(frontier) == 0 {
			break
		}

		// Child slots are laid out by prefix sums of the per-node
		// out-degree: node fi owns slots [offs[fi], offs[fi+1]).
		offs := make([]int, len(frontier)+1)
		for fi, nd := range frontier {
			offs[fi+1] = offs[fi] + len(g.Next[nd.at])
		}

		// Budget: expand the longest prefix of whole nodes whose
		// cumulative growth fits the remaining budget, so a partial
		// level still tightens the bracket before ErrBudget.
		remaining := opt.MaxNodes - nodes
		expand := len(frontier)
		for expand > 0 && offs[expand] > remaining {
			expand--
		}
		if expand == 0 {
			return cgripCutBounds(lower, opt.Delta, witness, frontier), ErrNodeBudget
		}

		depth++
		exp := 1 / float64(depth)
		lowerGate, pruneGate := newRateGate(lower, depth), newRateGate(lower+opt.Delta, depth)
		children := make([]cgripChild, offs[expand])
		err := parallelSlots(ctx, expand, opt.Workers, func(ctx context.Context, slot, lo, hi int) error {
			// Lazy per-slot scratch, race-free for the same reason as
			// gripSearch.scratchFor.
			if scratch[slot] == nil {
				scratch[slot] = mat.NewScratch(n)
			}
			ms := scratch[slot]
			for fi := lo; fi < hi; fi++ {
				if cerr := ctx.Err(); cerr != nil {
					return cerr
				}
				nd := frontier[fi]
				if gerr := expandGuard(nd.word, func() error {
					return expandCGripNode(set, g, nd, lowerGate, pruneGate, ms, children[offs[fi]:offs[fi+1]])
				}); gerr != nil {
					return gerr
				}
			}
			return nil
		})
		if err != nil {
			if isCtxErr(err) {
				// Mid-level cut: discard the partial level and report
				// the bracket of the last fully merged one.
				return cgripCutBounds(lower, opt.Delta, witness, frontier), deadlineErr(ctx, err)
			}
			return Bounds{}, err
		}
		nodes += offs[expand]

		// Merge pass 1: raise the lower bound from closable children,
		// lowest index winning ties via the strictly-greater scan.
		parentOf := func(ci int) int {
			fi := 0
			for offs[fi+1] <= ci {
				fi++
			}
			return fi
		}
		bestIdx := -1
		for ci := range children {
			if !children[ci].cyc {
				continue
			}
			if lb := math.Pow(children[ci].rho, exp); lb > lower {
				lower = lb
				bestIdx = ci
			}
		}
		if bestIdx >= 0 {
			pw := frontier[parentOf(bestIdx)].word
			witness = make([]int, len(pw)+1)
			copy(witness, pw)
			witness[len(witness)-1] = g.Nodes[children[bestIdx].at]
		}

		// Merge pass 2: survivors against the final per-level lower.
		// The in-order walk advances the parent cursor incrementally.
		next := make([]cgripNode, 0, len(children))
		fi := 0
		for ci := range children {
			for offs[fi+1] <= ci {
				fi++
			}
			c := &children[ci]
			if c.cert <= lower+opt.Delta {
				continue
			}
			parent := frontier[fi]
			word := make([]int, len(parent.word)+1)
			copy(word, parent.word)
			word[len(word)-1] = g.Nodes[c.at]
			next = append(next, cgripNode{at: c.at, start: parent.start, prod: c.prod, word: word, cert: c.cert})
		}

		if expand < len(frontier) {
			upper := math.Max(lower+opt.Delta, math.Max(cgripFrontierMax(next), cgripFrontierMax(frontier[expand:])))
			return Bounds{Lower: lower, Upper: upper, WitnessWord: witness}, ErrNodeBudget
		}
		frontier = next
	}
	if len(frontier) == 0 {
		return Bounds{Lower: lower, Upper: lower + opt.Delta, WitnessWord: witness}, nil
	}
	return cgripCutBounds(lower, opt.Delta, witness, frontier), ErrDepthCap
}
