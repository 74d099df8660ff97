package jsr

import (
	"context"
	"errors"
	"math"
	"testing"

	"adaptivertc/internal/mat"
)

func TestCompleteGraphMatchesUnconstrained(t *testing.T) {
	set := []*mat.Dense{
		mat.FromRows([][]float64{{0.6, 0.3}, {0, 0.4}}),
		mat.FromRows([][]float64{{0.2, 0}, {0.5, 0.7}}),
	}
	free, err := BruteForceBoundsCtx(context.Background(), set, 6, BruteForceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	con, err := ConstrainedBounds(set, CompleteGraph(2), 6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(free.Lower-con.Lower) > 1e-12 {
		t.Fatalf("lower: free %v vs complete-graph %v", free.Lower, con.Lower)
	}
	if math.Abs(free.Upper-con.Upper) > 1e-12 {
		t.Fatalf("upper: free %v vs complete-graph %v", free.Upper, con.Upper)
	}
}

func TestConstraintForbiddingAlternationLowersJSR(t *testing.T) {
	// Golden-ratio pair: unconstrained JSR = φ ≈ 1.618, attained only by
	// alternating products. Forbid switching entirely (each matrix can
	// only follow itself): the constrained JSR drops to max ρ(Aᵢ) = 1.
	set := []*mat.Dense{
		mat.FromRows([][]float64{{1, 1}, {0, 1}}),
		mat.FromRows([][]float64{{1, 0}, {1, 1}}),
	}
	frozen := &Graph{
		Nodes: []int{0, 1},
		Next:  [][]int{{0}, {1}},
	}
	b, err := ConstrainedBounds(set, frozen, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b.Lower-1) > 1e-9 {
		t.Fatalf("frozen-switching lower = %v, want 1", b.Lower)
	}
	phi := (1 + math.Sqrt(5)) / 2
	if b.Upper >= phi {
		t.Fatalf("constraint did not tighten the upper bound: %v", b.Upper)
	}
}

func TestWeaklyHardGraphConstruction(t *testing.T) {
	// (m=0, K=3): overruns never allowed — the only admissible label is 0.
	g, err := WeaklyHardGraph(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(2); err != nil {
		t.Fatal(err)
	}
	for i, lbl := range g.Nodes {
		if lbl == 1 {
			// Unreachable overrun nodes must not exist.
			t.Fatalf("node %d labelled overrun under m=0", i)
		}
	}
	// (m=K): unconstrained — both labels always allowed.
	g, err = WeaklyHardGraph(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	seen0, seen1 := false, false
	for _, lbl := range g.Nodes {
		if lbl == 0 {
			seen0 = true
		}
		if lbl == 1 {
			seen1 = true
		}
	}
	if !seen0 || !seen1 {
		t.Fatalf("m=K graph misses labels: %+v", g)
	}
	if _, err := WeaklyHardGraph(3, 2); err == nil {
		t.Fatal("m > K accepted")
	}
	if _, err := WeaklyHardGraph(-1, 2); err == nil {
		t.Fatal("negative m accepted")
	}
}

func TestWeaklyHardGraphAdmissibleWords(t *testing.T) {
	// (m=1, K=2): no two consecutive overruns. Walk the graph and check
	// every reachable 2-window.
	g, err := WeaklyHardGraph(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, succs := range g.Next {
		for _, j := range succs {
			if g.Nodes[i] == 1 && g.Nodes[j] == 1 {
				t.Fatalf("graph admits consecutive overruns via %d→%d", i, j)
			}
		}
	}
}

func TestWeaklyHardInterpolatesBetweenExtremes(t *testing.T) {
	// Nominal = mild contraction; overrun = expansion. The weakly-hard
	// JSR must sit between the never-overrun and always-free cases and
	// be monotone in m.
	set := []*mat.Dense{
		mat.Scale(0.7, mat.FromRows([][]float64{{1, 0.2}, {0, 1}})),
		mat.Scale(1.3, mat.FromRows([][]float64{{1, 0}, {0.2, 1}})),
	}
	bounds := make([]Bounds, 0, 4)
	for m := 0; m <= 3; m++ {
		g, err := WeaklyHardGraph(m, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ConstrainedBounds(set, g, 8)
		if err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, b)
	}
	// m=0: only the nominal matrix → its spectral radius (0.7).
	if math.Abs(bounds[0].Lower-0.7) > 1e-9 {
		t.Fatalf("m=0 lower = %v, want 0.7", bounds[0].Lower)
	}
	// Lower bounds monotone non-decreasing in m.
	for m := 1; m < len(bounds); m++ {
		if bounds[m].Lower < bounds[m-1].Lower-1e-9 {
			t.Fatalf("lower bound fell from m=%d (%v) to m=%d (%v)",
				m-1, bounds[m-1].Lower, m, bounds[m].Lower)
		}
	}
	// m=K matches the unconstrained analysis.
	free, err := BruteForceBoundsCtx(context.Background(), set, 8, BruteForceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if bounds[3].Lower < free.Lower-1e-9 {
		t.Fatalf("m=K lower %v below unconstrained %v", bounds[3].Lower, free.Lower)
	}
}

func TestConstrainedBoundsValidation(t *testing.T) {
	set := []*mat.Dense{mat.Eye(2)}
	if _, err := ConstrainedBounds(nil, CompleteGraph(1), 3); err == nil {
		t.Fatal("empty set accepted")
	}
	if _, err := ConstrainedBounds(set, &Graph{}, 3); err == nil {
		t.Fatal("empty graph accepted")
	}
	if _, err := ConstrainedBounds(set, CompleteGraph(1), 0); err == nil {
		t.Fatal("maxLen 0 accepted")
	}
	bad := &Graph{Nodes: []int{5}, Next: [][]int{{0}}}
	if _, err := ConstrainedBounds(set, bad, 3); err == nil {
		t.Fatal("out-of-range label accepted")
	}
}

func TestConstrainedGripenbergMatchesBruteForce(t *testing.T) {
	set := []*mat.Dense{
		mat.Scale(0.7, mat.FromRows([][]float64{{1, 0.2}, {0, 1}})),
		mat.Scale(1.1, mat.FromRows([][]float64{{1, 0}, {0.2, 1}})),
	}
	g, err := WeaklyHardGraph(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	bf, err := ConstrainedBounds(set, g, 9)
	if err != nil {
		t.Fatal(err)
	}
	gp, err := ConstrainedGripenbergCtx(context.Background(), set, g, GripenbergOptions{Delta: 0.02, MaxDepth: 18})
	if err != nil && !errors.Is(err, ErrBudget) {
		t.Fatal(err)
	}
	// Brackets of the same quantity must intersect.
	if gp.Lower > bf.Upper+1e-9 || bf.Lower > gp.Upper+1e-9 {
		t.Fatalf("disjoint brackets: brute %v vs gripenberg %v", bf, gp)
	}
	// Lower bounds agree up to enumeration depth.
	if gp.Lower < bf.Lower-1e-9 {
		t.Fatalf("gripenberg lower %v below brute force %v", gp.Lower, bf.Lower)
	}
}

func TestConstrainedGripenbergUnconstrainedEqualsFree(t *testing.T) {
	set := []*mat.Dense{mat.Diag(0.5, 0.2), mat.Diag(0.3, 0.8)}
	free, err := GripenbergCtx(context.Background(), set, GripenbergOptions{Delta: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	con, err := ConstrainedGripenbergCtx(context.Background(), set, CompleteGraph(2), GripenbergOptions{Delta: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(free.Lower-con.Lower) > 1e-9 || math.Abs(free.Upper-con.Upper) > 1e-9 {
		t.Fatalf("complete graph differs from free: %v vs %v", con, free)
	}
}

func TestConstrainedGripenbergValidation(t *testing.T) {
	if _, err := ConstrainedGripenbergCtx(context.Background(), nil, CompleteGraph(1), GripenbergOptions{}); err == nil {
		t.Fatal("empty set accepted")
	}
	if _, err := ConstrainedGripenbergCtx(context.Background(), []*mat.Dense{mat.Eye(2)}, &Graph{}, GripenbergOptions{}); err == nil {
		t.Fatal("empty graph accepted")
	}
	if _, err := ConstrainedGripenbergCtx(context.Background(), []*mat.Dense{mat.Eye(2)}, CompleteGraph(1), GripenbergOptions{Delta: -1}); err == nil {
		t.Fatal("negative delta accepted")
	}
}

// refConstrainedGripenberg is a deliberately naive sequential
// constrained search: every child is a fresh mat.Mul, every closing
// child gets a fresh mat.SpectralRadius and every child a fresh
// mat.TwoNorm, nothing is skipped and no workers run. It mirrors the
// engine's merge and budget semantics exactly.
func refConstrainedGripenberg(t *testing.T, set []*mat.Dense, g *Graph, delta float64, maxDepth, maxNodes int) Bounds {
	t.Helper()
	frMax := func(fr []cgripNode) float64 {
		m := 0.0
		for _, nd := range fr {
			m = math.Max(m, nd.cert)
		}
		return m
	}
	lower := 0.0
	var witness []int
	var frontier []cgripNode
	for i, lbl := range g.Nodes {
		p := set[lbl]
		if closes(g, i, i) {
			rho, err := mat.SpectralRadius(p)
			if err != nil {
				t.Fatalf("seed rho: %v", err)
			}
			if rho > lower {
				lower, witness = rho, []int{lbl}
			}
		}
		frontier = append(frontier, cgripNode{at: i, start: i, prod: p, word: []int{lbl}, cert: mat.TwoNorm(p)})
	}
	depth, nodes := 1, len(frontier)
	for len(frontier) > 0 && depth < maxDepth {
		var kept []cgripNode
		for _, nd := range frontier {
			if nd.cert > lower+delta {
				kept = append(kept, nd)
			}
		}
		frontier = kept
		if len(frontier) == 0 {
			break
		}
		expand, grown := 0, 0
		for expand < len(frontier) && grown+len(g.Next[frontier[expand].at]) <= maxNodes-nodes {
			grown += len(g.Next[frontier[expand].at])
			expand++
		}
		if expand == 0 {
			return Bounds{Lower: lower, Upper: math.Max(lower+delta, frMax(frontier)), WitnessWord: witness}
		}
		depth++
		exp := 1 / float64(depth)
		type refChild struct {
			node      cgripNode
			rho       float64
			cyc       bool
			parentIdx int
		}
		var children []refChild
		for fi, nd := range frontier[:expand] {
			for _, nxt := range g.Next[nd.at] {
				p := mat.Mul(set[g.Nodes[nxt]], nd.prod)
				c := refChild{parentIdx: fi, node: cgripNode{
					at: nxt, start: nd.start, prod: p,
					word: childWord(nd.word, g.Nodes[nxt]),
					cert: math.Min(nd.cert, math.Pow(mat.TwoNorm(p), exp)),
				}}
				if closes(g, nxt, nd.start) {
					rho, err := mat.SpectralRadius(p)
					if err != nil {
						t.Fatalf("child rho: %v", err)
					}
					c.rho, c.cyc = rho, true
				}
				children = append(children, c)
			}
		}
		nodes += len(children)
		for _, c := range children {
			if lb := math.Pow(c.rho, exp); c.cyc && lb > lower {
				lower, witness = lb, c.node.word
			}
		}
		var next []cgripNode
		for _, c := range children {
			if c.node.cert > lower+delta {
				next = append(next, c.node)
			}
		}
		if expand < len(frontier) {
			upper := math.Max(lower+delta, math.Max(frMax(next), frMax(frontier[expand:])))
			return Bounds{Lower: lower, Upper: upper, WitnessWord: witness}
		}
		frontier = next
	}
	if len(frontier) == 0 {
		return Bounds{Lower: lower, Upper: lower + delta, WitnessWord: witness}
	}
	return Bounds{Lower: lower, Upper: math.Max(lower+delta, frMax(frontier)), WitnessWord: witness}
}

// TestConstrainedEngineMatchesReferenceByteForByte pins the constrained
// engine, gates and all, to the naive reference on weakly-hard graphs at
// every worker count. The boundary sets put every product's norm bound
// on the skip threshold (see TestEngineMatchesReferenceByteForByte).
func TestConstrainedEngineMatchesReferenceByteForByte(t *testing.T) {
	cases := []struct {
		name     string
		set      []*mat.Dense
		m, k     int
		delta    float64
		maxDepth int
		maxNodes int
	}{
		{"pmsm-1of3", pmsmLikeSet(), 1, 3, 0.005, 14, 500_000},
		{"pmsm-2of5", pmsmLikeSet(), 2, 5, 0.005, 12, 500_000},
		{"golden-1of3", goldenPair(), 1, 3, 0.01, 12, 500_000},
		{"nonnormal-2of4", nonNormalPair(), 2, 4, 1e-3, 12, 500_000},
		{"normal-1of2", normalBoundarySet(1e-15), 1, 2, 1e-17, 10, 500_000},
		{"rank-one-2of4", rankOneBoundarySet(1e-15), 2, 4, 1e-17, 10, 500_000},
		{"dominant-1of3", dominantBoundarySet(1e-15), 1, 3, 1e-17, 10, 500_000},
		// Tiny budget: exercises the partial-level ErrBudget path.
		{"pmsm-budget", pmsmLikeSet(), 1, 3, 0.005, 14, 60},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := WeaklyHardGraph(tc.m, tc.k)
			if err != nil {
				t.Fatal(err)
			}
			want := refConstrainedGripenberg(t, tc.set, g, tc.delta, tc.maxDepth, tc.maxNodes)
			for _, w := range workerSweep() {
				got, err := ConstrainedGripenbergCtx(context.Background(), tc.set, g, GripenbergOptions{
					Delta: tc.delta, MaxDepth: tc.maxDepth, MaxNodes: tc.maxNodes, Workers: w,
				})
				if err != nil && !errors.Is(err, ErrBudget) {
					t.Fatalf("w=%d: %v", w, err)
				}
				if !sameBounds(got, want) {
					t.Fatalf("w=%d: engine %+v != reference %+v", w, got, want)
				}
			}
		})
	}
}
