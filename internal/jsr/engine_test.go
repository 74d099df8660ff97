package jsr

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"sort"
	"testing"

	"adaptivertc/internal/mat"
)

// ---------------------------------------------------------------------------
// Non-finite input rejection.

func nanSet() []*mat.Dense {
	a := mat.FromRows([][]float64{{1, 0}, {0, 1}})
	b := mat.FromRows([][]float64{{math.NaN(), 0}, {0, 1}})
	return []*mat.Dense{a, b}
}

func infSet() []*mat.Dense {
	a := mat.FromRows([][]float64{{1, 0}, {0, 1}})
	b := mat.FromRows([][]float64{{1, math.Inf(-1)}, {0, 1}})
	return []*mat.Dense{a, b}
}

func TestValidateRejectsNonFinite(t *testing.T) {
	for name, set := range map[string][]*mat.Dense{"nan": nanSet(), "inf": infSet()} {
		t.Run(name, func(t *testing.T) {
			if _, err := GripenbergCtx(context.Background(), set, GripenbergOptions{Delta: 0.05, MaxDepth: 8}); !errors.Is(err, ErrNonFinite) {
				t.Errorf("Gripenberg error = %v, want ErrNonFinite", err)
			}
			if _, err := BruteForceBoundsCtx(context.Background(), set, 3, BruteForceOptions{}); !errors.Is(err, ErrNonFinite) {
				t.Errorf("BruteForceBoundsCtx error = %v, want ErrNonFinite", err)
			}
			if _, err := WitnessRate(set, []int{0, 1}); !errors.Is(err, ErrNonFinite) {
				t.Errorf("WitnessRate error = %v, want ErrNonFinite", err)
			}
			if _, err := EstimateCtx(context.Background(), set, 3, GripenbergOptions{Delta: 0.05, MaxDepth: 8}); !errors.Is(err, ErrNonFinite) {
				t.Errorf("Estimate error = %v, want ErrNonFinite", err)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Reference-engine byte-identity: the prefix-cached, scratch-arena
// engine must reproduce a straightforward allocating implementation of
// the same algorithm bit for bit, at every worker count.

type refNode struct {
	prod *mat.Dense
	word []int
	cert float64
}

func refFrontierMax(fr []refNode) float64 {
	m := 0.0
	for _, nd := range fr {
		if nd.cert > m {
			m = nd.cert
		}
	}
	return m
}

// refGripenberg is a deliberately naive sequential Gripenberg: every
// child is a fresh mat.Mul, every certificate a fresh mat.TwoNorm /
// mat.SpectralRadius, no pools, no worker sharding. It
// mirrors the engine's merge and budget semantics exactly.
func refGripenberg(t *testing.T, set []*mat.Dense, delta float64, maxDepth, maxNodes int) Bounds {
	t.Helper()
	k := len(set)
	lower := 0.0
	var witness []int
	var frontier []refNode
	for i, a := range set {
		rho, err := mat.SpectralRadius(a)
		if err != nil {
			t.Fatalf("seed rho: %v", err)
		}
		if rho > lower {
			lower = rho
			witness = []int{i}
		}
		frontier = append(frontier, refNode{prod: a, word: []int{i}, cert: mat.TwoNorm(a)})
	}
	depth, nodes := 1, k

	for len(frontier) > 0 && depth < maxDepth {
		kept := frontier[:0]
		for _, nd := range frontier {
			if nd.cert > lower+delta {
				kept = append(kept, nd)
			}
		}
		frontier = kept
		if len(frontier) == 0 {
			break
		}
		expand := len(frontier)
		if remaining := maxNodes - nodes; expand*k > remaining {
			expand = remaining / k
		}
		if expand == 0 {
			return Bounds{Lower: lower, Upper: math.Max(lower+delta, refFrontierMax(frontier)), WitnessWord: witness}
		}
		depth++
		exp := 1 / float64(depth)
		type refChild struct {
			prod      *mat.Dense
			rho, cert float64
		}
		children := make([]refChild, 0, expand*k)
		for fi := 0; fi < expand; fi++ {
			nd := frontier[fi]
			for _, a := range set {
				p := mat.Mul(a, nd.prod)
				rho, err := mat.SpectralRadius(p)
				if err != nil {
					t.Fatalf("child rho: %v", err)
				}
				children = append(children, refChild{prod: p, rho: rho, cert: math.Min(nd.cert, math.Pow(mat.TwoNorm(p), exp))})
			}
		}
		nodes += expand * k
		bestIdx := -1
		for ci := range children {
			if lb := math.Pow(children[ci].rho, exp); lb > lower {
				lower = lb
				bestIdx = ci
			}
		}
		if bestIdx >= 0 {
			witness = childWord(frontier[bestIdx/k].word, bestIdx%k)
		}
		var next []refNode
		for ci := range children {
			if children[ci].cert > lower+delta {
				next = append(next, refNode{prod: children[ci].prod, word: childWord(frontier[ci/k].word, ci%k), cert: children[ci].cert})
			}
		}
		if expand < len(frontier) {
			upper := math.Max(lower+delta, math.Max(refFrontierMax(next), refFrontierMax(frontier[expand:])))
			return Bounds{Lower: lower, Upper: upper, WitnessWord: witness}
		}
		frontier = next
	}
	if len(frontier) == 0 {
		return Bounds{Lower: lower, Upper: lower + delta, WitnessWord: witness}
	}
	return Bounds{Lower: lower, Upper: math.Max(lower+delta, refFrontierMax(frontier)), WitnessWord: witness}
}

// The boundary sets below are families whose spectral radii equal one
// of the cheap norms in exact arithmetic, so every product's norm bound
// sits right at the engine's skip threshold. Their second matrix is
// scaled up by grade: with a grade of a few ulps, later words beat
// earlier ones by a few ulps, and a skip rule that cut into its rounding
// margin would drop exactly those winners.

// normalBoundarySet holds two scaled permutation matrices. Every product
// is a scaled permutation, whose spectral radius equals its 1- and
// ∞-norms.
func normalBoundarySet(grade float64) []*mat.Dense {
	return []*mat.Dense{
		mat.FromRows([][]float64{{0, 0.9, 0}, {0, 0, 0.9}, {0.9, 0, 0}}),
		mat.Scale(1+grade, mat.FromRows([][]float64{{0, 0.9, 0}, {0.9, 0, 0}, {0, 0, 0.9}})),
	}
}

// rankOneBoundarySet holds two multiples of one symmetric rank-one
// matrix u·uᵀ. Every product is again such a multiple, whose spectral
// radius equals its Frobenius norm.
func rankOneBoundarySet(grade float64) []*mat.Dense {
	u := mat.ColVec(1.0/3, 2.0/3, 2.0/3)
	uu := mat.Mul(u, u.T())
	return []*mat.Dense{mat.Scale(0.95, uu), mat.Scale(-0.95*(1+grade), uu)}
}

// dominantBoundarySet holds two multiples of one symmetric matrix
// Q·diag(1, 1e-6, 0)·Qᵀ with Q a rotation. Every product is again such a
// multiple: its Frobenius norm exceeds its spectral radius by ≈ 5e-13
// relative, past the Frobenius bound's margin, but its square's
// Frobenius norm equals ρ² to within rounding, so it is the Gelfand
// bound that sits on the skip threshold.
func dominantBoundarySet(grade float64) []*mat.Dense {
	c, s := math.Cos(0.3), math.Sin(0.3)
	q := mat.Mul(
		mat.FromRows([][]float64{{c, -s, 0}, {s, c, 0}, {0, 0, 1}}),
		mat.FromRows([][]float64{{1, 0, 0}, {0, c, -s}, {0, s, c}}),
	)
	m := mat.MulMany(q, mat.Diag(1, 1e-6, 0), q.T())
	return []*mat.Dense{mat.Scale(0.95, m), mat.Scale(-0.95*(1+grade), m)}
}

func TestEngineMatchesReferenceByteForByte(t *testing.T) {
	served, _, ok := Precondition(pmsmLiftedSet(t))
	if !ok {
		t.Fatal("Precondition found no common quadratic Lyapunov function for the PMSM set")
	}
	cases := []struct {
		name     string
		set      []*mat.Dense
		delta    float64
		maxDepth int
		maxNodes int
		workers  []int // nil runs workerSweep()
	}{
		{"pmsm", pmsmLikeSet(), 0.02, 12, 500_000, nil},
		{"golden", goldenPair(), 0.05, 10, 500_000, nil},
		// δ below an ulp keeps the branches whose certificates beat
		// Lower by rounding alone, so the search runs at the boundary.
		{"normal", normalBoundarySet(1e-15), 1e-17, 10, 500_000, nil},
		{"rank-one", rankOneBoundarySet(0), 1e-17, 10, 500_000, nil},
		{"dominant", dominantBoundarySet(1e-15), 1e-17, 10, 500_000, nil},
		// Tiny budget: exercises the partial-level ErrBudget path.
		{"pmsm-budget", pmsmLikeSet(), 0.005, 14, 40, nil},
		{"golden-budget", goldenPair(), 1e-4, 12, 4, nil},
		// The served size: the preconditioned lifted PMSM Ns = 5 set
		// (four 9×9 modes) at the service's default depth, δ and node
		// budget, where the pre-product gate skips most children.
		{"pmsm-ns5-9x9", served, 1e-3, 30, 2_000_000, []int{1, 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := refGripenberg(t, tc.set, tc.delta, tc.maxDepth, tc.maxNodes)
			workers := tc.workers
			if workers == nil {
				workers = workerSweep()
			}
			for _, w := range workers {
				opt := GripenbergOptions{
					Delta: tc.delta, MaxDepth: tc.maxDepth, MaxNodes: tc.maxNodes,
					Workers: w,
				}
				got, err := GripenbergCtx(context.Background(), tc.set, opt)
				if err != nil && !errors.Is(err, ErrBudget) {
					t.Fatalf("w=%d: %v", w, err)
				}
				if !sameBounds(got, want) {
					t.Fatalf("w=%d: engine %+v != reference %+v", w, got, want)
				}
				// On the complete graph the constrained search visits the
				// same children in the same order.
				con, err := constrainedGripenberg(context.Background(), tc.set, CompleteGraph(len(tc.set)), opt)
				if err != nil && !errors.Is(err, ErrBudget) {
					t.Fatalf("w=%d constrained: %v", w, err)
				}
				if !sameBounds(con, want) {
					t.Fatalf("w=%d: constrained engine %+v != reference %+v", w, con, want)
				}
			}
		})
	}
}

// refBruteForce is a deliberately naive Eq. 12 sandwich over the walks
// of g: breadth-first levels of fresh mat.Mul products, a fresh
// mat.TwoNorm for every product and a fresh mat.SpectralRadius for every
// walk that closes back to its start, nothing skipped, no workers.
// Within a level the first walk, in walk order, with the largest ρ is
// the witness; across levels the shortest one with the largest rate.
func refBruteForce(t *testing.T, set []*mat.Dense, g *Graph, maxLen int) Bounds {
	t.Helper()
	type walk struct {
		prod      *mat.Dense
		word      []int
		at, start int
	}
	var level []walk
	for i, lbl := range g.Nodes {
		level = append(level, walk{prod: set[lbl], word: []int{lbl}, at: i, start: i})
	}
	lower, upper := 0.0, math.Inf(1)
	var witness []int
	for l := 1; l <= maxLen; l++ {
		bestRho, maxNorm := 0.0, 0.0
		var bestWord []int
		for _, w := range level {
			maxNorm = math.Max(maxNorm, mat.TwoNorm(w.prod))
			if !closes(g, w.at, w.start) {
				continue
			}
			rho, err := mat.SpectralRadius(w.prod)
			if err != nil {
				t.Fatalf("rho of %v: %v", w.word, err)
			}
			if rho > bestRho {
				bestRho, bestWord = rho, w.word
			}
		}
		exp := 1 / float64(l)
		if lb := math.Pow(bestRho, exp); lb > lower {
			lower, witness = lb, bestWord
		}
		upper = math.Min(upper, math.Pow(maxNorm, exp))
		var next []walk
		for _, w := range level {
			for _, nxt := range g.Next[w.at] {
				lbl := g.Nodes[nxt]
				next = append(next, walk{prod: mat.Mul(set[lbl], w.prod), word: childWord(w.word, lbl), at: nxt, start: w.start})
			}
		}
		level = next
	}
	if upper < lower {
		upper = lower
	}
	return Bounds{Lower: lower, Upper: upper, WitnessWord: witness}
}

func TestBruteForceMatchesReferenceByteForByte(t *testing.T) {
	cases := []struct {
		name   string
		set    []*mat.Dense
		maxLen int
	}{
		{"pmsm", pmsmLikeSet(), 9},
		{"golden", goldenPair(), 9},
		{"normal", normalBoundarySet(1e-15), 8},
		{"rank-one", rankOneBoundarySet(1e-15), 8},
		{"dominant", dominantBoundarySet(1e-15), 8},
		{"tie-level1", levelTieSet(), 5},
		{"tie-level2", pairTieSet(), 6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			complete := CompleteGraph(len(tc.set))
			want := refBruteForce(t, tc.set, complete, tc.maxLen)
			for _, w := range workerSweep() {
				got, err := BruteForceBoundsCtx(context.Background(), tc.set, tc.maxLen, BruteForceOptions{Workers: w})
				if err != nil {
					t.Fatalf("w=%d: %v", w, err)
				}
				if !sameBounds(got, want) {
					t.Fatalf("w=%d: engine %+v != reference %+v", w, got, want)
				}
				// On the complete graph every walk closes and the levels
				// hold the same products in the same order.
				con, err := certified(bruteForce(context.Background(), tc.set, complete, tc.maxLen, BruteForceOptions{Workers: w}))
				if err != nil {
					t.Fatalf("w=%d constrained: %v", w, err)
				}
				if !sameBounds(con, want) {
					t.Fatalf("w=%d: constrained engine %+v != reference %+v", w, con, want)
				}
			}
		})
	}
}

// TestConstrainedBoundsMatchesReferenceByteForByte pins the constrained
// Eq. 12 sweep, gates and all, to the naive reference on weakly-hard
// graphs at every worker count: the sets of
// TestConstrainedEngineMatchesReferenceByteForByte, and the two tie
// families, whose all-zero walks close and tie across levels.
func TestConstrainedBoundsMatchesReferenceByteForByte(t *testing.T) {
	cases := []struct {
		name   string
		set    []*mat.Dense
		m, k   int
		maxLen int
	}{
		{"pmsm-1of3", pmsmLikeSet(), 1, 3, 12},
		{"pmsm-2of5", pmsmLikeSet(), 2, 5, 10},
		{"golden-1of3", goldenPair(), 1, 3, 12},
		{"nonnormal-2of4", nonNormalPair(), 2, 4, 10},
		{"normal-1of2", normalBoundarySet(1e-15), 1, 2, 12},
		{"rank-one-2of4", rankOneBoundarySet(1e-15), 2, 4, 10},
		{"dominant-1of3", dominantBoundarySet(1e-15), 1, 3, 12},
		{"tie-level1-1of3", levelTieSet(), 1, 3, 5},
		{"tie-level2-1of2", pairTieSet(), 1, 2, 6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := WeaklyHardGraph(tc.m, tc.k)
			if err != nil {
				t.Fatal(err)
			}
			want := refBruteForce(t, tc.set, g, tc.maxLen)
			for _, w := range workerSweep() {
				got, err := certified(bruteForce(context.Background(), tc.set, g, tc.maxLen, BruteForceOptions{Workers: w}))
				if err != nil {
					t.Fatalf("w=%d: %v", w, err)
				}
				if !sameBounds(got, want) {
					t.Fatalf("w=%d: engine %+v != reference %+v", w, got, want)
				}
			}
		})
	}
}

// levelTieSet holds four 2×2 scaled permutations with power-of-two
// scales. Every product of length l of the first three is ±2^l times a
// permutation, with spectral radius exactly 2^l, and math.Pow(2^l, 1/l)
// is exactly 2 at l = 1, 2, 4 and 5 (one ulp below at l = 3). So the
// best rates of levels 1, 2, 4 and 5 tie exactly, and the witness must
// stay the shortest word, [0]. With four matrices a single worker splits
// at depth 1, so levels 2..5 run in the deep phase.
func levelTieSet() []*mat.Dense {
	return []*mat.Dense{
		mat.FromRows([][]float64{{0, 2}, {2, 0}}),
		mat.FromRows([][]float64{{2, 0}, {0, 2}}),
		mat.FromRows([][]float64{{0, -2}, {-2, 0}}),
		mat.FromRows([][]float64{{0.5, 0}, {0, 0.5}}),
	}
}

// pairTieSet puts the witness at level 2: the swaps S = [[0,4],[¼,0]]
// and its transpose have ρ = 1, but their product is diag(16, 1/16), so
// level 2 rates 4, and its square ties it exactly at level 4. The level-2
// word [0, 1] must stay the witness. Two small multiples of the identity
// make four matrices, so levels 2 and 4 run in the deep phase.
func pairTieSet() []*mat.Dense {
	return []*mat.Dense{
		mat.FromRows([][]float64{{0, 4}, {0.25, 0}}),
		mat.FromRows([][]float64{{0, 0.25}, {4, 0}}),
		mat.FromRows([][]float64{{0.5, 0}, {0, 0.5}}),
		mat.FromRows([][]float64{{0.25, 0}, {0, 0.25}}),
	}
}

// TestTieSetsTieExactly guards the two tie families: if their ties were
// not exact, they would not test the strict tie rule.
func TestTieSetsTieExactly(t *testing.T) {
	rate := func(set []*mat.Dense, word []int) float64 {
		r, err := WitnessRate(set, word)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	lt := levelTieSet()
	for _, w := range [][]int{{0}, {0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0, 0}} {
		if r := rate(lt, w); r != 2 {
			t.Fatalf("levelTieSet: word %v rates %v, want exactly 2", w, r)
		}
	}
	pt := pairTieSet()
	if r1, r2, r4 := rate(pt, []int{0}), rate(pt, []int{0, 1}), rate(pt, []int{0, 1, 0, 1}); r1 >= r2 || r2 != 4 || r4 != 4 {
		t.Fatalf("pairTieSet: rates %v, %v, %v at levels 1, 2, 4; want below 4, exactly 4, exactly 4", r1, r2, r4)
	}
	for name, tc := range map[string]struct {
		set     []*mat.Dense
		maxLen  int
		witness []int
	}{"level1": {lt, 5, []int{0}}, "level2": {pt, 6, []int{0, 1}}} {
		if got := refBruteForce(t, tc.set, CompleteGraph(len(tc.set)), tc.maxLen).WitnessWord; !slices.Equal(got, tc.witness) {
			t.Fatalf("%s: reference witness %v, want %v", name, got, tc.witness)
		}
	}
}

// randomScaledPermutation returns P·D for a random permutation P and a
// diagonal D of signed powers of four in [1/16, 16], each nudged up by
// zero to two ulps. Products of exact powers tie exactly across levels,
// and the nudges make distinct spectral radii whose rates round to the
// same value, so the strict tie rules of the fold and of bruteFinalize
// decide the witness.
func randomScaledPermutation(rng *rand.Rand, n int) *mat.Dense {
	m := mat.New(n, n)
	for j, i := range rng.Perm(n) {
		v := math.Ldexp(1, 2*(rng.Intn(5)-2))
		for s := rng.Intn(3); s > 0; s-- {
			v = math.Nextafter(v, math.Inf(1))
		}
		if rng.Intn(2) == 0 {
			v = -v
		}
		m.Set(i, j, v)
	}
	return m
}

// TestBruteForceMatchesReferenceRandomized compares the engine with
// refBruteForce on random Gaussian sets and random scaled-permutation
// sets, k ∈ {2, 3, 4} and n ∈ {2, 3, 4, 6, 9}, at lengths up to 6 and
// at worker counts that change the split depth and the ranges. Half of
// the permutation cases are four 2×2 matrices: one worker then splits at
// depth 1, so the DFS folds longer levels before shorter ones finish,
// and rate ties across levels are frequent.
func TestBruteForceMatchesReferenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ks, ns := []int{2, 3, 4}, []int{2, 3, 4, 6, 9}
	for c := 0; c < 200; c++ {
		k, n := ks[rng.Intn(len(ks))], ns[rng.Intn(len(ns))]
		perm := c%4 != 0
		if perm && c%2 == 1 {
			k, n = 4, 2
		}
		maxLen := 1 + rng.Intn(6)
		for maxLen > 1 && math.Pow(float64(k), float64(maxLen)) > 1024 {
			// Keep the naive reference cheap.
			maxLen--
		}
		set := make([]*mat.Dense, k)
		if perm {
			for i := range set {
				set[i] = randomScaledPermutation(rng, n)
			}
		} else {
			set = benchExpandSet(n, k, rng.Int63())
		}
		want := refBruteForce(t, set, CompleteGraph(k), maxLen)
		for _, w := range []int{1, 2, 3, 5} {
			got, err := BruteForceBoundsCtx(context.Background(), set, maxLen, BruteForceOptions{Workers: w})
			if err != nil {
				t.Fatalf("case %d (k=%d n=%d len=%d perm=%v) w=%d: %v", c, k, n, maxLen, perm, w, err)
			}
			if !sameBounds(got, want) {
				t.Fatalf("case %d (k=%d n=%d len=%d perm=%v) w=%d: engine [%v, %v] %v != reference [%v, %v] %v",
					c, k, n, maxLen, perm, w, got.Lower, got.Upper, got.WitnessWord, want.Lower, want.Upper, want.WitnessWord)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Serial cutover: results must be bit-identical on both sides of the
// threshold (the cutover is a pure scheduling decision).

func TestSerialCutoverBitIdentity(t *testing.T) {
	defer func(v int) { serialCutoverNodes = v }(serialCutoverNodes)
	for name, set := range map[string][]*mat.Dense{"pmsm": pmsmLikeSet(), "golden": goldenPair()} {
		opt := GripenbergOptions{Delta: 0.02, MaxDepth: 12, MaxNodes: 100_000, Workers: 4}

		serialCutoverNodes = 1 << 30 // force every level serial
		serial, serr := GripenbergCtx(context.Background(), set, opt)

		serialCutoverNodes = 0 // force every level through the worker pool
		parallel, perr := GripenbergCtx(context.Background(), set, opt)

		if (serr == nil) != (perr == nil) {
			t.Fatalf("%s: error mismatch: %v vs %v", name, serr, perr)
		}
		if !sameBounds(serial, parallel) {
			t.Fatalf("%s: serial %+v != parallel %+v across cutover boundary", name, serial, parallel)
		}
	}
}

// ---------------------------------------------------------------------------
// Zero allocations in the warm expand loop.

func TestExpandLevelZeroAllocsWarm(t *testing.T) {
	set := pmsmLikeSet()
	weaklyHard, err := WeaklyHardGraph(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	// On a weakly-hard graph the out-degrees differ and some children's
	// walks cannot close; a warm level still allocates nothing.
	for _, tc := range []struct {
		name string
		g    *Graph
	}{{"complete", CompleteGraph(len(set))}, {"weakly-hard-2of5", weaklyHard}} {
		t.Run(tc.name, func(t *testing.T) {
			frontier, seedLower, _, err := seedFrontier(set, tc.g)
			if err != nil {
				t.Fatalf("seed: %v", err)
			}
			s := newGripSearch(set, tc.g, 1)
			ctx := context.Background()
			inf := math.Inf(-1)
			// Warm both parity pools and the slot-0 scratch.
			for _, depth := range []int{2, 3} {
				if _, err := s.expandLevel(ctx, frontier, len(frontier), depth, 1, inf, inf); err != nil {
					t.Fatalf("warmup depth %d: %v", depth, err)
				}
			}
			// -Inf solves every closing child and computes every norm; the
			// seed lower bound and its prune threshold run both gates,
			// including the Gelfand product in the scratch's square buffer.
			for _, lp := range [][2]float64{{inf, inf}, {seedLower, seedLower + 1e-3}} {
				allocs := testing.AllocsPerRun(50, func() {
					if _, err := s.expandLevel(ctx, frontier, len(frontier), 2, 1, lp[0], lp[1]); err != nil {
						panic(err)
					}
				})
				if allocs != 0 {
					t.Errorf("lower=%v prune=%v: warm expandLevel allocates %.1f per level, want 0", lp[0], lp[1], allocs)
				}
			}
		})
	}
}

// TestExpandLevelSkipsOnlyLosingChildren pins both gates on both sides.
// A child's spectral radius is solved exactly when both its norm bound
// and its Gelfand bound, taken to the 1/depth power, exceed lower;
// otherwise it carries rho = 0. Its norm is computed exactly when
// min(parent cert, T^{1/depth}) exceeds prune, T being the 2-norm bound;
// otherwise it records prune as its certificate, which the merge
// prunes. lower = prune = -Inf computes everything, +Inf nothing, and
// thresholds between the children's bound rates give a mix, including
// children that only the Gelfand bound skips. On the 3×3 set at depth
// 2 every bound rate is above its parent's certificate, so the norm
// skips there follow from the parent alone; the lifted 9×9 PMSM set,
// preconditioned as EstimateCtx runs it, is taken deep enough that
// some children are skipped on their bound rate below the parent's.
func TestExpandLevelSkipsOnlyLosingChildren(t *testing.T) {
	t.Run("pmsm-like-3x3", func(t *testing.T) {
		set := pmsmLikeSet()
		checkExpandGates(t, set, 2, false)
	})
	t.Run("pmsm-lifted-9x9", func(t *testing.T) {
		work, _, ok := Precondition(pmsmLiftedSet(t))
		if !ok {
			t.Fatal("Precondition found no common quadratic Lyapunov function for the PMSM set")
		}
		checkExpandGates(t, work, pmsmGateDepth, true)
	})
}

// pmsmGateDepth is the level at which the 9×9 case checks the gates:
// deep enough that some children's 2-norm bound rate falls below
// their parent's certificate.
const pmsmGateDepth = 5

// checkExpandGates expands the full (unpruned) tree of work to depth-1
// and checks both gates on the children of the next level.
// boundBranch demands that some norm skips come from the bound rate
// alone, below the parent's certificate.
func checkExpandGates(t *testing.T, work []*mat.Dense, depth int, boundBranch bool) {
	t.Helper()
	k := len(work)
	complete := CompleteGraph(k)
	frontier, _, _, err := seedFrontier(work, complete)
	if err != nil {
		t.Fatalf("seed: %v", err)
	}
	g := newGripSearch(work, complete, 1)
	ms := mat.NewScratch(work[0].Rows())
	ctx := context.Background()
	inf := math.Inf(1)
	for d := 2; d < depth; d++ {
		frontier = cloneChildren(t, g, frontier, d)
	}
	exp := 1 / float64(depth)
	children, err := g.expandLevel(ctx, frontier, len(frontier), depth, 1, -inf, -inf)
	if err != nil {
		t.Fatal(err)
	}
	// Per child: the rate of each spectral-radius bound, and the
	// certificate bound.
	radius := make([]float64, len(children))
	square := make([]float64, len(children))
	certBound := make([]float64, len(children))
	for ci, c := range children {
		nb := mat.NormBoundsScratch(c.prod, ms)
		radius[ci] = math.Pow(nb.Radius, exp)
		square[ci] = math.Pow(mat.SquareRadiusBoundScratch(c.prod, nb, ms), exp)
		certBound[ci] = math.Min(frontier[ci/k].cert, math.Pow(nb.TwoNorm, exp))
	}
	median := func(xs []float64) float64 {
		ys := append([]float64(nil), xs...)
		sort.Float64s(ys)
		return ys[len(ys)/2-1]
	}
	rhoRates := make([]float64, len(children))
	for ci := range children {
		rhoRates[ci] = math.Min(radius[ci], square[ci])
	}
	midLower, midPrune := median(rhoRates), median(certBound)
	for _, lp := range [][2]float64{{-inf, -inf}, {midLower, midPrune}, {inf, inf}} {
		lower, prune := lp[0], lp[1]
		children, err := g.expandLevel(ctx, frontier, len(frontier), depth, 1, lower, prune)
		if err != nil {
			t.Fatalf("lower=%v: %v", lower, err)
		}
		solved, squareOnly, normed, byBound := 0, 0, 0, 0
		for ci, c := range children {
			want := 0.0
			if radius[ci] > lower && square[ci] > lower {
				solved++
				if want, err = mat.SpectralRadius(c.prod); err != nil {
					t.Fatalf("child %d: %v", ci, err)
				}
			} else if radius[ci] > lower {
				squareOnly++
			}
			if math.Float64bits(c.rho) != math.Float64bits(want) {
				t.Errorf("lower=%v child %d: rho = %v, want %v", lower, ci, c.rho, want)
			}
			if certBound[ci] > prune {
				normed++
				wantCert := math.Min(frontier[ci/k].cert, math.Pow(mat.TwoNorm(c.prod), exp))
				if math.Float64bits(c.cert) != math.Float64bits(wantCert) {
					t.Errorf("prune=%v child %d: cert = %v, want %v", prune, ci, c.cert, wantCert)
				}
				continue
			}
			// A skipped norm records prune itself: at most prune, as
			// the merge needs, and never a computed certificate.
			if math.Float64bits(c.cert) != math.Float64bits(prune) {
				t.Errorf("prune=%v child %d: cert = %v, want prune for a skipped norm", prune, ci, c.cert)
			}
			if certBound[ci] < frontier[ci/k].cert {
				byBound++
			}
		}
		switch lower {
		case -inf:
			if solved != len(children) || normed != len(children) {
				t.Errorf("lower=-Inf solved %d and normed %d of %d children, want all", solved, normed, len(children))
			}
		case inf:
			if solved != 0 || normed != 0 {
				t.Errorf("lower=+Inf solved %d and normed %d children, want none", solved, normed)
			}
		default:
			if solved == 0 || solved == len(children) || squareOnly == 0 {
				t.Errorf("lower=%v solved %d of %d children (%d skipped by the Gelfand bound alone), want a mix", lower, solved, len(children), squareOnly)
			}
			if normed == 0 || normed == len(children) {
				t.Errorf("prune=%v normed %d of %d children, want a mix", prune, normed, len(children))
			}
			if boundBranch && byBound == 0 {
				t.Errorf("prune=%v: no child skipped its norm on a bound rate below its parent's certificate", prune)
			}
		}
	}
}

// cloneChildren expands every node of frontier at depth with both gates
// off and returns all children as the next frontier, with products
// copied out of the search's pools.
func cloneChildren(t testing.TB, s *gripSearch, frontier []gripNode, depth int) []gripNode {
	t.Helper()
	children, err := s.expandLevel(context.Background(), frontier, len(frontier), depth, 1, math.Inf(-1), math.Inf(-1))
	if err != nil {
		t.Fatalf("build depth %d: %v", depth, err)
	}
	next := make([]gripNode, len(children))
	fi := 0
	for ci, c := range children {
		for s.offs[fi+1] <= ci {
			fi++
		}
		next[ci] = gripNode{
			prod:  c.prod.Clone(),
			word:  childWord(frontier[fi].word, s.g.Nodes[c.at]),
			at:    c.at,
			start: frontier[fi].start,
			cert:  c.cert,
		}
	}
	return next
}

// pmsmLiftedSet loads testdata/pmsm_ns5.json: the closed-loop set
// {Ω(h)} of the lifted PMSM design at Ns = 5 and Rmax = 1.6·T, four 9×9
// modes, as api.BuildScenario("pmsm", 1.6, 5) builds it (the api tests
// check that the file still matches).
func pmsmLiftedSet(t testing.TB) []*mat.Dense {
	t.Helper()
	data, err := os.ReadFile("testdata/pmsm_ns5.json")
	if err != nil {
		t.Fatal(err)
	}
	var ms [][][]float64
	if err := json.Unmarshal(data, &ms); err != nil {
		t.Fatal(err)
	}
	set := make([]*mat.Dense, len(ms))
	for i, m := range ms {
		set[i] = mat.FromRows(m)
	}
	return set
}

// ---------------------------------------------------------------------------
// Expand-loop benchmark, pinned in scripts/bench.sh: ns per level and
// the machine-checkable 0 allocs/op warm claim.

func benchExpandSet(n, k int, seed int64) []*mat.Dense {
	rng := rand.New(rand.NewSource(seed))
	set := make([]*mat.Dense, k)
	for i := range set {
		m := mat.New(n, n)
		for r := 0; r < n; r++ {
			for c := 0; c < n; c++ {
				m.Set(r, c, rng.NormFloat64()/math.Sqrt(float64(n)))
			}
		}
		set[i] = m
	}
	return set
}

// benchmarkExpand times one warm depth-4 level of the random set
// benchExpandSet(n, 4, seed). Ungated, it passes -Inf and pays every
// kernel. Gated, it expands at the seed lower bound and its prune
// threshold, so the run prices the gates against what they skip.
func benchmarkExpand(b *testing.B, n int, seed int64, gated bool) {
	set := benchExpandSet(n, 4, seed)
	// Build a depth-3 frontier outside the pools so expansion never
	// clobbers its own parents across benchmark iterations.
	complete := CompleteGraph(len(set))
	frontier, seedLower, _, err := seedFrontier(set, complete)
	if err != nil {
		b.Fatalf("seed: %v", err)
	}
	lower, prune := math.Inf(-1), math.Inf(-1)
	if gated {
		lower, prune = seedLower, seedLower+1e-3
	}
	g := newGripSearch(set, complete, 1)
	ctx := context.Background()
	for depth := 2; depth <= 3; depth++ {
		frontier = cloneChildren(b, g, frontier, depth)
	}
	if _, err := g.expandLevel(ctx, frontier, len(frontier), 4, 1, lower, prune); err != nil {
		b.Fatalf("warmup: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.expandLevel(ctx, frontier, len(frontier), 4, 1, lower, prune); err != nil {
			b.Fatalf("expand: %v", err)
		}
	}
}

// BenchmarkJSRExpand's n5 rows run at the served block size. Random
// 4-mode 5×5 sets mostly have one mode whose own spectral radius the
// depth-4 products cannot beat, and then the gates skip almost the
// whole level: at n = 5, seed 42 (the n6 row's) multiplies one child of
// 256. Seed 40 is one where they cannot: 222 of the 256 children are
// multiplied and 49 raise the bound, so n5-gated prices the gates'
// bounds sweep, Gram products and Gelfand products against little that
// they skip.
func BenchmarkJSRExpand(b *testing.B) {
	b.Run("n6", func(b *testing.B) { benchmarkExpand(b, 6, 42, false) })
	b.Run("n5", func(b *testing.B) { benchmarkExpand(b, 5, 40, false) })
	b.Run("n5-gated", func(b *testing.B) { benchmarkExpand(b, 5, 40, true) })
}

// BenchmarkBruteForcePMSM times the Eq. 12 sweeps EstimateCtx runs on
// the lifted PMSM Ns = 5 set (four 9×9 modes): one per invariant block,
// of 4 and of 5 states, each preconditioned, at the service's default
// length 6: 5,460 products per block.
func BenchmarkBruteForcePMSM(b *testing.B) {
	set := pmsmLiftedSet(b)
	var works [][]*mat.Dense
	for _, blk := range splitBlocks(set) {
		work, _, ok := Precondition(restrict(set, blk))
		if !ok {
			b.Fatalf("precondition of block %v failed", blk)
		}
		works = append(works, work)
	}
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			opt := BruteForceOptions{Workers: w}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, work := range works {
					if _, err := BruteForceBoundsCtx(context.Background(), work, 6, opt); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkEstimatePMSM times the served call on the lifted PMSM Ns = 5
// set: EstimateCtx at api's default budgets (brute length 6, δ = 1e-3,
// depth 30, 2,000,000 nodes), preconditioning included.
func BenchmarkEstimatePMSM(b *testing.B) {
	set := pmsmLiftedSet(b)
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			opt := GripenbergOptions{Delta: 1e-3, MaxDepth: 30, MaxNodes: 2_000_000, Workers: w}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := EstimateCtx(context.Background(), set, 6, opt); err != nil && !errors.Is(err, ErrBudget) {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestGripenbergAllocsServedSet pins the allocations of one whole
// search at the served size: GripenbergCtx at workers = 1 over the
// preconditioned lifted PMSM Ns = 5 set with the service's default
// depth, δ and node budget, as EstimateCtx ran it before it searched
// the set's invariant blocks one at a time. Children the
// pre-product gate rules out take no product buffer, survivors' words
// go into two reused slabs, and every pool is per search, so the count
// is a small constant per search rather than per node: mostly the
// product buffers of the widest levels of either parity. Measured at
// 2,732 on linux/amd64 (14,333 before the gate and the slabs); the
// bound leaves 3% for other platforms.
func TestGripenbergAllocsServedSet(t *testing.T) {
	const maxAllocs = 2800
	work, _, ok := Precondition(pmsmLiftedSet(t))
	if !ok {
		t.Fatal("Precondition found no common quadratic Lyapunov function for the PMSM set")
	}
	opt := GripenbergOptions{Delta: 1e-3, MaxDepth: 30, MaxNodes: 2_000_000, Workers: 1}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := GripenbergCtx(context.Background(), work, opt); err != nil && !errors.Is(err, ErrBudget) {
			panic(err)
		}
	})
	if allocs > maxAllocs {
		t.Fatalf("one search allocates %.0f times, want at most %d", allocs, maxAllocs)
	}
}
