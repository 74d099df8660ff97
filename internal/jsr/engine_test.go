package jsr

import (
	"context"
	"errors"
	"math"
	"math/rand"
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
			if _, err := Gripenberg(set, GripenbergOptions{Delta: 0.05, MaxDepth: 8}); !errors.Is(err, ErrNonFinite) {
				t.Errorf("Gripenberg error = %v, want ErrNonFinite", err)
			}
			if _, err := BruteForceBoundsOpt(set, 3, BruteForceOptions{}); !errors.Is(err, ErrNonFinite) {
				t.Errorf("BruteForceBoundsOpt error = %v, want ErrNonFinite", err)
			}
			if _, err := WitnessRate(set, []int{0, 1}); !errors.Is(err, ErrNonFinite) {
				t.Errorf("WitnessRate error = %v, want ErrNonFinite", err)
			}
			if _, err := Estimate(set, 3, GripenbergOptions{Delta: 0.05, MaxDepth: 8}); !errors.Is(err, ErrNonFinite) {
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
// mat.SpectralRadius, no pools, no worker sharding, no ellipsoid. It
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

func TestEngineMatchesReferenceByteForByte(t *testing.T) {
	cases := []struct {
		name     string
		set      []*mat.Dense
		delta    float64
		maxDepth int
		maxNodes int
	}{
		{"pmsm", pmsmLikeSet(), 0.02, 12, 500_000},
		{"golden", goldenPair(), 0.05, 10, 500_000},
		// δ below an ulp keeps the branches whose certificates beat
		// Lower by rounding alone, so the search runs at the boundary.
		{"normal", normalBoundarySet(1e-15), 1e-17, 10, 500_000},
		{"rank-one", rankOneBoundarySet(0), 1e-17, 10, 500_000},
		// Tiny budget: exercises the partial-level ErrBudget path.
		{"pmsm-budget", pmsmLikeSet(), 0.005, 14, 40},
		{"golden-budget", goldenPair(), 1e-4, 12, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := refGripenberg(t, tc.set, tc.delta, tc.maxDepth, tc.maxNodes)
			for _, w := range workerSweep() {
				opt := GripenbergOptions{
					Delta: tc.delta, MaxDepth: tc.maxDepth, MaxNodes: tc.maxNodes,
					Workers: w, DisableEllipsoid: true,
				}
				got, err := Gripenberg(tc.set, opt)
				if err != nil && !errors.Is(err, ErrBudget) {
					t.Fatalf("w=%d: %v", w, err)
				}
				if !sameBounds(got, want) {
					t.Fatalf("w=%d: engine %+v != reference %+v", w, got, want)
				}
				// On the complete graph the constrained search visits the
				// same children in the same order.
				con, err := ConstrainedGripenberg(tc.set, CompleteGraph(len(tc.set)), opt)
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

// refBruteForce is a deliberately naive Eq. 12 sandwich: breadth-first
// levels of fresh mat.Mul products, a fresh mat.SpectralRadius and
// mat.TwoNorm for every product, nothing skipped, no workers. Within a
// level the first maximizer in lexicographic word order is the witness.
func refBruteForce(t *testing.T, set []*mat.Dense, maxLen int) Bounds {
	t.Helper()
	level := append([]*mat.Dense(nil), set...)
	words := make([][]int, len(set))
	for i := range set {
		words[i] = []int{i}
	}
	lower, upper := 0.0, math.Inf(1)
	var witness []int
	for l := 1; l <= maxLen; l++ {
		bestRho, maxNorm := 0.0, 0.0
		var bestWord []int
		for pi, p := range level {
			rho, err := mat.SpectralRadius(p)
			if err != nil {
				t.Fatalf("rho of %v: %v", words[pi], err)
			}
			if rho > bestRho {
				bestRho, bestWord = rho, words[pi]
			}
			maxNorm = math.Max(maxNorm, mat.TwoNorm(p))
		}
		exp := 1 / float64(l)
		if lb := math.Pow(bestRho, exp); lb > lower {
			lower, witness = lb, bestWord
		}
		upper = math.Min(upper, math.Pow(maxNorm, exp))
		var next []*mat.Dense
		var nextWords [][]int
		for pi, p := range level {
			for ai, a := range set {
				next = append(next, mat.Mul(a, p))
				nextWords = append(nextWords, childWord(words[pi], ai))
			}
		}
		level, words = next, nextWords
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
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := refBruteForce(t, tc.set, tc.maxLen)
			for _, w := range workerSweep() {
				got, err := BruteForceBoundsOpt(tc.set, tc.maxLen, BruteForceOptions{Workers: w})
				if err != nil {
					t.Fatalf("w=%d: %v", w, err)
				}
				if !sameBounds(got, want) {
					t.Fatalf("w=%d: engine %+v != reference %+v", w, got, want)
				}
			}
			// On the complete graph every walk closes and the levels hold
			// the same products in the same order.
			con, err := ConstrainedBounds(tc.set, CompleteGraph(len(tc.set)), tc.maxLen)
			if err != nil {
				t.Fatalf("constrained: %v", err)
			}
			if !sameBounds(con, want) {
				t.Fatalf("constrained engine %+v != reference %+v", con, want)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Serial cutover: results must be bit-identical on both sides of the
// threshold (the cutover is a pure scheduling decision).

func TestSerialCutoverBitIdentity(t *testing.T) {
	defer func(v int) { serialCutoverNodes = v }(serialCutoverNodes)
	for name, set := range map[string][]*mat.Dense{"pmsm": pmsmLikeSet(), "golden": goldenPair()} {
		for _, disable := range []bool{false, true} {
			opt := GripenbergOptions{Delta: 0.02, MaxDepth: 12, MaxNodes: 100_000, Workers: 4, DisableEllipsoid: disable}

			serialCutoverNodes = 1 << 30 // force every level serial
			serial, serr := Gripenberg(set, opt)

			serialCutoverNodes = 0 // force every level through the worker pool
			parallel, perr := Gripenberg(set, opt)

			if (serr == nil) != (perr == nil) {
				t.Fatalf("%s ell=%v: error mismatch: %v vs %v", name, !disable, serr, perr)
			}
			if !sameBounds(serial, parallel) {
				t.Fatalf("%s ell=%v: serial %+v != parallel %+v across cutover boundary", name, !disable, serial, parallel)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Ellipsoidal pruning: bracket contract unchanged, witness exact.

func TestEllipsoidBracketContract(t *testing.T) {
	for name, set := range map[string][]*mat.Dense{"pmsm": pmsmLikeSet(), "golden": goldenPair()} {
		t.Run(name, func(t *testing.T) {
			g, err := Gripenberg(set, GripenbergOptions{Delta: 0.01, MaxDepth: 20, MaxNodes: 200_000})
			if err != nil && !errors.Is(err, ErrBudget) {
				t.Fatalf("Gripenberg: %v", err)
			}
			if g.Upper < g.Lower {
				t.Fatalf("inverted bracket %+v", g)
			}
			if len(g.WitnessWord) == 0 {
				t.Fatalf("no witness returned")
			}
			// Lower is exactly the rate the witness attains on the raw set.
			rate, rerr := WitnessRate(set, g.WitnessWord)
			if rerr != nil {
				t.Fatalf("WitnessRate: %v", rerr)
			}
			if math.Float64bits(rate) != math.Float64bits(g.Lower) {
				t.Fatalf("WitnessRate = %.17g, Lower = %.17g: not bit-identical", rate, g.Lower)
			}
			// The ellipsoid bracket must intersect the raw sandwich.
			bf, bferr := BruteForceBounds(set, 6)
			if bferr != nil {
				t.Fatalf("BruteForceBounds: %v", bferr)
			}
			if g.Lower > bf.Upper+1e-9 || bf.Lower > g.Upper+1e-9 {
				t.Fatalf("ellipsoid bracket %+v does not intersect brute bracket %+v", g, bf)
			}
		})
	}
}

// TestEllipsoidTightensIllConditionedSet pins the motivating speedup.
// The raw 2-norm is a poor certificate for badly conditioned sets (like
// the paper's 9×9 lifted closed loops): here a skewed similarity of the
// golden pair inflates every product norm by the conditioning of T, so
// ‖P‖^{1/l} approaches the JSR only at depths far beyond the budget and
// the raw search returns a wide budget-cut bracket. The ellipsoidal
// (single-Lyapunov) norm undoes the conditioning and drains the
// frontier to a δ-tight bracket within a few levels.
func TestEllipsoidTightensIllConditionedSet(t *testing.T) {
	tt := mat.FromRows([][]float64{{100, 0}, {3, 0.01}})
	tinv, err := mat.Inverse(tt)
	if err != nil {
		t.Fatalf("Inverse: %v", err)
	}
	skew := make([]*mat.Dense, 2)
	for i, a := range goldenPair() {
		skew[i] = mat.MulMany(tt, a, tinv)
	}
	opt := GripenbergOptions{Delta: 0.05, MaxDepth: 12, MaxNodes: 200_000}

	ell, eerr := Gripenberg(skew, opt)
	if eerr != nil {
		t.Fatalf("ellipsoid search should drain within depth 12, got %v (bounds %+v)", eerr, ell)
	}
	if golden := math.Phi; math.Abs(ell.Lower-golden) > 1e-6 || ell.Gap() > opt.Delta+1e-12 {
		t.Fatalf("ellipsoid bracket %+v, want Lower≈φ with gap ≤ δ", ell)
	}

	raw := opt
	raw.DisableEllipsoid = true
	rb, rerr := Gripenberg(skew, raw)
	if !errors.Is(rerr, ErrBudget) {
		t.Fatalf("raw search on the skewed set expected ErrBudget, got %v (bounds %+v)", rerr, rb)
	}
	if ell.Gap() >= rb.Gap() {
		t.Fatalf("ellipsoid gap %v not tighter than raw gap %v", ell.Gap(), rb.Gap())
	}
}

// ---------------------------------------------------------------------------
// Resume across the ellipsoid mode boundary must be rejected.

func TestResumeEllipsoidMismatchRejected(t *testing.T) {
	set := pmsmLikeSet()
	if _, _, ok := Precondition(set); !ok {
		t.Fatalf("preconditioner unexpectedly failed for pmsmLikeSet")
	}
	for _, disable := range []bool{false, true} {
		var snap *GripenbergState
		opt := GripenbergOptions{
			Delta: 0.02, MaxDepth: 10, DisableEllipsoid: disable,
			Snapshot: func(st GripenbergState) error {
				if snap == nil {
					snap = &st
				}
				return nil
			},
		}
		if _, err := Gripenberg(set, opt); err != nil && !errors.Is(err, ErrBudget) {
			t.Fatalf("disable=%v: %v", disable, err)
		}
		if snap == nil {
			t.Fatalf("disable=%v: no snapshot captured", disable)
		}
		if snap.Ellipsoid != !disable {
			t.Fatalf("disable=%v: snapshot Ellipsoid = %v", disable, snap.Ellipsoid)
		}
		// Resuming with the opposite mode must fail loudly, not return a
		// silently un-bit-identical bracket.
		_, err := Gripenberg(set, GripenbergOptions{
			Delta: 0.02, MaxDepth: 10, DisableEllipsoid: !disable, Resume: snap,
		})
		if err == nil || errors.Is(err, ErrBudget) {
			t.Fatalf("disable=%v: resume with flipped ellipsoid mode succeeded, want rejection", disable)
		}
	}
}

// ---------------------------------------------------------------------------
// Zero allocations in the warm expand loop.

func TestExpandLevelZeroAllocsWarm(t *testing.T) {
	set := pmsmLikeSet()
	frontier, seedLower, _, err := seedFrontier(set, set)
	if err != nil {
		t.Fatalf("seed: %v", err)
	}
	g := newGripSearch(set, 1)
	ctx := context.Background()
	// Warm both parity pools and the slot-0 scratch.
	for _, depth := range []int{2, 3} {
		if _, err := g.expandLevel(ctx, frontier, len(frontier), depth, 1, math.Inf(-1)); err != nil {
			t.Fatalf("warmup depth %d: %v", depth, err)
		}
	}
	// -Inf solves every child; the seed lower bound skips some.
	for _, lower := range []float64{math.Inf(-1), seedLower} {
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := g.expandLevel(ctx, frontier, len(frontier), 2, 1, lower); err != nil {
				panic(err)
			}
		})
		if allocs != 0 {
			t.Errorf("lower=%v: warm expandLevel allocates %.1f per level, want 0", lower, allocs)
		}
	}
}

// TestExpandLevelSkipsOnlyLosingChildren pins both sides of the skip
// rule: with lower = -Inf every child carries its solved spectral
// radius, with lower = +Inf none is solved, and at a lower bound between
// the children's bound rates a child is solved exactly when its rate
// exceeds that bound.
func TestExpandLevelSkipsOnlyLosingChildren(t *testing.T) {
	set := pmsmLikeSet()
	frontier, _, _, err := seedFrontier(set, set)
	if err != nil {
		t.Fatalf("seed: %v", err)
	}
	g := newGripSearch(set, 1)
	ctx := context.Background()
	const depth = 2
	children, err := g.expandLevel(ctx, frontier, len(frontier), depth, 1, math.Inf(-1))
	if err != nil {
		t.Fatal(err)
	}
	rates := make([]float64, len(children))
	for ci, c := range children {
		rates[ci] = math.Pow(mat.SpectralRadiusBound(c.prod), 1.0/depth)
	}
	sort.Float64s(rates)
	mid := rates[len(rates)/2-1]
	for _, lower := range []float64{math.Inf(-1), mid, math.Inf(1)} {
		children, err := g.expandLevel(ctx, frontier, len(frontier), depth, 1, lower)
		if err != nil {
			t.Fatalf("lower=%v: %v", lower, err)
		}
		solved := 0
		for ci, c := range children {
			want := 0.0
			if math.Pow(mat.SpectralRadiusBound(c.prod), 1.0/depth) > lower {
				solved++
				if want, err = mat.SpectralRadius(c.prod); err != nil {
					t.Fatalf("child %d: %v", ci, err)
				}
			}
			if math.Float64bits(c.rho) != math.Float64bits(want) {
				t.Errorf("lower=%v child %d: rho = %v, want %v", lower, ci, c.rho, want)
			}
		}
		//lint:ignore floatcompare mid is one of the rates, picked exactly
		if lower == mid && (solved == 0 || solved == len(children)) {
			t.Errorf("lower=%v solved %d of %d children, want a mix", lower, solved, len(children))
		}
	}
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

func benchmarkExpand(b *testing.B, n int) {
	set := benchExpandSet(n, 4, 42)
	// Build a depth-3 frontier outside the pools so expansion never
	// clobbers its own parents across benchmark iterations.
	frontier, _, _, err := seedFrontier(set, set)
	if err != nil {
		b.Fatalf("seed: %v", err)
	}
	g := newGripSearch(set, 1)
	ctx := context.Background()
	for depth := 2; depth <= 3; depth++ {
		children, err := g.expandLevel(ctx, frontier, len(frontier), depth, 1, math.Inf(-1))
		if err != nil {
			b.Fatalf("build depth %d: %v", depth, err)
		}
		next := make([]gripNode, len(children))
		for ci := range children {
			next[ci] = gripNode{
				prod: children[ci].prod.Clone(),
				word: childWord(frontier[ci/len(set)].word, ci%len(set)),
				cert: children[ci].cert,
			}
		}
		frontier = next
	}
	if _, err := g.expandLevel(ctx, frontier, len(frontier), 4, 1, math.Inf(-1)); err != nil {
		b.Fatalf("warmup: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.expandLevel(ctx, frontier, len(frontier), 4, 1, math.Inf(-1)); err != nil {
			b.Fatalf("expand: %v", err)
		}
	}
}

func BenchmarkJSRExpand(b *testing.B) {
	b.Run("n6", func(b *testing.B) { benchmarkExpand(b, 6) })
	b.Run("n9", func(b *testing.B) { benchmarkExpand(b, 9) })
}
