package jsr

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"adaptivertc/internal/mat"
)

// TestRateGateMatchesPow checks that rateGate.above and rateGate.atMost
// decide exactly as math.Pow(x, 1/depth) > v and <= v, the comparisons
// they replace, at every depth 1..200 and a few deeper ones past
// rateGateMaxDepth. The thresholds cover zero, subnormal, tiny,
// ordinary, huge, infinite and NaN v; the probes cover the band edges
// lo and hi, up to 64 ulps either side of v^depth and of both edges,
// zero, +Inf, NaN and random values.
func TestRateGateMatchesPow(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	vs := []float64{0, math.SmallestNonzeroFloat64, 1e-300, 0.5, 1, 1.0001, 1e3, math.Inf(1), math.Inf(-1), math.NaN()}
	for i := 0; i < 6; i++ {
		vs = append(vs, rng.Float64()*2, math.Exp(rng.NormFloat64()*5))
	}
	depths := []int{rateGateMaxDepth - 1, rateGateMaxDepth, rateGateMaxDepth + 1, 5000}
	for d := 1; d <= 200; d++ {
		depths = append(depths, d)
	}
	banded := 0
	for _, d := range depths {
		for _, v := range vs {
			g := newRateGate(v, d)
			if !math.IsNaN(g.lo) && d > 1 {
				banded++
			}
			probes := []float64{0, math.Inf(1), math.NaN(), g.lo, g.hi}
			for _, c := range []float64{math.Pow(v, float64(d)), g.lo, g.hi} {
				if math.IsNaN(c) || math.IsInf(c, 0) {
					continue
				}
				up, down := c, c
				for k := 1; k <= 64; k++ {
					up, down = math.Nextafter(up, math.Inf(1)), math.Nextafter(down, math.Inf(-1))
					probes = append(probes, up, down)
				}
			}
			for i := 0; i < 16; i++ {
				probes = append(probes, math.Exp(rng.NormFloat64()*50), rng.Float64()*2)
			}
			for _, x := range probes {
				r := math.Pow(x, 1/float64(d))
				if got, want := g.above(x), r > v; got != want {
					t.Fatalf("depth %d v %v x %v (lo %v hi %v): above = %v, Pow comparison %v", d, v, x, g.lo, g.hi, got, want)
				}
				if got, want := g.atMost(x), r <= v; got != want {
					t.Fatalf("depth %d v %v x %v (lo %v hi %v): atMost = %v, Pow comparison %v", d, v, x, g.lo, g.hi, got, want)
				}
			}
		}
	}
	// The band must actually be in use, not the Pow fallback everywhere.
	if banded < 1000 {
		t.Fatalf("only %d gates above depth 1 use the band", banded)
	}
}

// TestPreProductGateSkipsOnlyDeadChildren checks the pre-product gate
// of expandNodeGuarded child by child. For every child the gate skips
// (it carries no product), the full path — MulInto, NormBoundsScratch,
// gatedRadius and gatedCert at the same rate gates — must give rho
// bits equal to 0 and the prune threshold as certificate; every other
// child must match the full path bit for bit. Thresholds come from a
// real search where one exists and, adversarially, from just below
// each sampled child's own sweep bounds, where a gate bound that
// undercut them by any margin would skip a child that must be
// computed. The scaled copies sit on both sides of the range guards,
// and the cancellation family has ‖A·P‖_F² far below the gate's
// absolute term.
func TestPreProductGateSkipsOnlyDeadChildren(t *testing.T) {
	work, _, ok := Precondition(pmsmLiftedSet(t))
	if !ok {
		t.Fatal("Precondition found no common quadratic Lyapunov function for the PMSM set")
	}
	type gateCase struct {
		name  string
		set   []*mat.Dense
		scale float64 // the set and the frontier are scaled by powers of it
		depth int
		skips string // "some", "none" or "any"
	}
	cases := []gateCase{
		{"pmsm-like-3x3", pmsmLikeSet(), 1, 4, "some"},
		{"pmsm-lifted-9x9-d5", work, 1, 5, "some"},
		{"pmsm-lifted-9x9-d20", work, 1, 20, "some"},
		{"start-orthogonal-9x9", startOrthogonalPair(), 1, 3, "some"},
		{"golden-2x2", goldenPair(), 1, 4, "none"},
		{"cancellation-3x3", cancellationSet(), 1, 2, "none"},
		{"pmsm-2^200-d2", work, 0x1p200, 2, "some"},
		{"pmsm-2^-200-d2", work, 0x1p-200, 2, "some"},
		{"pmsm-2^200-d3", work, 0x1p200, 3, "none"},
		{"pmsm-2^-200-d3", work, 0x1p-200, 3, "none"},
		{"pmsm-2^430-d2", work, 0x1p430, 2, "none"},
		{"pmsm-2^-430-d2", work, 0x1p-430, 2, "none"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			frontier, lower, prune := gateFrontier(t, tc.set, tc.depth)
			thresholds := [][2]float64{{lower, prune}}
			for _, v := range adversarialThresholds(t, tc.set, frontier, tc.depth) {
				thresholds = append(thresholds, [2]float64{v, v})
			}
			set := tc.set
			if tc.scale != 1 {
				// Rates scale by c, up to the rounding of Pow.
				set, frontier = scaledSet(tc.set, tc.scale), scaledFrontier(frontier, tc.scale, tc.depth-1)
				for i := range thresholds {
					thresholds[i][0] *= tc.scale
					thresholds[i][1] *= tc.scale
				}
			}
			skips := 0
			for _, lp := range thresholds {
				skips += checkPreGate(t, set, frontier, tc.depth, lp[0], lp[1])
			}
			switch {
			case tc.skips == "some" && skips == 0:
				t.Errorf("the gate skipped no child at any of %d thresholds", len(thresholds))
			case tc.skips == "none" && skips != 0:
				t.Errorf("the gate skipped %d children, want it to fall through", skips)
			}
			t.Logf("%d children skipped over %d thresholds", skips, len(thresholds))
		})
	}
}

// gateFrontier returns the frontier a Gripenberg search on the complete
// graph over set expands at depth, pruned as the search prunes it, with
// the search's level-start lower bound and prune threshold. δ is 1e-3,
// and the search runs on set as given (no preconditioning). When the
// search drains before that level, it returns the whole tree of words
// of length depth−1 with the seed's lower bound and prune threshold.
func gateFrontier(t *testing.T, set []*mat.Dense, depth int) ([]gripNode, float64, float64) {
	t.Helper()
	const delta = 1e-3
	var st *GripenbergState
	_, err := GripenbergCtx(context.Background(), set, GripenbergOptions{
		Delta: delta, MaxDepth: depth, Workers: 1,
		Snapshot: func(s GripenbergState) error {
			if s.Depth == depth-1 {
				st = &s
			}
			return nil
		},
	})
	if err != nil && !errors.Is(err, ErrBudget) {
		t.Fatal(err)
	}
	if st == nil {
		complete := CompleteGraph(len(set))
		frontier, lower, _, err := seedFrontier(set, complete)
		if err != nil {
			t.Fatal(err)
		}
		s := newGripSearch(set, complete, 1)
		for d := 2; d < depth; d++ {
			frontier = cloneChildren(t, s, frontier, d)
		}
		return frontier, lower, lower + delta
	}
	all, err := rebuildFrontier(set, st)
	if err != nil {
		t.Fatal(err)
	}
	var frontier []gripNode
	for _, nd := range all {
		if nd.cert > st.Lower+delta {
			frontier = append(frontier, nd)
		}
	}
	if len(frontier) == 0 {
		t.Fatalf("the frontier at depth %d is empty", depth-1)
	}
	return frontier, st.Lower, st.Lower + delta
}

// scaledSet returns c·A for every A in set; for a power of two c the
// scaling is exact.
func scaledSet(set []*mat.Dense, c float64) []*mat.Dense {
	out := make([]*mat.Dense, len(set))
	for i, a := range set {
		out[i] = mat.Scale(c, a)
	}
	return out
}

// scaledFrontier returns the frontier of words of length d with every
// product scaled by c^d and every certificate by c, as in a search over
// the set scaled by c (exactly so, for a power of two c, wherever
// nothing over- or underflows).
func scaledFrontier(frontier []gripNode, c float64, d int) []gripNode {
	out := make([]gripNode, len(frontier))
	for i, nd := range frontier {
		nd.prod = mat.Scale(math.Pow(c, float64(d)), nd.prod)
		nd.cert *= c
		out[i] = nd
	}
	return out
}

// adversarialThresholds returns, for up to 32 children of frontier at
// depth spread over the level, the largest rate just below that
// child's larger sweep bound: at that threshold the full path computes
// the child's spectral radius or its norm, so a gate whose bound sat
// below the sweep's would skip a child that must be computed.
func adversarialThresholds(t *testing.T, set []*mat.Dense, frontier []gripNode, depth int) []float64 {
	t.Helper()
	ms := mat.NewScratch(set[0].Rows())
	p := mat.New(set[0].Rows(), set[0].Rows())
	exp := 1 / float64(depth)
	total := len(frontier) * len(set)
	stride := (total + 31) / 32
	var out []float64
	for ci := 0; ci < total; ci += stride {
		mat.MulInto(p, set[ci%len(set)], frontier[ci/len(set)].prod)
		nb := mat.NormBoundsScratch(p, ms)
		r := math.Pow(math.Max(nb.Radius, nb.TwoNorm), exp)
		if r > 0 && !math.IsInf(r, 1) {
			out = append(out, math.Nextafter(r*(1-1e-9), 0))
		}
	}
	return out
}

// checkPreGate expands frontier at depth with the thresholds lower and
// prune on the complete graph and compares every child with the full
// path. It returns the number of children the gate skipped.
func checkPreGate(t *testing.T, set []*mat.Dense, frontier []gripNode, depth int, lower, prune float64) int {
	t.Helper()
	g := CompleteGraph(len(set))
	s := newGripSearch(set, g, 1)
	children, err := s.expandLevel(context.Background(), frontier, len(frontier), depth, 1, lower, prune)
	if err != nil {
		t.Fatal(err)
	}
	n := set[0].Rows()
	ms := mat.NewScratch(n)
	p := mat.New(n, n)
	lg, pg := newRateGate(lower, depth), newRateGate(prune, depth)
	skips := 0
	for ci, c := range children {
		nd := frontier[ci/len(set)]
		mat.MulInto(p, set[ci%len(set)], nd.prod)
		nb := mat.NormBoundsScratch(p, ms)
		rho, err := gatedRadius(p, nb, ms, lg)
		if err != nil {
			t.Fatal(err)
		}
		cert := gatedCert(p, nb, ms, nd.cert, pg)
		if c.prod == nil {
			skips++
			if math.Float64bits(rho) != 0 || math.Float64bits(cert) != math.Float64bits(prune) {
				t.Errorf("lower=%v prune=%v child %d: skipped before its product, but the full path gives rho %v and cert %v", lower, prune, ci, rho, cert)
			}
		} else if !sameMatrixBits(c.prod, p) {
			t.Errorf("lower=%v prune=%v child %d: product differs from MulInto", lower, prune, ci)
		}
		if math.Float64bits(c.rho) != math.Float64bits(rho) || math.Float64bits(c.cert) != math.Float64bits(cert) {
			t.Errorf("lower=%v prune=%v child %d: rho %v cert %v, full path %v and %v", lower, prune, ci, c.rho, c.cert, rho, cert)
		}
	}
	return skips
}

func sameMatrixBits(a, b *mat.Dense) bool {
	x, y := a.Raw(), b.Raw()
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// startOrthogonalPair is the pair of ROADMAP item 1: with v, w and x
// orthonormal in ℝ⁹ and x the power iteration's start direction,
// A = 1.8·v·wᵀ + 0.5·x·xᵀ and B = 1.8·w·vᵀ + 0.5·x·xᵀ, so that
// ρ(A·B)^{1/2} = 1.8 while the power iteration only ever sees 0.5.
func startOrthogonalPair() []*mat.Dense {
	const n = 9
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 / math.Sqrt(float64(n)+float64(i))
	}
	unit(x)
	v, w := make([]float64, n), make([]float64, n)
	v[0], v[1] = x[1], -x[0]
	unit(v)
	w[2], w[3] = x[3], -x[2]
	unit(w)
	a, b := mat.New(n, n), mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, 1.8*v[i]*w[j]+0.5*x[i]*x[j])
			b.Set(i, j, 1.8*w[i]*v[j]+0.5*x[i]*x[j])
		}
	}
	return []*mat.Dense{a, b}
}

func unit(x []float64) {
	s := math.Sqrt(mat.Dot(x, x))
	for i := range x {
		x[i] /= s
	}
}

// cancellationSet holds three 3×3 modes u·wᵀ + η·Rᵢ with w ⊥ u and
// η = 1e-7, so every depth-2 product is of order η·‖A‖·‖P‖: its
// squared Frobenius norm is ≈1e-14·sᵢ·s_P, far below the gate's
// absolute term 1e-8·sᵢ·s_P, and the Gram inner product q carries a
// rounding error of a few percent of itself.
func cancellationSet() []*mat.Dense {
	rng := rand.New(rand.NewSource(29))
	u := []float64{1, 2, 2}
	w := []float64{2, -2, 1}
	set := make([]*mat.Dense, 3)
	for k := range set {
		a := mat.New(3, 3)
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				a.Set(i, j, u[i]*w[j]/9+1e-7*rng.NormFloat64())
			}
		}
		set[k] = a
	}
	return set
}
