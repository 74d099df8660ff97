package jsr

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"adaptivertc/internal/mat"
)

// nonNormalPair builds a stable but highly non-normal set whose raw
// norm bounds are loose: both matrices are upper triangular, so every
// product is too and the JSR equals the largest diagonal entry (0.6),
// while the 2-norms exceed 5.
func nonNormalPair() []*mat.Dense {
	return []*mat.Dense{
		mat.FromRows([][]float64{{0.6, 5}, {0, 0.5}}),
		mat.FromRows([][]float64{{0.4, 7}, {0, 0.55}}),
	}
}

func TestPreconditionPreservesJSRBracket(t *testing.T) {
	set := nonNormalPair()
	work, m, ok := Precondition(set)
	if !ok {
		t.Fatal("preconditioning failed on a stable set")
	}
	if m == nil {
		t.Fatal("no transform returned")
	}
	// Spectral radii of corresponding products are preserved
	// (similarity invariance), e.g. for pairwise products.
	for i := range set {
		for j := range set {
			p1, _ := mat.SpectralRadius(mat.Mul(set[i], set[j]))
			p2, _ := mat.SpectralRadius(mat.Mul(work[i], work[j]))
			if math.Abs(p1-p2) > 1e-7*(1+p1) {
				t.Fatalf("similarity broke product spectra: %v vs %v", p1, p2)
			}
		}
	}
}

func TestPreconditionTightensNormBounds(t *testing.T) {
	set := nonNormalPair()
	raw, err := BruteForceBounds(set, 3)
	if err != nil {
		t.Fatal(err)
	}
	work, _, ok := Precondition(set)
	if !ok {
		t.Fatal("preconditioning failed")
	}
	pre, err := BruteForceBounds(work, 3)
	if err != nil {
		t.Fatal(err)
	}
	if pre.Upper >= raw.Upper {
		t.Fatalf("preconditioning did not tighten the upper bound: %v vs %v", pre.Upper, raw.Upper)
	}
	// Both brackets must contain the same JSR.
	if pre.Upper < raw.Lower-1e-9 || raw.Upper < pre.Lower-1e-9 {
		t.Fatalf("disjoint brackets: raw %v, preconditioned %v", raw, pre)
	}
}

func TestEstimateCertifiesNonNormalStableSet(t *testing.T) {
	// Without preconditioning this set's norm bounds sit far above 1;
	// Estimate must still certify stability.
	b, err := Estimate(nonNormalPair(), 4, GripenbergOptions{Delta: 0.02, MaxDepth: 20})
	if err != nil && !errors.Is(err, ErrBudget) {
		t.Fatal(err)
	}
	if !b.CertifiesStable() {
		t.Fatalf("stable non-normal set not certified: %v", b)
	}
}

func TestPreconditionHandlesDegenerateInputs(t *testing.T) {
	// Empty set: graceful failure.
	if _, _, ok := Precondition(nil); ok {
		t.Fatal("empty set preconditioned")
	}
	// Zero matrices: gamma falls back to 1 and the identity-ish
	// transform succeeds or fails gracefully — either is fine, but no
	// panic and a valid (possibly identical) set.
	set := []*mat.Dense{mat.New(2, 2)}
	work, _, _ := Precondition(set)
	if len(work) != 1 {
		t.Fatal("set size changed")
	}
}

// refAveragedLyapunov is the allocating fixed-point loop averagedLyapunov
// replaced, kept verbatim as the bit-for-bit reference.
func refAveragedLyapunov(set []*mat.Dense, scale float64) (*mat.Dense, bool) {
	n := set[0].Rows()
	k := float64(len(set))
	p := mat.Eye(n)
	inv := 1 / (k * scale * scale)
	for iter := 0; iter < 500; iter++ {
		next := mat.Eye(n)
		for _, a := range set {
			mat.AddInPlace(next, mat.Scale(inv, mat.MulMany(a.T(), p, a)))
		}
		next = mat.Symmetrize(next)
		diff := mat.MaxAbs(mat.Sub(next, p))
		norm := mat.MaxAbs(next)
		p = next
		if math.IsInf(norm, 0) || math.IsNaN(norm) || norm > 1e12 {
			return nil, false
		}
		if diff <= 1e-11*(1+norm) {
			return p, true
		}
	}
	return nil, false
}

func TestAveragedLyapunovMatchesAllocatingLoop(t *testing.T) {
	sets := map[string][]*mat.Dense{
		"pmsm":      pmsmLikeSet(),
		"nonnormal": nonNormalPair(),
		"golden":    goldenPair(),
		"random9x4": benchExpandSet(9, 4, 3),
		"random6x3": benchExpandSet(6, 3, 5),
	}
	rng := rand.New(rand.NewSource(1))
	converged, diverged := 0, 0
	for name, set := range sets {
		// Scales below the JSR diverge, scales near it converge slowly.
		for _, scale := range []float64{0.5, 1.05, 1.3, 2, 1 + rng.Float64()} {
			got, gok := averagedLyapunov(set, scale)
			want, wok := refAveragedLyapunov(set, scale)
			if gok != wok {
				t.Fatalf("%s scale %v: converged %v, reference %v", name, scale, gok, wok)
			}
			if !gok {
				diverged++
				continue
			}
			converged++
			for i, v := range got.Raw() {
				if math.Float64bits(v) != math.Float64bits(want.Raw()[i]) {
					t.Fatalf("%s scale %v: P[%d] = %v, reference %v", name, scale, i, v, want.Raw()[i])
				}
			}
		}
	}
	if converged == 0 || diverged == 0 {
		t.Fatalf("%d scales converged and %d diverged, want both paths covered", converged, diverged)
	}
}

func TestAveragedLyapunovAllocatesOnlyItsBuffers(t *testing.T) {
	set := benchExpandSet(9, 4, 3)
	allocs := testing.AllocsPerRun(5, func() { averagedLyapunov(set, 1.3) })
	// The transposes, their slice, and five n×n buffers, each a header
	// plus backing array: independent of the iteration count.
	if allocs > float64(2*(len(set)+5)+1) {
		t.Fatalf("averagedLyapunov allocates %.0f times, want buffers only", allocs)
	}
}
