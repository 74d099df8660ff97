package core

import (
	"context"
	"math"
	"math/cmplx"
	"sort"
	"testing"

	"adaptivertc/internal/control"
	"adaptivertc/internal/mat"
)

// TestOmegaSingleModePolesMatchDesignClosedLoop cross-checks the Eq. 8
// lifted matrix against the controller design model: when the loop
// stays in one mode (constant interval h), the nonzero eigenvalues of
// Ω(h) must coincide with the poles of the delay-augmented closed loop
// the LQR was designed on. The lifted state carries redundant
// coordinates (the z~/u~ bookkeeping), which contribute only
// eigenvalues at zero.
func TestOmegaSingleModePolesMatchDesignClosedLoop(t *testing.T) {
	plant := fullStatePlant(t)
	w := control.LQRWeights{Q: mat.Eye(2), R: mat.Diag(0.1)}
	tm := MustTiming(0.1, 5, 0.01, 0.16)
	d, err := NewDesign(plant, tm, func(h float64) (*control.StateSpace, error) {
		return control.LQGFullInfo(plant, w, h)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range d.Modes {
		g, err := control.DelayLQR(plant, w, m.H)
		if err != nil {
			t.Fatal(err)
		}
		// Design model: [x; u]⁺ = [Phi Gamma; 0 0][x;u] + [0;I]v,
		// v = -Kx x - Ku u.
		aAug := mat.Block([][]*mat.Dense{
			{m.Disc.Phi, m.Disc.Gamma},
			{mat.New(1, 2), mat.New(1, 1)},
		})
		bAug := mat.VStack(mat.New(2, 1), mat.Eye(1))
		k := mat.HStack(g.Kx, g.Ku)
		cl := mat.Sub(aAug, mat.Mul(bAug, k))
		want := nonzeroMags(t, cl)

		omega := Omega(m.Disc, m.Ctrl)
		got := nonzeroMags(t, omega)
		if len(got) != len(want) {
			t.Fatalf("h=%v: %d nonzero poles in Omega, %d in design model (%v vs %v)",
				m.H, len(got), len(want), got, want)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-8*(1+want[i]) {
				t.Fatalf("h=%v: Omega poles %v != design poles %v", m.H, got, want)
			}
		}
	}
}

func nonzeroMags(t *testing.T, a *mat.Dense) []float64 {
	t.Helper()
	eigs, err := mat.Eigenvalues(a)
	if err != nil {
		t.Fatal(err)
	}
	var out []float64
	for _, e := range eigs {
		// Defective zero eigenvalues (Jordan blocks from the lifted
		// bookkeeping states) are computed with O(ε^{1/k}) error, so the
		// zero threshold must sit well above machine precision.
		if m := cmplx.Abs(e); m > 1e-5 {
			out = append(out, m)
		}
	}
	sort.Float64s(out)
	return out
}

// TestLoopNominalMatchesLTISimulation checks that with no overruns the
// adaptive runtime behaves exactly like the classic sampled closed loop
// at period T.
func TestLoopNominalMatchesLTISimulation(t *testing.T) {
	d := testDesign(t)
	loop, err := NewLoop(d, []float64{1, -0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Reference recursion, written out independently.
	m := d.Modes[0]
	x := []float64{1, -0.5}
	z := make([]float64, m.Ctrl.StateDim())
	uApplied := []float64{0}
	// Job 0 computes u[1].
	e := negOutput(m, x)
	z, uNext := m.Ctrl.Step(z, e)
	for k := 0; k < 60; k++ {
		loop.Step(0)
		// Plant over one nominal period.
		xn := mat.MulVec(m.Disc.Phi, x)
		gu := mat.MulVec(m.Disc.Gamma, uApplied)
		for i := range xn {
			xn[i] += gu[i]
		}
		x = xn
		uApplied = uNext
		e = negOutput(m, x)
		z, uNext = m.Ctrl.Step(z, e)

		got := loop.State()
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-12*(1+math.Abs(x[i])) {
				t.Fatalf("step %d: loop %v, reference %v", k, got, x)
			}
		}
	}
}

func negOutput(m Mode, x []float64) []float64 {
	y := mat.MulVec(m.Disc.C, x)
	for i := range y {
		y[i] = -y[i]
	}
	return y
}

// TestWorstPatternIsActuallyBad replays the certificate's witness
// pattern and verifies it produces at least the cost of the all-nominal
// pattern — the witness should be a (near-)worst case, certainly no
// better than nominal.
func TestWorstPatternIsActuallyBad(t *testing.T) {
	d := testDesign(t)
	cert, err := d.CertifyCtx(context.Background(), 5, certOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(cert.WorstPattern) == 0 {
		t.Skip("no witness pattern recorded")
	}
	// Lifted one-step growth along the witness cycle vs the nominal mode:
	// the witness product's averaged spectral radius must be ≥ nominal's.
	omegas := d.OmegaSet()
	prod := mat.Eye(d.LiftedDim())
	for _, h := range cert.WorstPattern {
		prod = mat.Mul(omegas[d.Timing.IntervalIndex(h)], prod)
	}
	rhoW, err := mat.SpectralRadius(prod)
	if err != nil {
		t.Fatal(err)
	}
	rateW := math.Pow(rhoW, 1/float64(len(cert.WorstPattern)))
	rho0, err := mat.SpectralRadius(omegas[0])
	if err != nil {
		t.Fatal(err)
	}
	if rateW < rho0-1e-9 {
		t.Fatalf("witness rate %v below nominal mode rate %v", rateW, rho0)
	}
	// And it must (approximately) attain the certified lower bound.
	if math.Abs(rateW-cert.Bounds.Lower) > 1e-6*(1+cert.Bounds.Lower) {
		t.Fatalf("witness rate %v != certified lower bound %v", rateW, cert.Bounds.Lower)
	}
}
