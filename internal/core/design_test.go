package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"adaptivertc/internal/control"
	"adaptivertc/internal/jsr"
	"adaptivertc/internal/lti"
	"adaptivertc/internal/mat"
	"adaptivertc/internal/plants"
)

// testPlant is a marginally unstable second-order SISO plant.
func testPlant(t *testing.T) *lti.System {
	t.Helper()
	return lti.MustSystem(
		mat.FromRows([][]float64{{0, 1}, {1, -0.8}}),
		mat.ColVec(0, 1),
		mat.RowVec(1, 0),
	)
}

func lqrDesigner(t *testing.T, plant *lti.System) Designer {
	t.Helper()
	w := control.LQRWeights{Q: mat.Eye(2), R: mat.Diag(0.1)}
	return func(h float64) (*control.StateSpace, error) {
		// Full-information delay LQR per mode; plant output is position
		// only, so wrap with an output-injection-free static design:
		// for the test plant C = [1 0], we use state feedback through a
		// full-state plant below instead.
		return control.LQGFullInfo(plant, w, h)
	}
}

// fullStatePlant exposes the whole state (C = I) so the delay-LQR
// controller's e = -x convention applies.
func fullStatePlant(t *testing.T) *lti.System {
	t.Helper()
	return lti.MustSystem(
		mat.FromRows([][]float64{{0, 1}, {1, -0.8}}),
		mat.ColVec(0, 1),
		mat.Eye(2),
	)
}

func testDesign(t *testing.T) *Design {
	t.Helper()
	plant := fullStatePlant(t)
	tm := MustTiming(0.1, 5, 0.01, 0.16)
	d, err := NewDesign(plant, tm, lqrDesigner(t, plant))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewDesignBuildsAllModes(t *testing.T) {
	d := testDesign(t)
	if d.NumModes() != 4 { // H = {0.1, 0.12, 0.14, 0.16}
		t.Fatalf("modes = %d, want 4", d.NumModes())
	}
	for i, m := range d.Modes {
		if m.Index != i {
			t.Fatalf("mode %d has index %d", i, m.Index)
		}
		wantH := 0.1 + float64(i)*0.02
		if math.Abs(m.H-wantH) > 1e-12 {
			t.Fatalf("mode %d h = %v, want %v", i, m.H, wantH)
		}
		if math.Abs(m.Disc.H-m.H) > 1e-12 {
			t.Fatalf("mode %d discretization interval mismatch", i)
		}
	}
}

func TestNewDesignValidation(t *testing.T) {
	plant := fullStatePlant(t)
	tm := MustTiming(0.1, 2, 0.01, 0.12)
	if _, err := NewDesign(nil, tm, FixedDesigner(control.Static(mat.New(1, 2)))); err == nil {
		t.Fatal("nil plant accepted")
	}
	if _, err := NewDesign(plant, tm, nil); err == nil {
		t.Fatal("nil designer accepted")
	}
	// Wrong controller input dimension.
	bad := FixedDesigner(control.Static(mat.New(1, 3)))
	if _, err := NewDesign(plant, tm, bad); err == nil {
		t.Fatal("wrong error dimension accepted")
	}
	// Wrong controller output dimension.
	bad2 := FixedDesigner(control.Static(mat.New(2, 2)))
	if _, err := NewDesign(plant, tm, bad2); err == nil {
		t.Fatal("wrong command dimension accepted")
	}
	// Inconsistent state dimension across modes.
	call := 0
	inconsistent := func(h float64) (*control.StateSpace, error) {
		call++
		if call == 1 {
			return control.Static(mat.New(1, 2)), nil
		}
		return control.NewStateSpace(mat.Eye(1), mat.New(1, 2), mat.New(1, 1), mat.New(1, 2))
	}
	if _, err := NewDesign(plant, tm, inconsistent); err == nil {
		t.Fatal("inconsistent controller dims accepted")
	}
}

func TestModeForSelectsByResponseTime(t *testing.T) {
	d := testDesign(t)
	if m := d.ModeFor(0.05); m.Index != 0 {
		t.Fatalf("fast job mode = %d", m.Index)
	}
	if m := d.ModeFor(0.13); m.Index != 2 { // ceil(0.13/0.02)=7, -5 → 2
		t.Fatalf("overrun mode = %d", m.Index)
	}
	if m := d.ModeFor(0.16); m.Index != 3 {
		t.Fatalf("worst-case mode = %d", m.Index)
	}
}

func TestFixedDesignerSharesController(t *testing.T) {
	plant := fullStatePlant(t)
	tm := MustTiming(0.1, 2, 0.01, 0.16)
	ctrl := control.Static(mat.New(1, 2))
	d, err := NewDesign(plant, tm, FixedDesigner(ctrl))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range d.Modes {
		if m.Ctrl != ctrl {
			t.Fatal("FixedDesigner returned different controllers")
		}
	}
}

func TestLiftedDim(t *testing.T) {
	d := testDesign(t)
	// n=2, s=1 (delay-LQR remembers its command), r=1 → 2+1+2 = 5.
	if got := d.LiftedDim(); got != 5 {
		t.Fatalf("LiftedDim = %d", got)
	}
}

func TestOmegaDimensions(t *testing.T) {
	d := testDesign(t)
	for _, o := range d.OmegaSet() {
		if o.Rows() != d.LiftedDim() || o.Cols() != d.LiftedDim() {
			t.Fatalf("Omega is %d×%d, want %d", o.Rows(), o.Cols(), d.LiftedDim())
		}
	}
}

func TestOmegaStaticControllerDimensions(t *testing.T) {
	plant := fullStatePlant(t)
	tm := MustTiming(0.1, 2, 0.01, 0.12)
	k := mat.RowVec(1.2, 0.7) // arbitrary static gain
	d, err := NewDesign(plant, tm, FixedDesigner(control.Static(k)))
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range d.OmegaSet() {
		if o.Rows() != 4 { // n + 2r = 2 + 2
			t.Fatalf("static Omega dim = %d, want 4", o.Rows())
		}
	}
}

// TestLiftedMatchesDirectRecursion is the central consistency check of
// the reproduction: products of the Ω(h) matrices must reproduce the
// direct plant/controller simulation exactly, for arbitrary switching
// sequences. This validates Eq. 8 (including the sign convention).
func TestLiftedMatchesDirectRecursion(t *testing.T) {
	d := testDesign(t)
	omegas := d.OmegaSet()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		loop, err := NewLoop(d, []float64{rng.NormFloat64(), rng.NormFloat64()})
		if err != nil {
			return false
		}
		xi := loop.Lifted()
		for step := 0; step < 30; step++ {
			idx := rng.Intn(d.NumModes())
			loop.Step(idx)
			xi = mat.MulVec(omegas[idx], xi)
			direct := loop.Lifted()
			for i := range xi {
				if math.Abs(xi[i]-direct[i]) > 1e-9*(1+math.Abs(direct[i])) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLiftedMatchesDirectRecursionStaticController(t *testing.T) {
	plant := fullStatePlant(t)
	tm := MustTiming(0.1, 5, 0.01, 0.14)
	w := control.LQRWeights{Q: mat.Eye(2), R: mat.Diag(0.1)}
	ctrl, err := control.PeriodLQR(plant, w, tm.T)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDesign(plant, tm, FixedDesigner(ctrl))
	if err != nil {
		t.Fatal(err)
	}
	omegas := d.OmegaSet()
	rng := rand.New(rand.NewSource(4))
	loop, err := NewLoop(d, []float64{1, -0.5})
	if err != nil {
		t.Fatal(err)
	}
	xi := loop.Lifted()
	for step := 0; step < 50; step++ {
		idx := rng.Intn(d.NumModes())
		loop.Step(idx)
		xi = mat.MulVec(omegas[idx], xi)
		direct := loop.Lifted()
		for i := range xi {
			if math.Abs(xi[i]-direct[i]) > 1e-9*(1+math.Abs(direct[i])) {
				t.Fatalf("step %d component %d: lifted %v, direct %v", step, i, xi[i], direct[i])
			}
		}
	}
}

func TestStabilityBoundsAdaptiveDesign(t *testing.T) {
	d := testDesign(t)
	b, err := d.StabilityBoundsCtx(context.Background(), 4, jsr.GripenbergOptions{Delta: 0.02, MaxDepth: 15})
	if err != nil && b.Upper == 0 {
		t.Fatal(err)
	}
	if !b.CertifiesStable() {
		t.Fatalf("adaptive design not certified stable: %v", b)
	}
}

func TestLoopRegulatesToZero(t *testing.T) {
	d := testDesign(t)
	loop, err := NewLoop(d, []float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 400; k++ {
		loop.Step(rng.Intn(d.NumModes()))
	}
	x := loop.State()
	if math.Abs(x[0]) > 1e-6 || math.Abs(x[1]) > 1e-6 {
		t.Fatalf("state after 400 arbitrary-switching steps: %v", x)
	}
}

func TestLoopAccessors(t *testing.T) {
	d := testDesign(t)
	loop, err := NewLoop(d, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := loop.Output(); got[0] != 2 || got[1] != 3 {
		t.Fatalf("Output = %v", got)
	}
	if got := loop.Applied(); got[0] != 0 {
		t.Fatalf("initial applied command = %v", got)
	}
	if loop.Jobs() != 0 {
		t.Fatal("fresh loop has nonzero job count")
	}
	loop.Step(0)
	if loop.Jobs() != 1 {
		t.Fatal("job count not advanced")
	}
	// State/Applied must return copies.
	s := loop.State()
	s[0] = 999
	if loop.State()[0] == 999 {
		t.Fatal("State returned shared storage")
	}
}

func TestNewLoopRejectsBadState(t *testing.T) {
	d := testDesign(t)
	if _, err := NewLoop(d, []float64{1}); err == nil {
		t.Fatal("short initial state accepted")
	}
}

func TestLoopStepResponseUsesGrid(t *testing.T) {
	d := testDesign(t)
	l1, _ := NewLoop(d, []float64{1, 1})
	l2, _ := NewLoop(d, []float64{1, 1})
	l1.StepResponse(0.13) // → index 2
	l2.Step(2)
	a, b := l1.Lifted(), l2.Lifted()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("StepResponse and Step diverge: %v vs %v", a, b)
		}
	}
}

func TestReleaseRuleMatchesTiming(t *testing.T) {
	d := testDesign(t)
	rule := d.ReleaseRule()
	if got, want := rule(0, 0.05), d.Timing.NextRelease(0, 0.05); got != want {
		t.Fatalf("rule = %v, want %v", got, want)
	}
}

func TestLoopTracksConstantReference(t *testing.T) {
	// A PI mode table on a stable SISO plant must track a constant
	// reference with zero steady-state error, even under overruns.
	plant := lti.MustSystem(
		mat.FromRows([][]float64{{-1}}),
		mat.FromRows([][]float64{{1}}),
		mat.Eye(1),
	)
	tm := MustTiming(0.1, 5, 0.01, 0.16)
	pi := control.PIGains{KP: 2, KI: 3}
	d, err := NewDesign(plant, tm, func(h float64) (*control.StateSpace, error) {
		return control.PIGains{KP: pi.KP, KI: pi.KI, H: h}.Controller(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	loop, err := NewLoop(d, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	loop.SetReference([]float64{1.5})
	rng := rand.New(rand.NewSource(3))
	for k := 0; k < 600; k++ {
		loop.StepResponse(tm.Rmin + rng.Float64()*(tm.Rmax-tm.Rmin))
	}
	y := loop.Output()[0]
	if math.Abs(y-1.5) > 1e-6 {
		t.Fatalf("steady-state output %v, want 1.5", y)
	}
}

func TestSetReferenceValidation(t *testing.T) {
	d := testDesign(t)
	loop, err := NewLoop(d, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-size reference accepted")
		}
	}()
	loop.SetReference([]float64{1})
}

// TestLQRCostToGoMatchesSimulation cross-validates the Riccati solution
// against the simulated quadratic cost: for the single-mode loop with
// the delay-aware LQR, the infinite-horizon cost from initial state
// [x0; u0=0] equals χ0ᵀ P χ0 with P the augmented Riccati solution.
func TestLQRCostToGoMatchesSimulation(t *testing.T) {
	plant := fullStatePlant(t)
	w := control.LQRWeights{Q: mat.Eye(2), R: mat.Diag(0.1)}
	h := 0.1
	g, err := control.DelayLQR(plant, w, h)
	if err != nil {
		t.Fatal(err)
	}
	tm := MustTiming(h, 1, 0.01, h*0.99) // single-mode design (no overruns)
	d, err := NewDesign(plant, tm, FixedDesigner(g.Controller()))
	if err != nil {
		t.Fatal(err)
	}
	x0 := []float64{1, -0.4}
	loop, err := NewLoop(d, x0)
	if err != nil {
		t.Fatal(err)
	}
	// Simulated stage cost Σ x'Qx + u'Ru with u the applied input.
	sum := 0.0
	for k := 0; k < 4000; k++ {
		x := loop.State()
		u := loop.Applied()
		qx := mat.MulVec(w.Q, x)
		ru := mat.MulVec(w.R, u)
		sum += mat.Dot(x, qx) + mat.Dot(u, ru)
		loop.Step(0)
	}
	chi0 := append(append([]float64(nil), x0...), 0) // [x0; u0]
	pchi := mat.MulVec(g.P, chi0)
	want := mat.Dot(chi0, pchi)
	if math.Abs(sum-want) > 1e-6*(1+want) {
		t.Fatalf("simulated cost %v, Riccati cost-to-go %v", sum, want)
	}
}

func TestStepJitteredZeroJitterMatchesStep(t *testing.T) {
	d := testDesign(t)
	a, _ := NewLoop(d, []float64{1, -0.5})
	b, _ := NewLoop(d, []float64{1, -0.5})
	for k := 0; k < 20; k++ {
		idx := k % d.NumModes()
		a.Step(idx)
		h := d.Timing.T + float64(idx)*d.Timing.Ts()
		if err := b.StepJittered(idx, h); err != nil {
			t.Fatal(err)
		}
		xa, xb := a.Lifted(), b.Lifted()
		for i := range xa {
			if math.Abs(xa[i]-xb[i]) > 1e-12*(1+math.Abs(xa[i])) {
				t.Fatalf("step %d: %v vs %v", k, xa, xb)
			}
		}
	}
}

func TestStepJitteredValidation(t *testing.T) {
	d := testDesign(t)
	loop, _ := NewLoop(d, []float64{1, 0})
	if err := loop.StepJittered(99, 0.1); err == nil {
		t.Fatal("bad index accepted")
	}
	if err := loop.StepJittered(0, -0.1); err == nil {
		t.Fatal("negative interval accepted")
	}
}

// TestLoopStepZeroAllocs pins the allocation-free hot path: a grid step
// and an off-grid step whose interval is already in the discretization
// cache touch only the loop's preallocated buffers.
func TestLoopStepZeroAllocs(t *testing.T) {
	d := testDesign(t)
	loop, err := NewLoop(d, []float64{1, -0.5})
	if err != nil {
		t.Fatal(err)
	}
	k := 0
	if got := testing.AllocsPerRun(100, func() {
		loop.Step(k % d.NumModes())
		k++
	}); got != 0 {
		t.Errorf("Step: %v allocs per run, want 0", got)
	}
	h := d.Modes[1].H * 1.03
	if err := loop.StepJittered(1, h); err != nil { // warm the cache
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() {
		if err := loop.StepJittered(1, h); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("warm StepJittered: %v allocs per run, want 0", got)
	}
}

func TestSetInputLimitsSaturatesCommands(t *testing.T) {
	d := testDesign(t)
	// The test plant is open-loop unstable, so the initial deviation
	// must lie inside the basin recoverable with the clamped actuator.
	loop, err := NewLoop(d, []float64{0.25, 0})
	if err != nil {
		t.Fatal(err)
	}
	loop.SetInputLimits([]float64{-0.5}, []float64{0.5})
	sawSaturation := false
	for k := 0; k < 300; k++ {
		loop.Step(0)
		u := loop.Applied()
		if u[0] < -0.5-1e-12 || u[0] > 0.5+1e-12 {
			t.Fatalf("command %v violates limits", u)
		}
		if math.Abs(math.Abs(u[0])-0.5) < 1e-12 {
			sawSaturation = true
		}
	}
	if !sawSaturation {
		t.Fatal("test never saturated; limits untested")
	}
	x := loop.State()
	if math.Abs(x[0]) > 0.05 {
		t.Fatalf("saturated loop did not regulate: %v", x)
	}
}

func TestAntiWindupBeatsNaiveWindup(t *testing.T) {
	// PI controller on a stable first-order plant with a big reference
	// step and tight limits: with anti-windup, no large overshoot after
	// the saturation phase.
	plant := lti.MustSystem(
		mat.FromRows([][]float64{{-1}}),
		mat.FromRows([][]float64{{1}}),
		mat.Eye(1),
	)
	tm := MustTiming(0.1, 2, 0.01, 0.12)
	d, err := NewDesign(plant, tm, func(h float64) (*control.StateSpace, error) {
		return control.PIGains{KP: 2, KI: 6, H: h}.Controller(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	loop, err := NewLoop(d, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	loop.SetReference([]float64{5}) // demands u ≈ 5 at steady state
	loop.SetInputLimits([]float64{-6}, []float64{6})
	peak := 0.0
	for k := 0; k < 400; k++ {
		loop.Step(0)
		if y := loop.Output()[0]; y > peak {
			peak = y
		}
	}
	final := loop.Output()[0]
	if math.Abs(final-5) > 1e-3 {
		t.Fatalf("did not settle at the reference: %v", final)
	}
	// Conditional anti-windup keeps the overshoot modest.
	if peak > 5*1.25 {
		t.Fatalf("overshoot %v suggests integrator windup", peak)
	}
}

func TestSetInputLimitsValidation(t *testing.T) {
	d := testDesign(t)
	loop, _ := NewLoop(d, []float64{0, 0})
	for _, c := range []func(){
		func() { loop.SetInputLimits([]float64{-1, -1}, []float64{1}) },
		func() { loop.SetInputLimits([]float64{1}, []float64{-1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad limits accepted")
				}
			}()
			c()
		}()
	}
}

// TestQuickstartCertificateUnchanged pins examples/quickstart's
// certificate, preconditioned and raw, at several worker counts. Its
// lifted 5×5 set is irreducible: the union graph of its nonzeros is
// one strongly connected component, so jsr.EstimateCtx certifies it as
// one block under the identity permutation, and the bits must be the
// ones the engine gave before it split sets into invariant blocks. They
// were recorded on amd64 with FMA; elsewhere the design's math.Exp may
// move the last bits, so only worker invariance is checked there.
func TestQuickstartCertificateUnchanged(t *testing.T) {
	plant := plants.DoubleIntegratorFullState()
	tm, err := NewTiming(0.020, 5, 0.002, 1.6*0.020)
	if err != nil {
		t.Fatal(err)
	}
	w := control.LQRWeights{Q: mat.Eye(2), R: mat.Diag(0.1)}
	d, err := NewDesign(plant, tm, func(h float64) (*control.StateSpace, error) {
		return control.LQGFullInfo(plant, w, h)
	})
	if err != nil {
		t.Fatal(err)
	}
	set := d.OmegaSet()
	cases := []struct {
		name         string
		estimate     func(context.Context, []*mat.Dense, int, jsr.GripenbergOptions) (jsr.Bounds, error)
		lower, upper uint64
		witness      []int
	}{
		{"preconditioned", jsr.EstimateCtx, 0x3fef53e436d993f1, 0x3fefdd784b2f8346, []int{0, 0}},
		{"raw", jsr.EstimateRawCtx, 0x3fef53e436d993f6, 0x3ff5ce0fa34b163c, []int{0, 0, 0}},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2, 3} {
			b, err := tc.estimate(context.Background(), set, 6, jsr.GripenbergOptions{Delta: 1e-3, MaxNodes: 20_000, Workers: workers})
			if err != nil && !errors.Is(err, jsr.ErrBudget) {
				t.Fatalf("%s workers=%d: %v", tc.name, workers, err)
			}
			lo, up := math.Float64bits(b.Lower), math.Float64bits(b.Upper)
			if runtime.GOARCH != "amd64" {
				tc.lower, tc.upper, tc.witness = lo, up, b.WitnessWord
			}
			if lo != tc.lower || up != tc.upper || !slices.Equal(b.WitnessWord, tc.witness) {
				t.Errorf("%s workers=%d: got lower %#x upper %#x witness %v, want %#x %#x %v",
					tc.name, workers, lo, up, b.WitnessWord, tc.lower, tc.upper, tc.witness)
			}
		}
	}
}
