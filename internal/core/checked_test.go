package core

import (
	"context"
	"math"
	"testing"

	"adaptivertc/internal/jsr"
)

// TestIntervalIndexChecked pins the checked mapping around the grid
// boundaries: in-envelope responses are never flagged, round-off at the
// Rmax boundary is absorbed, and genuine excursions (or nonsensical
// response times) surface the clamp the legacy path swallows.
func TestIntervalIndexChecked(t *testing.T) {
	tm := MustTiming(0.1, 5, 0.01, 0.16) // Ts = 0.02, MaxDelaySteps = 3
	cases := []struct {
		name     string
		r        float64
		idx      int
		violated bool
	}{
		{"nominal", 0.05, 0, false},
		{"exactly T", 0.1, 0, false},
		{"just over T", 0.101, 1, false},
		{"interior", 0.13, 2, false},
		{"exactly Rmax", 0.16, 3, false},
		{"one ulp above Rmax", math.Nextafter(0.16, 1), 3, false},
		{"one grid tick above Rmax", 0.18, 3, true},
		{"far excursion", 0.37, 3, true},
		{"zero", 0, 0, true},
		{"negative", -0.01, 0, true},
	}
	for _, tc := range cases {
		idx, violated := tm.IntervalIndexChecked(tc.r)
		if idx != tc.idx || violated != tc.violated {
			t.Errorf("%s: IntervalIndexChecked(%g) = (%d, %v), want (%d, %v)",
				tc.name, tc.r, idx, violated, tc.idx, tc.violated)
		}
		if got := tm.IntervalIndex(tc.r); got != tc.idx {
			t.Errorf("%s: IntervalIndex(%g) = %d, want %d (must agree with checked index)",
				tc.name, tc.r, got, tc.idx)
		}
	}
}

// TestGridInterval checks the unclamped release rule used by the guard
// to evolve the plant through excursions.
func TestGridInterval(t *testing.T) {
	tm := MustTiming(0.1, 5, 0.01, 0.16)
	cases := []struct{ r, want float64 }{
		{0.05, 0.1},
		{0.1, 0.1},
		{0.13, 0.14},
		{0.16, 0.16},
		{0.17, 0.18}, // beyond Rmax: keeps following the sensor grid
		{0.25, 0.26},
	}
	for _, tc := range cases {
		if got := tm.GridInterval(tc.r); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("GridInterval(%g) = %g, want %g", tc.r, got, tc.want)
		}
	}
	// Inside the envelope GridInterval and IntervalFor agree.
	for _, r := range []float64{0.02, 0.1, 0.11, 0.145, 0.16} {
		if g, f := tm.GridInterval(r), tm.IntervalFor(r); math.Abs(g-f) > 1e-12 {
			t.Errorf("GridInterval(%g) = %g disagrees with IntervalFor = %g", r, g, f)
		}
	}
}

// TestTimingCoversGridBoundary exercises the §V-B coverage condition at
// the values where a naive comparison goes wrong: exactly on a sensor
// tick, one ulp above it, and past Rmax.
func TestTimingCoversGridBoundary(t *testing.T) {
	tm := MustTiming(0.1, 5, 0.01, 0.16)
	cases := []struct {
		name string
		rmax float64
		want bool
	}{
		{"well inside", 0.12, true},
		{"exactly Rmax", 0.16, true},
		{"one ulp above Rmax", math.Nextafter(0.16, 1), true},
		{"within the same grid cell", 0.155, true},
		{"beyond round-off above Rmax", 0.16 + tm.Ts()*1e-6, false},
		{"rmaxActual slightly past Rmax", 0.1601, false},
		{"rmaxActual one cell beyond", 0.161, false},
		{"rmaxActual far beyond", 0.18, false},
		{"non-positive", 0, false},
		{"negative", -0.1, false},
	}
	for _, tc := range cases {
		if got := tm.Covers(tc.rmax); got != tc.want {
			t.Errorf("%s: Covers(%.17g) = %v, want %v", tc.name, tc.rmax, got, tc.want)
		}
	}
}

// TestCertificateCoversDeploymentBoundary checks that the deployable
// certificate inherits the grid-boundary behaviour and additionally
// requires a stable verdict.
func TestCertificateCoversDeploymentBoundary(t *testing.T) {
	d := testDesign(t)
	cert, err := d.CertifyCtx(context.Background(), 4, certOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !cert.Stable() {
		t.Fatalf("test design must certify stable, got %s", cert.Bounds)
	}
	if !cert.CoversDeployment(0.16) {
		t.Error("deployment at exactly Rmax must be covered")
	}
	if !cert.CoversDeployment(math.Nextafter(0.16, 1)) {
		t.Error("one ulp above Rmax is grid round-off, must be covered")
	}
	if cert.CoversDeployment(0.161) {
		t.Error("a deployment one grid cell beyond Rmax must not be covered")
	}
	// An unstable verdict denies coverage even inside the envelope.
	bad := Certificate{Timing: d.Timing, Bounds: jsr.Bounds{Lower: 1.0, Upper: 1.2}}
	if bad.CoversDeployment(0.12) {
		t.Error("an uncertified design must not cover any deployment")
	}
}

// TestTryStepErrors verifies the error-returning step used by library
// callers, and that Step keeps panicking for compatibility.
func TestTryStepErrors(t *testing.T) {
	d := testDesign(t)
	loop, err := NewLoop(d, []float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := loop.TryStep(-1); err == nil {
		t.Error("TryStep(-1) must error")
	}
	if err := loop.TryStep(d.NumModes()); err == nil {
		t.Errorf("TryStep(%d) must error", d.NumModes())
	}
	if loop.Jobs() != 0 {
		t.Errorf("failed TryStep must not advance the loop, jobs = %d", loop.Jobs())
	}
	if err := loop.TryStep(0); err != nil {
		t.Errorf("TryStep(0): %v", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Step on an out-of-range index must panic")
			}
		}()
		loop.Step(99)
	}()
}

// TestStepResponseCheckedMatchesLegacy verifies the checked step flags
// excursions while producing bit-identical trajectories to the silent
// clamp of StepResponse.
func TestStepResponseCheckedMatchesLegacy(t *testing.T) {
	d := testDesign(t)
	a, err := NewLoop(d, []float64{1, -0.5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewLoop(d, []float64{1, -0.5})
	if err != nil {
		t.Fatal(err)
	}
	responses := []float64{0.05, 0.12, 0.3, 0.16, 0.02, 0.25}
	wantViolated := []bool{false, false, true, false, false, true}
	for i, r := range responses {
		a.StepResponse(r)
		if got := b.StepResponseChecked(r); got != wantViolated[i] {
			t.Errorf("job %d: StepResponseChecked(%g) violated = %v, want %v", i, r, got, wantViolated[i])
		}
		xa, xb := a.State(), b.State()
		for j := range xa {
			if xa[j] != xb[j] {
				t.Fatalf("job %d: checked path diverged from legacy clamp: %v vs %v", i, xa, xb)
			}
		}
	}
}

// TestStepJitteredCacheEquivalence verifies the memoized
// discretizations change nothing: stepping the on-grid interval through
// the jittered path matches the table-driven step, and repeated
// off-grid steps are self-consistent against a fresh loop.
func TestStepJitteredCacheEquivalence(t *testing.T) {
	d := testDesign(t)
	a, err := NewLoop(d, []float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewLoop(d, []float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	h := d.Modes[1].H * 1.03
	// Warm a's cache, then both loops step the same off-grid interval
	// repeatedly; states must match exactly even though a serves every
	// step after the first from the cache.
	for k := 0; k < 5; k++ {
		if err := a.StepJittered(1, h); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 5; k++ {
		if err := b.StepJittered(1, h); err != nil {
			t.Fatal(err)
		}
	}
	xa, xb := a.State(), b.State()
	for j := range xa {
		if xa[j] != xb[j] {
			t.Fatalf("cached jittered steps diverged: %v vs %v", xa, xb)
		}
	}
}

// TestStepFallback pins the SafeMode runtime semantics for both
// actuator policies.
func TestStepFallback(t *testing.T) {
	d := testDesign(t)
	x0 := []float64{1, -1}

	zero, err := NewLoop(d, x0)
	if err != nil {
		t.Fatal(err)
	}
	if err := zero.StepFallback(d.Timing.T, false); err != nil {
		t.Fatal(err)
	}
	for i, v := range zero.Applied() {
		if v != 0 {
			t.Errorf("zero fallback: applied[%d] = %g, want 0", i, v)
		}
	}
	// With u forced to zero the plant must evolve open loop: x⁺ = Φ x.
	disc := d.Modes[0].Disc
	want := make([]float64, len(x0))
	for i := 0; i < disc.Phi.Rows(); i++ {
		for j := 0; j < disc.Phi.Cols(); j++ {
			want[i] += disc.Phi.At(i, j) * x0[j]
		}
	}
	for i, v := range zero.State() {
		if math.Abs(v-want[i]) > 1e-12 {
			t.Errorf("zero fallback: x[%d] = %g, want %g", i, v, want[i])
		}
	}

	hold, err := NewLoop(d, x0)
	if err != nil {
		t.Fatal(err)
	}
	held := hold.Applied()
	if err := hold.StepFallback(d.Timing.T, true); err != nil {
		t.Fatal(err)
	}
	for i, v := range hold.Applied() {
		if v != held[i] {
			t.Errorf("hold fallback: applied[%d] = %g, want held %g", i, v, held[i])
		}
	}
	// Both policies clear the controller pipeline in the lifted state:
	// ξ = [x; z~; u~; u] with z~ and u~ zeroed.
	lifted := zero.Lifted()
	n := d.Plant.StateDim()
	r := d.Plant.InputDim()
	for i := n; i < len(lifted)-r; i++ {
		if lifted[i] != 0 {
			t.Errorf("fallback must clear controller state and pending command, lifted[%d] = %g", i, lifted[i])
		}
	}
	if err := zero.StepFallback(0, false); err == nil {
		t.Error("StepFallback with non-positive interval must error")
	}
}

// TestLoopHooks verifies the fault-injection hooks: the sensor hook
// rewrites the sampled output before the error forms, and the actuator
// hook suppresses the latch so the old command stays applied.
func TestLoopHooks(t *testing.T) {
	d := testDesign(t)
	plain, err := NewLoop(d, []float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	hooked, err := NewLoop(d, []float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	var jobsSeen []int
	hooked.SetSensorHook(func(job int, y []float64) {
		jobsSeen = append(jobsSeen, job)
		for i := range y {
			y[i] = 0 // controller sees a zeroed measurement
		}
	})
	plain.Step(0)
	hooked.Step(0)
	// The plant state after one step is hook-independent (the hook only
	// affects the command computed for the NEXT interval)…
	xp, xh := plain.State(), hooked.State()
	for i := range xp {
		if xp[i] != xh[i] {
			t.Fatalf("sensor hook must not affect the already-elapsed interval")
		}
	}
	// …but the freshly computed command differs: zero measurement means
	// zero error-feedback command for a static full-state design.
	changed := false
	lp, lh := plain.Lifted(), hooked.Lifted()
	for i := range lp {
		if lp[i] != lh[i] {
			changed = true
		}
	}
	if !changed {
		t.Error("sensor hook had no effect on the computed command")
	}
	if len(jobsSeen) != 1 || jobsSeen[0] != 1 {
		t.Errorf("sensor hook fired for jobs %v, want [1]", jobsSeen)
	}

	// Actuator hold: the applied command must survive the release.
	heldLoop, err := NewLoop(d, []float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	heldLoop.Step(0) // one nominal step so a nonzero command is latched
	before := heldLoop.Applied()
	heldLoop.SetActuatorHook(func(job int) bool { return true })
	heldLoop.Step(0)
	after := heldLoop.Applied()
	for i := range before {
		if before[i] != after[i] {
			t.Errorf("actuator hold: applied[%d] changed %g → %g", i, before[i], after[i])
		}
	}
}
