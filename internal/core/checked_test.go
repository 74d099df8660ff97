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
