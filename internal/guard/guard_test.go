package guard

import (
	"context"
	"math"
	"sync"
	"testing"

	"adaptivertc/internal/control"
	"adaptivertc/internal/core"
	"adaptivertc/internal/jsr"
	"adaptivertc/internal/lti"
	"adaptivertc/internal/mat"
	"adaptivertc/internal/sched"
)

// testDesign builds the well-damped open-loop-stable plant used across
// the guard tests: open-loop stability is what lets the zero-input
// SafeMode tier carry a strict certificate.
func testDesign(t testing.TB) *core.Design {
	t.Helper()
	plant := lti.MustSystem(
		mat.FromRows([][]float64{{-4, 1}, {0, -6}}),
		mat.FromRows([][]float64{{0}, {2}}),
		mat.Eye(2),
	)
	tm, err := core.NewTiming(0.100, 4, 0.010, 0.150)
	if err != nil {
		t.Fatal(err)
	}
	w := control.LQRWeights{Q: mat.Eye(2), R: mat.Diag(0.1)}
	d, err := core.NewDesign(plant, tm, func(h float64) (*control.StateSpace, error) {
		return control.LQGFullInfo(plant, w, h)
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

var certOpts = CertifyOptions{
	BruteLen:   4,
	Grip:       jsr.GripenbergOptions{Delta: 1e-3, MaxDepth: 25, MaxNodes: 100_000},
	ExtraSteps: 2,
	Fallback:   FallbackZero,
}

// The ladder certification is the slow part of these tests; compute it
// once and share.
var (
	ladderOnce sync.Once
	ladderCert LadderCert
	ladderErr  error
)

func certifiedLadder(t *testing.T) LadderCert {
	t.Helper()
	ladderOnce.Do(func() {
		// The sync.Once closure cannot use t, so capture the error.
		var d *core.Design
		d, ladderErr = buildDesign()
		if ladderErr != nil {
			return
		}
		ladderCert, ladderErr = CertifyLadderCtx(context.Background(), d, certOpts)
	})
	if ladderErr != nil {
		t.Fatal(ladderErr)
	}
	return ladderCert
}

// buildDesign is testDesign without the testing.TB plumbing, for use
// inside sync.Once.
func buildDesign() (*core.Design, error) {
	plant := lti.MustSystem(
		mat.FromRows([][]float64{{-4, 1}, {0, -6}}),
		mat.FromRows([][]float64{{0}, {2}}),
		mat.Eye(2),
	)
	tm, err := core.NewTiming(0.100, 4, 0.010, 0.150)
	if err != nil {
		return nil, err
	}
	w := control.LQRWeights{Q: mat.Eye(2), R: mat.Diag(0.1)}
	return core.NewDesign(plant, tm, func(h float64) (*control.StateSpace, error) {
		return control.LQGFullInfo(plant, w, h)
	})
}

// TestLadderCertAllStable checks that every rung of the ladder carries
// a strict JSR certificate with the zero fallback, and that the hold
// fallback is honestly reported as uncertifiable (the held input is an
// exact eigenvalue 1 of the lifted SafeMode dynamics).
func TestLadderCertAllStable(t *testing.T) {
	lc := certifiedLadder(t)
	for tier := Nominal; tier < NumTiers; tier++ {
		tc := lc.Cert(tier)
		if !tc.Stable() {
			t.Errorf("tier %s not certified: bracket %v", tier, tc.Bounds)
		}
		if tc.Matrices == 0 {
			t.Errorf("tier %s has an empty matrix set", tier)
		}
	}
	if !lc.AllStable() {
		t.Error("AllStable() = false with every tier certified")
	}

	d := testDesign(t)
	holdOpts := certOpts
	holdOpts.Fallback = FallbackHold
	hold, err := CertifyLadderCtx(context.Background(), d, holdOpts)
	if err != nil {
		t.Fatal(err)
	}
	if hold.Cert(SafeMode).Stable() {
		t.Error("hold fallback SafeMode certified stable; the held-input eigenvalue 1 makes that impossible")
	}
	if hold.Cert(SafeMode).Bounds.Lower < 1-1e-6 {
		t.Errorf("hold fallback JSR lower bound %g, want ≥ 1 (exact eigenvalue 1)", hold.Cert(SafeMode).Bounds.Lower)
	}
	if hold.AllStable() {
		t.Error("AllStable() = true with an uncertified SafeMode tier")
	}
}

// TestEscalationEndToEnd is the acceptance scenario: a burst of
// R > Rmax excursions drives the guard Nominal → Clamp → SafeMode,
// hysteresis walks it back down one tier at a time, and every tier the
// trajectory passed through is backed by a JSR certificate.
func TestEscalationEndToEnd(t *testing.T) {
	lc := certifiedLadder(t)
	if !lc.AllStable() {
		t.Fatalf("ladder not fully certified:\n%s", lc.Report())
	}

	d := testDesign(t)
	mon, err := New(d, []float64{1, -0.5}, Contract{
		M: 1, K: 4, RecoverAfter: 3, DivergeLimit: 1e6, Fallback: FallbackZero,
	})
	if err != nil {
		t.Fatal(err)
	}

	const jobs = 28
	tiers := make([]Tier, jobs)
	for k := 0; k < jobs; k++ {
		r := d.Timing.Rmin
		if k >= 8 && k < 14 {
			r = 2 * d.Timing.Rmax // far beyond the certified envelope
		}
		tiers[k], err = mon.StepJittered(r, 0)
		if err != nil {
			t.Fatalf("job %d: %v", k, err)
		}
	}

	// The first excursion escalates to Clamp immediately; exhausting the
	// (1,4) budget escalates to SafeMode; after the burst the 3-job
	// hysteresis steps back down SafeMode → Clamp → Nominal.
	if tiers[7] != Nominal {
		t.Errorf("job 7 (pre-burst) at %s, want Nominal", tiers[7])
	}
	if tiers[8] != Clamp {
		t.Errorf("job 8 (first excursion) at %s, want Clamp", tiers[8])
	}
	reachedSafe := false
	for k := 9; k < 14; k++ {
		if tiers[k] == SafeMode {
			reachedSafe = true
			break
		}
	}
	if !reachedSafe {
		t.Error("burst never reached SafeMode despite exhausting the (1,4) budget")
	}
	if mon.Tier() != Nominal {
		t.Errorf("final tier %s, want Nominal after hysteresis recovery", mon.Tier())
	}

	// The event log must show the full ladder walk in order.
	var walk []Tier
	for _, e := range mon.Events() {
		walk = append(walk, e.To)
	}
	want := []Tier{Clamp, SafeMode, Clamp, Nominal}
	if len(walk) != len(want) {
		t.Fatalf("transitions %v, want targets %v", mon.Events(), want)
	}
	for i := range want {
		if walk[i] != want[i] {
			t.Fatalf("transition %d target %s, want %s (events: %v)", i, walk[i], want[i], mon.Events())
		}
	}

	m := mon.Metrics()
	if m.Jobs != jobs {
		t.Errorf("Jobs = %d, want %d", m.Jobs, jobs)
	}
	if m.Violations != 6 {
		t.Errorf("Violations = %d, want 6 (the burst length)", m.Violations)
	}
	if m.Escalations != 2 || m.SafeModeEntries != 1 {
		t.Errorf("Escalations = %d, SafeModeEntries = %d, want 2 and 1", m.Escalations, m.SafeModeEntries)
	}
	if m.Recoveries != 1 {
		t.Errorf("Recoveries = %d, want 1", m.Recoveries)
	}
	if m.RecoveryJobs <= 0 || math.IsNaN(m.MeanRecoveryJobs()) {
		t.Errorf("recovery latency not recorded: RecoveryJobs = %d", m.RecoveryJobs)
	}
	sum := 0
	for _, n := range m.JobsInTier {
		sum += n
	}
	if sum != jobs {
		t.Errorf("JobsInTier sums to %d, want %d", sum, jobs)
	}
	if m.JobsInTier[SafeMode] == 0 || m.JobsInTier[Clamp] == 0 {
		t.Errorf("degraded tiers never executed: JobsInTier = %v", m.JobsInTier)
	}

	// The guarded trajectory must stay bounded — each tier it executed
	// in is certified stable, so the lifted state cannot blow up.
	for _, v := range mon.Loop().Lifted() {
		if math.IsNaN(v) || math.Abs(v) > 1e3 {
			t.Fatalf("lifted state unbounded after certified degradation: %v", mon.Loop().Lifted())
		}
	}
}

// TestBudgetBreachesMatchOffline cross-checks the monitor's online
// weakly-hard accounting against offline sliding-window evaluation of
// the same response sequence.
func TestBudgetBreachesMatchOffline(t *testing.T) {
	d := testDesign(t)
	c := Contract{M: 2, K: 5, RecoverAfter: 3, Fallback: FallbackZero}
	mon, err := New(d, []float64{0.5, 0.5}, c)
	if err != nil {
		t.Fatal(err)
	}

	// A response pattern mixing overruns (R > T) inside the envelope
	// with clean jobs: overruns at 2,3,4 then 9,10 then 15,16,17.
	resp := make([]float64, 20)
	for i := range resp {
		resp[i] = d.Timing.Rmin
	}
	for _, k := range []int{2, 3, 4, 9, 10, 15, 16, 17} {
		resp[k] = d.Timing.Rmax // overrun but within the certificate
	}

	for k, r := range resp {
		if _, err := mon.Step(r); err != nil {
			t.Fatalf("job %d: %v", k, err)
		}
	}

	wantBreaches := 0
	for k := range resp {
		lo := k + 1 - c.K
		if lo < 0 {
			lo = 0
		}
		ok, err := sched.SatisfiesWeaklyHard(resp[lo:k+1], d.Timing.T, c.M, c.K)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			wantBreaches++
		}
	}
	if got := mon.Metrics().BudgetBreaches; got != wantBreaches {
		t.Errorf("online BudgetBreaches = %d, offline sliding windows give %d", got, wantBreaches)
	}
	if mon.Metrics().Violations != 0 {
		t.Errorf("Violations = %d, want 0 (all responses within Rmax)", mon.Metrics().Violations)
	}
}

// TestDivergenceForcesSafeMode checks the third contract clause: a
// lifted state past DivergeLimit jumps straight to SafeMode even with a
// clean response.
func TestDivergenceForcesSafeMode(t *testing.T) {
	d := testDesign(t)
	mon, err := New(d, []float64{1, 0}, Contract{
		M: 3, K: 4, DivergeLimit: 1e-9, Fallback: FallbackZero,
	})
	if err != nil {
		t.Fatal(err)
	}
	tier, err := mon.Step(d.Timing.Rmin)
	if err != nil {
		t.Fatal(err)
	}
	if tier != SafeMode {
		t.Fatalf("tier %s after divergence, want SafeMode", tier)
	}
	m := mon.Metrics()
	if m.Divergences != 1 || m.SafeModeEntries != 1 {
		t.Errorf("Divergences = %d, SafeModeEntries = %d, want 1 and 1", m.Divergences, m.SafeModeEntries)
	}
}

// TestContractValidate rejects malformed contracts at construction.
func TestContractValidate(t *testing.T) {
	d := testDesign(t)
	bad := []Contract{
		{M: 1, K: 0},
		{M: -1, K: 4},
		{M: 1, K: 4, DivergeLimit: -1},
	}
	for i, c := range bad {
		if _, err := New(d, []float64{1, 0}, c); err == nil {
			t.Errorf("contract %d (%+v) accepted", i, c)
		}
	}
	if _, err := New(d, []float64{1, 0}, Contract{M: 1, K: 4}); err != nil {
		t.Errorf("valid contract rejected: %v", err)
	}
}

// TestMetricsAdd checks the associative merge the Monte-Carlo relies
// on.
func TestMetricsAdd(t *testing.T) {
	a := Metrics{Jobs: 3, Violations: 1, Escalations: 1, Recoveries: 1, RecoveryJobs: 4, JobsInTier: [NumTiers]int{2, 1, 0}}
	b := Metrics{Jobs: 5, BudgetBreaches: 2, SafeModeEntries: 1, JobsInTier: [NumTiers]int{1, 1, 3}}
	var sum Metrics
	sum.Add(a)
	sum.Add(b)
	if sum.Jobs != 8 || sum.Violations != 1 || sum.BudgetBreaches != 2 ||
		sum.SafeModeEntries != 1 || sum.JobsInTier != [NumTiers]int{3, 2, 3} {
		t.Errorf("merged metrics wrong: %+v", sum)
	}
	if sum.MeanRecoveryJobs() != 4 {
		t.Errorf("MeanRecoveryJobs = %g, want 4", sum.MeanRecoveryJobs())
	}
}
