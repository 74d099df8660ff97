package sim

import (
	"context"
	"math"
	"reflect"
	"testing"

	"adaptivertc/internal/faults"
	"adaptivertc/internal/guard"
)

func faultProfile() faults.Profile {
	return faults.Profile{
		Excursion: 0.05, ExcursionFactor: 1.5,
		Drop: 0.05, Stuck: 0.01, StuckLen: 3,
		Noise: 0.05, NoiseAmp: 0.05,
		ActHold: 0.02, JitterAmp: 0.1,
	}
}

func faultContract() guard.Contract {
	return guard.Contract{M: 2, K: 5, RecoverAfter: 3, DivergeLimit: 1e9, Fallback: guard.FallbackZero}
}

// TestFaultMonteCarloWorkerInvariance is the acceptance check for the
// fault-injected Monte-Carlo: every metric — costs, worst sequence and
// all guard counters — must be bit-identical for every worker count.
// Run under -race this also exercises the partial-merge concurrency.
func TestFaultMonteCarloWorkerInvariance(t *testing.T) {
	d := testDesign(t)
	base := UniformResponse{Rmin: d.Timing.Rmin, Rmax: d.Timing.Rmax}
	x0 := []float64{1, 0}

	var ref GuardMetrics
	for i, workers := range []int{1, 2, 3, 5} {
		opt := FaultOptions{
			MonteCarloOptions: MonteCarloOptions{Sequences: 40, Jobs: 25, Seed: 11, Workers: workers},
			Profile:           faultProfile(),
			Contract:          faultContract(),
		}
		m, err := FaultMonteCarloCtx(context.Background(), d, x0, base, ErrorCost(), opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if i == 0 {
			ref = m
			if m.Guard.Jobs != 40*25 {
				t.Fatalf("guard saw %d jobs, want %d", m.Guard.Jobs, 40*25)
			}
			if m.Guard.Violations == 0 || m.Guard.Escalations == 0 {
				t.Fatalf("fault profile injected no contract violations: %+v", m.Guard)
			}
			continue
		}
		if !reflect.DeepEqual(m, ref) {
			t.Errorf("workers=%d diverges from workers=1:\n got %+v\nwant %+v", workers, m, ref)
		}
	}
}

// TestFaultMonteCarloZeroProfile checks the degenerate case: with no
// faults injected and a never-binding contract the guarded Monte-Carlo
// must reproduce the plain Monte-Carlo bit for bit, and the guard must
// report an entirely nominal run.
func TestFaultMonteCarloZeroProfile(t *testing.T) {
	d := testDesign(t)
	base := UniformResponse{Rmin: d.Timing.Rmin, Rmax: d.Timing.Rmax}
	x0 := []float64{1, 0}
	// Both runs fold their costs with Summarize in sequence order, so
	// the worker counts need not match.
	plain, err := MonteCarloCtx(context.Background(), d, x0, base, ErrorCost(),
		MonteCarloOptions{Sequences: 30, Jobs: 25, Seed: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	guarded, err := FaultMonteCarloCtx(context.Background(), d, x0, base, ErrorCost(), FaultOptions{
		MonteCarloOptions: MonteCarloOptions{Sequences: 30, Jobs: 25, Seed: 3, Workers: 2},
		Profile:           faults.Profile{}, // nothing injected
		// M = K can never be exceeded and DivergeLimit 0 disables the
		// divergence clause: the contract never binds.
		Contract: guard.Contract{M: 5, K: 5, Fallback: guard.FallbackZero},
	})
	if err != nil {
		t.Fatal(err)
	}

	if guarded.WorstCost != plain.WorstCost {
		t.Errorf("WorstCost %v != plain %v", guarded.WorstCost, plain.WorstCost)
	}
	if guarded.MeanCost != plain.MeanCost {
		t.Errorf("MeanCost %v != plain %v", guarded.MeanCost, plain.MeanCost)
	}
	if !reflect.DeepEqual(guarded.WorstSeq, plain.WorstSeq) {
		t.Error("worst sequences differ between guarded and plain runs")
	}
	g := guarded.Guard
	if g.Violations != 0 || g.BudgetBreaches != 0 || g.Escalations != 0 || g.Divergences != 0 {
		t.Errorf("clean run reported contract activity: %+v", g)
	}
	if g.JobsInTier[guard.Nominal] != g.Jobs || g.JobsInTier[guard.Clamp] != 0 || g.JobsInTier[guard.SafeMode] != 0 {
		t.Errorf("clean run left Nominal: JobsInTier = %v", g.JobsInTier)
	}
	if !math.IsNaN(g.MeanRecoveryJobs()) {
		t.Errorf("MeanRecoveryJobs = %g, want NaN with no recoveries", g.MeanRecoveryJobs())
	}
}

// TestFaultMonteCarloValidation rejects malformed options.
func TestFaultMonteCarloValidation(t *testing.T) {
	d := testDesign(t)
	base := UniformResponse{Rmin: d.Timing.Rmin, Rmax: d.Timing.Rmax}
	cases := []FaultOptions{
		{MonteCarloOptions: MonteCarloOptions{Sequences: 0, Jobs: 10}, Contract: faultContract()},
		{MonteCarloOptions: MonteCarloOptions{Sequences: 10, Jobs: 10},
			Profile: faults.Profile{Drop: 2}, Contract: faultContract()},
		{MonteCarloOptions: MonteCarloOptions{Sequences: 10, Jobs: 10},
			Contract: guard.Contract{M: 1, K: 0}},
	}
	for i, opt := range cases {
		if _, err := FaultMonteCarloCtx(context.Background(), d, []float64{1, 0}, base, ErrorCost(), opt); err == nil {
			t.Errorf("case %d accepted invalid options", i)
		}
	}
}
