package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"adaptivertc/internal/core"
	"adaptivertc/internal/faults"
	"adaptivertc/internal/guard"
)

// FaultOptions configures a fault-injected Monte-Carlo run: the usual
// sequence/job/seed/worker knobs plus the fault mix and the deployment
// contract the guard enforces.
type FaultOptions struct {
	MonteCarloOptions
	Profile  faults.Profile
	Contract guard.Contract
}

// GuardMetrics summarizes a fault-injected Monte-Carlo evaluation:
// the cost metrics of the guarded closed loop plus the degradation
// accounting summed over all sequences.
type GuardMetrics struct {
	Metrics
	Guard guard.Metrics
}

// String renders the fault-injection summary for reports.
func (g GuardMetrics) String() string {
	mean := g.Guard.MeanRecoveryJobs()
	meanStr := "n/a"
	if !math.IsNaN(mean) {
		meanStr = fmt.Sprintf("%.2f", mean)
	}
	return fmt.Sprintf(
		"sequences: %d (divergent: %d)\nworst cost: %.6g  mean cost: %.6g\n"+
			"jobs in tier: Nominal %d / Clamp %d / SafeMode %d\n"+
			"violations (R > Rmax): %d  budget breaches: %d  divergences: %d\n"+
			"escalations: %d (SafeMode entries: %d)  recoveries: %d  mean recovery latency: %s jobs",
		g.Sequences, g.Divergent, g.WorstCost, g.MeanCost,
		g.Guard.JobsInTier[guard.Nominal], g.Guard.JobsInTier[guard.Clamp], g.Guard.JobsInTier[guard.SafeMode],
		g.Guard.Violations, g.Guard.BudgetBreaches, g.Guard.Divergences,
		g.Guard.Escalations, g.Guard.SafeModeEntries, g.Guard.Recoveries, meanStr)
}

// EvaluateGuarded drives one fault plan through a fresh guarded loop
// and returns the accumulated cost plus the run's guard metrics. A
// trajectory that blows past the divergence limit yields +Inf cost;
// the guard metrics cover the jobs executed up to that point.
func EvaluateGuarded(d *core.Design, x0 []float64, plan *faults.Plan, contract guard.Contract, cost CostFunc) (float64, guard.Metrics, error) {
	mon, err := guard.New(d, x0, contract)
	if err != nil {
		return 0, guard.Metrics{}, err
	}
	loop := mon.Loop()
	loop.SetSensorHook(plan.SensorHook())
	loop.SetActuatorHook(plan.ActuatorHook())
	total := 0.0
	for k, r := range plan.Resp {
		h := d.Timing.GridInterval(r) + plan.Jitter[k]
		y := loop.Output()
		e := make([]float64, len(y))
		for i, v := range y {
			e[i] = -v
		}
		total += cost(StepInfo{K: k, H: h, Err: e, State: loop.State(), Input: loop.Applied()})
		if _, err := mon.StepJittered(r, plan.Jitter[k]); err != nil {
			return 0, guard.Metrics{}, err
		}
		for _, v := range loop.State() {
			if math.Abs(v) > divergeLimit || math.IsNaN(v) {
				return math.Inf(1), mon.Metrics(), nil
			}
		}
	}
	return total, mon.Metrics(), nil
}

// FaultMonteCarloCtx evaluates the guarded design over random
// fault-injected sequences: a Sweep of EvaluateGuarded reduced by
// Summarize. Sequence i draws its response times and its entire fault
// plan from the single RNG seeded Seed+i, costs fold in index order and
// the integer guard counters are summed per index, so every metric is
// bit-identical for every worker count. Cancellation aborts the sweep
// with the context's error and no partial metrics.
func FaultMonteCarloCtx(ctx context.Context, d *core.Design, x0 []float64, base ResponseModel, cost CostFunc, opt FaultOptions) (GuardMetrics, error) {
	if err := opt.Profile.Validate(); err != nil {
		return GuardMetrics{}, err
	}
	if err := opt.Contract.Validate(); err != nil {
		return GuardMetrics{}, err
	}
	q := d.Plant.OutputDim()
	ts := d.Timing.Ts()
	plan := func(rng *rand.Rand) (*faults.Plan, error) {
		return opt.Profile.Plan(rng, base, d.Timing.Rmax, opt.Jobs, q, ts)
	}
	guards := make([]guard.Metrics, max(opt.Sequences, 0))
	costs, err := Sweep(ctx, opt.MonteCarloOptions, func(i int, rng *rand.Rand) (float64, error) {
		p, err := plan(rng)
		if err != nil {
			return 0, err
		}
		c, gm, err := EvaluateGuarded(d, x0, p, opt.Contract, cost)
		guards[i] = gm
		return c, err
	})
	if err != nil {
		return GuardMetrics{}, err
	}
	sum, worst := Summarize(costs)
	m := GuardMetrics{Metrics: sum}
	for _, g := range guards {
		m.Guard.Add(g)
	}
	if worst >= 0 {
		// Regenerate the worst plan instead of retaining every response
		// sequence during the sweep.
		p, err := plan(newSeqRand(opt.Seed, worst))
		if err != nil {
			return GuardMetrics{}, err
		}
		m.WorstSeq = p.Resp
	}
	return m, nil
}
