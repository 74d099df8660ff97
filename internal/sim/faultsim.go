package sim

import (
	"context"
	"fmt"
	"math"
	"sync"

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
// fault-injected sequences. Sequence i draws its response times AND its
// entire fault plan from the single RNG seeded Seed+i, and the final
// reduction walks sequences in index order over per-sequence costs —
// every float is added in the same order no matter how sequences were
// distributed over workers — so results (costs, worst sequence and
// every guard counter) are bit-identical for every worker count.
// Cancellation aborts the sweep with the context's error and no partial
// metrics.
func FaultMonteCarloCtx(ctx context.Context, d *core.Design, x0 []float64, base ResponseModel, cost CostFunc, opt FaultOptions) (GuardMetrics, error) {
	if opt.Sequences <= 0 || opt.Jobs <= 0 {
		return GuardMetrics{}, fmt.Errorf("sim: need positive Sequences and Jobs, got %d, %d", opt.Sequences, opt.Jobs)
	}
	if err := opt.Profile.Validate(); err != nil {
		return GuardMetrics{}, err
	}
	if err := opt.Contract.Validate(); err != nil {
		return GuardMetrics{}, err
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = defaultWorkers()
	}
	if workers > opt.Sequences {
		workers = opt.Sequences
	}

	q := d.Plant.OutputDim()
	ts := d.Timing.Ts()

	// Workers write disjoint indices (sequence i belongs to worker
	// i%workers), so the slices need no locking; guard counters merge
	// associatively per worker.
	costs := make([]float64, opt.Sequences)
	guards := make([]guard.Metrics, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < opt.Sequences; i += workers {
				if cerr := ctx.Err(); cerr != nil {
					errs[w] = cerr
					return
				}
				rng := newSeqRand(opt.Seed, i)
				plan, err := opt.Profile.Plan(rng, base, d.Timing.Rmax, opt.Jobs, q, ts)
				if err != nil {
					errs[w] = err
					return
				}
				c, gm, err := EvaluateGuarded(d, x0, plan, opt.Contract, cost)
				if err != nil {
					errs[w] = err
					return
				}
				costs[i] = c
				guards[w].Add(gm)
			}
		}(w)
	}
	wg.Wait()
	var ctxErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if ctxInterrupted(err) {
			if ctxErr == nil {
				ctxErr = err
			}
			continue
		}
		return GuardMetrics{}, err
	}
	if ctxErr != nil {
		return GuardMetrics{}, ctxErr
	}

	m := GuardMetrics{Metrics: Metrics{Sequences: opt.Sequences, WorstCost: math.Inf(-1)}}
	for _, g := range guards {
		m.Guard.Add(g)
	}
	total, count, worstIdx := 0.0, 0, -1
	for i, c := range costs {
		if math.IsInf(c, 1) {
			m.Divergent++
			if !math.IsInf(m.WorstCost, 1) {
				m.WorstCost = c
				worstIdx = i
			}
			continue
		}
		count++
		total += c
		if c > m.WorstCost {
			m.WorstCost = c
			worstIdx = i
		}
	}
	if count > 0 {
		m.MeanCost = total / float64(count)
	}
	if worstIdx >= 0 {
		// Regenerate the worst plan instead of retaining every response
		// sequence during the sweep.
		rng := newSeqRand(opt.Seed, worstIdx)
		plan, err := opt.Profile.Plan(rng, base, d.Timing.Rmax, opt.Jobs, q, ts)
		if err != nil {
			return GuardMetrics{}, err
		}
		m.WorstSeq = plan.Resp
	}
	return m, nil
}
