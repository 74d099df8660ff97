package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"adaptivertc/internal/control"
	"adaptivertc/internal/core"
	"adaptivertc/internal/plants"
	"adaptivertc/internal/sim"
)

// JitterRow reports closed-loop degradation when the true inter-release
// intervals deviate from the sensor grid by uniform jitter of the given
// magnitude — probing the paper's assumption that sensor updates occur
// "with negligible jitter".
type JitterRow struct {
	JitterFrac float64 // jitter amplitude as a fraction of Ts
	WorstCost  float64 // worst Σ‖e‖² over random runs; +Inf if any diverged
	MeanCost   float64
	Divergent  int
}

// Jitter runs the robustness sweep on the PMSM adaptive design
// (Rmax = 1.6·T, Ts = T/5): each interval h is perturbed to
// h + ε·Ts·U(-1,1) for ε in jitterFracs while the controller still
// assumes the grid value. Every amplitude is one sim.Sweep of
// opt.Sequences runs of opt.Jobs jobs, reduced by sim.Summarize, so
// the rows are bit-identical for every opt.Workers. Cancellation aborts
// with the context's error and no rows.
func Jitter(ctx context.Context, jitterFracs []float64, opt sim.MonteCarloOptions) ([]JitterRow, error) {
	plant := plants.PMSM(plants.DefaultPMSMParams())
	w := pmsmWeights()
	tm, err := core.NewTiming(table2T, 5, table2T/10, 1.6*table2T)
	if err != nil {
		return nil, err
	}
	d, err := core.NewDesign(plant, tm, func(h float64) (*control.StateSpace, error) {
		return control.LQGFullInfo(plant, w, h)
	})
	if err != nil {
		return nil, err
	}
	x0 := pmsmInitialState()

	rows := make([]JitterRow, 0, len(jitterFracs))
	for _, frac := range jitterFracs {
		costs, err := sim.Sweep(ctx, opt, func(_ int, rng *rand.Rand) (float64, error) {
			return jitterRun(d, x0, frac, opt.Jobs, rng)
		})
		if err != nil {
			return nil, err
		}
		m, _ := sim.Summarize(costs)
		rows = append(rows, JitterRow{JitterFrac: frac, WorstCost: m.WorstCost, MeanCost: m.MeanCost, Divergent: m.Divergent})
	}
	return rows, nil
}

// jitterRun drives one run of jobs uniformly drawn responses through a
// fresh loop whose actual intervals miss the grid by frac·Ts·U(-1,1),
// and returns Σ‖y‖² (+Inf once the state diverges). Each job draws its
// response, then its jitter, from rng.
func jitterRun(d *core.Design, x0 []float64, frac float64, jobs int, rng *rand.Rand) (float64, error) {
	tm := d.Timing
	ts := tm.Ts()
	loop, err := core.NewLoop(d, x0)
	if err != nil {
		return 0, err
	}
	cost := 0.0
	for k := 0; k < jobs; k++ {
		r := tm.Rmin + rng.Float64()*(tm.Rmax-tm.Rmin)
		idx := tm.IntervalIndex(r)
		h := tm.T + float64(idx)*ts
		actual := h + frac*ts*(2*rng.Float64()-1)
		for _, v := range loop.Output() {
			cost += v * v
		}
		if err := loop.StepJittered(idx, actual); err != nil {
			return 0, err
		}
		for _, v := range loop.State() {
			if math.Abs(v) > 1e12 || math.IsNaN(v) {
				return math.Inf(1), nil
			}
		}
	}
	return cost, nil
}

// JitterString renders the sweep.
func JitterString(rows []JitterRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %14s %14s %10s\n", "jitter/Ts", "worst Σ‖e‖²", "mean Σ‖e‖²", "divergent")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12.3f %14.4f %14.4f %10d\n", r.JitterFrac, r.WorstCost, r.MeanCost, r.Divergent)
	}
	return b.String()
}
