package experiments

import (
	"context"
	"fmt"
	"strings"

	"adaptivertc/internal/control"
	"adaptivertc/internal/core"
	"adaptivertc/internal/jsr"
	"adaptivertc/internal/mat"
	"adaptivertc/internal/plants"
	"adaptivertc/internal/sim"
)

// ObserverRow compares the full-information Table II design against the
// observer-based LQG that only measures the two phase currents and
// reconstructs the rotor speed with a per-mode Kalman predictor — the
// paper's "if the state is not measurable, an observer is added"
// construction (§IV-B), evaluated across the grid.
type ObserverRow struct {
	Config
	FullInfo     jsr.Bounds // full-state modes
	Observer     jsr.Bounds // current-sensed modes (z = [x̂; u_prev])
	FullCost     float64    // worst-case state regulation cost Σ h·‖x‖²
	ObserverCost float64
}

// ObserverComparison runs the observer-vs-full-information study.
func ObserverComparison(ctx context.Context, opt Options) ([]ObserverRow, error) {
	opt = opt.Defaults()
	params := plants.DefaultPMSMParams()
	full := plants.PMSM(params)
	sensed := plants.PMSMCurrentSensed(params)
	w := pmsmWeights()
	nw := control.NoiseWeights{Rw: mat.Scale(1e-3, mat.Eye(3)), Rv: mat.Scale(1e-4, mat.Eye(2))}
	x0 := pmsmInitialState()

	rows := make([]ObserverRow, 0, len(opt.Grid))
	for _, cfg := range opt.Grid {
		tm, err := core.NewTiming(table2T, cfg.Ns, table2T/10, cfg.RmaxFactor*table2T)
		if err != nil {
			return nil, err
		}
		fullDesign, err := core.NewDesign(full, tm, func(h float64) (*control.StateSpace, error) {
			return control.LQGFullInfo(full, w, h)
		})
		if err != nil {
			return nil, err
		}
		obsDesign, err := core.NewDesign(sensed, tm, func(h float64) (*control.StateSpace, error) {
			return control.LQG(sensed, w, nw, h)
		})
		if err != nil {
			return nil, err
		}
		row := ObserverRow{Config: cfg}
		gopt := jsr.GripenbergOptions{Delta: opt.Delta, MaxDepth: 25, Workers: opt.Workers}
		if row.FullInfo, err = errTolerant(fullDesign.StabilityBoundsCtx(ctx, opt.BruteLen, gopt)); err != nil {
			return nil, err
		}
		if row.Observer, err = errTolerant(obsDesign.StabilityBoundsCtx(ctx, opt.BruteLen, gopt)); err != nil {
			return nil, err
		}
		model := sim.UniformResponse{Rmin: tm.Rmin, Rmax: tm.Rmax}
		mc := sim.MonteCarloOptions{Sequences: opt.Sequences, Jobs: opt.Jobs, Seed: opt.Seed, Workers: opt.Workers}
		// Identical state-based metric for both designs (their output
		// dimensions differ, so output-error costs would not compare).
		stateCost := sim.QuadCost(mat.Eye(3), mat.New(2, 2))
		mf, err := sim.MonteCarloCtx(ctx, fullDesign, x0, model, stateCost, mc)
		if err != nil {
			return nil, err
		}
		mo, err := sim.MonteCarloCtx(ctx, obsDesign, x0, model, stateCost, mc)
		if err != nil {
			return nil, err
		}
		row.FullCost = mf.WorstCost
		row.ObserverCost = mo.WorstCost
		rows = append(rows, row)
	}
	return rows, nil
}

// errTolerant passes jsr budget exhaustion through as a valid (looser)
// bracket.
func errTolerant(b jsr.Bounds, err error) (jsr.Bounds, error) {
	//lint:ignore floatcompare a JSR upper bound is positive whenever a bracket was computed; exactly zero is the unset sentinel of a failed run
	if err != nil && b.Upper == 0 {
		return b, err
	}
	return b, nil
}

// ObserverString renders the comparison.
func ObserverString(rows []ObserverRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-6s %-24s %-24s %12s %12s\n",
		"Rmax", "Ts", "full-info JSR", "observer JSR", "full cost", "obs cost")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-6s %-24s %-24s %12.4f %12.4f\n",
			fmt.Sprintf("%.1f·T", r.RmaxFactor), fmt.Sprintf("T/%d", r.Ns),
			r.FullInfo.String(), r.Observer.String(), r.FullCost, r.ObserverCost)
	}
	return b.String()
}
