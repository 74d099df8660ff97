package experiments

import (
	"context"
	"fmt"
	"strings"

	"adaptivertc/internal/control"
	"adaptivertc/internal/core"
	"adaptivertc/internal/plants"
	"adaptivertc/internal/sim"
)

// BurstRow compares closed-loop degradation under independent sporadic
// overruns against Markov-modulated bursts with the same long-run
// overrun fraction — probing the paper's claim that the period
// adaptation "prevents cascaded delays" even when the underlying cause
// (e.g. interrupt bursts) clusters overruns in time.
type BurstRow struct {
	Config
	OverrunFrac   float64
	IIDAdaptive   float64 // worst cost, independent overruns
	BurstAdaptive float64 // worst cost, bursty overruns (same marginal)
	IIDFixedT     float64
	BurstFixedT   float64
}

// BurstComparison runs the burst-robustness experiment on the PMSM.
func BurstComparison(ctx context.Context, opt Options) ([]BurstRow, error) {
	opt = opt.Defaults()
	plant := plants.PMSM(plants.DefaultPMSMParams())
	w := pmsmWeights()
	cost := sim.QuadCost(w.Q, w.R)
	x0 := pmsmInitialState()
	lqg := func(h float64) (*control.StateSpace, error) {
		return control.LQGFullInfo(plant, w, h)
	}
	const (
		pEnter = 0.06
		pExit  = 0.34
	)
	frac := pEnter / (pEnter + pExit) // stationary overrun fraction

	rows := make([]BurstRow, 0, len(opt.Grid))
	for _, cfg := range opt.Grid {
		tm, err := core.NewTiming(table2T, cfg.Ns, table2T/10, cfg.RmaxFactor*table2T)
		if err != nil {
			return nil, err
		}
		iid := sim.SporadicResponse{Rmin: tm.Rmin, T: tm.T, Rmax: tm.Rmax, OverrunProb: frac}
		burst := sim.BurstResponse{Rmin: tm.Rmin, T: tm.T, Rmax: tm.Rmax, PEnter: pEnter, PExit: pExit}
		mc := sim.MonteCarloOptions{Sequences: opt.Sequences, Jobs: opt.Jobs, Seed: opt.Seed, Workers: opt.Workers}

		ctlT, err := lqg(tm.T)
		if err != nil {
			return nil, err
		}
		eval := func(des core.Designer, model sim.ResponseModel) (float64, error) {
			d, err := core.NewDesign(plant, tm, des)
			if err != nil {
				return 0, err
			}
			m, err := sim.MonteCarloCtx(ctx, d, x0, model, cost, mc)
			if err != nil {
				return 0, err
			}
			return m.WorstCost, nil
		}
		row := BurstRow{Config: cfg, OverrunFrac: frac}
		if row.IIDAdaptive, err = eval(lqg, iid); err != nil {
			return nil, err
		}
		if row.BurstAdaptive, err = eval(lqg, burst); err != nil {
			return nil, err
		}
		fixed := core.FixedDesigner(ctlT)
		if row.IIDFixedT, err = eval(fixed, iid); err != nil {
			return nil, err
		}
		if row.BurstFixedT, err = eval(fixed, burst); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// BurstString renders the comparison.
func BurstString(rows []BurstRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-6s %14s %14s %14s %14s\n",
		"Rmax", "Ts", "adapt (iid)", "adapt (burst)", "fixedT (iid)", "fixedT (burst)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-6s %14.4f %14.4f %14.4f %14.4f\n",
			fmt.Sprintf("%.1f·T", r.RmaxFactor), fmt.Sprintf("T/%d", r.Ns),
			r.IIDAdaptive, r.BurstAdaptive, r.IIDFixedT, r.BurstFixedT)
	}
	return b.String()
}
