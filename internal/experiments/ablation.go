package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"adaptivertc/internal/control"
	"adaptivertc/internal/core"
	"adaptivertc/internal/jsr"
	"adaptivertc/internal/plants"
	"adaptivertc/internal/sim"
)

// AblationPIRow decomposes the Table I adaptive strategy: what does the
// Eq. 7 integrator-step adaptation buy on its own, and what happens if
// the per-mode gains are additionally re-tuned in isolation?
type AblationPIRow struct {
	Config
	FixedT      float64 // no adaptation at all (baseline)
	IntegratorH float64 // Eq. 7: nominal gains, integrator step = h (the shipped strategy)
	RetunedPerH float64 // gains re-tuned per mode on single-mode loops
}

// AblationPI runs the Table I decomposition on the paper grid.
func AblationPI(ctx context.Context, opt Options) ([]AblationPIRow, error) {
	opt = opt.Defaults()
	plant := plants.Unstable()
	x0 := []float64{1, 0}
	tuner := newPITuner(plant)
	rows := make([]AblationPIRow, len(opt.Grid))
	gerr := gridParallel(ctx, len(opt.Grid), opt.Workers, nil, func(ri int, publish func(func())) error {
		cfg := opt.Grid[ri]
		tm, err := core.NewTiming(table1T, cfg.Ns, table1T/10, cfg.RmaxFactor*table1T)
		if err != nil {
			return err
		}
		gT, err := tuner.tunedSingle(tm.T)
		if err != nil {
			return err
		}
		table, err := tuner.adaptiveTable(tm)
		if err != nil {
			return err
		}
		intOnly := core.Designer(func(h float64) (*control.StateSpace, error) {
			return table[gainKey(h)].Controller(), nil
		})
		perH := core.Designer(func(h float64) (*control.StateSpace, error) {
			g, err := tuner.tunedSingle(h)
			if err != nil {
				return nil, err
			}
			return g.Controller(), nil
		})
		model := sim.UniformResponse{Rmin: tm.Rmin, Rmax: tm.Rmax}
		mc := sim.MonteCarloOptions{Sequences: opt.Sequences, Jobs: opt.Jobs, Seed: opt.Seed, Workers: opt.Workers}
		eval := func(des core.Designer) (float64, error) {
			d, err := core.NewDesign(plant, tm, des)
			if err != nil {
				return 0, err
			}
			m, err := sim.MonteCarloCtx(ctx, d, x0, model, sim.ErrorCost(), mc)
			if err != nil {
				return 0, err
			}
			return m.WorstCost, nil
		}
		row := AblationPIRow{Config: cfg}
		if row.FixedT, err = eval(core.FixedDesigner(gT.Controller())); err != nil {
			return err
		}
		if row.IntegratorH, err = eval(intOnly); err != nil {
			return err
		}
		if row.RetunedPerH, err = eval(perH); err != nil {
			return err
		}
		publish(func() { rows[ri] = row })
		return nil
	})
	if gerr != nil {
		return nil, gerr
	}
	return rows, nil
}

// AblationPIString renders the PI decomposition.
func AblationPIString(rows []AblationPIRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-6s %12s %14s %14s\n", "Rmax", "Ts", "FixedT", "Eq.7 integr.", "Retuned per-h")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-6s %12.4f %14.4f %14.4f\n",
			fmt.Sprintf("%.1f·T", r.RmaxFactor), fmt.Sprintf("T/%d", r.Ns),
			r.FixedT, r.IntegratorH, r.RetunedPerH)
	}
	return b.String()
}

// AblationJSRRow compares the stability estimators on the adaptive PMSM
// closed loop: raw norm sandwich vs Lyapunov-preconditioned, and the
// wall-clock cost of each.
type AblationJSRRow struct {
	Config
	RawBrute jsr.Bounds
	PreBrute jsr.Bounds
	PreGrip  jsr.Bounds
	RawTime  time.Duration
	PreTime  time.Duration
	GripTime time.Duration
	BruteLen int
}

// AblationJSR runs the estimator comparison.
func AblationJSR(ctx context.Context, opt Options) ([]AblationJSRRow, error) {
	opt = opt.Defaults()
	plant := plants.PMSM(plants.DefaultPMSMParams())
	w := pmsmWeights()
	rows := make([]AblationJSRRow, len(opt.Grid))
	gerr := gridParallel(ctx, len(opt.Grid), opt.Workers, nil, func(ri int, publish func(func())) error {
		cfg := opt.Grid[ri]
		tm, err := core.NewTiming(table2T, cfg.Ns, table2T/10, cfg.RmaxFactor*table2T)
		if err != nil {
			return err
		}
		d, err := core.NewDesign(plant, tm, func(h float64) (*control.StateSpace, error) {
			return control.LQGFullInfo(plant, w, h)
		})
		if err != nil {
			return err
		}
		set := d.OmegaSet()
		row := AblationJSRRow{Config: cfg, BruteLen: opt.BruteLen}
		bf := jsr.BruteForceOptions{Workers: opt.Workers}

		t0 := time.Now()
		row.RawBrute, err = jsr.BruteForceBoundsCtx(ctx, set, opt.BruteLen, bf)
		if err != nil {
			return err
		}
		row.RawTime = time.Since(t0)

		t0 = time.Now()
		work, _, _ := jsr.Precondition(set)
		row.PreBrute, err = jsr.BruteForceBoundsCtx(ctx, work, opt.BruteLen, bf)
		if err != nil {
			return err
		}
		row.PreTime = time.Since(t0)

		t0 = time.Now()
		row.PreGrip, err = jsr.GripenbergCtx(ctx, work, jsr.GripenbergOptions{Delta: opt.Delta, MaxDepth: 30, Workers: opt.Workers})
		if err != nil && !errors.Is(err, jsr.ErrBudget) {
			return err
		}
		row.GripTime = time.Since(t0)

		publish(func() { rows[ri] = row })
		return nil
	})
	if gerr != nil {
		return nil, gerr
	}
	return rows, nil
}

// AblationJSRString renders the estimator comparison.
func AblationJSRString(rows []AblationJSRRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-6s %-22s %-22s %-22s %10s %10s %10s\n",
		"Rmax", "Ts", "raw brute", "precond brute", "precond Gripenberg", "t(raw)", "t(pre)", "t(grip)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-6s %-22s %-22s %-22s %10s %10s %10s\n",
			fmt.Sprintf("%.1f·T", r.RmaxFactor), fmt.Sprintf("T/%d", r.Ns),
			r.RawBrute, r.PreBrute, r.PreGrip,
			r.RawTime.Round(time.Millisecond), r.PreTime.Round(time.Millisecond), r.GripTime.Round(time.Millisecond))
	}
	return b.String()
}

// AblationLQRRow compares the delay-aware LQR (augmented [x;u] design
// plant) against a naive LQR that ignores the one-interval input-output
// delay, both deployed with adaptive periods and adaptive mode tables.
type AblationLQRRow struct {
	Config
	DelayAware float64
	Naive      float64
	NaiveUnst  bool
}

// AblationDelayLQR runs the delay-modelling ablation on the PMSM.
func AblationDelayLQR(ctx context.Context, opt Options) ([]AblationLQRRow, error) {
	opt = opt.Defaults()
	plant := plants.PMSM(plants.DefaultPMSMParams())
	w := pmsmWeights()
	cost := sim.QuadCost(w.Q, w.R)
	x0 := pmsmInitialState()
	rows := make([]AblationLQRRow, len(opt.Grid))
	gerr := gridParallel(ctx, len(opt.Grid), opt.Workers, nil, func(ri int, publish func(func())) error {
		cfg := opt.Grid[ri]
		tm, err := core.NewTiming(table2T, cfg.Ns, table2T/10, cfg.RmaxFactor*table2T)
		if err != nil {
			return err
		}
		model := sim.UniformResponse{Rmin: tm.Rmin, Rmax: tm.Rmax}
		mc := sim.MonteCarloOptions{Sequences: opt.Sequences, Jobs: opt.Jobs, Seed: opt.Seed, Workers: opt.Workers}
		eval := func(des core.Designer) (float64, bool, error) {
			d, err := core.NewDesign(plant, tm, des)
			if err != nil {
				return 0, false, err
			}
			m, err := sim.MonteCarloCtx(ctx, d, x0, model, cost, mc)
			if err != nil {
				return 0, false, err
			}
			return m.WorstCost, m.Unstable() || math.IsInf(m.WorstCost, 1), nil
		}
		row := AblationLQRRow{Config: cfg}
		var unst bool
		if row.DelayAware, unst, err = eval(func(h float64) (*control.StateSpace, error) {
			return control.LQGFullInfo(plant, w, h)
		}); err != nil {
			return err
		}
		if unst {
			row.DelayAware = math.Inf(1)
		}
		if row.Naive, row.NaiveUnst, err = eval(func(h float64) (*control.StateSpace, error) {
			return control.PeriodLQR(plant, w, h)
		}); err != nil {
			return err
		}
		publish(func() { rows[ri] = row })
		return nil
	})
	if gerr != nil {
		return nil, gerr
	}
	return rows, nil
}

// AblationLQRString renders the delay-modelling ablation.
func AblationLQRString(rows []AblationLQRRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-6s %14s %14s\n", "Rmax", "Ts", "delay-aware", "naive LQR")
	for _, r := range rows {
		naive := fmt.Sprintf("%14.4f", r.Naive)
		if r.NaiveUnst {
			naive = fmt.Sprintf("%14s", "unstable")
		}
		fmt.Fprintf(&b, "%-10s %-6s %14.4f %s\n",
			fmt.Sprintf("%.1f·T", r.RmaxFactor), fmt.Sprintf("T/%d", r.Ns),
			r.DelayAware, naive)
	}
	return b.String()
}
