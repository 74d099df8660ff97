package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"adaptivertc/internal/control"
	"adaptivertc/internal/core"
	"adaptivertc/internal/jsr"
	"adaptivertc/internal/mat"
	"adaptivertc/internal/plants"
)

// WeaklyHardRow is the stability bracket of a two-mode closed loop when
// overrun patterns are restricted by the weakly-hard constraint
// "at most m overruns in any K consecutive jobs" — the model of the
// paper's refs [16]-[18], against which §II positions the adaptive
// design. m = K reproduces the paper's arbitrary-switching analysis.
type WeaklyHardRow struct {
	M, K     int
	Adaptive jsr.Bounds // adaptive mode table
	FixedT   jsr.Bounds // gains frozen for the nominal period
}

// WeaklyHard analyzes the PMSM in the skip-next configuration
// (Ns = 1, Rmax = 1.6·T, so H = {T, 2T}: nominal and overrun modes) for
// a range of weakly-hard constraints with window K.
func WeaklyHard(ctx context.Context, k int, opt Options) ([]WeaklyHardRow, error) {
	opt = opt.Defaults()
	if k < 1 {
		return nil, fmt.Errorf("experiments: window K must be ≥ 1, got %d", k)
	}
	plant := plants.PMSM(plants.DefaultPMSMParams())
	w := pmsmWeights()
	tm, err := core.NewTiming(table2T, 1, table2T/10, 1.6*table2T)
	if err != nil {
		return nil, err
	}
	lqg := func(h float64) (*control.StateSpace, error) {
		return control.LQGFullInfo(plant, w, h)
	}
	adaptive, err := core.NewDesign(plant, tm, lqg)
	if err != nil {
		return nil, err
	}
	ctlT, err := lqg(tm.T)
	if err != nil {
		return nil, err
	}
	fixed, err := core.NewDesign(plant, tm, core.FixedDesigner(ctlT))
	if err != nil {
		return nil, err
	}
	setA := adaptive.OmegaSet()
	setF := fixed.OmegaSet()
	if len(setA) != 2 {
		return nil, fmt.Errorf("experiments: weakly-hard analysis needs exactly 2 modes, got %d", len(setA))
	}
	rows := make([]WeaklyHardRow, k+1)
	gerr := gridParallel(ctx, k+1, opt.Workers, nil, func(m int, publish func(func())) error {
		g, err := jsr.WeaklyHardGraph(m, k)
		if err != nil {
			return err
		}
		ba, err := constrainedBracket(ctx, setA, g, opt)
		if err != nil {
			return err
		}
		bf, err := constrainedBracket(ctx, setF, g, opt)
		if err != nil {
			return err
		}
		publish(func() { rows[m] = WeaklyHardRow{M: m, K: k, Adaptive: ba, FixedT: bf} })
		return nil
	})
	if gerr != nil {
		return nil, gerr
	}
	return rows, nil
}

// WeaklyHardString renders the analysis.
func WeaklyHardString(rows []WeaklyHardRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-24s %-24s\n", "(m, K)", "adaptive JSR [LB,UB]", "fixed-T JSR [LB,UB]")
	for _, r := range rows {
		label := fmt.Sprintf("(%d, %d)", r.M, r.K)
		if r.M == r.K {
			label += " = free"
		}
		fmt.Fprintf(&b, "%-10s %-24s %-24s\n", label, r.Adaptive.String(), r.FixedT.String())
	}
	return b.String()
}

// constrainedBracket certifies set under the switching graph g with
// jsr.ConstrainedEstimateCtx: the set's invariant blocks, each
// Lyapunov-preconditioned (a simultaneous similarity preserves the
// constrained JSR exactly, since products transform by conjugation),
// bracketed by the brute-force sandwich and the branch-and-bound
// refinement; opt.Workers reaches both. A spent budget leaves a valid
// bracket; a deadline is an error.
func constrainedBracket(ctx context.Context, set []*mat.Dense, g *jsr.Graph, opt Options) (jsr.Bounds, error) {
	b, err := jsr.ConstrainedEstimateCtx(ctx, set, g, opt.BruteLen+8, jsr.GripenbergOptions{Delta: opt.Delta, MaxDepth: 30, Workers: opt.Workers})
	if err != nil && (errors.Is(err, jsr.ErrDeadline) || !errors.Is(err, jsr.ErrBudget)) {
		return jsr.Bounds{}, err
	}
	return b, nil
}
