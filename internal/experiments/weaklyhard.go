package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
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
	// A simultaneous similarity transform preserves the constrained JSR
	// exactly (products transform by conjugation), so the Lyapunov
	// preconditioner tightens the norm-based upper bounds here too.
	setA, _, _ = jsr.Precondition(setA)
	setF, _, _ = jsr.Precondition(setF)

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

// constrainedBracket intersects the brute-force sandwich with the
// branch-and-bound refinement for one graph; opt.Workers reaches both.
func constrainedBracket(ctx context.Context, set []*mat.Dense, g *jsr.Graph, opt Options) (jsr.Bounds, error) {
	bf, err := jsr.ConstrainedBoundsCtx(ctx, set, g, opt.BruteLen+8, jsr.BruteForceOptions{Workers: opt.Workers})
	if err != nil {
		return jsr.Bounds{}, err
	}
	gp, gerr := jsr.ConstrainedGripenbergCtx(ctx, set, g, jsr.GripenbergOptions{Delta: opt.Delta, MaxDepth: 30, Workers: opt.Workers})
	if gerr != nil && !errors.Is(gerr, jsr.ErrBudget) {
		return jsr.Bounds{}, gerr
	}
	out := jsr.Bounds{
		Lower:       math.Max(bf.Lower, gp.Lower),
		Upper:       math.Min(bf.Upper, gp.Upper),
		WitnessWord: bf.WitnessWord,
	}
	if gp.Lower > bf.Lower {
		out.WitnessWord = gp.WitnessWord
	}
	if out.Upper < out.Lower {
		out.Upper = out.Lower
	}
	return out, nil
}
