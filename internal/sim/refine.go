package sim

import (
	"context"
	"fmt"
	"math"

	"adaptivertc/internal/core"
)

// RefineWorstCtx sharpens a worst-case estimate by coordinate ascent
// over the switching sequence: starting from the interval pattern
// induced by `responses`, each position is replaced in turn by every
// achievable interval and the most expensive choice is kept, until a
// full pass yields no improvement (or maxPasses is hit). The result is a local
// maximum of the cost over the discrete switching space — by
// construction at least as expensive as the starting sequence.
//
// Monte-Carlo sampling alone (the paper's 50 000 random sequences)
// explores the space blindly; a few refinement passes on the sampled
// worst typically push `Jw` a further few percent toward the true
// supremum.
//
// Cancellation returns the sequence and cost refined so far —
// coordinate ascent only ever improves on its start, so the partial
// result is still a valid (if less sharpened) worst-case estimate —
// together with the context's error.
func RefineWorstCtx(ctx context.Context, d *core.Design, x0 []float64, responses []float64, cost CostFunc, maxPasses int) ([]float64, float64, error) {
	if len(responses) == 0 {
		return nil, 0, fmt.Errorf("sim: empty sequence")
	}
	if maxPasses <= 0 {
		maxPasses = 5
	}
	hs := d.Timing.Intervals()
	// Work on interval values directly (a response equal to the
	// interval maps back to the same index).
	seq := make([]float64, len(responses))
	for i, r := range responses {
		seq[i] = d.Timing.IntervalFor(r)
	}
	best, err := EvaluateSequence(d, x0, seq, cost)
	if err != nil {
		return nil, 0, err
	}
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for k := range seq {
			if cerr := ctx.Err(); cerr != nil {
				return seq, best, cerr
			}
			orig := seq[k]
			for _, h := range hs {
				//lint:ignore floatcompare set-membership test: both values come verbatim from the same Intervals() grid
				if h == orig {
					continue
				}
				seq[k] = h
				c, err := EvaluateSequence(d, x0, seq, cost)
				if err != nil {
					return nil, 0, err
				}
				if c > best && !math.IsInf(c, 1) {
					best = c
					orig = h
					improved = true
				}
			}
			seq[k] = orig
		}
		if !improved {
			break
		}
	}
	return seq, best, nil
}

// WorstCaseCtx combines sampling and refinement: a Monte-Carlo sweep
// followed by coordinate ascent from the worst sample. With
// refinePasses <= 0 it reduces to plain MonteCarloCtx (the paper's
// sampling-only protocol). Cancellation during either phase aborts with
// the context's error.
func WorstCaseCtx(ctx context.Context, d *core.Design, x0 []float64, model ResponseModel, cost CostFunc, opt MonteCarloOptions, refinePasses int) (Metrics, error) {
	m, err := MonteCarloCtx(ctx, d, x0, model, cost, opt)
	if err != nil {
		return Metrics{}, err
	}
	if refinePasses <= 0 || m.Unstable() || len(m.WorstSeq) == 0 {
		return m, nil
	}
	seq, refined, err := RefineWorstCtx(ctx, d, x0, m.WorstSeq, cost, refinePasses)
	if err != nil {
		return Metrics{}, err
	}
	if refined > m.WorstCost {
		m.WorstCost = refined
		m.WorstSeq = seq
	}
	return m, nil
}
