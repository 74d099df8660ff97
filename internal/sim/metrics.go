package sim

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"

	"adaptivertc/internal/core"
)

// Percentile returns the p-quantile (0 ≤ p ≤ 1) of the samples using
// linear interpolation between order statistics. NaN for empty input.
func Percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return minOf(samples)
	}
	if p >= 1 {
		return maxOf(samples)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

func minOf(s []float64) float64 {
	m := s[0]
	for _, v := range s[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

func maxOf(s []float64) float64 {
	m := s[0]
	for _, v := range s[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// CostDistributionCtx evaluates the design over random sequences like
// MonteCarloCtx but returns every per-sequence cost (index i is the
// cost of the sequence generated from Seed+i), enabling percentile and
// histogram analyses. Divergent sequences carry +Inf. Cancellation
// aborts the sweep with the context's error and no partial slice.
func CostDistributionCtx(ctx context.Context, d *core.Design, x0 []float64, model ResponseModel, cost CostFunc, opt MonteCarloOptions) ([]float64, error) {
	if opt.Sequences <= 0 || opt.Jobs <= 0 {
		return nil, fmt.Errorf("sim: need positive Sequences and Jobs, got %d, %d", opt.Sequences, opt.Jobs)
	}
	costs := make([]float64, opt.Sequences)
	err := forEachSequence(ctx, opt, func(i int, seq []float64) error {
		c, err := EvaluateSequence(d, x0, seq, cost)
		if err != nil {
			return err
		}
		costs[i] = c
		return nil
	}, model)
	if err != nil {
		return nil, err
	}
	return costs, nil
}

// Trajectory is a recorded closed-loop run: one row per job, sampled at
// the release instants.
type Trajectory struct {
	Time     []float64   // release instants a_k
	Interval []float64   // h_k about to elapse
	Output   [][]float64 // y[k]
	Input    [][]float64 // command applied during [a_k, a_{k+1})
	State    [][]float64 // x[k]
}

// Len returns the number of recorded jobs.
func (tr *Trajectory) Len() int { return len(tr.Time) }

// RecordTrajectory runs one response-time sequence through the adaptive
// runtime, recording the sampled trajectory.
func RecordTrajectory(d *core.Design, x0 []float64, responses []float64) (*Trajectory, error) {
	loop, err := core.NewLoop(d, x0)
	if err != nil {
		return nil, err
	}
	tr := &Trajectory{}
	now := 0.0
	for _, r := range responses {
		h := d.Timing.IntervalFor(r)
		tr.Time = append(tr.Time, now)
		tr.Interval = append(tr.Interval, h)
		tr.Output = append(tr.Output, loop.Output())
		tr.Input = append(tr.Input, loop.Applied())
		tr.State = append(tr.State, loop.State())
		loop.StepResponse(r)
		now += h
	}
	return tr, nil
}

// WriteCSV renders the trajectory with a header row; columns are
// t, h, y0…, u0…, x0….
func (tr *Trajectory) WriteCSV(w io.Writer) error {
	if tr.Len() == 0 {
		return fmt.Errorf("sim: empty trajectory")
	}
	cw := csv.NewWriter(w)
	header := []string{"t", "h"}
	for i := range tr.Output[0] {
		header = append(header, fmt.Sprintf("y%d", i))
	}
	for i := range tr.Input[0] {
		header = append(header, fmt.Sprintf("u%d", i))
	}
	for i := range tr.State[0] {
		header = append(header, fmt.Sprintf("x%d", i))
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	fm := func(v float64) string { return strconv.FormatFloat(v, 'g', 12, 64) }
	for k := 0; k < tr.Len(); k++ {
		row := []string{fm(tr.Time[k]), fm(tr.Interval[k])}
		for _, v := range tr.Output[k] {
			row = append(row, fm(v))
		}
		for _, v := range tr.Input[k] {
			row = append(row, fm(v))
		}
		for _, v := range tr.State[k] {
			row = append(row, fm(v))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// forEachSequence generates the deterministic per-index sequences and
// invokes fn for each, in parallel, aborting on the first error or on
// cancellation. Errors are reported from the lowest-indexed failing
// worker, real failures taking precedence over cancellation, so the
// returned error does not depend on scheduling.
func forEachSequence(ctx context.Context, opt MonteCarloOptions, fn func(i int, seq []float64) error, model ResponseModel) error {
	workers := opt.Workers
	if workers <= 0 {
		workers = defaultWorkers()
	}
	if workers > opt.Sequences {
		workers = opt.Sequences
	}
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
				seq := model.Sequence(newSeqRand(opt.Seed, i), opt.Jobs)
				if err := fn(i, seq); err != nil {
					errs[w] = err
					return
				}
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
		return err
	}
	return ctxErr
}
