// Package sim evaluates closed-loop designs under random overrun
// patterns, reproducing the paper's experimental protocol: for each
// configuration, generate random sequences of job response times
// (50 000 sequences of m = 50 jobs in the paper), drive the adaptive
// runtime through each sequence, and report the worst-case cost
//
//	Jw = max_σm Σ_k ‖e[k]‖²
//
// (§VI) or a quadratic LQG cost. Every such experiment runs on one
// seeded sweep (Sweep) and one index-ordered reduction (Summarize):
// sequence i is drawn from an RNG seeded Seed+i, so results are
// bit-identical for every worker count.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"adaptivertc/internal/core"
	"adaptivertc/internal/mat"
	"adaptivertc/internal/sched"
)

// ResponseModel draws random job response-time sequences.
type ResponseModel interface {
	// Sequence fills a length-m response-time sequence.
	Sequence(rng *rand.Rand, m int) []float64
}

// UniformResponse draws each response time uniformly from [Rmin, Rmax]
// — the least-informative model consistent with the paper's "no
// stochastic characterization" stance.
type UniformResponse struct {
	Rmin, Rmax float64
}

// Sequence implements ResponseModel.
func (u UniformResponse) Sequence(rng *rand.Rand, m int) []float64 {
	out := make([]float64, m)
	for i := range out {
		out[i] = u.Rmin + rng.Float64()*(u.Rmax-u.Rmin)
	}
	return out
}

// SporadicResponse models the paper's motivating scenario: jobs respond
// in [Rmin, T] most of the time and overrun into (T, Rmax] with
// probability OverrunProb.
type SporadicResponse struct {
	Rmin, T, Rmax float64
	OverrunProb   float64
}

// Sequence implements ResponseModel.
func (s SporadicResponse) Sequence(rng *rand.Rand, m int) []float64 {
	out := make([]float64, m)
	for i := range out {
		if rng.Float64() < s.OverrunProb && s.Rmax > s.T {
			out[i] = s.T + rng.Float64()*(s.Rmax-s.T)
		} else {
			out[i] = s.Rmin + rng.Float64()*(s.T-s.Rmin)
		}
	}
	return out
}

// BurstResponse is a two-state Markov-modulated response-time model:
// calm jobs respond in [Rmin, T], burst jobs in (T, Rmax], and the
// regime persists across jobs with the given transition probabilities —
// overruns cluster, the paper's "bursts of interrupts" pattern. The
// regime chain restarts from its stationary distribution for every
// sequence, so sequences stay exchangeable and seed-deterministic.
type BurstResponse struct {
	Rmin, T, Rmax float64
	PEnter        float64 // P(calm → burst) per job
	PExit         float64 // P(burst → calm) per job
}

// Sequence implements ResponseModel.
func (m BurstResponse) Sequence(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	den := m.PEnter + m.PExit
	inBurst := false
	if den > 0 {
		inBurst = rng.Float64() < m.PEnter/den
	}
	for i := range out {
		if i > 0 {
			if inBurst {
				if rng.Float64() < m.PExit {
					inBurst = false
				}
			} else if rng.Float64() < m.PEnter {
				inBurst = true
			}
		}
		if inBurst && m.Rmax > m.T {
			out[i] = m.T + rng.Float64()*(m.Rmax-m.T)
		} else {
			out[i] = m.Rmin + rng.Float64()*(m.T-m.Rmin)
		}
	}
	return out
}

// ConstantResponse always returns the same response time (e.g. for the
// no-overrun ideal or the fixed-period baseline).
type ConstantResponse float64

// Sequence implements ResponseModel.
func (c ConstantResponse) Sequence(_ *rand.Rand, m int) []float64 {
	out := make([]float64, m)
	for i := range out {
		out[i] = float64(c)
	}
	return out
}

// StepInfo is passed to cost functions once per job, sampled at the
// release instant before the interval elapses.
type StepInfo struct {
	K     int       // job index
	H     float64   // inter-release interval h_k about to elapse
	Err   []float64 // e[k] = -y[k] (regulation)
	State []float64 // x[k]
	Input []float64 // command applied during [a_k, a_{k+1})
}

// CostFunc accumulates a scalar stage cost.
type CostFunc func(StepInfo) float64

// ErrorCost returns the paper's Σ‖e[k]‖² stage cost.
func ErrorCost() CostFunc {
	return func(s StepInfo) float64 {
		c := 0.0
		for _, e := range s.Err {
			c += e * e
		}
		return c
	}
}

// QuadCost returns the LQG stage cost h·(xᵀQx + uᵀRu), a Riemann
// approximation of the continuous quadratic cost over the interval.
func QuadCost(q, r *mat.Dense) CostFunc {
	return func(s StepInfo) float64 {
		qx := mat.MulVec(q, s.State)
		ru := mat.MulVec(r, s.Input)
		return s.H * (mat.Dot(s.State, qx) + mat.Dot(s.Input, ru))
	}
}

// divergeLimit declares a trajectory numerically divergent.
const divergeLimit = 1e12

// newSeqRand returns the RNG owned by sequence i: results never depend
// on how sequences are distributed over workers.
func newSeqRand(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(seed + int64(i)))
}

// EvaluateSequence runs one response-time sequence through the adaptive
// runtime and returns the accumulated cost. A diverging trajectory
// yields +Inf.
func EvaluateSequence(d *core.Design, x0 []float64, responses []float64, cost CostFunc) (float64, error) {
	loop, err := core.NewLoop(d, x0)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for k, r := range responses {
		h := d.Timing.IntervalFor(r)
		y := loop.Output()
		e := make([]float64, len(y))
		for i, v := range y {
			e[i] = -v
		}
		total += cost(StepInfo{K: k, H: h, Err: e, State: loop.State(), Input: loop.Applied()})
		loop.StepResponse(r)
		for _, v := range loop.State() {
			if math.Abs(v) > divergeLimit || math.IsNaN(v) {
				return math.Inf(1), nil
			}
		}
	}
	return total, nil
}

// Metrics summarizes a Monte-Carlo evaluation.
type Metrics struct {
	WorstCost float64
	MeanCost  float64 // over non-divergent sequences
	Divergent int     // sequences that blew past the divergence limit
	Sequences int
	WorstSeq  []float64 // the response-time sequence attaining WorstCost
}

// Unstable reports whether any sequence diverged.
func (m Metrics) Unstable() bool { return m.Divergent > 0 }

// MonteCarloOptions configures a Monte-Carlo run.
type MonteCarloOptions struct {
	Sequences int   // number of random sequences (paper: 50 000)
	Jobs      int   // jobs per sequence (paper: 50)
	Seed      int64 // base seed; sequence i uses Seed+i
	Workers   int   // default: GOMAXPROCS
}

// ctxInterrupted reports whether err carries nothing but a context
// cancellation or deadline (including wrapped forms).
func ctxInterrupted(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Sweep is the seeded Monte-Carlo sweep every sequence experiment runs
// on. It evaluates opt.Sequences sequences, handing sequence i its own
// rand.Rand seeded Seed+i, strided over opt.Workers goroutines (≤ 0
// means GOMAXPROCS), and returns the costs in index order. Since each
// cost depends only on its index, the slice is bit-identical for every
// worker count. Sequences and Jobs must be positive; Jobs is the
// sequence length eval draws.
//
// The first error aborts the sweep. Real failures take precedence over
// cancellation, and both are reported from the lowest-numbered worker,
// so the returned error does not depend on scheduling. A cancelled
// sweep returns the context's error and no costs: a mean over a partial
// sample set would be biased.
func Sweep(ctx context.Context, opt MonteCarloOptions, eval func(i int, rng *rand.Rand) (float64, error)) ([]float64, error) {
	if opt.Sequences <= 0 || opt.Jobs <= 0 {
		return nil, fmt.Errorf("sim: need positive Sequences and Jobs, got %d, %d", opt.Sequences, opt.Jobs)
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > opt.Sequences {
		workers = opt.Sequences
	}
	// Sequence i belongs to worker i%workers, so the writes to costs are
	// disjoint and need no locking.
	costs := make([]float64, opt.Sequences)
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
				c, err := eval(i, newSeqRand(opt.Seed, i))
				if err != nil {
					errs[w] = err
					return
				}
				costs[i] = c
			}
		}(w)
	}
	wg.Wait()
	var ctxErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !ctxInterrupted(err) {
			return nil, err
		}
		if ctxErr == nil {
			ctxErr = err
		}
	}
	if ctxErr != nil {
		return nil, ctxErr
	}
	return costs, nil
}

// Summarize folds per-sequence costs in index order into Metrics and
// returns the index of the worst sequence (-1 if none qualifies). The
// first divergent (+Inf) sequence sets the worst case; otherwise the
// first strict maximum wins. The mean is taken over the finite costs.
// WorstSeq is left for the caller, which can regenerate it from the
// worst index.
func Summarize(costs []float64) (Metrics, int) {
	m := Metrics{Sequences: len(costs), WorstCost: math.Inf(-1)}
	total, count, worst := 0.0, 0, -1
	for i, c := range costs {
		if math.IsInf(c, 1) {
			m.Divergent++
			if !math.IsInf(m.WorstCost, 1) {
				m.WorstCost = c
				worst = i
			}
			continue
		}
		count++
		total += c
		if c > m.WorstCost {
			m.WorstCost = c
			worst = i
		}
	}
	if count > 0 {
		m.MeanCost = total / float64(count)
	}
	return m, worst
}

// MonteCarloCtx evaluates the design over random response-time
// sequences: a Sweep of EvaluateSequence reduced by Summarize. Sequence
// i is drawn from its own rand.Rand seeded Seed+i and the costs are
// folded in index order, so every field of the result, WorstSeq
// included, is bit-identical for every worker count. Cancellation
// aborts the sweep and returns the context's error and no Metrics.
func MonteCarloCtx(ctx context.Context, d *core.Design, x0 []float64, model ResponseModel, cost CostFunc, opt MonteCarloOptions) (Metrics, error) {
	costs, err := Sweep(ctx, opt, func(_ int, rng *rand.Rand) (float64, error) {
		return EvaluateSequence(d, x0, model.Sequence(rng, opt.Jobs), cost)
	})
	if err != nil {
		return Metrics{}, err
	}
	m, worst := Summarize(costs)
	if worst >= 0 {
		// Regenerate the worst sequence from its seed so the sweep
		// retains no sequences.
		m.WorstSeq = model.Sequence(newSeqRand(opt.Seed, worst), opt.Jobs)
	}
	return m, nil
}

// NoOverrunCost evaluates the ideal run where every job completes
// within its period (h = T throughout) — the paper's "Cost with No
// Overruns" column.
func NoOverrunCost(d *core.Design, x0 []float64, jobs int, cost CostFunc) (float64, error) {
	return EvaluateSequence(d, x0, ConstantResponse(d.Timing.Rmin).Sequence(nil, jobs), cost)
}

// ResponsesFromSched extracts a task's response-time sequence from a
// scheduler simulation, bridging the real-time substrate and the
// control evaluation.
func ResponsesFromSched(res *sched.Result, task string) []float64 {
	return res.ResponseTimes(task)
}
