package sim

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

// cancelledCtx returns an already-cancelled context.
func cancelledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// TestMonteCarloCtxCancelled: a cancelled context aborts the sweep with
// the context's error for every worker count.
func TestMonteCarloCtxCancelled(t *testing.T) {
	d := testDesign(t)
	model := UniformResponse{Rmin: d.Timing.Rmin, Rmax: d.Timing.Rmax}
	for _, w := range []int{1, 2, 4} {
		_, err := MonteCarloCtx(cancelledCtx(), d, []float64{1, 0}, model, ErrorCost(),
			MonteCarloOptions{Sequences: 100, Jobs: 20, Seed: 1, Workers: w})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", w, err)
		}
	}
}

// TestMonteCarloCtxMatchesWrapper: with a live context the ctx variant
// must be bit-identical to the ctx-less wrapper.
func TestMonteCarloCtxMatchesWrapper(t *testing.T) {
	d := testDesign(t)
	model := UniformResponse{Rmin: d.Timing.Rmin, Rmax: d.Timing.Rmax}
	opt := MonteCarloOptions{Sequences: 60, Jobs: 20, Seed: 7, Workers: 3}
	a, err := MonteCarloCtx(context.Background(), d, []float64{1, 0}, model, ErrorCost(), opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MonteCarloCtx(context.Background(), d, []float64{1, 0}, model, ErrorCost(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("ctx variant diverges:\n got %+v\nwant %+v", b, a)
	}
}

func TestCostDistributionCtxCancelled(t *testing.T) {
	model := UniformResponse{Rmin: 0.01, Rmax: 0.16}
	_, err := sweepCosts(cancelledCtx(), t, model, MonteCarloOptions{Sequences: 100, Jobs: 20, Seed: 1, Workers: 3})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRefineWorstCtxCancelled: coordinate ascent only ever improves on
// its starting sequence, so cancellation returns the partial refinement
// (still a valid worst-case estimate) alongside the context error.
func TestRefineWorstCtxCancelled(t *testing.T) {
	d := testDesign(t)
	responses := []float64{0.12, 0.05, 0.15, 0.08, 0.11, 0.06}
	seq, best, err := RefineWorstCtx(cancelledCtx(), d, []float64{1, 0}, responses, ErrorCost(), 3)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(seq) != len(responses) {
		t.Fatalf("partial sequence has length %d, want %d", len(seq), len(responses))
	}
	start, eerr := EvaluateSequence(d, []float64{1, 0}, seq, ErrorCost())
	if eerr != nil {
		t.Fatal(eerr)
	}
	if best < start {
		t.Fatalf("partial refinement %v below its own sequence's cost %v", best, start)
	}
}

func TestWorstCaseCtxCancelled(t *testing.T) {
	d := testDesign(t)
	model := UniformResponse{Rmin: d.Timing.Rmin, Rmax: d.Timing.Rmax}
	_, err := WorstCaseCtx(cancelledCtx(), d, []float64{1, 0}, model, ErrorCost(),
		MonteCarloOptions{Sequences: 50, Jobs: 20, Seed: 1, Workers: 2}, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
