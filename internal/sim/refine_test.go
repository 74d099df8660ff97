package sim

import (
	"context"
	"math"
	"testing"
)

func TestRefineWorstNeverDecreases(t *testing.T) {
	d := testDesign(t)
	responses := ConstantResponse(0.05).Sequence(nil, 30)
	base, err := EvaluateSequence(d, []float64{1, 0}, responses, ErrorCost())
	if err != nil {
		t.Fatal(err)
	}
	seq, refined, err := RefineWorstCtx(context.Background(), d, []float64{1, 0}, responses, ErrorCost(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if refined < base-1e-12 {
		t.Fatalf("refinement decreased cost: %v -> %v", base, refined)
	}
	if len(seq) != len(responses) {
		t.Fatalf("sequence length changed: %d", len(seq))
	}
	// Refined sequence attains the reported cost.
	check, err := EvaluateSequence(d, []float64{1, 0}, seq, ErrorCost())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(check-refined) > 1e-9*(1+refined) {
		t.Fatalf("reported %v, replay %v", refined, check)
	}
	// Every refined entry lies on the interval grid.
	hs := d.Timing.Intervals()
	for _, h := range seq {
		ok := false
		for _, want := range hs {
			if math.Abs(h-want) < 1e-12 {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("off-grid interval %v", h)
		}
	}
}

func TestRefineWorstIdempotentAtLocalMax(t *testing.T) {
	d := testDesign(t)
	responses := UniformResponse{Rmin: 0.01, Rmax: 0.16}.Sequence(newSeqRand(3, 0), 20)
	seq1, c1, err := RefineWorstCtx(context.Background(), d, []float64{1, 0}, responses, ErrorCost(), 10)
	if err != nil {
		t.Fatal(err)
	}
	_, c2, err := RefineWorstCtx(context.Background(), d, []float64{1, 0}, seq1, ErrorCost(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c1-c2) > 1e-9*(1+c1) {
		t.Fatalf("refinement of a local max changed cost: %v -> %v", c1, c2)
	}
}

func TestWorstCaseBeatsPlainMonteCarlo(t *testing.T) {
	d := testDesign(t)
	model := UniformResponse{Rmin: 0.01, Rmax: 0.16}
	opt := MonteCarloOptions{Sequences: 100, Jobs: 30, Seed: 5}
	plain, err := MonteCarloCtx(context.Background(), d, []float64{1, 0}, model, ErrorCost(), opt)
	if err != nil {
		t.Fatal(err)
	}
	combined, err := WorstCaseCtx(context.Background(), d, []float64{1, 0}, model, ErrorCost(), opt, 4)
	if err != nil {
		t.Fatal(err)
	}
	if combined.WorstCost < plain.WorstCost-1e-12 {
		t.Fatalf("refined worst %v below sampled worst %v", combined.WorstCost, plain.WorstCost)
	}
}

func TestRefineWorstValidation(t *testing.T) {
	d := testDesign(t)
	if _, _, err := RefineWorstCtx(context.Background(), d, []float64{1, 0}, nil, ErrorCost(), 3); err == nil {
		t.Fatal("empty sequence accepted")
	}
}
