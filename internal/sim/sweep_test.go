package sim

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// sweepCosts runs the EvaluateSequence sweep MonteCarloCtx is built on.
func sweepCosts(ctx context.Context, t *testing.T, model ResponseModel, opt MonteCarloOptions) ([]float64, error) {
	t.Helper()
	d := testDesign(t)
	return Sweep(ctx, opt, func(_ int, rng *rand.Rand) (float64, error) {
		return EvaluateSequence(d, []float64{1, 0}, model.Sequence(rng, opt.Jobs), ErrorCost())
	})
}

// TestCostDistributionMatchesMonteCarlo: MonteCarloCtx is exactly
// Summarize over the Sweep's cost distribution, with the worst
// sequence regenerated from its index.
func TestCostDistributionMatchesMonteCarlo(t *testing.T) {
	model := UniformResponse{Rmin: 0.01, Rmax: 0.16}
	opt := MonteCarloOptions{Sequences: 120, Jobs: 30, Seed: 21, Workers: 3}
	costs, err := sweepCosts(context.Background(), t, model, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(costs) != 120 {
		t.Fatalf("costs = %d", len(costs))
	}
	want, worst := Summarize(costs)
	if worst < 0 {
		t.Fatal("no worst sequence")
	}
	want.WorstSeq = model.Sequence(rand.New(rand.NewSource(opt.Seed+int64(worst))), opt.Jobs)
	got, err := MonteCarloCtx(context.Background(), testDesign(t), []float64{1, 0}, model, ErrorCost(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("MonteCarloCtx != Summarize(Sweep):\n got %+v\nwant %+v", got, want)
	}
}

// TestCostDistributionWorkerIndependence: sequence i gets its own RNG
// derived from (Seed, i), so the cost vector must be bit-identical no
// matter how sequences are spread over workers.
func TestCostDistributionWorkerIndependence(t *testing.T) {
	model := UniformResponse{Rmin: 0.01, Rmax: 0.16}
	run := func(workers int) []float64 {
		costs, err := sweepCosts(context.Background(), t, model,
			MonteCarloOptions{Sequences: 64, Jobs: 30, Seed: 21, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return costs
	}
	a, b := run(1), run(8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cost[%d] differs across worker counts: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestCostDistributionValidation(t *testing.T) {
	for _, opt := range []MonteCarloOptions{{Sequences: 0, Jobs: 5}, {Sequences: 5, Jobs: 0}} {
		if _, err := sweepCosts(context.Background(), t, ConstantResponse(0.05), opt); err == nil {
			t.Fatalf("bad options %+v accepted", opt)
		}
	}
}

// TestSweepErrorPrecedence: a real evaluation failure wins over the
// cancellation it triggers in the other workers, and the sweep returns
// no partial costs.
func TestSweepErrorPrecedence(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 2, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		costs, err := Sweep(ctx, MonteCarloOptions{Sequences: 40, Jobs: 1, Workers: workers},
			func(i int, _ *rand.Rand) (float64, error) {
				if i == 5 {
					cancel()
					return 0, boom
				}
				return float64(i), nil
			})
		cancel()
		if !errors.Is(err, boom) || costs != nil {
			t.Fatalf("workers=%d: costs=%v err=%v, want nil and boom", workers, costs, err)
		}
	}
}
