package sim

import (
	"context"
	"math"
	"strings"
	"testing"
)

func TestPercentile(t *testing.T) {
	s := []float64{4, 1, 3, 2, 5}
	if got := Percentile(s, 0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if got := Percentile(s, 1); got != 5 {
		t.Fatalf("p100 = %v", got)
	}
	if got := Percentile(s, 0.5); got != 3 {
		t.Fatalf("median = %v", got)
	}
	if got := Percentile(s, 0.25); got != 2 {
		t.Fatalf("p25 = %v", got)
	}
	// Interpolation between order statistics.
	if got := Percentile([]float64{0, 10}, 0.75); math.Abs(got-7.5) > 1e-12 {
		t.Fatalf("interpolated p75 = %v", got)
	}
	if !math.IsNaN(Percentile(nil, 0.5)) {
		t.Fatal("empty percentile should be NaN")
	}
	// Input must not be mutated.
	if s[0] != 4 {
		t.Fatal("Percentile sorted the caller's slice")
	}
}

func TestCostDistributionMatchesMonteCarlo(t *testing.T) {
	d := testDesign(t)
	model := UniformResponse{Rmin: 0.01, Rmax: 0.16}
	opt := MonteCarloOptions{Sequences: 120, Jobs: 30, Seed: 21}
	costs, err := CostDistributionCtx(context.Background(), d, []float64{1, 0}, model, ErrorCost(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(costs) != 120 {
		t.Fatalf("costs = %d", len(costs))
	}
	m, err := MonteCarloCtx(context.Background(), d, []float64{1, 0}, model, ErrorCost(), opt)
	if err != nil {
		t.Fatal(err)
	}
	// Same seeds → same worst case and mean.
	if math.Abs(Percentile(costs, 1)-m.WorstCost) > 1e-12 {
		t.Fatalf("max of distribution %v != MonteCarlo worst %v", Percentile(costs, 1), m.WorstCost)
	}
	sum := 0.0
	for _, c := range costs {
		sum += c
	}
	if math.Abs(sum/float64(len(costs))-m.MeanCost) > 1e-9*(1+m.MeanCost) {
		t.Fatal("mean mismatch between CostDistribution and MonteCarlo")
	}
	// Percentiles are monotone.
	if Percentile(costs, 0.5) > Percentile(costs, 0.95) {
		t.Fatal("median above p95")
	}
}

func TestCostDistributionWorkerIndependence(t *testing.T) {
	d := testDesign(t)
	model := UniformResponse{Rmin: 0.01, Rmax: 0.16}
	run := func(workers int) []float64 {
		costs, err := CostDistributionCtx(context.Background(), d, []float64{1, 0}, model, ErrorCost(),
			MonteCarloOptions{Sequences: 64, Jobs: 30, Seed: 21, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return costs
	}
	// Sequence i gets its own RNG derived from (Seed, i), so the cost
	// vector must be bit-identical no matter how sequences are spread
	// over workers.
	a, b := run(1), run(8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cost[%d] differs across worker counts: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestCostDistributionValidation(t *testing.T) {
	d := testDesign(t)
	if _, err := CostDistributionCtx(context.Background(), d, []float64{1, 0}, ConstantResponse(0.05), ErrorCost(),
		MonteCarloOptions{Sequences: 0, Jobs: 5}); err == nil {
		t.Fatal("bad options accepted")
	}
}

func TestRecordTrajectoryAndCSV(t *testing.T) {
	d := testDesign(t)
	responses := []float64{0.05, 0.13, 0.05, 0.16, 0.05}
	tr, err := RecordTrajectory(d, []float64{1, 0}, responses)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 5 {
		t.Fatalf("len = %d", tr.Len())
	}
	// Time axis accumulates the actual intervals.
	if tr.Time[0] != 0 {
		t.Fatal("trajectory must start at t=0")
	}
	wantT1 := d.Timing.IntervalFor(0.05)
	if math.Abs(tr.Time[1]-wantT1) > 1e-12 {
		t.Fatalf("t1 = %v, want %v", tr.Time[1], wantT1)
	}
	// Overrun at job 1 stretches the second interval.
	if tr.Interval[1] <= tr.Interval[0] {
		t.Fatalf("interval after overrun = %v, nominal %v", tr.Interval[1], tr.Interval[0])
	}
	var sb strings.Builder
	if err := tr.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Count(strings.TrimSpace(out), "\n") + 1
	if lines != 6 { // header + 5 rows
		t.Fatalf("CSV has %d lines:\n%s", lines, out)
	}
	if !strings.HasPrefix(out, "t,h,y0,y1,u0,x0,x1") {
		t.Fatalf("CSV header: %q", strings.SplitN(out, "\n", 2)[0])
	}
}

func TestWriteCSVEmptyTrajectory(t *testing.T) {
	tr := &Trajectory{}
	var sb strings.Builder
	if err := tr.WriteCSV(&sb); err == nil {
		t.Fatal("empty trajectory accepted")
	}
}
