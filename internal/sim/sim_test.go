package sim

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"adaptivertc/internal/control"
	"adaptivertc/internal/core"
	"adaptivertc/internal/lti"
	"adaptivertc/internal/mat"
	"adaptivertc/internal/sched"
)

func testDesign(t *testing.T) *core.Design {
	t.Helper()
	plant := lti.MustSystem(
		mat.FromRows([][]float64{{0, 1}, {1, -0.8}}),
		mat.ColVec(0, 1),
		mat.Eye(2),
	)
	tm := core.MustTiming(0.1, 5, 0.01, 0.16)
	w := control.LQRWeights{Q: mat.Eye(2), R: mat.Diag(0.1)}
	d, err := core.NewDesign(plant, tm, func(h float64) (*control.StateSpace, error) {
		return control.LQGFullInfo(plant, w, h)
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestResponseModels(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	u := UniformResponse{Rmin: 0.01, Rmax: 0.16}
	seq := u.Sequence(rng, 500)
	if len(seq) != 500 {
		t.Fatal("wrong length")
	}
	for _, r := range seq {
		if r < 0.01 || r > 0.16 {
			t.Fatalf("uniform draw %v out of range", r)
		}
	}
	s := SporadicResponse{Rmin: 0.01, T: 0.1, Rmax: 0.16, OverrunProb: 0.2}
	seq = s.Sequence(rng, 5000)
	overruns := 0
	for _, r := range seq {
		if r < 0.01 || r > 0.16 {
			t.Fatalf("sporadic draw %v out of range", r)
		}
		if r > 0.1 {
			overruns++
		}
	}
	frac := float64(overruns) / 5000
	if frac < 0.15 || frac > 0.25 {
		t.Fatalf("overrun fraction = %v, want ≈ 0.2", frac)
	}
	c := ConstantResponse(0.05)
	seq = c.Sequence(rng, 3)
	for _, r := range seq {
		if r != 0.05 {
			t.Fatalf("constant draw %v", r)
		}
	}
}

func TestErrorCost(t *testing.T) {
	c := ErrorCost()
	got := c(StepInfo{Err: []float64{3, 4}})
	if got != 25 {
		t.Fatalf("ErrorCost = %v, want 25", got)
	}
}

func TestQuadCost(t *testing.T) {
	c := QuadCost(mat.Eye(2), mat.Diag(2))
	got := c(StepInfo{H: 0.5, State: []float64{1, 2}, Input: []float64{3}})
	want := 0.5 * (1 + 4 + 2*9)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("QuadCost = %v, want %v", got, want)
	}
}

func TestEvaluateSequenceConverges(t *testing.T) {
	d := testDesign(t)
	seq := make([]float64, 100)
	rng := rand.New(rand.NewSource(2))
	for i := range seq {
		seq[i] = 0.01 + rng.Float64()*0.15
	}
	cost, err := EvaluateSequence(d, []float64{1, 0}, seq, ErrorCost())
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(cost, 1) || cost <= 0 {
		t.Fatalf("cost = %v", cost)
	}
	// A longer tail adds almost nothing once regulated: stability check.
	longer := append(append([]float64(nil), seq...), seq...)
	cost2, err := EvaluateSequence(d, []float64{1, 0}, longer, ErrorCost())
	if err != nil {
		t.Fatal(err)
	}
	if cost2 > cost*1.01+1e-9 {
		t.Fatalf("cost grew from %v to %v on the regulated tail", cost, cost2)
	}
}

func TestEvaluateSequenceDivergenceDetection(t *testing.T) {
	// A positive-feedback "controller" destabilizes the loop.
	plant := lti.MustSystem(
		mat.FromRows([][]float64{{0, 1}, {1, -0.8}}),
		mat.ColVec(0, 1),
		mat.Eye(2),
	)
	tm := core.MustTiming(0.1, 2, 0.01, 0.15)
	bad := control.Static(mat.RowVec(-80, -40)) // wrong sign, large gain
	d, err := core.NewDesign(plant, tm, core.FixedDesigner(bad))
	if err != nil {
		t.Fatal(err)
	}
	seq := ConstantResponse(0.05).Sequence(nil, 400)
	cost, err := EvaluateSequence(d, []float64{1, 0}, seq, ErrorCost())
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(cost, 1) {
		t.Fatalf("cost = %v, want +Inf for diverging loop", cost)
	}
}

func TestMonteCarloBasic(t *testing.T) {
	d := testDesign(t)
	m, err := MonteCarloCtx(context.Background(), d, []float64{1, 0}, UniformResponse{Rmin: 0.01, Rmax: 0.16}, ErrorCost(),
		MonteCarloOptions{Sequences: 200, Jobs: 50, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if m.Divergent != 0 {
		t.Fatalf("%d divergent sequences for a certified-stable design", m.Divergent)
	}
	if m.WorstCost < m.MeanCost {
		t.Fatalf("worst %v < mean %v", m.WorstCost, m.MeanCost)
	}
	if len(m.WorstSeq) != 50 {
		t.Fatalf("worst sequence length = %d", len(m.WorstSeq))
	}
	if m.Sequences != 200 {
		t.Fatalf("sequences = %d", m.Sequences)
	}
}

// TestMonteCarloWorkerIndependence: every field of the Metrics, the
// mean and the worst sequence included, is bit-identical for every
// worker count — also when some sequences diverge and others do not.
func TestMonteCarloWorkerIndependence(t *testing.T) {
	// A static gain that holds the plant at short intervals but lets
	// some long-interval sequences diverge.
	plant := lti.MustSystem(
		mat.FromRows([][]float64{{0, 1}, {1, -0.8}}),
		mat.ColVec(0, 1),
		mat.Eye(2),
	)
	fragile, err := core.NewDesign(plant, core.MustTiming(0.1, 5, 0.01, 0.5),
		core.FixedDesigner(control.Static(mat.RowVec(6.5, 3.25))))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		d     *core.Design
		model ResponseModel
		opt   MonteCarloOptions
	}{
		{"stable", testDesign(t), UniformResponse{Rmin: 0.01, Rmax: 0.16},
			MonteCarloOptions{Sequences: 64, Jobs: 30, Seed: 3}},
		{"partially divergent", fragile, UniformResponse{Rmin: 0.01, Rmax: 0.5},
			MonteCarloOptions{Sequences: 64, Jobs: 400, Seed: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var ref Metrics
			for i, workers := range []int{1, 2, 3, 7} {
				opt := tc.opt
				opt.Workers = workers
				m, err := MonteCarloCtx(context.Background(), tc.d, []float64{1, 0}, tc.model, ErrorCost(), opt)
				if err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					ref = m
					continue
				}
				if !reflect.DeepEqual(m, ref) {
					t.Fatalf("workers=%d diverges from workers=1:\n got %+v\nwant %+v", workers, m, ref)
				}
			}
			if tc.name == "partially divergent" && (ref.Divergent == 0 || ref.Divergent == ref.Sequences) {
				t.Fatalf("%d of %d sequences diverged, want some but not all", ref.Divergent, ref.Sequences)
			}
		})
	}
}

func TestMonteCarloRejectsBadOptions(t *testing.T) {
	d := testDesign(t)
	if _, err := MonteCarloCtx(context.Background(), d, []float64{1, 0}, ConstantResponse(0.05), ErrorCost(),
		MonteCarloOptions{Sequences: 0, Jobs: 10}); err == nil {
		t.Fatal("zero sequences accepted")
	}
	if _, err := MonteCarloCtx(context.Background(), d, []float64{1, 0}, ConstantResponse(0.05), ErrorCost(),
		MonteCarloOptions{Sequences: 10, Jobs: 0}); err == nil {
		t.Fatal("zero jobs accepted")
	}
}

func TestNoOverrunCostIsLowerThanWorstCase(t *testing.T) {
	d := testDesign(t)
	ideal, err := NoOverrunCost(d, []float64{1, 0}, 50, ErrorCost())
	if err != nil {
		t.Fatal(err)
	}
	m, err := MonteCarloCtx(context.Background(), d, []float64{1, 0}, UniformResponse{Rmin: 0.01, Rmax: 0.16}, ErrorCost(),
		MonteCarloOptions{Sequences: 500, Jobs: 50, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if ideal > m.WorstCost {
		t.Fatalf("no-overrun cost %v exceeds worst-case with overruns %v", ideal, m.WorstCost)
	}
}

func TestWorstCostMonotoneInRmaxProperty(t *testing.T) {
	// Larger delay ranges cannot make the worst case better (checked on
	// the evaluation side by nesting the response supports).
	d := testDesign(t) // designed for Rmax = 0.16, covers all smaller ranges
	f := func(seed int64) bool {
		small, err := MonteCarloCtx(context.Background(), d, []float64{1, 0}, UniformResponse{Rmin: 0.01, Rmax: 0.1}, ErrorCost(),
			MonteCarloOptions{Sequences: 50, Jobs: 30, Seed: seed})
		if err != nil {
			return false
		}
		// Same seeds, wider support that includes the smaller draws is
		// not guaranteed sample-wise, so compare against the nominal-only
		// lower envelope instead: worst with overruns ≥ worst without.
		nominal, err := MonteCarloCtx(context.Background(), d, []float64{1, 0}, ConstantResponse(0.05), ErrorCost(),
			MonteCarloOptions{Sequences: 1, Jobs: 30, Seed: seed})
		if err != nil {
			return false
		}
		return small.WorstCost >= nominal.WorstCost-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestResponsesFromSched(t *testing.T) {
	tasks := []*sched.Task{{Name: "ctl", Period: 1, Priority: 1, Exec: sched.ConstantExec{C: 0.3}}}
	res, err := sched.Simulate(tasks, sched.Options{Horizon: 5})
	if err != nil {
		t.Fatal(err)
	}
	rts := ResponsesFromSched(res, "ctl")
	if len(rts) != 5 {
		t.Fatalf("responses = %v", rts)
	}
	for _, r := range rts {
		if math.Abs(r-0.3) > 1e-9 {
			t.Fatalf("response = %v", r)
		}
	}
}

func TestBurstResponseModel(t *testing.T) {
	m := BurstResponse{Rmin: 0.01, T: 0.1, Rmax: 0.16, PEnter: 0.1, PExit: 0.4}
	rng := rand.New(rand.NewSource(5))
	overruns, transitions := 0, 0
	prev := false
	const total = 100000
	seq := m.Sequence(rng, total)
	for i, r := range seq {
		if r < 0.01 || r > 0.16 {
			t.Fatalf("draw %v out of range", r)
		}
		isOver := r > 0.1
		if isOver {
			overruns++
		}
		if i > 0 && isOver != prev {
			transitions++
		}
		prev = isOver
	}
	frac := float64(overruns) / total
	if frac < 0.15 || frac > 0.25 { // stationary 0.1/0.5 = 0.2
		t.Fatalf("overrun fraction = %v, want ≈ 0.2", frac)
	}
	iid := 2 * frac * (1 - frac) * total
	if float64(transitions) > 0.85*iid {
		t.Fatalf("burst model produced i.i.d.-like switching (%d vs %v)", transitions, iid)
	}
}

func TestBurstResponseDeterministicPerSeed(t *testing.T) {
	m := BurstResponse{Rmin: 0.01, T: 0.1, Rmax: 0.16, PEnter: 0.1, PExit: 0.4}
	a := m.Sequence(rand.New(rand.NewSource(7)), 50)
	b := m.Sequence(rand.New(rand.NewSource(7)), 50)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different sequence")
		}
	}
}
