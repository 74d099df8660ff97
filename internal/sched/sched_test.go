package sched

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestExecModels(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := ConstantExec{C: 2}
	if c.Sample(rng) != 2 {
		t.Fatal("ConstantExec sample")
	}
	lo, hi := c.Bounds()
	if lo != 2 || hi != 2 {
		t.Fatal("ConstantExec bounds")
	}
	u := UniformExec{Lo: 1, Hi: 3}
	for i := 0; i < 100; i++ {
		v := u.Sample(rng)
		if v < 1 || v > 3 {
			t.Fatalf("UniformExec sample %v out of range", v)
		}
	}
	b := BimodalExec{
		Nominal:     ConstantExec{C: 1},
		Overrun:     ConstantExec{C: 5},
		OverrunProb: 0.3,
	}
	lo, hi = b.Bounds()
	if lo != 1 || hi != 5 {
		t.Fatalf("BimodalExec bounds = (%v,%v)", lo, hi)
	}
	overruns := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if b.Sample(rng) == 5 {
			overruns++
		}
	}
	frac := float64(overruns) / n
	if frac < 0.25 || frac > 0.35 {
		t.Fatalf("overrun fraction = %v, want ≈ 0.3", frac)
	}
}

func TestTaskValidate(t *testing.T) {
	good := &Task{Name: "t", Period: 1, Exec: ConstantExec{C: 0.1}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bads := []*Task{
		{Period: 1, Exec: ConstantExec{C: 0.1}},                        // no name
		{Name: "t", Period: 0, Exec: ConstantExec{C: 0.1}},             // bad period
		{Name: "t", Period: 1, Offset: -1, Exec: ConstantExec{C: 0.1}}, // bad offset
		{Name: "t", Period: 1},                                         // no exec
		{Name: "t", Period: 1, Exec: ConstantExec{C: 0}},               // zero exec
		{Name: "t", Period: 1, Exec: UniformExec{Lo: 2, Hi: 1}},        // inverted bounds
	}
	for i, b := range bads {
		if err := b.Validate(); err == nil {
			t.Errorf("bad task %d accepted", i)
		}
	}
}

func TestRTASingleTask(t *testing.T) {
	tasks := []*Task{{Name: "a", Period: 10, Priority: 1, Exec: ConstantExec{C: 3}}}
	r, err := ResponseTimeAnalysis(tasks, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r["a"] != 3 {
		t.Fatalf("WCRT = %v, want 3", r["a"])
	}
}

func TestRTAClassicExample(t *testing.T) {
	// Textbook example: τ1 (T=5, C=1), τ2 (T=12, C=4), τ3 (T=30, C=9).
	// R1 = 1; R2 = 4 + ⌈R2/5⌉·1 → 5; R3 = 9 + ⌈R3/5⌉ + ⌈R3/12⌉·4 → fixed point.
	tasks := []*Task{
		{Name: "t1", Period: 5, Priority: 1, Exec: ConstantExec{C: 1}},
		{Name: "t2", Period: 12, Priority: 2, Exec: ConstantExec{C: 4}},
		{Name: "t3", Period: 30, Priority: 3, Exec: ConstantExec{C: 9}},
	}
	r, err := ResponseTimeAnalysis(tasks, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r["t1"] != 1 || r["t2"] != 5 {
		t.Fatalf("R1=%v R2=%v", r["t1"], r["t2"])
	}
	// Verify R3 satisfies its own recurrence.
	r3 := r["t3"]
	want := 9 + math.Ceil(r3/5)*1 + math.Ceil(r3/12)*4
	if r3 != want {
		t.Fatalf("R3 = %v is not a fixed point (recurrence gives %v)", r3, want)
	}
}

func TestRTAUnschedulable(t *testing.T) {
	tasks := []*Task{
		{Name: "hog", Period: 1, Priority: 1, Exec: ConstantExec{C: 0.9}},
		{Name: "low", Period: 2, Priority: 2, Exec: ConstantExec{C: 0.5}},
	}
	_, err := ResponseTimeAnalysis(tasks, 0)
	if !errors.Is(err, ErrUnschedulable) {
		t.Fatalf("err = %v, want ErrUnschedulable", err)
	}
}

func TestUtilization(t *testing.T) {
	tasks := []*Task{
		{Name: "a", Period: 10, Exec: ConstantExec{C: 2}},
		{Name: "b", Period: 4, Exec: ConstantExec{C: 1}},
	}
	if u := Utilization(tasks); math.Abs(u-0.45) > 1e-12 {
		t.Fatalf("U = %v", u)
	}
}

func TestSimulateSinglePeriodicTask(t *testing.T) {
	tasks := []*Task{{Name: "a", Period: 10, Priority: 1, Exec: ConstantExec{C: 3}}}
	res, err := Simulate(tasks, Options{Horizon: 95})
	if err != nil {
		t.Fatal(err)
	}
	jobs := res.Jobs["a"]
	if len(jobs) != 10 {
		t.Fatalf("completed %d jobs, want 10", len(jobs))
	}
	for k, j := range jobs {
		if math.Abs(j.Release-float64(k)*10) > 1e-9 {
			t.Fatalf("job %d release = %v", k, j.Release)
		}
		if math.Abs(j.Response-3) > 1e-9 {
			t.Fatalf("job %d response = %v", k, j.Response)
		}
		if j.Preempted() {
			t.Fatalf("job %d preempted with no contention", k)
		}
	}
}

func TestSimulatePreemption(t *testing.T) {
	// High-priority task (T=5, C=2) preempts a long low-priority job
	// (C=4) released at 0: low runs [2,5) then [7,8)... wait: hi runs
	// [0,2), low [2,5), hi [5,7), low [7,8). Response of low job 0 = 8.
	tasks := []*Task{
		{Name: "hi", Period: 5, Priority: 1, Exec: ConstantExec{C: 2}},
		{Name: "lo", Period: 20, Priority: 2, Exec: ConstantExec{C: 4}},
	}
	res, err := Simulate(tasks, Options{Horizon: 20})
	if err != nil {
		t.Fatal(err)
	}
	lo := res.Jobs["lo"][0]
	if math.Abs(lo.Response-8) > 1e-9 {
		t.Fatalf("lo response = %v, want 8", lo.Response)
	}
	if !lo.Preempted() || len(lo.Slices) != 2 {
		t.Fatalf("lo slices = %v, want 2 separated slices", lo.Slices)
	}
	if math.Abs(lo.Slices[0].Start-2) > 1e-9 || math.Abs(lo.Slices[0].End-5) > 1e-9 {
		t.Fatalf("first slice = %v", lo.Slices[0])
	}
	if math.Abs(lo.Slices[1].Start-7) > 1e-9 || math.Abs(lo.Slices[1].End-8) > 1e-9 {
		t.Fatalf("second slice = %v", lo.Slices[1])
	}
}

func TestSimulateExecConservation(t *testing.T) {
	// Total executed time per job equals its sampled demand.
	f := func(seed int64) bool {
		tasks := []*Task{
			{Name: "hi", Period: 3, Priority: 1, Exec: UniformExec{Lo: 0.2, Hi: 0.9}},
			{Name: "lo", Period: 7, Priority: 2, Exec: UniformExec{Lo: 0.5, Hi: 3}},
		}
		res, err := Simulate(tasks, Options{Horizon: 200, Seed: seed})
		if err != nil {
			return false
		}
		for _, jobs := range res.Jobs {
			for _, j := range jobs {
				total := 0.0
				for _, s := range j.Slices {
					if s.End < s.Start {
						return false
					}
					total += s.Duration()
				}
				if math.Abs(total-j.Exec) > 1e-9 {
					return false
				}
				if j.Finish < j.Release || j.Start < j.Release {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSimulateNoOverlappingExecution(t *testing.T) {
	// Single core: merge all slices from all jobs; they must not overlap.
	tasks := []*Task{
		{Name: "a", Period: 2, Priority: 1, Exec: UniformExec{Lo: 0.1, Hi: 0.8}},
		{Name: "b", Period: 3, Priority: 2, Exec: UniformExec{Lo: 0.3, Hi: 1.2}},
		{Name: "c", Period: 7, Priority: 3, Exec: UniformExec{Lo: 0.2, Hi: 2.5}},
	}
	res, err := Simulate(tasks, Options{Horizon: 300, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	var all []Interval
	for _, jobs := range res.Jobs {
		for _, j := range jobs {
			all = append(all, j.Slices...)
		}
	}
	if len(all) == 0 {
		t.Fatal("no execution recorded")
	}
	// Sort by start and check pairwise.
	for i := range all {
		for j := i + 1; j < len(all); j++ {
			a, b := all[i], all[j]
			if a.Start < b.End-1e-9 && b.Start < a.End-1e-9 {
				t.Fatalf("overlapping execution %v and %v", a, b)
			}
		}
	}
}

func TestSimulateAdaptiveRelease(t *testing.T) {
	// Period reset: next release = finish rounded up to the sampling
	// grid Ts when overrunning, else prevRelease + T.
	T, Ts := 1.0, 0.25
	rule := func(prev, finish float64) float64 {
		if finish <= prev+T {
			return prev + T
		}
		k := math.Ceil((finish - prev) / Ts)
		return prev + k*Ts
	}
	// Deterministic alternation: job 0 overruns (C=1.3), others C=0.4.
	seq := []float64{1.3, 0.4, 0.4}
	i := 0
	exec := execFunc(func() float64 { v := seq[i%len(seq)]; i++; return v })
	tasks := []*Task{{Name: "ctl", Period: T, Priority: 1, Exec: exec, Release: rule}}
	res, err := Simulate(tasks, Options{Horizon: 10})
	if err != nil {
		t.Fatal(err)
	}
	jobs := res.Jobs["ctl"]
	if len(jobs) < 3 {
		t.Fatalf("only %d jobs", len(jobs))
	}
	// Job 0: release 0, finish 1.3 → next release at 1.5 (ceil(1.3/.25)*.25).
	if math.Abs(jobs[0].Finish-1.3) > 1e-9 {
		t.Fatalf("finish0 = %v", jobs[0].Finish)
	}
	if math.Abs(jobs[1].Release-1.5) > 1e-9 {
		t.Fatalf("release1 = %v, want 1.5", jobs[1].Release)
	}
	// Job 1 doesn't overrun → release2 = 1.5 + T = 2.5.
	if math.Abs(jobs[2].Release-2.5) > 1e-9 {
		t.Fatalf("release2 = %v, want 2.5", jobs[2].Release)
	}
}

type execFunc func() float64

func (f execFunc) Sample(*rand.Rand) float64 { return f() }
func (execFunc) Bounds() (float64, float64)  { return 0.1, 10 }

func TestSimulateMaxJobs(t *testing.T) {
	tasks := []*Task{{Name: "a", Period: 1, Priority: 1, Exec: ConstantExec{C: 0.1}}}
	res, err := Simulate(tasks, Options{Horizon: 1000, MaxJobs: map[string]int{"a": 7}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs["a"]) != 7 {
		t.Fatalf("jobs = %d, want 7", len(res.Jobs["a"]))
	}
}

func TestSimulateRejectsBadArgs(t *testing.T) {
	good := &Task{Name: "a", Period: 1, Priority: 1, Exec: ConstantExec{C: 0.1}}
	if _, err := Simulate([]*Task{good}, Options{Horizon: 0}); err == nil {
		t.Fatal("zero horizon accepted")
	}
	rule := func(p, f float64) float64 { return p + 1 }
	a1 := &Task{Name: "x", Period: 1, Priority: 1, Exec: ConstantExec{C: 0.1}, Release: rule}
	a2 := &Task{Name: "y", Period: 1, Priority: 2, Exec: ConstantExec{C: 0.1}, Release: rule}
	if _, err := Simulate([]*Task{a1, a2}, Options{Horizon: 5}); err == nil {
		t.Fatal("two adaptive tasks accepted")
	}
	backwards := &Task{Name: "b", Period: 1, Priority: 1, Exec: ConstantExec{C: 0.1},
		Release: func(p, f float64) float64 { return p }}
	if _, err := Simulate([]*Task{backwards}, Options{Horizon: 5}); err == nil {
		t.Fatal("non-advancing release rule accepted")
	}
}

func TestSimulateDeterministicSeed(t *testing.T) {
	tasks := func() []*Task {
		return []*Task{
			{Name: "a", Period: 2, Priority: 1, Exec: UniformExec{Lo: 0.1, Hi: 1}},
			{Name: "b", Period: 5, Priority: 2, Exec: UniformExec{Lo: 0.5, Hi: 4}},
		}
	}
	r1, err := Simulate(tasks(), Options{Horizon: 100, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Simulate(tasks(), Options{Horizon: 100, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	a1, a2 := r1.ResponseTimes("b"), r2.ResponseTimes("b")
	if len(a1) != len(a2) {
		t.Fatal("different job counts for same seed")
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatal("same seed produced different response times")
		}
	}
}

func TestResponseTimesAccessor(t *testing.T) {
	tasks := []*Task{{Name: "a", Period: 1, Priority: 1, Exec: ConstantExec{C: 0.25}}}
	res, err := Simulate(tasks, Options{Horizon: 3.5})
	if err != nil {
		t.Fatal(err)
	}
	rt := res.ResponseTimes("a")
	if len(rt) != 4 {
		t.Fatalf("response times = %v", rt)
	}
	for _, r := range rt {
		if math.Abs(r-0.25) > 1e-9 {
			t.Fatalf("response = %v", r)
		}
	}
	if got := res.ResponseTimes("missing"); len(got) != 0 {
		t.Fatal("missing task returned jobs")
	}
}

func TestSimulateRTAConsistency(t *testing.T) {
	// Simulated worst observed response must not exceed analytical WCRT.
	tasks := []*Task{
		{Name: "t1", Period: 5, Priority: 1, Exec: ConstantExec{C: 1}},
		{Name: "t2", Period: 12, Priority: 2, Exec: ConstantExec{C: 4}},
		{Name: "t3", Period: 30, Priority: 3, Exec: ConstantExec{C: 9}},
	}
	wcrt, err := ResponseTimeAnalysis(tasks, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(tasks, Options{Horizon: 600})
	if err != nil {
		t.Fatal(err)
	}
	for name, jobs := range res.Jobs {
		for _, j := range jobs {
			if j.Response > wcrt[name]+1e-9 {
				t.Fatalf("task %s job %d response %v exceeds WCRT %v", name, j.Index, j.Response, wcrt[name])
			}
		}
	}
	// The critical instant (t=0, synchronous release) must achieve the
	// WCRT for the lowest-priority task.
	if j := res.Jobs["t3"][0]; math.Abs(j.Response-wcrt["t3"]) > 1e-9 {
		t.Fatalf("critical-instant response %v != WCRT %v", j.Response, wcrt["t3"])
	}
}

func TestAdaptiveTaskWCRT(t *testing.T) {
	hp := []*Task{
		{Name: "irq", Period: 4, Priority: 1, Exec: ConstantExec{C: 1.2}},
		{Name: "comm", Period: 10, Priority: 2, Exec: ConstantExec{C: 2.5}},
	}
	ctl := &Task{Name: "ctl", Period: 10, Priority: 3, Exec: ConstantExec{C: 4}}
	r, err := AdaptiveTaskWCRT(ctl, hp, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Fixed point: R = 4 + ceil(R/4)*1.2 + ceil(R/10)*2.5 → 13.8 > T.
	if math.Abs(r-13.8) > 1e-9 {
		t.Fatalf("WCRT = %v, want 13.8", r)
	}
	// Must satisfy its own recurrence.
	want := 4 + math.Ceil(r/4)*1.2 + math.Ceil(r/10)*2.5
	if math.Abs(r-want) > 1e-9 {
		t.Fatalf("WCRT %v is not a fixed point (%v)", r, want)
	}
}

func TestAdaptiveTaskWCRTNoInterference(t *testing.T) {
	ctl := &Task{Name: "ctl", Period: 1, Priority: 1, Exec: ConstantExec{C: 1.7}}
	r, err := AdaptiveTaskWCRT(ctl, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r != 1.7 {
		t.Fatalf("WCRT = %v, want 1.7 (pure execution, overrun allowed)", r)
	}
}

func TestAdaptiveTaskWCRTOverloadedHP(t *testing.T) {
	hp := []*Task{{Name: "hog", Period: 1, Priority: 1, Exec: ConstantExec{C: 1}}}
	ctl := &Task{Name: "ctl", Period: 1, Priority: 2, Exec: ConstantExec{C: 0.1}}
	if _, err := AdaptiveTaskWCRT(ctl, hp, 0); !errors.Is(err, ErrUnschedulable) {
		t.Fatalf("err = %v, want ErrUnschedulable", err)
	}
}

func TestAdaptiveTaskWCRTValidation(t *testing.T) {
	ctl := &Task{Name: "", Period: 1, Exec: ConstantExec{C: 0.1}}
	if _, err := AdaptiveTaskWCRT(ctl, nil, 0); err == nil {
		t.Fatal("invalid control task accepted")
	}
	good := &Task{Name: "ctl", Period: 1, Priority: 2, Exec: ConstantExec{C: 0.1}}
	bad := []*Task{{Name: "x", Period: 0, Exec: ConstantExec{C: 0.1}}}
	if _, err := AdaptiveTaskWCRT(good, bad, 0); err == nil {
		t.Fatal("invalid interferer accepted")
	}
}

func TestBurstExecClusteredOverruns(t *testing.T) {
	e := &BurstExec{
		Calm:   ConstantExec{C: 1},
		Burst:  ConstantExec{C: 5},
		PEnter: 0.05,
		PExit:  0.5,
	}
	lo, hi := e.Bounds()
	if lo != 1 || hi != 5 {
		t.Fatalf("bounds = (%v,%v)", lo, hi)
	}
	if got := e.ExpectedBurstLength(); got != 2 {
		t.Fatalf("expected burst length = %v, want 2", got)
	}
	rng := rand.New(rand.NewSource(3))
	const n = 200000
	burst := 0
	transitions := 0
	prev := false
	runs, runLen := 0, 0
	for i := 0; i < n; i++ {
		isBurst := e.Sample(rng) == 5
		if isBurst {
			burst++
			runLen++
		} else if prev {
			runs++
			runLen = 0
		}
		if i > 0 && isBurst != prev {
			transitions++
		}
		prev = isBurst
	}
	// Stationary burst probability = 0.05/(0.05+0.5) ≈ 0.0909.
	frac := float64(burst) / n
	if frac < 0.07 || frac > 0.11 {
		t.Fatalf("burst fraction = %v, want ≈ 0.091", frac)
	}
	// Clustering: mean burst run length ≈ 2, i.e. far fewer transitions
	// than an i.i.d. model with the same marginal would produce.
	iidTransitions := 2 * frac * (1 - frac) * n
	if float64(transitions) > 0.8*iidTransitions {
		t.Fatalf("transitions = %d look i.i.d. (expected ≪ %v)", transitions, iidTransitions)
	}
}

func TestBurstExecDegenerateRates(t *testing.T) {
	e := &BurstExec{Calm: ConstantExec{C: 1}, Burst: ConstantExec{C: 5}}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		if e.Sample(rng) != 1 {
			t.Fatal("zero-rate burst model entered the burst state")
		}
	}
	if e.ExpectedBurstLength() != 0 {
		t.Fatal("expected burst length for PExit=0")
	}
}

func TestSimulateReleaseRuleInvariant(t *testing.T) {
	// Property: for an adaptive task simulated with core-style release
	// rules, every inter-release interval exceeds neither rule output
	// nor falls below the previous job's completion.
	rule := func(prev, finish float64) float64 {
		if finish <= prev+1 {
			return prev + 1
		}
		return prev + math.Ceil((finish-prev)/0.2-1e-9)*0.2
	}
	f := func(seed int64) bool {
		tasks := []*Task{
			{Name: "irq", Period: 0.25, Priority: 1, Exec: UniformExec{Lo: 0.01, Hi: 0.05}},
			{Name: "ctl", Period: 1, Priority: 2,
				Exec:    UniformExec{Lo: 0.3, Hi: 1.2},
				Release: rule},
		}
		res, err := Simulate(tasks, Options{Horizon: 60, Seed: seed})
		if err != nil {
			return false
		}
		jobs := res.Jobs["ctl"]
		for i := 1; i < len(jobs); i++ {
			prev, cur := jobs[i-1], jobs[i]
			want := rule(prev.Release, prev.Finish)
			if math.Abs(cur.Release-want) > 1e-9 {
				return false
			}
			// Jobs never overlap.
			if cur.Release < prev.Finish-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
