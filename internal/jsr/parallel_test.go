package jsr

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"

	"adaptivertc/internal/mat"
)

// goldenPair is the classic JSR = φ example; its optimal switching word
// alternates the two generators, which makes witness assertions sharp.
func goldenPair() []*mat.Dense {
	return []*mat.Dense{
		mat.FromRows([][]float64{{1, 1}, {0, 1}}),
		mat.FromRows([][]float64{{1, 0}, {1, 1}}),
	}
}

func sameBounds(a, b Bounds) bool {
	if a.Lower != b.Lower || a.Upper != b.Upper {
		return false
	}
	if len(a.WitnessWord) != len(b.WitnessWord) {
		return false
	}
	for i := range a.WitnessWord {
		if a.WitnessWord[i] != b.WitnessWord[i] {
			return false
		}
	}
	return true
}

// workerSweep is the set of worker counts the invariance tests compare;
// it straddles GOMAXPROCS on any machine and includes a count that does
// not divide typical level sizes.
func workerSweep() []int {
	return []int{1, 2, 3, 4, 7, runtime.GOMAXPROCS(0)}
}

func TestGripenbergWorkerInvariance(t *testing.T) {
	for name, set := range map[string][]*mat.Dense{"pmsm": pmsmLikeSet(), "golden": goldenPair()} {
		var ref Bounds
		var refErr error
		for i, w := range workerSweep() {
			b, err := GripenbergCtx(context.Background(), set, GripenbergOptions{Delta: 0.02, MaxDepth: 14, MaxNodes: 50_000, Workers: w})
			if err != nil && !errors.Is(err, ErrBudget) {
				t.Fatal(err)
			}
			if i == 0 {
				ref, refErr = b, err
				continue
			}
			if !sameBounds(ref, b) {
				t.Fatalf("%s: workers=%d bounds %+v differ from workers=1 %+v", name, w, b, ref)
			}
			if !errors.Is(err, refErr) && !errors.Is(refErr, err) {
				t.Fatalf("%s: workers=%d err %v differs from workers=1 err %v", name, w, err, refErr)
			}
		}
	}
}

func TestBruteForceWorkerInvariance(t *testing.T) {
	for name, set := range map[string][]*mat.Dense{"pmsm": pmsmLikeSet(), "golden": goldenPair()} {
		var ref Bounds
		for i, w := range workerSweep() {
			b, err := BruteForceBoundsCtx(context.Background(), set, 8, BruteForceOptions{Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				ref = b
				continue
			}
			if !sameBounds(ref, b) {
				t.Fatalf("%s: workers=%d bounds %+v differ from workers=1 %+v", name, w, b, ref)
			}
		}
	}
}

func TestConstrainedGripenbergWorkerInvariance(t *testing.T) {
	g, err := WeaklyHardGraph(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	set := goldenPair()
	var ref Bounds
	var refErr error
	for i, w := range workerSweep() {
		b, err := constrainedGripenberg(context.Background(), set, g, GripenbergOptions{Delta: 0.02, MaxDepth: 12, MaxNodes: 50_000, Workers: w})
		if err != nil && !errors.Is(err, ErrBudget) {
			t.Fatal(err)
		}
		if i == 0 {
			ref, refErr = b, err
			continue
		}
		if !sameBounds(ref, b) {
			t.Fatalf("workers=%d bounds %+v differ from workers=1 %+v", w, b, ref)
		}
		if !errors.Is(err, refErr) && !errors.Is(refErr, err) {
			t.Fatalf("workers=%d err %v differs from workers=1 err %v", w, err, refErr)
		}
	}
}

// TestGripenbergPartialBudgetTightensBracket is the regression test for
// the budget bugfix: with MaxNodes=4 the golden-ratio pair affords only
// one of the two depth-2 expansions, and that partial level must still
// raise the lower bound from ρ(A_i)=1 to φ before ErrBudget is
// returned. The old code gave up before expanding anything and reported
// Lower=1.
func TestGripenbergPartialBudgetTightensBracket(t *testing.T) {
	set := goldenPair()
	phi := (1 + math.Sqrt(5)) / 2
	b, err := GripenbergCtx(context.Background(), set, GripenbergOptions{Delta: 1e-4, MaxDepth: 30, MaxNodes: 4})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if math.Abs(b.Lower-phi) > 1e-9 {
		t.Fatalf("partial level did not tighten: Lower = %v, want φ = %v", b.Lower, phi)
	}
	if len(b.WitnessWord) != 2 || b.WitnessWord[0] != 0 || b.WitnessWord[1] != 1 {
		t.Fatalf("witness = %v, want [0 1]", b.WitnessWord)
	}
	if b.Upper < b.Lower {
		t.Fatalf("inverted bracket %v", b)
	}
	if got := witnessRate(t, set, b.WitnessWord); math.Abs(got-b.Lower) > 1e-12 {
		t.Fatalf("witness rate %v != Lower %v", got, b.Lower)
	}
}

func TestConstrainedGripenbergPartialBudgetTightensBracket(t *testing.T) {
	set := goldenPair()
	g := CompleteGraph(2)
	phi := (1 + math.Sqrt(5)) / 2
	b, err := constrainedGripenberg(context.Background(), set, g, GripenbergOptions{Delta: 1e-4, MaxDepth: 30, MaxNodes: 4})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if math.Abs(b.Lower-phi) > 1e-9 {
		t.Fatalf("partial level did not tighten: Lower = %v, want φ = %v", b.Lower, phi)
	}
	if b.Upper < b.Lower {
		t.Fatalf("inverted bracket %v", b)
	}
}

// TestBruteForceStreamingMatchesShallow pins the chunked depth-first
// enumeration to the purely breadth-first shallow path: for depths at
// or below the split the two phases coincide, and increasing depth must
// extend, not perturb, the shallow results.
func TestBruteForceStreamingMatchesShallow(t *testing.T) {
	set := pmsmLikeSet()
	prevUpper := math.Inf(1)
	prevLower := 0.0
	for _, l := range []int{1, 2, 3, 5, 8} {
		b, err := BruteForceBoundsCtx(context.Background(), set, l, BruteForceOptions{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if b.Upper > prevUpper+1e-15 {
			t.Fatalf("upper rose from %v to %v at depth %d", prevUpper, b.Upper, l)
		}
		if b.Lower < prevLower-1e-15 {
			t.Fatalf("lower fell from %v to %v at depth %d", prevLower, b.Lower, l)
		}
		prevUpper, prevLower = b.Upper, b.Lower
	}
}

func TestWitnessRateRoundTrip(t *testing.T) {
	set := pmsmLikeSet()
	bf, err := BruteForceBoundsCtx(context.Background(), set, 7, BruteForceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := WitnessRate(set, bf.WitnessWord); err != nil || math.Abs(got-bf.Lower) > 1e-12 {
		t.Fatalf("brute-force replay = %v (err %v), want Lower = %v", got, err, bf.Lower)
	}
	gp, err := GripenbergCtx(context.Background(), set, GripenbergOptions{Delta: 0.01, MaxDepth: 20})
	if err != nil && !errors.Is(err, ErrBudget) {
		t.Fatal(err)
	}
	if got, err := WitnessRate(set, gp.WitnessWord); err != nil || math.Abs(got-gp.Lower) > 1e-12 {
		t.Fatalf("Gripenberg replay = %v (err %v), want Lower = %v", got, err, gp.Lower)
	}
}

// TestEstimateWitnessAttainsLower is the regression test for the
// witness bugfix: Estimate computes its bracket on the preconditioned
// set, where similarity round-off can shift spectral radii, so the
// returned Lower must be the rate the witness attains on the caller's
// matrices — exactly reproducible via WitnessRate.
func TestEstimateWitnessAttainsLower(t *testing.T) {
	for name, set := range map[string][]*mat.Dense{
		"pmsm": pmsmLikeSet(),
		"mixed": {
			mat.FromRows([][]float64{{0.6, 0.3}, {0, 0.4}}),
			mat.FromRows([][]float64{{0.2, 0}, {0.5, 0.7}}),
		},
	} {
		est, err := EstimateCtx(context.Background(), set, 6, GripenbergOptions{Delta: 0.01})
		if err != nil && !errors.Is(err, ErrBudget) {
			t.Fatal(err)
		}
		if len(est.WitnessWord) == 0 {
			t.Fatalf("%s: no witness returned", name)
		}
		got, err := WitnessRate(set, est.WitnessWord)
		if err != nil {
			t.Fatal(err)
		}
		if got != est.Lower {
			t.Fatalf("%s: replayed witness rate %v != Lower %v (word %v)", name, got, est.Lower, est.WitnessWord)
		}
		if est.Upper < est.Lower {
			t.Fatalf("%s: inverted bracket %v", name, est)
		}
	}
}

func TestWitnessRateErrors(t *testing.T) {
	set := pmsmLikeSet()
	if _, err := WitnessRate(nil, []int{0}); !errors.Is(err, ErrEmptySet) {
		t.Fatalf("err = %v", err)
	}
	if _, err := WitnessRate(set, nil); err == nil {
		t.Fatal("empty word accepted")
	}
	if _, err := WitnessRate(set, []int{0, 2}); err == nil {
		t.Fatal("out-of-range index accepted")
	}
}
