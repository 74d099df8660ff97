package jsr

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"adaptivertc/internal/checkpoint"
	"adaptivertc/internal/mat"
)

// resilienceOpts is the shared search configuration of the snapshot and
// resume tests: small enough to run under -race at every worker count,
// deep enough for several level boundaries.
func resilienceOpts(workers int) GripenbergOptions {
	return GripenbergOptions{Delta: 0.02, MaxDepth: 14, MaxNodes: 50_000, Workers: workers}
}

// TestGripenbergSnapshotResume is the acceptance test for
// checkpoint/resume: for every worker count, resuming from ANY level
// boundary must finish with bounds and witness bit-identical to the
// uninterrupted search.
func TestGripenbergSnapshotResume(t *testing.T) {
	for name, set := range map[string][]*mat.Dense{"pmsm": pmsmLikeSet(), "golden": goldenPair()} {
		for _, w := range workerSweep() {
			ref, refErr := GripenbergCtx(context.Background(), set, resilienceOpts(w))
			if refErr != nil && !errors.Is(refErr, ErrBudget) {
				t.Fatal(refErr)
			}

			var states []GripenbergState
			opt := resilienceOpts(w)
			opt.Snapshot = func(st GripenbergState) error {
				states = append(states, st)
				return nil
			}
			b, err := GripenbergCtx(context.Background(), set, opt)
			if err != nil && !errors.Is(err, ErrBudget) {
				t.Fatal(err)
			}
			if !sameBounds(ref, b) {
				t.Fatalf("%s workers=%d: snapshot hook perturbed the search: %+v vs %+v", name, w, b, ref)
			}
			if len(states) == 0 {
				t.Fatalf("%s workers=%d: no snapshots recorded", name, w)
			}

			for si := range states {
				ropt := resilienceOpts(w)
				ropt.Resume = &states[si]
				rb, rerr := GripenbergCtx(context.Background(), set, ropt)
				if rerr != nil && !errors.Is(rerr, ErrBudget) {
					t.Fatal(rerr)
				}
				if !sameBounds(ref, rb) {
					t.Fatalf("%s workers=%d: resume from level %d diverged: %+v vs %+v",
						name, w, states[si].Depth, rb, ref)
				}
				if (refErr == nil) != (rerr == nil) {
					t.Fatalf("%s workers=%d: resume from level %d err %v, uninterrupted err %v",
						name, w, states[si].Depth, rerr, refErr)
				}
			}
		}
	}
}

// TestGripenbergInterruptResume cancels mid-search via the snapshot
// hook (so the cut lands exactly on a level boundary), checks that the
// interrupted bracket is valid, and resumes from the last snapshot to a
// result bit-identical to an uninterrupted run.
func TestGripenbergInterruptResume(t *testing.T) {
	set := pmsmLikeSet()
	for _, w := range workerSweep() {
		ref, refErr := GripenbergCtx(context.Background(), set, resilienceOpts(w))
		if refErr != nil && !errors.Is(refErr, ErrBudget) {
			t.Fatal(refErr)
		}

		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var states []GripenbergState
		opt := resilienceOpts(w)
		opt.Snapshot = func(st GripenbergState) error {
			states = append(states, st)
			if len(states) == 3 {
				cancel()
			}
			return nil
		}
		cut, err := GripenbergCtx(ctx, set, opt)
		if !errors.Is(err, ErrDeadline) || !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want ErrDeadline wrapping context.Canceled", w, err)
		}
		if cut.Lower > cut.Upper || cut.Lower <= 0 {
			t.Fatalf("workers=%d: invalid interrupted bracket %+v", w, cut)
		}
		if got := witnessRate(t, set, cut.WitnessWord); math.Abs(got-cut.Lower) > 1e-12 {
			t.Fatalf("workers=%d: interrupted witness rate %v != Lower %v", w, got, cut.Lower)
		}
		// The interrupted bracket must contain the converged one.
		if ref.Lower < cut.Lower-1e-15 || ref.Upper > cut.Upper+1e-15 {
			t.Fatalf("workers=%d: interrupted bracket %+v does not contain converged %+v", w, cut, ref)
		}

		ropt := resilienceOpts(w)
		ropt.Resume = &states[len(states)-1]
		rb, rerr := GripenbergCtx(context.Background(), set, ropt)
		if rerr != nil && !errors.Is(rerr, ErrBudget) {
			t.Fatal(rerr)
		}
		if !sameBounds(ref, rb) {
			t.Fatalf("workers=%d: resumed bounds %+v differ from uninterrupted %+v", w, rb, ref)
		}
	}
}

// TestGripenbergCheckpointFileRoundTrip drives the full persistence
// path: snapshots written through internal/checkpoint, the search
// killed mid-run, the state reloaded from disk, and the resumed search
// compared bit-for-bit against an uninterrupted one.
func TestGripenbergCheckpointFileRoundTrip(t *testing.T) {
	set := pmsmLikeSet()
	path := filepath.Join(t.TempDir(), "grip.ckpt")
	ref, refErr := GripenbergCtx(context.Background(), set, resilienceOpts(4))
	if refErr != nil && !errors.Is(refErr, ErrBudget) {
		t.Fatal(refErr)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	saves := 0
	opt := resilienceOpts(4)
	opt.Snapshot = func(st GripenbergState) error {
		if err := checkpoint.Save(path, "jsrtest/gripenberg", 1, st); err != nil {
			return err
		}
		saves++
		if saves == 2 {
			cancel()
		}
		return nil
	}
	if _, err := GripenbergCtx(ctx, set, opt); !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}

	var st GripenbergState
	if err := checkpoint.Load(path, "jsrtest/gripenberg", 1, &st); err != nil {
		t.Fatal(err)
	}
	ropt := resilienceOpts(4)
	ropt.Resume = &st
	rb, rerr := GripenbergCtx(context.Background(), set, ropt)
	if rerr != nil && !errors.Is(rerr, ErrBudget) {
		t.Fatal(rerr)
	}
	if !sameBounds(ref, rb) {
		t.Fatalf("resume from disk diverged: %+v vs %+v", rb, ref)
	}
}

// TestGripenbergDeadline exercises a context deadline: an
// already-expired deadline must return a valid (if loose) bracket, an
// error satisfying both errors.Is(ErrDeadline) and
// errors.Is(context.DeadlineExceeded), and — because the snapshot hook
// fires before the cancellation check — a resumable state.
func TestGripenbergDeadline(t *testing.T) {
	set := pmsmLikeSet()
	var states []GripenbergState
	opt := resilienceOpts(2)
	opt.Snapshot = func(st GripenbergState) error {
		states = append(states, st)
		return nil
	}
	// 1ns: expired before the first level boundary.
	ctx, cancel := context.WithTimeout(context.Background(), 1)
	defer cancel()
	b, err := GripenbergCtx(ctx, set, opt)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded in the chain", err)
	}
	if b.Lower > b.Upper || b.Lower <= 0 {
		t.Fatalf("invalid bracket %+v", b)
	}
	if len(states) == 0 {
		t.Fatal("expired deadline left no resumable snapshot")
	}
	ropt := resilienceOpts(2)
	ropt.Resume = &states[len(states)-1]
	rb, rerr := GripenbergCtx(context.Background(), set, ropt)
	if rerr != nil && !errors.Is(rerr, ErrBudget) {
		t.Fatal(rerr)
	}
	ref, refErr := GripenbergCtx(context.Background(), set, resilienceOpts(2))
	if refErr != nil && !errors.Is(refErr, ErrBudget) {
		t.Fatal(refErr)
	}
	if !sameBounds(ref, rb) {
		t.Fatalf("resume after expired deadline diverged: %+v vs %+v", rb, ref)
	}
}

// TestEstimateBudgetParallel is the regression test for the sentinel
// bugfix: ErrBudget produced inside the worker pool must surface
// through errors.Is at the Estimate level for every worker count, not
// just on the sequential path.
func TestEstimateBudgetParallel(t *testing.T) {
	set := goldenPair()
	for _, w := range workerSweep() {
		b, err := EstimateCtx(context.Background(), set, 3, GripenbergOptions{Delta: 1e-6, MaxDepth: 30, MaxNodes: 6, Workers: w})
		if !errors.Is(err, ErrBudget) {
			t.Fatalf("workers=%d: err = %v, want errors.Is(ErrBudget)", w, err)
		}
		if b.Lower > b.Upper || b.Lower <= 0 {
			t.Fatalf("workers=%d: invalid bracket %+v", w, b)
		}
	}
}

// TestBudgetStopReason checks that every search names the budget that
// stopped it, through Estimate's joined error too, and that both reasons
// still match ErrBudget.
func TestBudgetStopReason(t *testing.T) {
	set := pmsmLikeSet()
	complete := CompleteGraph(len(set))
	cases := []struct {
		name        string
		opt         GripenbergOptions
		want, other error
	}{
		{"nodes", GripenbergOptions{Delta: 1e-6, MaxDepth: 30, MaxNodes: 6}, ErrNodeBudget, ErrDepthCap},
		{"depth", GripenbergOptions{Delta: 1e-6, MaxDepth: 3, MaxNodes: 1000}, ErrDepthCap, ErrNodeBudget},
	}
	for _, tc := range cases {
		for _, w := range []int{1, 2} {
			tc.opt.Workers = w
			errs := map[string]error{}
			_, errs["Gripenberg"] = GripenbergCtx(context.Background(), set, tc.opt)
			_, errs["ConstrainedGripenberg"] = constrainedGripenberg(context.Background(), set, complete, tc.opt)
			_, errs["Estimate"] = EstimateCtx(context.Background(), set, 3, tc.opt)
			for site, err := range errs {
				if !errors.Is(err, tc.want) || !errors.Is(err, ErrBudget) || errors.Is(err, tc.other) {
					t.Errorf("%s w=%d %s: err = %v, want %v wrapping ErrBudget", tc.name, w, site, err, tc.want)
				}
			}
		}
	}
}

// TestEstimateDeadlineParallel checks the same surfacing property for
// ErrDeadline: a cancelled context reaches the caller of EstimateCtx as
// errors.Is(ErrDeadline) (and the underlying context cause) with the
// vacuous-but-valid bracket, at every worker count.
func TestEstimateDeadlineParallel(t *testing.T) {
	set := pmsmLikeSet()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, w := range workerSweep() {
		b, err := EstimateCtx(ctx, set, 4, GripenbergOptions{Delta: 0.02, MaxDepth: 14, Workers: w})
		if !errors.Is(err, ErrDeadline) {
			t.Fatalf("workers=%d: err = %v, want errors.Is(ErrDeadline)", w, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled in the chain", w, err)
		}
		if b.Lower > b.Upper {
			t.Fatalf("workers=%d: inverted bracket %+v", w, b)
		}
	}
}

// TestConstrainedBoundsDeadline checks the constrained sweep's cut
// contract on a weakly-hard graph: a context cancelled before the sweep
// or during it yields errors.Is(ErrDeadline) and the context's cause,
// with a bracket that contains the uncut sweep's, at one and two
// workers.
func TestConstrainedBoundsDeadline(t *testing.T) {
	set := pmsmLikeSet()
	g, err := WeaklyHardGraph(3, 6)
	if err != nil {
		t.Fatal(err)
	}
	// 18 levels: about 900k walks, far longer than the cancel delay.
	const maxLen = 18
	full, err := certified(bruteForce(context.Background(), set, g, maxLen, BruteForceOptions{Workers: 1}))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2} {
		for _, mid := range []bool{false, true} {
			ctx, cancel := context.WithCancel(context.Background())
			if mid {
				time.AfterFunc(5*time.Millisecond, cancel)
			} else {
				cancel()
			}
			b, err := certified(bruteForce(ctx, set, g, maxLen, BruteForceOptions{Workers: w}))
			cancel()
			if !errors.Is(err, ErrDeadline) || !errors.Is(err, context.Canceled) {
				t.Fatalf("w=%d mid=%v: err = %v, want ErrDeadline wrapping context.Canceled", w, mid, err)
			}
			if b.Lower > full.Lower || b.Upper < full.Upper {
				t.Fatalf("w=%d mid=%v: cut bracket %v does not contain the uncut %v", w, mid, b, full)
			}
		}
	}
}

// TestExpandGuardConvertsPanic pins the panic→error conversion: the
// offending product word rides along and already-converted panics pass
// through unchanged.
func TestExpandGuardConvertsPanic(t *testing.T) {
	err := expandGuard([]int{1, 0, 1}, func() error { panic("poisoned product") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if fmt.Sprint(pe.Value) != "poisoned product" {
		t.Fatalf("Value = %v", pe.Value)
	}
	if len(pe.Word) != 3 || pe.Word[0] != 1 || pe.Word[1] != 0 || pe.Word[2] != 1 {
		t.Fatalf("Word = %v, want [1 0 1]", pe.Word)
	}
	if !strings.Contains(pe.Error(), "expanding word [1 0 1]") {
		t.Fatalf("Error() = %q", pe.Error())
	}
	if len(pe.Stack) == 0 {
		t.Fatal("no stack captured")
	}
	// Re-panicking with an already-converted error keeps the original.
	outer := expandGuard([]int{9}, func() error { panic(pe) })
	var pe2 *PanicError
	if !errors.As(outer, &pe2) || pe2 != pe {
		t.Fatalf("converted panic not passed through: %v", outer)
	}
}

// TestParallelRangesPanicIsolation spawns a pool where two ranges
// panic: the process must survive, siblings must drain, and the
// reported panic must be the lowest-indexed one for every worker count.
func TestParallelRangesPanicIsolation(t *testing.T) {
	for _, w := range []int{1, 2, 3, 4, 7, 16} {
		err := parallelSlots(context.Background(), 16, w, func(ctx context.Context, _, lo, hi int) error {
			for i := lo; i < hi; i++ {
				if err := expandGuard([]int{i}, func() error {
					if i == 5 || i == 11 {
						panic(fmt.Sprintf("boom at %d", i))
					}
					return nil
				}); err != nil {
					return err
				}
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", w, err)
		}
		if len(pe.Word) != 1 || pe.Word[0] != 5 {
			t.Fatalf("workers=%d: reported word %v, want [5] (lowest failing index)", w, pe.Word)
		}
	}
}

// TestParallelRangesRealErrorBeatsCancellation: when one range fails
// and the induced cancellation drains the others, the caller must see
// the real failure, not the cancellation noise.
func TestParallelRangesRealErrorBeatsCancellation(t *testing.T) {
	sentinel := errors.New("range failure")
	for _, w := range []int{2, 4, 8} {
		err := parallelSlots(context.Background(), 64, w, func(ctx context.Context, _, lo, hi int) error {
			for i := lo; i < hi; i++ {
				if cerr := ctx.Err(); cerr != nil {
					return cerr
				}
				if i == 40 {
					return fmt.Errorf("index %d: %w", i, sentinel)
				}
			}
			return nil
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: err = %v, want the range failure", w, err)
		}
	}
}

// TestGripenbergResumeRejectsMismatchedState: resuming against the
// wrong set cardinality or a corrupted frontier word must fail loudly
// instead of silently producing bounds for a different problem.
func TestGripenbergResumeRejectsMismatchedState(t *testing.T) {
	set := goldenPair()
	var last GripenbergState
	opt := resilienceOpts(1)
	opt.Snapshot = func(st GripenbergState) error { last = st; return nil }
	if _, err := GripenbergCtx(context.Background(), set, opt); err != nil && !errors.Is(err, ErrBudget) {
		t.Fatal(err)
	}

	wrongK := last
	wrongK.K = 3
	ropt := resilienceOpts(1)
	ropt.Resume = &wrongK
	if _, err := GripenbergCtx(context.Background(), set, ropt); err == nil {
		t.Fatal("mismatched set cardinality accepted")
	}

	badWord := last
	badWord.Frontier = append([][]int(nil), badWord.Frontier...)
	corrupted := append([]int(nil), badWord.Frontier[0]...)
	corrupted[0] = 7
	badWord.Frontier[0] = corrupted
	ropt.Resume = &badWord
	if _, err := GripenbergCtx(context.Background(), set, ropt); err == nil {
		t.Fatal("out-of-range frontier index accepted")
	}
}

// TestGripenbergResumeOverBudget resumes a snapshot whose spent node
// budget already exceeds the resuming run's MaxNodes: the search must
// stop at once with ErrNodeBudget and the snapshot's bracket, not slice
// a negative level.
func TestGripenbergResumeOverBudget(t *testing.T) {
	set := goldenPair()
	var last GripenbergState
	opt := resilienceOpts(1)
	opt.Snapshot = func(st GripenbergState) error { last = st; return nil }
	if _, err := GripenbergCtx(context.Background(), set, opt); err != nil && !errors.Is(err, ErrBudget) {
		t.Fatal(err)
	}
	ropt := resilienceOpts(1)
	ropt.MaxNodes = 1
	ropt.Resume = &last
	b, err := GripenbergCtx(context.Background(), set, ropt)
	if !errors.Is(err, ErrNodeBudget) {
		t.Fatalf("err = %v, want ErrNodeBudget", err)
	}
	if b.Lower != last.Lower || b.Upper < b.Lower {
		t.Fatalf("bracket %+v, want Lower = the snapshot's %v", b, last.Lower)
	}
}

// TestEstimateResumeAcrossBlocks is the checkpoint/resume acceptance
// test across invariant blocks: for every worker count, resuming
// EstimateCtx from any snapshot, in the first block or the second,
// finishes bit-identical to the uninterrupted run. A resume re-runs the
// blocks before its snapshot's block without firing the hook.
func TestEstimateResumeAcrossBlocks(t *testing.T) {
	set := twoSearchedBlocks()
	for _, w := range workerSweep() {
		ref, refErr := EstimateCtx(context.Background(), set, 4, resilienceOpts(w))
		if refErr != nil && !errors.Is(refErr, ErrBudget) {
			t.Fatal(refErr)
		}
		var states []GripenbergState
		opt := resilienceOpts(w)
		opt.Snapshot = func(st GripenbergState) error {
			states = append(states, st)
			return nil
		}
		b, err := EstimateCtx(context.Background(), set, 4, opt)
		if !sameBounds(ref, b) || fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("workers=%d: snapshot hook perturbed the search: %+v (%v) vs %+v (%v)", w, b, err, ref, refErr)
		}
		if len(states) == 0 || states[len(states)-1].Block != 1 {
			t.Fatalf("workers=%d: the second block never snapshotted", w)
		}
		for si := range states {
			ropt := resilienceOpts(w)
			ropt.Resume = &states[si]
			ropt.Snapshot = func(st GripenbergState) error {
				if st.Block < states[si].Block {
					t.Errorf("workers=%d: resume in block %d fired the hook in block %d", w, states[si].Block, st.Block)
				}
				return nil
			}
			rb, rerr := EstimateCtx(context.Background(), set, 4, ropt)
			if !sameBounds(ref, rb) || fmt.Sprint(rerr) != fmt.Sprint(refErr) {
				t.Fatalf("workers=%d: resume from block %d level %d: %+v (%v), uninterrupted %+v (%v)",
					w, states[si].Block, states[si].Depth, rb, rerr, ref, refErr)
			}
		}
	}
}

// TestEstimateInterruptInSecondBlock cancels EstimateCtx from the hook
// at the second block's third level: the cut bracket is valid and
// contains the finished one, and resuming from the last snapshot
// finishes bit-identical to an uninterrupted run.
func TestEstimateInterruptInSecondBlock(t *testing.T) {
	set := twoSearchedBlocks()
	ref, refErr := EstimateCtx(context.Background(), set, 4, resilienceOpts(2))
	if refErr != nil && !errors.Is(refErr, ErrBudget) {
		t.Fatal(refErr)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var last GripenbergState
	second := 0
	opt := resilienceOpts(2)
	opt.Snapshot = func(st GripenbergState) error {
		last = st
		if st.Block == 1 {
			if second++; second == 3 {
				cancel()
			}
		}
		return nil
	}
	cut, err := EstimateCtx(ctx, set, 4, opt)
	if !errors.Is(err, ErrDeadline) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrDeadline wrapping context.Canceled", err)
	}
	if cut.Lower > ref.Lower || cut.Upper < ref.Upper {
		t.Fatalf("interrupted bracket %+v does not contain the finished %+v", cut, ref)
	}
	ropt := resilienceOpts(2)
	ropt.Resume = &last
	rb, rerr := EstimateCtx(context.Background(), set, 4, ropt)
	if !sameBounds(ref, rb) || fmt.Sprint(rerr) != fmt.Sprint(refErr) {
		t.Fatalf("resumed %+v (%v), uninterrupted %+v (%v)", rb, rerr, ref, refErr)
	}
	// A block index the set does not have, and a block state handed to
	// GripenbergCtx, are refused.
	bad := last
	bad.Block = 2
	if _, err := EstimateCtx(context.Background(), set, 4, GripenbergOptions{Resume: &bad}); err == nil {
		t.Error("EstimateCtx accepted a resume state for a block the set does not have")
	}
	if _, err := GripenbergCtx(context.Background(), set, GripenbergOptions{Resume: &last}); err == nil {
		t.Error("GripenbergCtx accepted a resume state of an invariant block")
	}
}
