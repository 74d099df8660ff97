package experiments

import (
	"context"
	"errors"
	"io"
	"reflect"
	"sync"
	"testing"

	"adaptivertc/internal/sim"
)

// resumeOpts keeps the resume tests cheap: equivalence is exact (the
// same seeds replay bit-identically), so tiny sweeps suffice.
func resumeOpts() Options {
	return Options{Sequences: 30, Jobs: 10, Seed: 3, BruteLen: 3, Delta: 0.05}
}

// TestTable1CtxCancelled: a cancelled context aborts before any row
// completes and reports the cancellation.
func TestTable1CtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make([]bool, len(PaperGrid))
	res := &GridResume{Done: done}
	_, err := Table1Ctx(ctx, resumeOpts(), nil, res)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, d := range done {
		if d {
			t.Fatalf("row %d marked done under a pre-cancelled context", i)
		}
	}
}

// TestEntryPointsCancelled: every experiment entry point stops on a
// pre-cancelled context and reports the cancellation, instead of
// running to completion on a context of its own.
func TestEntryPointsCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := resumeOpts()
	cases := []struct {
		name string
		run  func() error
	}{
		{"Report", func() error { return Report(ctx, opt, io.Discard) }},
		{"AblationPI", func() error { _, err := AblationPI(ctx, opt); return err }},
		{"AblationJSR", func() error { _, err := AblationJSR(ctx, opt); return err }},
		{"AblationDelayLQR", func() error { _, err := AblationDelayLQR(ctx, opt); return err }},
		{"BurstComparison", func() error { _, err := BurstComparison(ctx, opt); return err }},
		{"ObserverComparison", func() error { _, err := ObserverComparison(ctx, opt); return err }},
		{"WeaklyHard", func() error { _, err := WeaklyHard(ctx, 2, opt); return err }},
		{"Jitter", func() error {
			_, err := Jitter(ctx, []float64{0, 0.5}, sim.MonteCarloOptions{Sequences: 20, Jobs: 10, Seed: 1})
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.run(); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		})
	}
}

// TestTable1CtxResume: rows restored from a checkpoint must be reused
// verbatim (their work skipped), freshly computed rows must match a
// from-scratch run exactly, and progress must be persisted once per
// newly completed row.
func TestTable1CtxResume(t *testing.T) {
	opt := resumeOpts()
	ref, err := Table1Ctx(context.Background(), opt, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) != len(PaperGrid) {
		t.Fatalf("grid has %d rows, want %d", len(ref), len(PaperGrid))
	}

	// Simulate a checkpoint that completed the first half of the grid.
	rows := make([]Table1Row, len(ref))
	done := make([]bool, len(ref))
	half := len(ref) / 2
	for i := 0; i < half; i++ {
		rows[i] = ref[i]
		done[i] = true
	}
	var mu sync.Mutex
	saves := 0
	res := &GridResume{
		Done: done,
		Save: func() error {
			mu.Lock()
			saves++
			mu.Unlock()
			return nil
		},
	}
	got, err := Table1Ctx(context.Background(), opt, rows, res)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("resumed rows diverge from a fresh run:\n got %+v\nwant %+v", got, ref)
	}
	if want := len(ref) - half; saves != want {
		t.Fatalf("Save called %d times, want once per newly completed row (%d)", saves, want)
	}
	for i, d := range done {
		if !d {
			t.Fatalf("row %d not marked done after completion", i)
		}
	}
}

// TestGridParallelValidatesResume: a done slice of the wrong length is
// a caller bug (a checkpoint for a different grid) and must be refused.
func TestGridParallelValidatesResume(t *testing.T) {
	res := &GridResume{Done: make([]bool, 2)}
	err := gridParallel(context.Background(), 3, 1, res, func(int, func(func())) error { return nil })
	if err == nil {
		t.Fatal("mismatched Done length accepted")
	}
}

// TestGridParallelRealErrorBeatsCancellation: when a row fails, sibling
// rows drained by the induced cancellation must not mask the failure,
// and failed rows must stay un-done.
func TestGridParallelRealErrorBeatsCancellation(t *testing.T) {
	sentinel := errors.New("row failure")
	done := make([]bool, 8)
	res := &GridResume{Done: done}
	err := gridParallel(context.Background(), 8, 4, res, func(i int, _ func(func())) error {
		if i == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the row failure", err)
	}
	if done[3] {
		t.Fatal("failed row marked done")
	}
}

// TestGridParallelSaveRowRace: the Save hook snapshots the caller's
// whole row slice (as adactl's checkpoint does, gob-encoding rows with
// slice fields) while other workers are still publishing rows. Row
// publication must be serialized with Save under the same lock; under
// -race this test fails if a row write escapes the critical section.
func TestGridParallelSaveRowRace(t *testing.T) {
	const n = 64
	rows := make([]struct{ Vals []float64 }, n)
	done := make([]bool, n)
	res := &GridResume{
		Done: done,
		Save: func() error {
			// Read every row, finished or not — exactly what a
			// whole-checkpoint encoder does.
			var sum float64
			for i := range rows {
				for _, v := range rows[i].Vals {
					sum += v
				}
			}
			_ = sum
			return nil
		},
	}
	err := gridParallel(context.Background(), n, 8, res, func(i int, publish func(func())) error {
		row := struct{ Vals []float64 }{Vals: []float64{float64(i), float64(i * i)}}
		publish(func() { rows[i] = row })
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if len(rows[i].Vals) != 2 {
			t.Fatalf("row %d not published", i)
		}
	}
}

// TestGridParallelCompleteDespiteLateCancel: a context that fires only
// after every row has been dispatched and completed must not turn a
// fully successful run into an interruption.
func TestGridParallelCompleteDespiteLateCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	const n = 4
	done := make([]bool, n)
	res := &GridResume{Done: done}
	finished := 0
	var mu sync.Mutex
	err := gridParallel(ctx, n, 1, res, func(i int, _ func(func())) error {
		mu.Lock()
		finished++
		if finished == n {
			cancel() // fires after the last row's work, before return
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatalf("err = %v, want nil for a fully completed grid", err)
	}
	for i, d := range done {
		if !d {
			t.Fatalf("row %d not marked done", i)
		}
	}
}

// TestGridParallelResumeCompleteUnderDeadline: resuming a grid whose
// rows are all already done must succeed even if the context is
// already expired — there is no work left to interrupt.
func TestGridParallelResumeCompleteUnderDeadline(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := []bool{true, true, true}
	res := &GridResume{Done: done}
	err := gridParallel(ctx, 3, 2, res, func(int, func(func())) error {
		t.Error("fn called for a done row")
		return nil
	})
	if err != nil {
		t.Fatalf("err = %v, want nil when every row was already done", err)
	}
}

// TestSweepNsCtxResume mirrors the table test on the sequential sweep
// runner.
func TestSweepNsCtxResume(t *testing.T) {
	factors := []int{1, 2}
	opt := resumeOpts()
	ref, err := SweepNsCtx(context.Background(), factors, opt, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	rows := make([]SweepRow, len(ref))
	done := make([]bool, len(ref))
	rows[0] = ref[0]
	done[0] = true
	saves := 0
	res := &GridResume{Done: done, Save: func() error { saves++; return nil }}
	got, err := SweepNsCtx(context.Background(), factors, opt, rows, res)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("resumed sweep diverges:\n got %+v\nwant %+v", got, ref)
	}
	if saves != 1 {
		t.Fatalf("Save called %d times, want 1", saves)
	}
}
