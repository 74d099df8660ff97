package jsr

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// This file holds the worker-pool machinery shared by the parallel JSR
// estimators. The engine-wide contract (mirroring the sim package's
// worker-invariance guarantee) is that every exported bound is
// bit-identical for every worker count:
//
//   - work is split by *index*, never by arrival order: each level (or
//     chunk) is a deterministically ordered array, workers own disjoint
//     contiguous index ranges and write only into their own slots;
//   - all floating-point reductions are pure max/min folds (no sums),
//     which are exact and order-free once ties are broken by the lowest
//     index — the same "first strictly greater wins" rule the original
//     sequential scans used;
//   - errors are reported from the lowest-indexed failing range, so
//     even failure modes do not depend on scheduling. Cancellation
//     errors induced by another range's failure never mask that
//     failure.
//
// Resilience additions: every worker polls its context so deadlines and
// cancellation cut a level promptly, and a panicking worker is isolated
// — the panic is converted into a *PanicError (carrying the offending
// product word when the expansion site knows it), the sibling workers
// are drained via an internal cancel, and the caller sees an ordinary
// error instead of a dead process.

// PanicError is a worker panic converted into an error: one poisoned
// matrix product must not kill a long-running certification job. Word,
// when non-empty, is the product word whose expansion panicked.
type PanicError struct {
	Value any    // the recovered panic value
	Word  []int  // offending product word, when the expansion site knows it
	Stack []byte // stack of the panicking goroutine
}

func (e *PanicError) Error() string {
	if len(e.Word) > 0 {
		return fmt.Sprintf("jsr: worker panic expanding word %v: %v", e.Word, e.Value)
	}
	return fmt.Sprintf("jsr: worker panic: %v", e.Value)
}

// expandGuard runs one node expansion, converting a panic into a
// *PanicError carrying the node's product word. Already-converted
// panics pass through unchanged.
func expandGuard(word []int, expand func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if pe, ok := r.(*PanicError); ok {
				err = pe
				return
			}
			err = &PanicError{Value: r, Word: append([]int(nil), word...), Stack: debug.Stack()}
		}
	}()
	return expand()
}

// isCtxErr reports whether err is a context cancellation or deadline
// (including wrapped forms).
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// resolveWorkers maps the Workers option (≤ 0 means "use the default")
// to an actual worker count.
func resolveWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// runSlot invokes fn on one chunk with a panic backstop: expansion
// sites wrap per-node work in expandGuard (or an equivalent inline
// recover) to attach the word, and this outer recover catches anything
// that escapes between nodes.
func runSlot(ctx context.Context, slot, lo, hi int, fn func(ctx context.Context, slot, lo, hi int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if pe, ok := r.(*PanicError); ok {
				err = pe
				return
			}
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(ctx, slot, lo, hi)
}

// parallelSlots splits the index range [0, n) into at most `workers`
// contiguous chunks and runs fn on each concurrently. fn(ctx, slot, lo,
// hi) must touch only state owned by indexes in [lo, hi) — plus any
// per-worker scratch keyed by slot, which is in [0, workers) and unique
// per concurrent invocation — and should poll ctx between nodes. When
// any chunk fails (error or panic) the shared context is cancelled so
// the remaining workers drain at their next poll instead of finishing
// the level. The returned error is the one from the lowest-indexed
// chunk that failed for a non-cancellation reason; pure cancellation
// (deadline or caller cancel) is returned only when no chunk failed on
// its own.
func parallelSlots(ctx context.Context, n, workers int, fn func(ctx context.Context, slot, lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return runSlot(ctx, 0, 0, n, fn)
	}
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	chunk := (n + workers - 1) / workers
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= n {
			break
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			errs[w] = runSlot(wctx, w, lo, hi, fn)
			if errs[w] != nil {
				cancel()
			}
		}(w, lo, hi)
	}
	wg.Wait()
	var ctxErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if isCtxErr(err) {
			if ctxErr == nil {
				ctxErr = err
			}
			continue
		}
		return err
	}
	return ctxErr
}
