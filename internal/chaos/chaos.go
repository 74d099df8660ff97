// Package chaos is the service-layer fault harness for adaserved: a
// set of seed-deterministic injectors that break the service's
// environment — the cache's disk and the certification workers — while
// end-to-end tests assert the invariants the service promises to keep
// anyway:
//
//   - no dropped work: every request from a client that honours the
//     shed contract (sleep for Retry-After on 429/503, follow a 202 to
//     its job, resubmit a failed job) eventually certifies, through
//     sheds, worker faults, and degraded-cache operation;
//   - no false certificates: every answer is byte-identical to the
//     canonical result a fault-free run produces — faults may slow the
//     service down, never change its mathematics;
//   - bounded queue: the job queue never exceeds its capacity; excess
//     load is shed with honest Retry-After, not buffered without bound;
//   - clean recovery: when the fault window closes, the cache
//     re-promotes its disk layer and /healthz returns to "ok".
//
// The injectors mirror the repo's simulation-level fault philosophy
// (internal/faults): all randomness is drawn from explicitly seeded
// RNGs, so a failing chaos run reproduces from its seed.
package chaos

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"
)

// ErrInjectedWorker is the error a worker-fault hook returns; it fails
// the certification exactly like an engine error (never cached, job
// marked failed), which is the transient failure a client must
// resubmit through.
var ErrInjectedWorker = errors.New("chaos: injected worker fault")

// WorkerFaults injects slow and failing certification workers through
// server.Config.FaultHook. Faults fire only while the window is open
// (Open/Close), each draw comes from the seeded RNG under a mutex, and
// every injection is counted. With concurrent workers the interleaving
// of draws is scheduling-dependent, but the fault mix converges to the
// configured probabilities for any seed — the invariants the harness
// checks hold for every interleaving.
type WorkerFaults struct {
	mu       sync.Mutex
	rng      *rand.Rand
	failProb float64
	slowProb float64
	delay    time.Duration
	active   bool
	injected int64
	slowed   int64
}

// NewWorkerFaults builds an injector drawing from seed. Configure sets
// the mix; the window starts closed.
func NewWorkerFaults(seed int64) *WorkerFaults {
	return &WorkerFaults{rng: rand.New(rand.NewSource(seed))}
}

// Configure sets the per-certification fault mix: failProb aborts the
// computation with ErrInjectedWorker, slowProb (drawn when not
// failing) stalls it for delay before proceeding.
func (w *WorkerFaults) Configure(failProb, slowProb float64, delay time.Duration) {
	w.mu.Lock()
	w.failProb, w.slowProb, w.delay = failProb, slowProb, delay
	w.mu.Unlock()
}

// Open starts the fault window.
func (w *WorkerFaults) Open() {
	w.mu.Lock()
	w.active = true
	w.mu.Unlock()
}

// Close ends the fault window: subsequent certifications run clean.
func (w *WorkerFaults) Close() {
	w.mu.Lock()
	w.active = false
	w.mu.Unlock()
}

// Injected reports how many certifications were failed and stalled.
func (w *WorkerFaults) Injected() (failed, slowed int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.injected, w.slowed
}

// Hook returns the function to install as server.Config.FaultHook.
func (w *WorkerFaults) Hook() func(ctx context.Context) error {
	return func(ctx context.Context) error {
		w.mu.Lock()
		if !w.active {
			w.mu.Unlock()
			return nil
		}
		u := w.rng.Float64()
		fail := u < w.failProb
		slow := !fail && u < w.failProb+w.slowProb
		delay := w.delay
		if fail {
			w.injected++
		}
		if slow {
			w.slowed++
		}
		w.mu.Unlock()
		if fail {
			return ErrInjectedWorker
		}
		if slow && delay > 0 {
			t := time.NewTimer(delay)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-t.C:
			}
		}
		return nil
	}
}
