// Package core implements the paper's contribution: the adaptive
// design of a real-time control task subject to sporadic overruns.
//
// It combines
//
//   - the period-adaptation rule of §IV-A (an overrunning job runs to
//     completion; the next job is released at the first sensor sampling
//     instant after it finishes, with a period reset),
//   - the finite set H of achievable inter-release intervals (Eq. 3),
//   - one controller mode per interval in H (§IV-B), selected by each
//     job from the previous job's actual interval, and
//   - the lifted switched closed-loop matrices Ω(h) of Eq. 8, whose
//     joint spectral radius decides stability (§V).
package core

import (
	"fmt"
	"math"
)

// Timing captures the real-time parameters of the control application:
// the nominal control period T, the sensor oversampling factor Ns
// (sensors sample every Ts = T/Ns), and the response-time range
// [Rmin, Rmax] of the control job.
type Timing struct {
	T    float64 // nominal control period (= relative deadline D)
	Ns   int     // sensor oversampling factor; Ts = T/Ns
	Rmin float64 // best-case response time
	Rmax float64 // worst-case response time (or a safe upper bound)
}

// NewTiming validates the paper's standing assumptions: T > 0, Ns ≥ 1,
// 0 < Rmin ≤ T (the period is never shorter than the fastest job) and
// Rmax ≥ Rmin. Rmax > T is the interesting overrun regime but
// Rmax ≤ T (no overruns possible) is also accepted.
func NewTiming(t float64, ns int, rmin, rmax float64) (Timing, error) {
	tm := Timing{T: t, Ns: ns, Rmin: rmin, Rmax: rmax}
	if t <= 0 {
		return tm, fmt.Errorf("core: non-positive period T = %g", t)
	}
	if ns < 1 {
		return tm, fmt.Errorf("core: oversampling factor Ns = %d, want ≥ 1", ns)
	}
	if rmin <= 0 || rmin > t {
		return tm, fmt.Errorf("core: Rmin = %g must satisfy 0 < Rmin ≤ T = %g", rmin, t)
	}
	if rmax < rmin {
		return tm, fmt.Errorf("core: Rmax = %g < Rmin = %g", rmax, rmin)
	}
	return tm, nil
}

// MustTiming is NewTiming that panics on error.
func MustTiming(t float64, ns int, rmin, rmax float64) Timing {
	tm, err := NewTiming(t, ns, rmin, rmax)
	if err != nil {
		panic(err)
	}
	return tm
}

// Ts returns the sensor sampling period T/Ns.
func (tm Timing) Ts() float64 { return tm.T / float64(tm.Ns) }

// relTol absorbs floating-point noise in interval arithmetic: times are
// compared to the sampling grid with a relative tolerance so that, e.g.,
// R = 1.2·T with Ts = T/5 lands exactly on grid index 6 rather than 7.
const relTol = 1e-9

// ceilGrid returns the smallest integer k with k·ts ≥ x (within
// relative tolerance).
func ceilGrid(x, ts float64) int {
	return int(math.Ceil(x/ts - relTol))
}

// MaxDelaySteps returns the largest i in Eq. 3:
// i_max = ⌈(Rmax - T)/Ts⌉, i.e. the number of extra sensor periods the
// release of the next job can be postponed by.
func (tm Timing) MaxDelaySteps() int {
	if tm.Rmax <= tm.T*(1+relTol) {
		return 0
	}
	return ceilGrid(tm.Rmax-tm.T, tm.Ts())
}

// Intervals returns the set H of Eq. 3 in increasing order:
// H = { T + i·Ts : 0 ≤ i ≤ ⌈(Rmax-T)/Ts⌉ }.
func (tm Timing) Intervals() []float64 {
	n := tm.MaxDelaySteps()
	out := make([]float64, n+1)
	for i := 0; i <= n; i++ {
		out[i] = tm.T + float64(i)*tm.Ts()
	}
	return out
}

// IntervalIndex maps a job response time R to the index i of the
// inter-release interval h = T + i·Ts it produces under the period
// adaptation rule: i = 0 when R ≤ T, otherwise ⌈R/Ts⌉ - Ns.
//
// The index is clamped to MaxDelaySteps. The clamp is SILENT: a
// response time beyond the certified Rmax — an assumption violation
// the stability certificate does not cover — maps to the largest
// certified mode with no indication to the caller. The clamp exists to
// keep Monte-Carlo draws on the grid in the presence of round-off at
// the Rmax boundary; callers that must detect genuine R > Rmax
// excursions (e.g. a runtime monitor) use IntervalIndexChecked.
func (tm Timing) IntervalIndex(r float64) int {
	idx, _ := tm.IntervalIndexChecked(r)
	return idx
}

// IntervalIndexChecked is IntervalIndex with the clamp surfaced:
// violated reports that r lies outside the certified envelope — either
// r maps beyond MaxDelaySteps (R > Rmax beyond grid round-off, so the
// returned index is the clamped largest mode) or r is non-positive
// (no real job responds in r ≤ 0; index 0 is returned). Grid-boundary
// round-off within relTol is absorbed and not a violation.
func (tm Timing) IntervalIndexChecked(r float64) (idx int, violated bool) {
	if r <= tm.T*(1+relTol) {
		return 0, r <= 0
	}
	i := ceilGrid(r, tm.Ts()) - tm.Ns
	if i < 0 {
		i = 0
	}
	if max := tm.MaxDelaySteps(); i > max {
		return max, true
	}
	return i, false
}

// IntervalFor returns the inter-release interval h_k = T + Δ_k produced
// by response time r (Eq. 2). Like IntervalIndex it silently clamps
// r > Rmax to the largest certified interval.
func (tm Timing) IntervalFor(r float64) float64 {
	return tm.T + float64(tm.IntervalIndex(r))*tm.Ts()
}

// NextRelease implements the paper's period-adaptation rule (§IV-A):
// given the release a_k of a job and its finishing time f_k, the next
// job is released at
//
//	a_{k+1} = a_k + T                 if R_k = f_k - a_k ≤ T
//	a_{k+1} = a_k + ⌈R_k/Ts⌉·Ts       otherwise,
//
// the first sensor sampling instant at or after f_k. The signature
// matches sched.ReleaseRule so a Timing can drive the scheduler
// simulator directly.
func (tm Timing) NextRelease(prevRelease, finish float64) float64 {
	return prevRelease + tm.IntervalFor(finish-prevRelease)
}

// IsSkipNext reports whether the configuration degenerates to the
// skip-next strategy of [4], [11], [18]: with Ns = 1 (Ts = T) every
// release lands on a multiple of T and overruns simply skip periods.
func (tm Timing) IsSkipNext() bool { return tm.Ns == 1 }

// Validate checks that a refined deployment with worst-case response
// time rmaxActual is covered by this design: the paper's H̃ ⊆ H
// condition (§V-B), which holds iff ⌈Rmax_actual/Ts⌉ ≤ ⌈Rmax/Ts⌉ …
// i.e. the actual response times never produce an interval outside H.
func (tm Timing) Covers(rmaxActual float64) bool {
	if rmaxActual <= 0 {
		return false
	}
	probe := tm
	probe.Rmax = rmaxActual
	return probe.MaxDelaySteps() <= tm.MaxDelaySteps()
}
