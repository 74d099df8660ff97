package core

import (
	"fmt"

	"adaptivertc/internal/lti"
	"adaptivertc/internal/mat"
)

// Loop executes a Design job by job — the runtime counterpart of the
// while(true) loop in §IV of the paper. Each call to Step advances the
// closed loop across one inter-release interval h_k = T + i·Ts:
//
//  1. the plant evolves over [a_k, a_k + h_k) under the held command,
//  2. at the next release the actuator latches the command computed by
//     the previous job, and
//  3. the newly released job samples the output, selects the controller
//     mode for the interval just experienced (compensating the previous
//     job's overrun), and computes the command for the following
//     release.
//
// The reference is fixed at zero (regulation), matching the stability
// analysis; Loop is also the direct-recursion oracle against which the
// lifted Ω products are property-tested.
type Loop struct {
	d *Design

	x     []float64 // plant state x[k]
	z     []float64 // controller state z[k+1] (already advanced by job k)
	uApp  []float64 // command applied during the current interval, u[k]
	uNext []float64 // command latched at the next release, u[k+1]
	ref   []float64 // reference r (zero for regulation)
	k     int

	// actuator saturation limits; nil = unconstrained
	uLo, uHi []float64

	// fault-injection hooks; nil = nominal operation
	sensorHook   func(job int, y []float64)
	actuatorHook func(job int) bool

	// discretizations computed on demand for off-grid intervals
	// (StepJittered, StepFallback), keyed by the exact float interval
	discCache map[float64]*lti.Discrete

	// scratch buffers keeping the hot path allocation-free
	xTmp  []float64
	zTmp  []float64
	eTmp  []float64
	guTmp []float64
}

// NewLoop initializes the runtime at a_0 with plant state x0, zero
// controller state and zero applied command. Job 0 has no predecessor,
// so it runs the nominal mode (index 0, h = T) — the paper's controller
// "works exactly as a classic control designed for delay T" until the
// first overrun.
func NewLoop(d *Design, x0 []float64) (*Loop, error) {
	n := d.Plant.StateDim()
	if len(x0) != n {
		return nil, fmt.Errorf("core: initial state has %d entries, plant has %d states", len(x0), n)
	}
	l := &Loop{
		d:     d,
		x:     append([]float64(nil), x0...),
		z:     make([]float64, d.Modes[0].Ctrl.StateDim()),
		uApp:  make([]float64, d.Plant.InputDim()),
		uNext: make([]float64, d.Plant.InputDim()),
		ref:   make([]float64, d.Plant.OutputDim()),
		xTmp:  make([]float64, n),
		zTmp:  make([]float64, d.Modes[0].Ctrl.StateDim()),
		eTmp:  make([]float64, d.Plant.OutputDim()),
		guTmp: make([]float64, n),
	}
	// Job 0 computes u[1] with the nominal mode.
	l.compute(0)
	return l, nil
}

// SetReference changes the tracking reference r (the stability analysis
// assumes r = 0; a constant reference shifts the equilibrium without
// affecting stability). The new value takes effect at the next job. It
// panics on a dimension mismatch.
func (l *Loop) SetReference(r []float64) {
	if len(r) != len(l.ref) {
		panic(fmt.Sprintf("core: reference has %d entries, plant has %d outputs", len(r), len(l.ref)))
	}
	copy(l.ref, r)
}

// SetInputLimits enables actuator saturation: every command is clamped
// element-wise to [lo[i], hi[i]] before being latched. The formal
// stability analysis assumes the unconstrained loop; saturation is a
// deployment reality this runtime can exercise (with the conditional
// anti-windup of compute keeping dynamic controllers from winding up).
// Pass equal-length slices; panics on inconsistent dimensions.
func (l *Loop) SetInputLimits(lo, hi []float64) {
	r := len(l.uApp)
	if len(lo) != r || len(hi) != r {
		panic(fmt.Sprintf("core: limits have %d/%d entries, plant has %d inputs", len(lo), len(hi), r))
	}
	for i := range lo {
		if lo[i] >= hi[i] {
			panic(fmt.Sprintf("core: empty saturation interval [%g, %g]", lo[i], hi[i]))
		}
	}
	l.uLo = append([]float64(nil), lo...)
	l.uHi = append([]float64(nil), hi...)
	// The command pending from the previous job (or from NewLoop's job
	// 0) was computed before the limits existed: clamp it too.
	for i, v := range l.uNext {
		if v < l.uLo[i] {
			l.uNext[i] = l.uLo[i]
		} else if v > l.uHi[i] {
			l.uNext[i] = l.uHi[i]
		}
	}
}

// SetSensorHook installs a measurement-fault hook: f is called with the
// job index and the freshly sampled output y (mutable, in place) before
// the error e = r - y is formed, letting fault injectors substitute
// dropped, stuck or noisy samples. Job 0's sample is taken inside
// NewLoop, so a hook installed afterwards first fires at job 1. Pass
// nil to restore nominal sensing.
func (l *Loop) SetSensorHook(f func(job int, y []float64)) { l.sensorHook = f }

// SetActuatorHook installs an actuator-fault hook: at each release, f
// reports whether the actuator fails to latch the pending command. On a
// hold fault the previously applied command stays on the plant and the
// pending command is lost — the physical failure mode of a zero-order
// hold that misses its update. Pass nil to restore nominal actuation.
func (l *Loop) SetActuatorHook(f func(job int) bool) { l.actuatorHook = f }

// compute runs the control job that selects mode index idx: it samples
// e = r - Cx and produces the next command and controller state. With
// saturation limits set, the command is clamped and — conditional
// anti-windup — the controller state update is skipped whenever the
// command saturates, freezing integrators instead of winding them up.
func (l *Loop) compute(idx int) {
	m := l.d.Modes[idx]
	mat.MulVecInto(l.eTmp, m.Disc.C, l.x)
	if l.sensorHook != nil {
		l.sensorHook(l.k, l.eTmp)
	}
	for i, v := range l.eTmp {
		l.eTmp[i] = l.ref[i] - v
	}
	m.Ctrl.StepInto(l.zTmp, l.uNext, l.z, l.eTmp)
	saturated := false
	if l.uLo != nil {
		for i, v := range l.uNext {
			if v < l.uLo[i] {
				l.uNext[i] = l.uLo[i]
				saturated = true
			} else if v > l.uHi[i] {
				l.uNext[i] = l.uHi[i]
				saturated = true
			}
		}
	}
	if !saturated {
		l.z, l.zTmp = l.zTmp, l.z
	}
}

// advance evolves the plant over [a_k, a_k + h_k) with discretization
// disc under the held command, then performs the release a_{k+1}: the
// job counter increments and the actuator latches the pending command —
// unless an actuator hook reports a hold fault, in which case the old
// command stays on the plant and the pending one is lost
// (double-buffered so compute can overwrite the retired buffer).
func (l *Loop) advance(disc *lti.Discrete) {
	mat.MulVecInto(l.xTmp, disc.Phi, l.x)
	mat.MulVecInto(l.guTmp, disc.Gamma, l.uApp)
	for i := range l.xTmp {
		l.xTmp[i] += l.guTmp[i]
	}
	l.x, l.xTmp = l.xTmp, l.x
	l.k++
	if l.actuatorHook == nil || !l.actuatorHook(l.k) {
		l.uApp, l.uNext = l.uNext, l.uApp
	}
}

// TryStep advances the loop across one interval given the index of
// h_k in H (0 = nominal period, i = i extra sensor periods), returning
// an error on an out-of-range index. Library callers that assemble
// indices dynamically (runtime monitors, fault injectors) use this;
// Step is the panicking wrapper for call sites that draw indices from
// the design's own interval set.
func (l *Loop) TryStep(idx int) error {
	if idx < 0 || idx >= len(l.d.Modes) {
		return fmt.Errorf("core: interval index %d out of range [0,%d)", idx, len(l.d.Modes))
	}
	l.advance(l.d.Modes[idx].Disc)
	l.compute(idx)
	return nil
}

// Step is TryStep that panics on an out-of-range index.
func (l *Loop) Step(idx int) {
	if err := l.TryStep(idx); err != nil {
		panic(err)
	}
}

// StepResponse advances the loop given the response time of the job
// whose interval is being closed, mapping it onto the grid. Like
// IntervalIndex it silently clamps r > Rmax to the largest certified
// mode; StepResponseChecked surfaces the clamp.
func (l *Loop) StepResponse(r float64) {
	l.Step(l.d.Timing.IntervalIndex(r))
}

// StepResponseChecked is StepResponse with the assumption check
// surfaced: violated reports that r escaped the certified envelope
// (R > Rmax beyond grid round-off, or r ≤ 0) and the step was clamped
// onto the certified grid.
func (l *Loop) StepResponseChecked(r float64) (violated bool) {
	idx, violated := l.d.Timing.IntervalIndexChecked(r)
	l.Step(idx)
	return violated
}

// discretizeCached returns the plant discretization for an off-grid
// interval, memoized on the exact float64 value: jitter sweeps and the
// guard's excursion handling revisit a small set of intervals, so the
// cache turns a per-step matrix exponential into a map lookup.
func (l *Loop) discretizeCached(h float64) (*lti.Discrete, error) {
	if d, ok := l.discCache[h]; ok {
		return d, nil
	}
	d, err := l.d.Plant.Discretize(h)
	if err != nil {
		return nil, err
	}
	if l.discCache == nil {
		l.discCache = make(map[float64]*lti.Discrete)
	}
	l.discCache[h] = d
	return d, nil
}

// StepJittered advances the loop across an interval whose true duration
// deviates from the grid: the plant evolves for actualH seconds while
// the controller believes interval index idx elapsed (the paper's
// negligible-jitter assumption, violated by actualH - H(idx)). Used to
// quantify how much sensor/release jitter the design tolerates, and by
// the runtime guard to evolve the plant faithfully through R > Rmax
// excursions. Discretizations are cached per distinct actualH.
func (l *Loop) StepJittered(idx int, actualH float64) error {
	if idx < 0 || idx >= len(l.d.Modes) {
		return fmt.Errorf("core: interval index %d out of range [0,%d)", idx, len(l.d.Modes))
	}
	if actualH <= 0 {
		return fmt.Errorf("core: non-positive actual interval %g", actualH)
	}
	disc, err := l.discretizeCached(actualH)
	if err != nil {
		return err
	}
	l.advance(disc)
	l.compute(idx)
	return nil
}

// StepFallback advances the plant across an interval of actualH seconds
// under the safe-mode actuator policy instead of running a control job:
// with hold the currently applied command stays latched, otherwise the
// input is zeroed. The controller state and the pending command are
// cleared so a later return to closed-loop operation restarts from
// rest. This is the runtime of the degradation ladder's SafeMode tier;
// its lifted dynamics are certified by guard.CertifyLadderCtx.
func (l *Loop) StepFallback(actualH float64, hold bool) error {
	if actualH <= 0 {
		return fmt.Errorf("core: non-positive fallback interval %g", actualH)
	}
	disc, err := l.discretizeCached(actualH)
	if err != nil {
		return err
	}
	if !hold {
		for i := range l.uApp {
			l.uApp[i] = 0
		}
	}
	mat.MulVecInto(l.xTmp, disc.Phi, l.x)
	mat.MulVecInto(l.guTmp, disc.Gamma, l.uApp)
	for i := range l.xTmp {
		l.xTmp[i] += l.guTmp[i]
	}
	l.x, l.xTmp = l.xTmp, l.x
	l.k++
	for i := range l.uNext {
		l.uNext[i] = 0
	}
	for i := range l.z {
		l.z[i] = 0
	}
	return nil
}

// State returns a copy of the current plant state.
func (l *Loop) State() []float64 { return append([]float64(nil), l.x...) }

// Output returns y = Cx.
func (l *Loop) Output() []float64 { return l.d.Plant.Output(l.x) }

// Applied returns a copy of the command currently held at the actuator.
func (l *Loop) Applied() []float64 { return append([]float64(nil), l.uApp...) }

// Jobs returns the number of completed Step calls.
func (l *Loop) Jobs() int { return l.k }

// Lifted returns the current lifted state ξ(k) = [x; z~; u~; u],
// aligned with the Ω(h) matrices of the stability analysis.
func (l *Loop) Lifted() []float64 {
	out := make([]float64, 0, l.d.LiftedDim())
	out = append(out, l.x...)
	out = append(out, l.z...)
	out = append(out, l.uNext...)
	out = append(out, l.uApp...)
	return out
}
