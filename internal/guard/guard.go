// Package guard implements certified graceful degradation for the
// adaptive runtime: a monitor that checks every job against the
// deployment contract the stability certificate rests on — observed
// response times within the certified Rmax, the weakly-hard (m, K)
// overrun budget, boundedness of the lifted state — and escalates
// through a degradation ladder when the contract is violated:
//
//	Nominal  → the paper's adaptive loop, certified by the Ω(h) JSR.
//	Clamp    → an R > Rmax excursion was observed: the controller runs
//	           the largest certified mode while the plant evolves the
//	           true (off-certificate) interval; the violation is
//	           recorded instead of silently clamped.
//	SafeMode → the overrun budget is exhausted or the lifted state
//	           crossed the divergence threshold: the control job is
//	           abandoned for a fallback actuator policy (zero or held
//	           input) until the contract holds again.
//
// Recovery is hysteresis-based: RecoverAfter consecutive clean jobs
// step the ladder down one tier at a time, so a single good job inside
// a fault burst cannot bounce the system back into a regime it is about
// to violate again. Each tier's switched closed-loop matrix set is
// certified up front by CertifyLadderCtx, so even the degraded loop
// carries its own JSR stability certificate.
package guard

import (
	"fmt"
	"math"

	"adaptivertc/internal/core"
	"adaptivertc/internal/sched"
)

// Tier is a rung of the degradation ladder, ordered by severity.
type Tier int

const (
	// Nominal runs the certified adaptive loop unmodified.
	Nominal Tier = iota
	// Clamp runs the largest certified mode through excursions,
	// recording contract violations.
	Clamp
	// SafeMode abandons the control job for the fallback actuator
	// policy.
	SafeMode

	// NumTiers is the ladder length.
	NumTiers = 3
)

// String renders the tier name.
func (t Tier) String() string {
	switch t {
	case Nominal:
		return "Nominal"
	case Clamp:
		return "Clamp"
	case SafeMode:
		return "SafeMode"
	}
	return fmt.Sprintf("Tier(%d)", int(t))
}

// Fallback selects SafeMode's actuator policy.
type Fallback int

const (
	// FallbackZero applies u = 0. For an open-loop stable plant the
	// safe-mode tier then carries a strict JSR certificate.
	FallbackZero Fallback = iota
	// FallbackHold keeps the last command latched. The held input makes
	// the lifted safe-mode dynamics marginal (an exact eigenvalue 1),
	// so this policy can be bounded but never strictly certified to the
	// origin — CertifyLadderCtx reports that honestly.
	FallbackHold
)

// String renders the fallback policy name.
func (f Fallback) String() string {
	if f == FallbackHold {
		return "hold"
	}
	return "zero"
}

// Contract is the deployment contract the monitor enforces at runtime.
// The response-time envelope itself (R ≤ Rmax) comes from the design's
// Timing and needs no field here.
type Contract struct {
	// M, K is the weakly-hard overrun budget: at most M overruns
	// (R > T) in any K consecutive jobs, checked each job on the
	// trailing window via the sched package. K ≥ 1; M < K for the
	// budget to ever bind.
	M, K int
	// DivergeLimit forces SafeMode when the ∞-norm of the lifted state
	// exceeds it (0 disables the check).
	DivergeLimit float64
	// RecoverAfter is the hysteresis: consecutive clean jobs required
	// before de-escalating one tier (default 5).
	RecoverAfter int
	// Fallback is SafeMode's actuator policy.
	Fallback Fallback
}

// withDefaults fills unset tunables.
func (c Contract) withDefaults() Contract {
	if c.RecoverAfter <= 0 {
		c.RecoverAfter = 5
	}
	return c
}

// Validate checks the contract parameters.
func (c Contract) Validate() error {
	if c.K < 1 || c.M < 0 {
		return fmt.Errorf("guard: invalid weakly-hard budget (M=%d, K=%d)", c.M, c.K)
	}
	if c.DivergeLimit < 0 {
		return fmt.Errorf("guard: negative divergence limit %g", c.DivergeLimit)
	}
	return nil
}

// Event records one ladder transition.
type Event struct {
	Job      int // job index at which the transition happened
	From, To Tier
	Reason   string
}

// Metrics is the guard's degradation accounting. All fields are plain
// sums, so metrics from independent sequences merge associatively —
// the fault-injected Monte-Carlo stays worker-count invariant.
type Metrics struct {
	Jobs            int
	Violations      int // R > Rmax excursions (or r ≤ 0) observed
	BudgetBreaches  int // jobs on which the (M, K) budget was exhausted
	Divergences     int // jobs on which the lifted state crossed DivergeLimit
	Escalations     int // upward ladder transitions
	SafeModeEntries int
	Recoveries      int // completed returns to Nominal
	RecoveryJobs    int // degraded jobs summed over completed recoveries
	JobsInTier      [NumTiers]int
}

// Add accumulates other into m.
func (m *Metrics) Add(other Metrics) {
	m.Jobs += other.Jobs
	m.Violations += other.Violations
	m.BudgetBreaches += other.BudgetBreaches
	m.Divergences += other.Divergences
	m.Escalations += other.Escalations
	m.SafeModeEntries += other.SafeModeEntries
	m.Recoveries += other.Recoveries
	m.RecoveryJobs += other.RecoveryJobs
	for i := range m.JobsInTier {
		m.JobsInTier[i] += other.JobsInTier[i]
	}
}

// MeanRecoveryJobs returns the average number of degraded jobs per
// completed recovery (NaN when none completed).
func (m Metrics) MeanRecoveryJobs() float64 {
	if m.Recoveries == 0 {
		return math.NaN()
	}
	return float64(m.RecoveryJobs) / float64(m.Recoveries)
}

// Monitor wraps a core.Loop with the runtime assumption guard. It owns
// the loop: drive it exclusively through Step/StepJittered.
type Monitor struct {
	d    *core.Design
	loop *core.Loop
	c    Contract

	tier          Tier
	window        []float64 // trailing response times, oldest first
	clean         int       // consecutive jobs without a violation signal
	degradedSince int       // job index of the last Nominal departure (-1 when nominal)
	maxIdx        int       // largest certified mode index

	metrics Metrics
	events  []Event
}

// New builds a monitor around a fresh loop at initial plant state x0.
func New(d *core.Design, x0 []float64, c Contract) (*Monitor, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	loop, err := core.NewLoop(d, x0)
	if err != nil {
		return nil, err
	}
	return &Monitor{
		d:             d,
		loop:          loop,
		c:             c.withDefaults(),
		window:        make([]float64, 0, c.K),
		degradedSince: -1,
		maxIdx:        d.NumModes() - 1,
	}, nil
}

// Loop exposes the wrapped loop for state inspection and fault-hook
// installation. Stepping it directly bypasses the guard.
func (m *Monitor) Loop() *core.Loop { return m.loop }

// Tier returns the current ladder rung.
func (m *Monitor) Tier() Tier { return m.tier }

// Metrics returns the accumulated degradation accounting.
func (m *Monitor) Metrics() Metrics { return m.metrics }

// Events returns the recorded ladder transitions.
func (m *Monitor) Events() []Event { return m.events }

// Step checks response time r against the contract, updates the ladder
// and advances the loop one interval at the resulting tier.
func (m *Monitor) Step(r float64) (Tier, error) { return m.StepJittered(r, 0) }

// StepJittered is Step with an additive release-jitter perturbation (in
// seconds) on the interval the plant physically evolves — the guard
// counterpart of Loop.StepJittered.
func (m *Monitor) StepJittered(r, jitter float64) (Tier, error) {
	tm := m.d.Timing
	idx, violated := tm.IntervalIndexChecked(r)
	if violated {
		m.metrics.Violations++
	}

	// Weakly-hard budget over the trailing K-job window, delegated to
	// the sched package's reference implementation.
	if len(m.window) == m.c.K {
		copy(m.window, m.window[1:])
		m.window = m.window[:m.c.K-1]
	}
	m.window = append(m.window, r)
	budgetOK, err := sched.SatisfiesWeaklyHard(m.window, tm.T, m.c.M, m.c.K)
	if err != nil {
		return m.tier, err
	}
	if !budgetOK {
		m.metrics.BudgetBreaches++
	}

	// Lifted-state divergence.
	diverged := false
	if m.c.DivergeLimit > 0 {
		for _, v := range m.loop.Lifted() {
			if math.IsNaN(v) || math.Abs(v) > m.c.DivergeLimit {
				diverged = true
				break
			}
		}
		if diverged {
			m.metrics.Divergences++
		}
	}

	m.updateTier(violated, !budgetOK, diverged)

	// Execute the job at the (possibly new) tier. The plant always
	// evolves the physically true interval: the sensor-grid instant the
	// adaptation rule produces for r — beyond the certified grid during
	// an excursion — plus release jitter.
	trueH := tm.GridInterval(r) + jitter
	if trueH <= 0 {
		return m.tier, fmt.Errorf("guard: jitter %g pushes interval %g below zero", jitter, tm.GridInterval(r))
	}
	offGrid := violated || math.Abs(jitter) > 0
	switch m.tier {
	case SafeMode:
		err = m.loop.StepFallback(trueH, m.c.Fallback == FallbackHold)
	default:
		// Nominal and Clamp run the certified mode table; during an
		// excursion idx is already clamped to the largest certified
		// mode and the plant evolves the true interval.
		if offGrid {
			err = m.loop.StepJittered(idx, trueH)
		} else {
			err = m.loop.TryStep(idx)
		}
	}
	if err != nil {
		return m.tier, err
	}
	m.metrics.JobsInTier[m.tier]++
	m.metrics.Jobs++
	return m.tier, nil
}

// updateTier applies the escalation and hysteresis rules for one job.
func (m *Monitor) updateTier(violated, budgetBreach, diverged bool) {
	target := m.tier
	reason := ""
	if violated && target < Clamp {
		target = Clamp
		reason = "R > Rmax excursion"
	}
	if (budgetBreach || diverged) && target < SafeMode {
		target = SafeMode
		switch {
		case budgetBreach && diverged:
			reason = "overrun budget exhausted and state divergence"
		case budgetBreach:
			reason = "weakly-hard overrun budget exhausted"
		default:
			reason = "lifted state crossed divergence limit"
		}
	}
	switch {
	case target > m.tier:
		m.events = append(m.events, Event{Job: m.metrics.Jobs, From: m.tier, To: target, Reason: reason})
		m.metrics.Escalations++
		if target == SafeMode {
			m.metrics.SafeModeEntries++
		}
		if m.tier == Nominal {
			m.degradedSince = m.metrics.Jobs
		}
		m.tier = target
		m.clean = 0
	case violated || budgetBreach || diverged:
		m.clean = 0
	default:
		m.clean++
		if m.tier > Nominal && m.clean >= m.c.RecoverAfter {
			m.events = append(m.events, Event{
				Job: m.metrics.Jobs, From: m.tier, To: m.tier - 1,
				Reason: fmt.Sprintf("%d clean jobs", m.clean),
			})
			m.tier--
			m.clean = 0
			if m.tier == Nominal {
				m.metrics.Recoveries++
				m.metrics.RecoveryJobs += m.metrics.Jobs - m.degradedSince
				m.degradedSince = -1
			}
		}
	}
}
