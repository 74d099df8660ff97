// Per-tier stability certification: every rung of the degradation
// ladder is a switched linear system in the same lifted coordinates
// ξ = [x; z~; u~; u] as the paper's Eq. 8, so the same JSR machinery
// that certifies the nominal design certifies the degraded regimes.
package guard

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"adaptivertc/internal/core"
	"adaptivertc/internal/jsr"
	"adaptivertc/internal/lti"
	"adaptivertc/internal/mat"
)

// CertifyOptions configures the ladder certification.
type CertifyOptions struct {
	// BruteLen is the brute-force JSR product depth (as in
	// Design.StabilityBoundsCtx).
	BruteLen int
	// Grip configures the Gripenberg refinement.
	Grip jsr.GripenbergOptions
	// ExtraSteps is the excursion coverage of the degraded tiers: how
	// many sensor periods beyond the certified MaxDelaySteps the Clamp
	// and SafeMode matrix sets include (default 2). Excursions that
	// postpone the release further than this leave even the degraded
	// certificate.
	ExtraSteps int
	// Fallback selects the SafeMode actuator policy to certify.
	Fallback Fallback
}

func (o CertifyOptions) withDefaults() CertifyOptions {
	if o.ExtraSteps <= 0 {
		o.ExtraSteps = 2
	}
	if o.BruteLen <= 0 {
		o.BruteLen = 4
	}
	return o
}

// TierCert is one rung's certificate.
type TierCert struct {
	Tier      Tier
	Bounds    jsr.Bounds
	BudgetHit bool // bracket valid but looser than requested
	Matrices  int  // size of the certified switched set
}

// Stable reports that the tier's switched dynamics are proven
// asymptotically stable under arbitrary admissible switching.
func (tc TierCert) Stable() bool { return tc.Bounds.CertifiesStable() }

// LadderCert certifies the whole degradation ladder.
type LadderCert struct {
	Certs      [NumTiers]TierCert
	ExtraSteps int
	Fallback   Fallback
}

// AllStable reports that every rung carries a strict certificate.
func (lc LadderCert) AllStable() bool {
	for _, tc := range lc.Certs {
		if !tc.Stable() {
			return false
		}
	}
	return true
}

// Cert returns the certificate of one tier.
func (lc LadderCert) Cert(t Tier) TierCert { return lc.Certs[t] }

// Report renders the ladder certification for humans.
func (lc LadderCert) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "degradation-ladder certification (excursion coverage: +%d sensor periods, fallback: %s)\n",
		lc.ExtraSteps, lc.Fallback)
	for _, tc := range lc.Certs {
		verdict := "NOT certified"
		if tc.Stable() {
			verdict = "certified stable"
		}
		fmt.Fprintf(&b, "  %-8s  %d matrices, JSR bracket %s — %s", tc.Tier, tc.Matrices, tc.Bounds, verdict)
		if tc.BudgetHit {
			b.WriteString(" (bracket looser than requested)")
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// excursionIntervals returns the off-certificate intervals
// h = T + (imax+e)·Ts, e = 1..extra, that the degraded tiers cover.
func excursionIntervals(d *core.Design, extra int) []float64 {
	tm := d.Timing
	base := tm.MaxDelaySteps()
	out := make([]float64, extra)
	for e := 1; e <= extra; e++ {
		out[e-1] = tm.T + float64(base+e)*tm.Ts()
	}
	return out
}

// fallbackOmega builds the lifted one-step matrix of the SafeMode
// fallback over one interval, in the same coordinates as core.Omega so
// tier sets are directly comparable:
//
//	zero: x⁺ = Φ(h) x, everything else cleared — open-loop decay.
//	hold: x⁺ = Φ(h) x + Γ(h) u, u⁺ = u — the held command is an exact
//	      eigenvalue 1, so a hold fallback is at best marginal.
func fallbackOmega(disc *lti.Discrete, stateDim int, hold bool) *mat.Dense {
	n := disc.Phi.Rows()
	r := disc.Gamma.Cols()
	s := stateDim
	dim := n + s + 2*r
	out := mat.New(dim, dim)
	out.SetBlock(0, 0, disc.Phi)
	if hold {
		out.SetBlock(0, dim-r, disc.Gamma)
		out.SetBlock(dim-r, dim-r, mat.Eye(r))
	}
	return out
}

// TierMatrixSet assembles the switched matrix set whose JSR decides the
// asymptotic stability of one tier:
//
//   - Nominal: the design's Ω(h) family (Eq. 8) — the paper's set.
//   - Clamp: the Ω family extended with excursion matrices: plant
//     discretized over each off-certificate interval, controller
//     clamped to the largest certified mode — exactly what the monitor
//     executes during an R > Rmax job.
//   - SafeMode: the lifted fallback dynamics over every interval the
//     degraded loop can experience (H plus the excursion intervals).
func TierMatrixSet(d *core.Design, t Tier, opt CertifyOptions) ([]*mat.Dense, error) {
	opt = opt.withDefaults()
	ext := excursionIntervals(d, opt.ExtraSteps)
	switch t {
	case Nominal:
		return d.OmegaSet(), nil
	case Clamp:
		set := d.OmegaSet()
		last := d.ModeByIndex(d.NumModes() - 1)
		for _, h := range ext {
			disc, err := d.Plant.Discretize(h)
			if err != nil {
				return nil, fmt.Errorf("guard: discretizing excursion interval %g: %w", h, err)
			}
			set = append(set, core.Omega(disc, last.Ctrl))
		}
		return set, nil
	case SafeMode:
		s := d.ModeByIndex(0).Ctrl.StateDim()
		hold := opt.Fallback == FallbackHold
		var set []*mat.Dense
		for _, m := range d.Modes {
			set = append(set, fallbackOmega(m.Disc, s, hold))
		}
		for _, h := range ext {
			disc, err := d.Plant.Discretize(h)
			if err != nil {
				return nil, fmt.Errorf("guard: discretizing excursion interval %g: %w", h, err)
			}
			set = append(set, fallbackOmega(disc, s, hold))
		}
		return set, nil
	}
	return nil, fmt.Errorf("guard: unknown tier %d", int(t))
}

// CertifyLadderCtx brackets the JSR of every tier's switched set. A
// jsr.ErrBudget from the estimator is absorbed into the tier's
// BudgetHit flag (the bracket stays valid, just looser); any other
// error aborts. The context bounds each tier's JSR search — on expiry
// the error wraps jsr.ErrDeadline and no ladder certificate is issued,
// since a partially-certified ladder must not be mistaken for a
// certified one.
func CertifyLadderCtx(ctx context.Context, d *core.Design, opt CertifyOptions) (LadderCert, error) {
	opt = opt.withDefaults()
	lc := LadderCert{ExtraSteps: opt.ExtraSteps, Fallback: opt.Fallback}
	for t := Nominal; t < NumTiers; t++ {
		set, err := TierMatrixSet(d, t, opt)
		if err != nil {
			return LadderCert{}, err
		}
		bounds, err := jsr.EstimateCtx(ctx, set, opt.BruteLen, opt.Grip)
		if err != nil && !errors.Is(err, jsr.ErrBudget) {
			return LadderCert{}, fmt.Errorf("guard: certifying tier %s: %w", t, err)
		}
		lc.Certs[t] = TierCert{
			Tier:      t,
			Bounds:    bounds,
			BudgetHit: errors.Is(err, jsr.ErrBudget),
			Matrices:  len(set),
		}
	}
	return lc, nil
}
