package core

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"adaptivertc/internal/jsr"
)

// Certificate is the deployable output of the stability analysis: the
// JSR bracket of the switched closed loop, the worst switching pattern
// the analysis discovered, and the timing envelope the certificate is
// valid for. Per §V-B, the certificate survives platform changes as
// long as the deployed worst-case response time keeps every achievable
// interval inside H — checked by CoversDeployment without re-running
// the analysis.
type Certificate struct {
	Timing    Timing
	Bounds    jsr.Bounds
	BudgetHit bool // bracket valid but looser than requested

	// WorstPattern is the sequence of inter-release intervals whose
	// periodic repetition attains the lower bound — the most
	// destabilizing overrun pattern known for this design.
	WorstPattern []float64
}

// CertifyCtx runs the stability analysis and packages the result. The
// context bounds the underlying JSR search: on expiry the error wraps
// jsr.ErrDeadline and no certificate is issued (a certificate must
// never encode a bracket the analysis was cut away from tightening).
func (d *Design) CertifyCtx(ctx context.Context, bruteLen int, opt jsr.GripenbergOptions) (Certificate, error) {
	bounds, err := d.StabilityBoundsCtx(ctx, bruteLen, opt)
	if err != nil && !errors.Is(err, jsr.ErrBudget) {
		return Certificate{}, err
	}
	cert := Certificate{
		Timing:    d.Timing,
		Bounds:    bounds,
		BudgetHit: errors.Is(err, jsr.ErrBudget),
	}
	hs := d.Timing.Intervals()
	for _, idx := range bounds.WitnessWord {
		if idx >= 0 && idx < len(hs) {
			cert.WorstPattern = append(cert.WorstPattern, hs[idx])
		}
	}
	return cert, nil
}

// Stable reports that asymptotic stability under arbitrary admissible
// overrun patterns is proven.
func (c Certificate) Stable() bool { return c.Bounds.CertifiesStable() }

// Unstable reports that a destabilizing pattern is proven to exist.
func (c Certificate) Unstable() bool { return c.Bounds.CertifiesUnstable() }

// Undecided reports that 1 lies inside the bracket.
func (c Certificate) Undecided() bool { return !c.Stable() && !c.Unstable() }

// CoversDeployment reports whether the certificate applies to a
// deployment whose measured/analyzed worst-case response time is
// rmaxActual: the achievable interval set H̃ must be a subset of the
// certified H (§V-B), and the certificate must actually certify
// stability.
func (c Certificate) CoversDeployment(rmaxActual float64) bool {
	return c.Stable() && c.Timing.Covers(rmaxActual)
}

// Report renders the certificate for humans.
func (c Certificate) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "stability certificate (T = %g, Ts = T/%d, Rmax = %g)\n", c.Timing.T, c.Timing.Ns, c.Timing.Rmax)
	fmt.Fprintf(&b, "  intervals H: %v\n", c.Timing.Intervals())
	fmt.Fprintf(&b, "  JSR bracket: %s", c.Bounds)
	if c.BudgetHit {
		b.WriteString(" (looser than requested)")
	}
	b.WriteString("\n  verdict: ")
	switch {
	case c.Stable():
		b.WriteString("STABLE for every overrun pattern with R ≤ Rmax\n")
	case c.Unstable():
		b.WriteString("UNSTABLE — a destabilizing overrun pattern exists\n")
	default:
		b.WriteString("undecided at this accuracy\n")
	}
	if len(c.WorstPattern) > 0 {
		fmt.Fprintf(&b, "  worst switching pattern found: %v (repeated)\n", c.WorstPattern)
	}
	return b.String()
}
