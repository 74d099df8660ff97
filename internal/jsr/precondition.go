package jsr

import (
	"math"

	"adaptivertc/internal/mat"
)

// Precondition applies a simultaneous similarity transform
// Aᵢ → M Aᵢ M⁻¹ chosen so that the transformed matrices are closer to
// normal, which makes the 2-norm certificates of both estimators far
// tighter (the JSR is invariant under simultaneous similarity). The
// transform is built from an approximate common quadratic Lyapunov
// function: P solves
//
//	P = I + (1/(k γ²)) Σᵢ AᵢᵀP Aᵢ
//
// for a scaling γ slightly above the current lower bound, and
// M = chol(P)ᵀ so that ‖M A M⁻¹‖₂ is the P-weighted norm of A. This is
// the standard preconditioning step of JSR toolboxes ([26], [27]).
//
// The returned ok is false when no contracting P was found within the
// retry budget (e.g. the average dynamics is too expansive); callers
// then proceed with the untransformed set.
func Precondition(set []*mat.Dense) (transformed []*mat.Dense, m *mat.Dense, ok bool) {
	if _, err := validateSet(set); err != nil {
		return set, nil, false
	}
	// Starting scale: the best available cheap lower bound.
	gamma := 0.0
	for _, a := range set {
		rho, err := mat.SpectralRadius(a)
		if err != nil {
			return set, nil, false
		}
		if rho > gamma {
			gamma = rho
		}
	}
	//lint:ignore floatcompare all spectral radii exactly zero (nilpotent set); any positive scale works, use 1
	if gamma == 0 {
		gamma = 1
	}
	for attempt := 0; attempt < 8; attempt++ {
		scale := gamma * (1.05 + 0.25*float64(attempt))
		p, converged := averagedLyapunov(set, scale)
		if !converged {
			continue
		}
		l, err := mat.Cholesky(p)
		if err != nil {
			continue
		}
		m := l.T()
		minv, err := mat.Inverse(m)
		if err != nil {
			continue
		}
		out := make([]*mat.Dense, len(set))
		bad := false
		for i, a := range set {
			out[i] = mat.MulMany(m, a, minv)
			if out[i].HasNaN() {
				bad = true
				break
			}
		}
		if bad {
			continue
		}
		return out, m, true
	}
	return set, nil, false
}

// averagedLyapunov iterates P ← I + (1/(k·scale²)) Σ AᵢᵀPAᵢ to a fixed
// point. The loop runs on buffers allocated once, with the operation
// order of the straightforward form (AᵢᵀP then ·Aᵢ, a scaled copy added
// to the running sum, symmetrize, max-abs of the difference), so P is
// the same bit for bit.
func averagedLyapunov(set []*mat.Dense, scale float64) (*mat.Dense, bool) {
	n := set[0].Rows()
	k := float64(len(set))
	inv := 1 / (k * scale * scale)
	ts := make([]*mat.Dense, len(set))
	for i, a := range set {
		ts[i] = a.T()
	}
	p, next, sum := mat.Eye(n), mat.New(n, n), mat.New(n, n)
	tp, tpa := mat.New(n, n), mat.New(n, n)
	for iter := 0; iter < 500; iter++ {
		sd := sum.Raw()
		for j := range sd {
			sd[j] = 0
		}
		for j := 0; j < n; j++ {
			sd[j*n+j] = 1
		}
		for i, a := range set {
			mat.MulInto(tp, ts[i], p)
			mat.MulInto(tpa, tp, a)
			for j, v := range tpa.Raw() {
				// Scale, then add: the conversion rounds the product, so
				// it is never fused into one multiply-add.
				sd[j] += float64(inv * v)
			}
		}
		mat.SymmetrizeInto(next, sum)
		diff, norm := 0.0, 0.0
		pd := p.Raw()
		for j, v := range next.Raw() {
			if d := math.Abs(v - pd[j]); d > diff {
				diff = d
			}
			if w := math.Abs(v); w > norm {
				norm = w
			}
		}
		p, next = next, p
		if math.IsInf(norm, 0) || math.IsNaN(norm) || norm > 1e12 {
			return nil, false
		}
		if diff <= 1e-11*(1+norm) {
			return p, true
		}
	}
	return nil, false
}
