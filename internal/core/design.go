package core

import (
	"context"
	"fmt"

	"adaptivertc/internal/control"
	"adaptivertc/internal/jsr"
	"adaptivertc/internal/lti"
	"adaptivertc/internal/mat"
	"adaptivertc/internal/sched"
)

// Designer synthesizes a controller for one input-output interval h.
// The adaptive strategy passes every h ∈ H; fixed-gain baselines ignore
// h and return the same controller each time.
type Designer func(h float64) (*control.StateSpace, error)

// Mode is one entry of the paper's "table of control parameters": the
// controller to run after an inter-release interval of H, together with
// the exact plant discretization over that interval.
type Mode struct {
	Index int     // position in H (number of extra sensor periods)
	H     float64 // inter-release interval T + Index·Ts
	Ctrl  *control.StateSpace
	Disc  *lti.Discrete
}

// Design is a complete adaptive control design: plant, timing, and one
// controller mode per achievable interval. It is the artifact the
// implementation needs at runtime ("just a timer and a table of control
// parameters").
type Design struct {
	Plant  *lti.System
	Timing Timing
	Modes  []Mode
}

// NewDesign discretizes the plant over every interval in H and invokes
// the designer per interval. All controller modes must agree on state,
// input and output dimensions, and the controller I/O must match the
// plant (error inputs of dimension q, command outputs of dimension r).
func NewDesign(plant *lti.System, tm Timing, design Designer) (*Design, error) {
	if plant == nil || design == nil {
		return nil, fmt.Errorf("core: nil plant or designer")
	}
	hs := tm.Intervals()
	d := &Design{Plant: plant, Timing: tm, Modes: make([]Mode, len(hs))}
	for i, h := range hs {
		disc, err := plant.Discretize(h)
		if err != nil {
			return nil, fmt.Errorf("core: discretizing for h=%g: %w", h, err)
		}
		ctrl, err := design(h)
		if err != nil {
			return nil, fmt.Errorf("core: designing mode for h=%g: %w", h, err)
		}
		if ctrl.InputDim() != plant.OutputDim() {
			return nil, fmt.Errorf("core: mode h=%g consumes %d errors, plant has %d outputs", h, ctrl.InputDim(), plant.OutputDim())
		}
		if ctrl.OutputDim() != plant.InputDim() {
			return nil, fmt.Errorf("core: mode h=%g produces %d commands, plant has %d inputs", h, ctrl.OutputDim(), plant.InputDim())
		}
		if i > 0 {
			if ctrl.StateDim() != d.Modes[0].Ctrl.StateDim() {
				return nil, fmt.Errorf("core: mode h=%g has %d controller states, mode h=%g has %d",
					h, ctrl.StateDim(), d.Modes[0].H, d.Modes[0].Ctrl.StateDim())
			}
		}
		d.Modes[i] = Mode{Index: i, H: h, Ctrl: ctrl, Disc: disc}
	}
	return d, nil
}

// FixedDesigner adapts a single pre-designed controller into a Designer
// that ignores the interval — the paper's "fixed control" baselines,
// where the gains are tuned for one nominal delay (T or Rmax) but the
// activation pattern still adapts.
func FixedDesigner(ctrl *control.StateSpace) Designer {
	return func(float64) (*control.StateSpace, error) { return ctrl, nil }
}

// ModeFor returns the controller mode selected by a job whose
// predecessor ran with response time r (i.e. the mode for interval
// h_{k-1} = IntervalFor(r)).
func (d *Design) ModeFor(r float64) Mode {
	return d.Modes[d.Timing.IntervalIndex(r)]
}

// NumModes returns #H.
func (d *Design) NumModes() int { return len(d.Modes) }

// ReleaseRule exposes the period-adaptation rule in the scheduler's
// callback form.
func (d *Design) ReleaseRule() sched.ReleaseRule { return d.Timing.NextRelease }

// LiftedDim returns n + s + 2r, the dimension of the lifted closed-loop
// state ξ = [x; z~; u~; u] of Eq. 8.
func (d *Design) LiftedDim() int {
	n := d.Plant.StateDim()
	s := d.Modes[0].Ctrl.StateDim()
	r := d.Plant.InputDim()
	return n + s + 2*r
}

// OmegaSet assembles the closed-loop matrix Ω(h) for every h ∈ H — the
// matrix family A = {Ω(h_i)} whose joint spectral radius decides
// stability (Eq. 10).
func (d *Design) OmegaSet() []*mat.Dense {
	out := make([]*mat.Dense, len(d.Modes))
	for i, m := range d.Modes {
		out[i] = Omega(m.Disc, m.Ctrl)
	}
	return out
}

// StabilityBoundsCtx brackets the joint spectral radius of the closed
// loop with the combined brute-force/Gripenberg estimator. The closed
// loop is certified asymptotically stable for every admissible overrun
// pattern iff the upper bound is < 1. A jsr.ErrBudget return means the
// bracket is valid but looser than requested; cancellation or an
// expired context deadline returns the valid best-so-far bracket with
// an error wrapping jsr.ErrDeadline. opt is passed through to
// jsr.EstimateCtx, which preconditions each invariant block of the set
// and honours the snapshot/resume options.
func (d *Design) StabilityBoundsCtx(ctx context.Context, bruteLen int, opt jsr.GripenbergOptions) (jsr.Bounds, error) {
	return jsr.EstimateCtx(ctx, d.OmegaSet(), bruteLen, opt)
}

// Omega builds the lifted one-step matrix of Eq. 8 for a single mode:
// with ξ(k) = [x[k]; z[k+1]; u[k+1]; u[k]] ([x; z~; u~; u] in the
// paper's notation) and the error convention e = r_ref - y, r_ref = 0:
//
//	x[k+1]  = Φ(h) x[k] + Γ(h) u[k]
//	z~[k+1] = Ac(h) z~[k] - Bc(h) C (Φ(h) x[k] + Γ(h) u[k])
//	u~[k+1] = Cc(h) z~[k] - Dc(h) C (Φ(h) x[k] + Γ(h) u[k])
//	u[k+1]  = u~[k]
//
// The paper prints the feedback blocks with a positive sign, absorbing
// the sign of e into Bc and Dc; carrying it explicitly here keeps
// controllers in the standard negative-feedback convention.
func Omega(disc *lti.Discrete, ctrl *control.StateSpace) *mat.Dense {
	n := disc.Phi.Rows()
	r := disc.Gamma.Cols()
	s := ctrl.StateDim()

	cphi := mat.Mul(disc.C, disc.Phi)   // q×n
	cgam := mat.Mul(disc.C, disc.Gamma) // q×r

	dcphi := mat.Neg(mat.Mul(ctrl.Dc, cphi))
	dcgam := mat.Neg(mat.Mul(ctrl.Dc, cgam))

	if s == 0 {
		// Static controller: ξ = [x; u~; u].
		return mat.Block([][]*mat.Dense{
			{disc.Phi, mat.New(n, r), disc.Gamma},
			{dcphi, mat.New(r, r), dcgam},
			{mat.New(r, n), mat.Eye(r), mat.New(r, r)},
		})
	}
	bcphi := mat.Neg(mat.Mul(ctrl.Bc, cphi))
	bcgam := mat.Neg(mat.Mul(ctrl.Bc, cgam))
	return mat.Block([][]*mat.Dense{
		{disc.Phi, mat.New(n, s), mat.New(n, r), disc.Gamma},
		{bcphi, ctrl.Ac, mat.New(s, r), bcgam},
		{dcphi, ctrl.Cc, mat.New(r, r), dcgam},
		{mat.New(r, n), mat.New(r, s), mat.Eye(r), mat.New(r, r)},
	})
}
