// Package plants defines the benchmark plants used throughout the
// reproduction: the unstable SISO system of Table I, the permanent
// magnet synchronous motor of Table II, and the full-state double
// integrator used by the examples and tests.
//
// The paper does not reprint the numeric plant matrices (the PMSM is
// borrowed from [18, Example 2]); the models here are standard
// parameterizations chosen to exercise the same code paths and
// timescales — see DESIGN.md, "Substitutions".
package plants

import (
	"adaptivertc/internal/lti"
	"adaptivertc/internal/mat"
)

// Unstable returns the open-loop unstable second-order SISO plant used
// for the PI experiment (Table I): poles at ≈ +3.6 and -5.6 rad/s, so a
// 10 ms control period samples the unstable mode ~28× per time
// constant — fast enough for PI control, slow enough that extra delays
// of a few sampling periods visibly hurt.
//
//	ẋ = [ 0   1; 20  -2 ] x + [0; 1] u,   y = x₁
func Unstable() *lti.System {
	return lti.MustSystem(
		mat.FromRows([][]float64{
			{0, 1},
			{20, -2},
		}),
		mat.ColVec(0, 1),
		mat.RowVec(1, 0),
	)
}

// PMSMParams collects the physical parameters of the permanent magnet
// synchronous motor model.
type PMSMParams struct {
	R      float64 // stator resistance [Ω]
	Ld, Lq float64 // d/q axis inductances [H]
	Psi    float64 // permanent magnet flux linkage [Wb]
	Pp     float64 // pole pairs
	J      float64 // rotor inertia [kg·m²]
	B      float64 // viscous friction [N·m·s]
}

// DefaultPMSMParams returns typical small-drive values giving
// electrical modes of a few hundred rad/s — the regime where the
// paper's 50 µs control period is the natural choice.
func DefaultPMSMParams() PMSMParams {
	return PMSMParams{
		R:   0.5,
		Ld:  1e-3,
		Lq:  1e-3,
		Psi: 0.1,
		Pp:  3,
		J:   1e-4,
		B:   1e-4,
	}
}

// PMSM returns the dq-frame linearization (about standstill) of a
// permanent magnet synchronous motor, the Table II plant. States are
// [i_d, i_q, ω]; inputs are the dq voltages [v_d, v_q]; all states are
// measured (the paper's LQG example uses the state-feedback form of
// §IV-B with e[k] = x[k]).
//
//	di_d/dt = (-R i_d + v_d)/L_d
//	di_q/dt = (-R i_q - ψ ω + v_q)/L_q
//	dω/dt   = (1.5 p ψ i_q - B ω)/J
func PMSM(p PMSMParams) *lti.System {
	a := mat.FromRows([][]float64{
		{-p.R / p.Ld, 0, 0},
		{0, -p.R / p.Lq, -p.Psi / p.Lq},
		{0, 1.5 * p.Pp * p.Psi / p.J, -p.B / p.J},
	})
	b := mat.FromRows([][]float64{
		{1 / p.Ld, 0},
		{0, 1 / p.Lq},
		{0, 0},
	})
	return lti.MustSystem(a, b, mat.Eye(3))
}

// PMSMCurrentSensed is the PMSM with only the two phase currents
// measured (ω must be estimated) — used to exercise the observer-based
// LQG path.
func PMSMCurrentSensed(p PMSMParams) *lti.System {
	full := PMSM(p)
	c := mat.FromRows([][]float64{
		{1, 0, 0},
		{0, 1, 0},
	})
	return lti.MustSystem(full.A, full.B, c)
}

// DoubleIntegratorFullState is the double integrator with both states
// measured, for state-feedback designs.
func DoubleIntegratorFullState() *lti.System {
	return lti.MustSystem(
		mat.FromRows([][]float64{{0, 1}, {0, 0}}),
		mat.ColVec(0, 1),
		mat.Eye(2),
	)
}
