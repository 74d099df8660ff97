// Package optimize provides the derivative-free Nelder–Mead simplex
// search used to tune PI gains per input-output interval. It is
// deterministic.
package optimize

import (
	"math"
	"sort"
)

// Objective is a function to minimize.
type Objective func(x []float64) float64

// Result reports the minimizer found and diagnostic counters.
type Result struct {
	X          []float64
	F          float64
	Iterations int
	Evals      int
	Converged  bool
}

// NelderMeadOptions tunes the simplex search. Zero values select
// defaults.
type NelderMeadOptions struct {
	MaxIter int     // default 400·dim
	TolF    float64 // default 1e-10: spread of simplex values
	TolX    float64 // default 1e-9: spread of simplex vertices
	Step    float64 // default 0.1·(1+|x0ᵢ|): initial simplex edge
}

// NelderMead minimizes f starting from x0 using the standard
// reflection/expansion/contraction/shrink simplex method with adaptive
// default coefficients.
func NelderMead(f Objective, x0 []float64, opt NelderMeadOptions) Result {
	n := len(x0)
	if n == 0 {
		//lint:ignore nakedpanic the empty-argument condition has no dynamic values to report
		panic("optimize: NelderMead with empty start point")
	}
	if opt.MaxIter == 0 {
		opt.MaxIter = 400 * n
	}
	//lint:ignore floatcompare the zero value of TolF is the documented "use the default" sentinel
	if opt.TolF == 0 {
		opt.TolF = 1e-10
	}
	//lint:ignore floatcompare the zero value of TolX is the documented "use the default" sentinel
	if opt.TolX == 0 {
		opt.TolX = 1e-9
	}

	const (
		alpha = 1.0 // reflection
		gamma = 2.0 // expansion
		rho   = 0.5 // contraction
		sigma = 0.5 // shrink
	)

	evals := 0
	eval := func(x []float64) float64 {
		evals++
		v := f(x)
		if math.IsNaN(v) {
			return math.Inf(1)
		}
		return v
	}

	// Build the initial simplex.
	simplex := make([][]float64, n+1)
	fv := make([]float64, n+1)
	simplex[0] = append([]float64(nil), x0...)
	fv[0] = eval(simplex[0])
	for i := 0; i < n; i++ {
		v := append([]float64(nil), x0...)
		step := opt.Step
		//lint:ignore floatcompare the zero value of Step is the documented "use the default" sentinel
		if step == 0 {
			step = 0.1 * (1 + math.Abs(x0[i]))
		}
		v[i] += step
		simplex[i+1] = v
		fv[i+1] = eval(v)
	}

	order := func() {
		idx := make([]int, n+1)
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return fv[idx[a]] < fv[idx[b]] })
		ns := make([][]float64, n+1)
		nf := make([]float64, n+1)
		for i, j := range idx {
			ns[i], nf[i] = simplex[j], fv[j]
		}
		copy(simplex, ns)
		copy(fv, nf)
	}

	centroid := make([]float64, n)
	point := func(base []float64, coef float64, away []float64) []float64 {
		p := make([]float64, n)
		for i := range p {
			p[i] = base[i] + coef*(base[i]-away[i])
		}
		return p
	}

	var it int
	converged := false
	for it = 0; it < opt.MaxIter; it++ {
		order()
		// Convergence: function spread and simplex diameter.
		if fv[n]-fv[0] < opt.TolF {
			diam := 0.0
			for i := 1; i <= n; i++ {
				for j := 0; j < n; j++ {
					if d := math.Abs(simplex[i][j] - simplex[0][j]); d > diam {
						diam = d
					}
				}
			}
			if diam < opt.TolX {
				converged = true
				break
			}
		}
		// Centroid of all but the worst vertex.
		for j := 0; j < n; j++ {
			s := 0.0
			for i := 0; i < n; i++ {
				s += simplex[i][j]
			}
			centroid[j] = s / float64(n)
		}
		worst := simplex[n]
		refl := point(centroid, alpha, worst)
		fr := eval(refl)
		switch {
		case fr < fv[0]:
			exp := point(centroid, gamma, worst)
			fe := eval(exp)
			if fe < fr {
				simplex[n], fv[n] = exp, fe
			} else {
				simplex[n], fv[n] = refl, fr
			}
		case fr < fv[n-1]:
			simplex[n], fv[n] = refl, fr
		default:
			// Contraction (outside if reflection helped at all).
			var con []float64
			if fr < fv[n] {
				con = point(centroid, rho, worst) // toward reflection side
				for j := range con {
					con[j] = centroid[j] + rho*(refl[j]-centroid[j])
				}
			} else {
				con = make([]float64, n)
				for j := range con {
					con[j] = centroid[j] + rho*(worst[j]-centroid[j])
				}
			}
			fc := eval(con)
			if fc < math.Min(fr, fv[n]) {
				simplex[n], fv[n] = con, fc
			} else {
				// Shrink toward the best vertex.
				for i := 1; i <= n; i++ {
					for j := 0; j < n; j++ {
						simplex[i][j] = simplex[0][j] + sigma*(simplex[i][j]-simplex[0][j])
					}
					fv[i] = eval(simplex[i])
				}
			}
		}
	}
	order()
	return Result{X: simplex[0], F: fv[0], Iterations: it, Evals: evals, Converged: converged}
}
