package optimize

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNelderMeadQuadratic(t *testing.T) {
	f := func(x []float64) float64 {
		return (x[0]-3)*(x[0]-3) + 2*(x[1]+1)*(x[1]+1)
	}
	res := NelderMead(f, []float64{0, 0}, NelderMeadOptions{})
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if math.Abs(res.X[0]-3) > 1e-5 || math.Abs(res.X[1]+1) > 1e-5 {
		t.Fatalf("minimizer = %v", res.X)
	}
	if res.F > 1e-9 {
		t.Fatalf("minimum = %v", res.F)
	}
}

func TestNelderMeadRosenbrock(t *testing.T) {
	f := func(x []float64) float64 {
		return 100*math.Pow(x[1]-x[0]*x[0], 2) + math.Pow(1-x[0], 2)
	}
	res := NelderMead(f, []float64{-1.2, 1}, NelderMeadOptions{MaxIter: 5000})
	if math.Abs(res.X[0]-1) > 1e-3 || math.Abs(res.X[1]-1) > 1e-3 {
		t.Fatalf("Rosenbrock minimizer = %v (f=%v)", res.X, res.F)
	}
}

func TestNelderMeadHandlesNaNPlateaus(t *testing.T) {
	// NaN regions (e.g. unstable closed loops in gain tuning) must be
	// treated as +Inf, not poison the simplex.
	f := func(x []float64) float64 {
		if x[0] < 0 {
			return math.NaN()
		}
		return (x[0] - 2) * (x[0] - 2)
	}
	res := NelderMead(f, []float64{1}, NelderMeadOptions{})
	if math.Abs(res.X[0]-2) > 1e-4 {
		t.Fatalf("minimizer = %v", res.X)
	}
}

func TestNelderMead1D(t *testing.T) {
	f := func(x []float64) float64 { return math.Abs(x[0] + 5) }
	res := NelderMead(f, []float64{10}, NelderMeadOptions{})
	if math.Abs(res.X[0]+5) > 1e-4 {
		t.Fatalf("1-D minimizer = %v", res.X)
	}
}

func TestNelderMeadQuadraticProperty(t *testing.T) {
	// Converges to an arbitrary quadratic bowl's center from an
	// arbitrary start.
	f := func(cx, cy, sx, sy float64) bool {
		cx, cy = math.Mod(cx, 10), math.Mod(cy, 10)
		sx, sy = math.Mod(sx, 10), math.Mod(sy, 10)
		if math.IsNaN(cx + cy + sx + sy) {
			return true
		}
		obj := func(x []float64) float64 {
			return (x[0]-cx)*(x[0]-cx) + (x[1]-cy)*(x[1]-cy)
		}
		res := NelderMead(obj, []float64{sx, sy}, NelderMeadOptions{})
		return math.Abs(res.X[0]-cx) < 1e-4 && math.Abs(res.X[1]-cy) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
