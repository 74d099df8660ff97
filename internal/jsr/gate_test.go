package jsr

import (
	"math"
	"math/rand"
	"testing"
)

// TestRateGateMatchesPow checks that rateGate.above and rateGate.atMost
// decide exactly as math.Pow(x, 1/depth) > v and <= v, the comparisons
// they replace, at every depth 1..200 and a few deeper ones past
// rateGateMaxDepth. The thresholds cover zero, subnormal, tiny,
// ordinary, huge, infinite and NaN v; the probes cover the band edges
// lo and hi, up to 64 ulps either side of v^depth and of both edges,
// zero, +Inf, NaN and random values.
func TestRateGateMatchesPow(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	vs := []float64{0, math.SmallestNonzeroFloat64, 1e-300, 0.5, 1, 1.0001, 1e3, math.Inf(1), math.Inf(-1), math.NaN()}
	for i := 0; i < 6; i++ {
		vs = append(vs, rng.Float64()*2, math.Exp(rng.NormFloat64()*5))
	}
	depths := []int{rateGateMaxDepth - 1, rateGateMaxDepth, rateGateMaxDepth + 1, 5000}
	for d := 1; d <= 200; d++ {
		depths = append(depths, d)
	}
	banded := 0
	for _, d := range depths {
		for _, v := range vs {
			g := newRateGate(v, d)
			if !math.IsNaN(g.lo) && d > 1 {
				banded++
			}
			probes := []float64{0, math.Inf(1), math.NaN(), g.lo, g.hi}
			for _, c := range []float64{math.Pow(v, float64(d)), g.lo, g.hi} {
				if math.IsNaN(c) || math.IsInf(c, 0) {
					continue
				}
				up, down := c, c
				for k := 1; k <= 64; k++ {
					up, down = math.Nextafter(up, math.Inf(1)), math.Nextafter(down, math.Inf(-1))
					probes = append(probes, up, down)
				}
			}
			for i := 0; i < 16; i++ {
				probes = append(probes, math.Exp(rng.NormFloat64()*50), rng.Float64()*2)
			}
			for _, x := range probes {
				r := math.Pow(x, 1/float64(d))
				if got, want := g.above(x), r > v; got != want {
					t.Fatalf("depth %d v %v x %v (lo %v hi %v): above = %v, Pow comparison %v", d, v, x, g.lo, g.hi, got, want)
				}
				if got, want := g.atMost(x), r <= v; got != want {
					t.Fatalf("depth %d v %v x %v (lo %v hi %v): atMost = %v, Pow comparison %v", d, v, x, g.lo, g.hi, got, want)
				}
			}
		}
	}
	// The band must actually be in use, not the Pow fallback everywhere.
	if banded < 1000 {
		t.Fatalf("only %d gates above depth 1 use the band", banded)
	}
}
