// Quickstart: make a double-integrator controller tolerate sporadic
// overruns in ~60 lines.
//
// It walks the full workflow of the paper:
//
//  1. describe the plant and the real-time parameters (period T,
//     sensor oversampling Ns, worst-case response time Rmax),
//  2. build one delay-aware LQR mode per achievable inter-release
//     interval (the "table of control parameters"),
//  3. certify stability under arbitrary overrun patterns with the
//     joint spectral radius, and
//  4. run the adaptive loop through a nasty overrun pattern.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"adaptivertc/internal/control"
	"adaptivertc/internal/core"
	"adaptivertc/internal/jsr"
	"adaptivertc/internal/mat"
	"adaptivertc/internal/plants"
	"adaptivertc/internal/sim"
)

func main() {
	ctx := context.Background()

	// 1. Plant and timing: a double integrator controlled at T = 20 ms,
	//    sensors sampling 5× per period, jobs known to finish within
	//    1.6·T even in the worst case.
	plant := plants.DoubleIntegratorFullState()
	tm, err := core.NewTiming(0.020, 5, 0.002, 1.6*0.020)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("interval set H = %v\n", tm.Intervals())

	// 2. One LQG mode per interval: each is the LQR that is optimal for
	//    its own input-output delay.
	weights := control.LQRWeights{
		Q: mat.Eye(2),
		R: mat.Diag(0.1),
	}
	design, err := core.NewDesign(plant, tm, func(h float64) (*control.StateSpace, error) {
		return control.LQGFullInfo(plant, weights, h)
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built %d controller modes, lifted closed-loop dimension %d\n",
		design.NumModes(), design.LiftedDim())

	// 3. Exact stability test: JSR of {Ω(h)} under arbitrary switching.
	bounds, err := design.StabilityBoundsCtx(ctx, 6, jsr.GripenbergOptions{Delta: 1e-3})
	if err != nil {
		fmt.Printf("note: bracket looser than requested (%v)\n", err)
	}
	fmt.Printf("joint spectral radius in %s → certified stable: %v\n",
		bounds, bounds.CertifiesStable())

	// 4. Drive the loop: every job overruns to the worst case for ten
	//    consecutive jobs, then the system runs nominally.
	loop, err := core.NewLoop(design, []float64{1, 0})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n  job   interval   position   velocity")
	for k := 0; k < 20; k++ {
		r := tm.Rmin // nominal
		if k < 10 {
			r = tm.Rmax // overrun: release postponed to the sensor grid
		}
		h := tm.IntervalFor(r)
		loop.StepResponse(r)
		x := loop.State()
		fmt.Printf("  %3d   %6.0f ms   %8.4f   %8.4f\n", k, h*1000, x[0], x[1])
	}

	// Worst case over random patterns, for good measure.
	m, err := sim.MonteCarloCtx(ctx, design, []float64{1, 0},
		sim.UniformResponse{Rmin: tm.Rmin, Rmax: tm.Rmax}, sim.ErrorCost(),
		sim.MonteCarloOptions{Sequences: 2000, Jobs: 50, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nworst-case Σ‖e‖² over 2000 random overrun patterns: %.4f (divergent: %d)\n",
		m.WorstCost, m.Divergent)
}
