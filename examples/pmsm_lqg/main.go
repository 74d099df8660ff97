// LQG control of a permanent magnet synchronous motor at T = 50 µs
// under sporadic overruns — the paper's Table II scenario, narrated for
// one configuration, plus the observer-based variant with only current
// sensors.
//
// Run with: go run ./examples/pmsm_lqg
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"adaptivertc/internal/control"
	"adaptivertc/internal/core"
	"adaptivertc/internal/jsr"
	"adaptivertc/internal/mat"
	"adaptivertc/internal/plants"
	"adaptivertc/internal/sim"
)

// mustBounds tolerates a budget-limited (looser but valid) bracket and
// aborts on any real JSR failure.
func mustBounds(b jsr.Bounds, err error) jsr.Bounds {
	if err != nil && !errors.Is(err, jsr.ErrBudget) {
		log.Fatal(err)
	}
	return b
}

func main() {
	ctx := context.Background()
	params := plants.DefaultPMSMParams()
	plant := plants.PMSM(params)
	const T = 50e-6
	tm, err := core.NewTiming(T, 5, T/10, 1.6*T)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("PMSM dq model, 3 states, 2 inputs; H/T = ")
	for _, h := range tm.Intervals() {
		fmt.Printf("%.2f ", h/T)
	}
	fmt.Println()

	w := control.LQRWeights{Q: mat.Diag(1, 1, 5), R: mat.Scale(0.01, mat.Eye(2))}

	// Full-information design: one delay-aware LQR per interval.
	design, err := core.NewDesign(plant, tm, func(h float64) (*control.StateSpace, error) {
		return control.LQGFullInfo(plant, w, h)
	})
	if err != nil {
		log.Fatal(err)
	}
	bounds, jerr := design.StabilityBoundsCtx(ctx, 6, jsr.GripenbergOptions{Delta: 1e-4, MaxDepth: 30})
	note := ""
	if jerr != nil {
		note = " (bracket looser than requested)"
	}
	fmt.Printf("adaptive design JSR ∈ %s%s → stable for every overrun pattern: %v\n",
		bounds, note, bounds.CertifiesStable())

	// Compare against the frozen nominal design on the coarse sensor
	// grid (Ts = T/2) — the paper's Table II cell where freezing the
	// gains for T provably loses stability.
	tmCoarse, err := core.NewTiming(T, 2, T/10, 1.6*T)
	if err != nil {
		log.Fatal(err)
	}
	nominalCtl, err := control.LQGFullInfo(plant, w, tm.T)
	if err != nil {
		log.Fatal(err)
	}
	frozen, err := core.NewDesign(plant, tmCoarse, core.FixedDesigner(nominalCtl))
	if err != nil {
		log.Fatal(err)
	}
	frozenBounds := mustBounds(frozen.StabilityBoundsCtx(ctx, 6, jsr.GripenbergOptions{Delta: 1e-4, MaxDepth: 30}))
	adaptiveCoarse, err := core.NewDesign(plant, tmCoarse, func(h float64) (*control.StateSpace, error) {
		return control.LQGFullInfo(plant, w, h)
	})
	if err != nil {
		log.Fatal(err)
	}
	adaptiveCoarseBounds := mustBounds(adaptiveCoarse.StabilityBoundsCtx(ctx, 6, jsr.GripenbergOptions{Delta: 1e-4, MaxDepth: 30}))
	fmt.Printf("coarse grid Ts = T/2: adaptive JSR ∈ %s (stable: %v),\n",
		adaptiveCoarseBounds, adaptiveCoarseBounds.CertifiesStable())
	fmt.Printf("            frozen-T JSR ∈ %s → provably UNSTABLE: %v\n",
		frozenBounds, frozenBounds.CertifiesUnstable())

	// Costs under random overrun patterns.
	x0 := []float64{1, 1, 20}
	cost := sim.QuadCost(w.Q, w.R)
	ideal, err := sim.NoOverrunCost(design, x0, 50, cost)
	if err != nil {
		log.Fatal(err)
	}
	m, err := sim.MonteCarloCtx(ctx, design, x0, sim.UniformResponse{Rmin: tm.Rmin, Rmax: tm.Rmax}, cost,
		sim.MonteCarloOptions{Sequences: 3000, Jobs: 50, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nLQG cost: no overruns %.4f | adaptive worst-case %.4f (mean %.4f)\n",
		ideal, m.WorstCost, m.MeanCost)

	// Observer-based variant: only the two phase currents are measured;
	// a per-mode Kalman predictor reconstructs the speed.
	sensed := plants.PMSMCurrentSensed(params)
	nw := control.NoiseWeights{Rw: mat.Scale(1e-3, mat.Eye(3)), Rv: mat.Scale(1e-4, mat.Eye(2))}
	observerDesign, err := core.NewDesign(sensed, tm, func(h float64) (*control.StateSpace, error) {
		return control.LQG(sensed, w, nw, h)
	})
	if err != nil {
		log.Fatal(err)
	}
	obsBounds := mustBounds(observerDesign.StabilityBoundsCtx(ctx, 5, jsr.GripenbergOptions{Delta: 1e-3, MaxDepth: 25}))
	fmt.Printf("\nobserver-based variant (current sensors only, %d controller states):\n",
		observerDesign.Modes[0].Ctrl.StateDim())
	fmt.Printf("JSR ∈ %s → certified stable: %v\n", obsBounds, obsBounds.CertifiesStable())
}
