// Skip-next degeneration: with Ns = 1 (no sensor oversampling) the
// paper's period adaptation reduces to the classic skip-next overrun
// strategy — after an overrun the next job waits for the following full
// period. Oversampling the sensors refines the release grid, shortens
// the post-overrun dead time, and improves both the stability margin
// and the worst-case cost (§IV-A, §V-B).
//
// Run with: go run ./examples/skipnext
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

func main() {
	ctx := context.Background()
	plant := plants.PMSM(plants.DefaultPMSMParams())
	const T = 50e-6
	w := control.LQRWeights{Q: mat.Diag(1, 1, 5), R: mat.Scale(0.01, mat.Eye(2))}
	x0 := []float64{1, 1, 20}
	cost := sim.QuadCost(w.Q, w.R)

	fmt.Println("PMSM, Rmax = 1.6·T: sensor oversampling factor vs stability and cost")
	fmt.Printf("%-5s %-12s %-10s %-24s %12s\n", "Ns", "strategy", "#modes", "JSR [LB,UB]", "worst cost")
	for _, ns := range []int{1, 2, 5, 10} {
		tm, err := core.NewTiming(T, ns, T/10, 1.6*T)
		if err != nil {
			log.Fatal(err)
		}
		design, err := core.NewDesign(plant, tm, func(h float64) (*control.StateSpace, error) {
			return control.LQGFullInfo(plant, w, h)
		})
		if err != nil {
			log.Fatal(err)
		}
		bounds, err := design.StabilityBoundsCtx(ctx, 5, jsr.GripenbergOptions{Delta: 1e-3, MaxDepth: 25})
		if err != nil && !errors.Is(err, jsr.ErrBudget) {
			log.Fatal(err)
		}
		m, err := sim.MonteCarloCtx(ctx, design, x0, sim.UniformResponse{Rmin: tm.Rmin, Rmax: tm.Rmax}, cost,
			sim.MonteCarloOptions{Sequences: 2000, Jobs: 50, Seed: 9})
		if err != nil {
			log.Fatal(err)
		}
		strategy := "adaptive"
		if tm.IsSkipNext() {
			strategy = "skip-next"
		}
		fmt.Printf("%-5d %-12s %-10d %-24s %12.4f\n", ns, strategy, design.NumModes(), bounds.String(), m.WorstCost)
	}
	fmt.Println("\nNs = 1 is exactly the skip-next strategy of the literature: coarser")
	fmt.Println("recovery, larger worst-case intervals (up to 2T), weaker margins.")
	fmt.Println("Finer sensor grids trade more controller modes (larger tables, more")
	fmt.Println("expensive stability analysis) for earlier recovery after an overrun.")
}
