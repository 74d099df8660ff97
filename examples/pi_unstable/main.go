// PI control of an open-loop unstable plant under sporadic overruns —
// a single cell of the paper's Table I, narrated.
//
// The scenario: an industrial PI loop at T = 10 ms on a plant with an
// unstable pole, occasionally preempted hard enough that a job's
// response time reaches 1.6·T. Three deployments compete, all using the
// paper's adaptive release rule:
//
//   - Adaptive: per-interval mode table (Eq. 7: the error integrator
//     advances by the interval the loop actually experienced),
//   - Fixed-T: gains and integrator step frozen for the nominal period,
//   - Fixed-Rmax: gains and integrator step frozen for the worst case.
//
// Run with: go run ./examples/pi_unstable
package main

import (
	"context"
	"fmt"
	"log"

	"adaptivertc/internal/control"
	"adaptivertc/internal/core"
	"adaptivertc/internal/plants"
	"adaptivertc/internal/sim"
)

func main() {
	ctx := context.Background()
	plant := plants.Unstable()
	const T = 0.010
	tm, err := core.NewTiming(T, 5, T/10, 1.6*T)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plant poles unstable, H = %v\n", tm.Intervals())

	// Tune the nominal PI once; the adaptive table reuses the gains and
	// adapts the integrator step per interval (Eq. 7).
	nominal, err := control.TunePI(plant, tm.T, control.PITuneOptions{})
	if err != nil {
		log.Fatal(err)
	}
	hs := tm.Intervals()
	hmax := hs[len(hs)-1]
	worstCase, err := control.TunePI(plant, hmax, control.PITuneOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("nominal gains:    KP=%8.3f KI=%8.3f (tuned for h=%g)\n", nominal.KP, nominal.KI, tm.T)
	fmt.Printf("worst-case gains: KP=%8.3f KI=%8.3f (tuned for h=%g)\n", worstCase.KP, worstCase.KI, hmax)

	adaptive := func(h float64) (*control.StateSpace, error) {
		return control.PIGains{KP: nominal.KP, KI: nominal.KI, H: h}.Controller(), nil
	}

	x0 := []float64{1, 0}
	model := sim.UniformResponse{Rmin: tm.Rmin, Rmax: tm.Rmax}
	mc := sim.MonteCarloOptions{Sequences: 5000, Jobs: 50, Seed: 7}

	type entry struct {
		name     string
		designer core.Designer
	}
	fmt.Println("\nworst-case Jm = max_σ Σ e[k]² over 5000 random sequences × 50 jobs:")
	for _, e := range []entry{
		{"adaptive control", adaptive},
		{"fixed gains (T)", core.FixedDesigner(nominal.Controller())},
		{"fixed gains (Rmax)", core.FixedDesigner(worstCase.Controller())},
	} {
		d, err := core.NewDesign(plant, tm, e.designer)
		if err != nil {
			log.Fatal(err)
		}
		m, err := sim.MonteCarloCtx(ctx, d, x0, model, sim.ErrorCost(), mc)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-20s Jm = %.4f  (mean %.4f, divergent %d)\n",
			e.name, m.WorstCost, m.MeanCost, m.Divergent)
	}
	fmt.Println("\nThe adaptive mode table wins: compensating the integrator for the")
	fmt.Println("actually-elapsed interval beats both frozen designs, and conservative")
	fmt.Println("worst-case tuning costs performance whenever the system runs nominally.")
}
