// Guard: certified graceful degradation in ~80 lines.
//
// The stability certificate of the paper holds only while its
// assumptions do: every response time within the certified Rmax. This
// example deploys the runtime assumption guard on top of the adaptive
// loop and walks the full degradation ladder:
//
//  1. build an adaptive LQG design for a well-damped plant,
//  2. certify every tier of the ladder up front — Nominal (the paper's
//     Ω(h) family), Clamp (excursion intervals handled by the largest
//     certified mode) and SafeMode (zero-input fallback) each carry
//     their own JSR certificate,
//  3. drive the guarded loop through a burst of R > Rmax excursions and
//     watch it escalate Nominal → Clamp → SafeMode and recover with
//     hysteresis once the contract holds again.
//
// Run with: go run ./examples/guard
package main

import (
	"context"
	"fmt"
	"log"

	"adaptivertc/internal/control"
	"adaptivertc/internal/core"
	"adaptivertc/internal/guard"
	"adaptivertc/internal/jsr"
	"adaptivertc/internal/lti"
	"adaptivertc/internal/mat"
)

func main() {
	ctx := context.Background()

	// 1. A well-damped two-state plant controlled at T = 100 ms with
	//    sensors sampling 4× per period and jobs certified to finish
	//    within 1.5·T. Open-loop stability is what lets even the
	//    zero-input SafeMode tier carry a strict certificate.
	plant := lti.MustSystem(
		mat.FromRows([][]float64{{-4, 1}, {0, -6}}),
		mat.FromRows([][]float64{{0}, {2}}),
		mat.Eye(2),
	)
	tm, err := core.NewTiming(0.100, 4, 0.010, 1.5*0.100)
	if err != nil {
		log.Fatal(err)
	}
	weights := control.LQRWeights{Q: mat.Eye(2), R: mat.Diag(0.1)}
	design, err := core.NewDesign(plant, tm, func(h float64) (*control.StateSpace, error) {
		return control.LQGFullInfo(plant, weights, h)
	})
	if err != nil {
		log.Fatal(err)
	}

	// 2. Certify the whole ladder before deploying: each tier is a
	//    switched linear system in the lifted coordinates of Eq. 8.
	ladder, err := guard.CertifyLadderCtx(ctx, design, guard.CertifyOptions{
		BruteLen:   4,
		Grip:       jsr.GripenbergOptions{Delta: 1e-3, MaxDepth: 25, MaxNodes: 100_000},
		ExtraSteps: 2,
		Fallback:   guard.FallbackZero,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(ladder.Report())
	fmt.Printf("every tier certified: %v\n\n", ladder.AllStable())

	// 3. Deploy the guard with a (1,4) weakly-hard overrun budget and a
	//    3-job recovery hysteresis, then hit it with an excursion burst:
	//    jobs 8–13 respond at 2·Rmax, far beyond anything the nominal
	//    certificate covers.
	mon, err := guard.New(design, []float64{1, -0.5}, guard.Contract{
		M: 1, K: 4, RecoverAfter: 3, DivergeLimit: 1e6, Fallback: guard.FallbackZero,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("  job   response   tier       ‖x‖∞")
	for k := 0; k < 28; k++ {
		r := tm.Rmin
		if k >= 8 && k < 14 {
			r = 2 * tm.Rmax
		}
		tier, err := mon.Step(r)
		if err != nil {
			log.Fatal(err)
		}
		norm := 0.0
		for _, v := range mon.Loop().State() {
			if v < 0 {
				v = -v
			}
			if v > norm {
				norm = v
			}
		}
		fmt.Printf("  %3d   %6.0f ms   %-8s   %.4f\n", k, r*1000, tier, norm)
	}

	fmt.Println("\nladder transitions:")
	for _, e := range mon.Events() {
		fmt.Printf("  job %3d: %s → %s (%s)\n", e.Job, e.From, e.To, e.Reason)
	}
	m := mon.Metrics()
	fmt.Printf("\nviolations: %d, budget breaches: %d, escalations: %d, recoveries: %d (latency %.0f jobs)\n",
		m.Violations, m.BudgetBreaches, m.Escalations, m.Recoveries, m.MeanRecoveryJobs())
}
