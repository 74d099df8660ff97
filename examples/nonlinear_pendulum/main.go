// Nonlinear validation — the §III extension: design the adaptive
// overrun-tolerant controller on a linearization, then run it against
// the true nonlinear plant.
//
// The plant is an inverted pendulum balanced at the (unstable) upright
// position. The mode table comes from delay-aware LQRs on the upright
// linearization; the runtime integrates the full nonlinear dynamics
// with RK4 while overruns arrive in bursts.
//
// Run with: go run ./examples/nonlinear_pendulum
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"

	"adaptivertc/internal/control"
	"adaptivertc/internal/core"
	"adaptivertc/internal/jsr"
	"adaptivertc/internal/mat"
	"adaptivertc/internal/nonlinear"
)

func main() {
	ctx := context.Background()
	pend := nonlinear.Pendulum(0.5, 0.4, 0.1) // 0.5 kg bob, 0.4 m rod
	lin, err := pend.Linearize([]float64{0, 0}, []float64{0})
	if err != nil {
		log.Fatal(err)
	}
	poles, err := lin.Poles()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("upright linearization poles: %v (unstable)\n", poles)

	const T = 0.020
	tm, err := core.NewTiming(T, 5, T/10, 1.6*T)
	if err != nil {
		log.Fatal(err)
	}
	w := control.LQRWeights{Q: mat.Diag(20, 1), R: mat.Diag(0.1)}
	design, err := core.NewDesign(lin, tm, func(h float64) (*control.StateSpace, error) {
		return control.LQGFullInfo(lin, w, h)
	})
	if err != nil {
		log.Fatal(err)
	}
	cert, err := design.CertifyCtx(ctx, 5, jsr.GripenbergOptions{Delta: 1e-3, MaxDepth: 25})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("linearized closed loop: JSR ∈ %s, stable: %v\n\n", cert.Bounds, cert.Stable())

	// Balance from 0.35 rad (~20°) while overruns arrive in bursts.
	loop, err := nonlinear.NewLoop(pend, design, []float64{0.35, 0}, 16)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	inBurst := false
	fmt.Println("  t [s]   interval   θ [rad]    θ̇ [rad/s]   torque [N·m]")
	now := 0.0
	overruns := 0
	for k := 0; k < 120; k++ {
		// Markov burst pattern.
		if inBurst {
			if rng.Float64() < 0.4 {
				inBurst = false
			}
		} else if rng.Float64() < 0.08 {
			inBurst = true
		}
		r := tm.Rmin + rng.Float64()*(tm.T-tm.Rmin)
		if inBurst {
			r = tm.T + rng.Float64()*(tm.Rmax-tm.T)
			overruns++
		}
		h := tm.IntervalFor(r)
		if k%10 == 0 {
			x := loop.State()
			fmt.Printf("  %5.2f   %5.0f ms   %+8.4f   %+8.4f      %+8.4f\n",
				now, h*1000, x[0], x[1], loop.Applied()[0])
		}
		loop.StepResponse(r)
		now += h
	}
	x := loop.State()
	fmt.Printf("\nafter %d jobs (%d overruns): θ = %+.2e rad, θ̇ = %+.2e rad/s\n",
		120, overruns, x[0], x[1])
	if math.Abs(x[0]) < 1e-3 {
		fmt.Println("balanced: the linearization-based adaptive design holds the nonlinear plant upright")
		fmt.Println("through bursty overruns — the paper's hybridisation extension in action.")
	} else {
		fmt.Println("warning: pendulum did not settle (larger initial angles exceed the design's basin)")
	}
}
