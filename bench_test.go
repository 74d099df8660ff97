// Repository-level benchmark harness: one benchmark per table and
// figure of the paper, plus ablation benches for the design choices
// called out in DESIGN.md. Each benchmark regenerates the artifact end
// to end (design synthesis, stability analysis, Monte-Carlo
// evaluation), at reduced sequence counts so a -bench=. sweep stays in
// the minutes range; `cmd/adactl -paper` runs the full 50 000-sequence
// protocol.
package main

import (
	"context"
	"testing"

	"adaptivertc/internal/control"
	"adaptivertc/internal/core"
	"adaptivertc/internal/experiments"
	"adaptivertc/internal/jsr"
	"adaptivertc/internal/mat"
	"adaptivertc/internal/plants"
	"adaptivertc/internal/sim"
)

// benchOpts keeps benchmark iterations meaningful but affordable.
func benchOpts() experiments.Options {
	return experiments.Options{Sequences: 200, Jobs: 50, Seed: 1, BruteLen: 4, Delta: 0.02}
}

// BenchmarkTable1 regenerates Table I (PI on the unstable plant,
// worst-case Jm for adaptive vs fixed-T vs fixed-Rmax over the full
// Rmax × Ts grid).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1Ctx(context.Background(), benchOpts(), nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 6 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkTable2 regenerates Table II (PMSM LQG: JSR brackets and the
// five cost columns over the grid).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2Ctx(context.Background(), benchOpts(), nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 6 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkFigure1 regenerates the Figure 1 timing diagram from a
// scheduler simulation.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure1(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepNs regenerates the §V-B sensor-granularity sweep.
func BenchmarkSweepNs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SweepNsCtx(context.Background(), []int{1, 2, 5}, benchOpts(), nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches (design choices from DESIGN.md §5) -------------------

// BenchmarkAblationPI decomposes the Table I adaptive strategy.
func BenchmarkAblationPI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationPI(context.Background(), benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationJSR compares raw vs preconditioned JSR estimators.
func BenchmarkAblationJSR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationJSR(context.Background(), benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDelayLQR compares delay-aware vs naive LQR designs.
func BenchmarkAblationDelayLQR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationDelayLQR(context.Background(), benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro benches for the analysis/runtime hot paths ----------------------

func pmsmDesign(b *testing.B, ns int) *core.Design {
	b.Helper()
	plant := plants.PMSM(plants.DefaultPMSMParams())
	w := control.LQRWeights{Q: mat.Diag(1, 1, 5), R: mat.Scale(0.01, mat.Eye(2))}
	tm, err := core.NewTiming(50e-6, ns, 5e-6, 1.6*50e-6)
	if err != nil {
		b.Fatal(err)
	}
	d, err := core.NewDesign(plant, tm, func(h float64) (*control.StateSpace, error) {
		return control.LQGFullInfo(plant, w, h)
	})
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkDesignSynthesis measures the full mode-table construction
// (discretizations + per-mode Riccati solves).
func BenchmarkDesignSynthesis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pmsmDesign(b, 5)
	}
}

// BenchmarkStabilityCertificate measures the combined JSR bracket on
// the adaptive PMSM design (4 modes, 9×9 lifted matrices).
func BenchmarkStabilityCertificate(b *testing.B) {
	d := pmsmDesign(b, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.StabilityBoundsCtx(context.Background(), 4, jsr.GripenbergOptions{Delta: 0.02, MaxDepth: 15}); err != nil && i == 0 {
			b.Logf("bracket looser than requested: %v", err)
		}
	}
}

// BenchmarkLoopStep measures one adaptive runtime step (plant
// propagation + mode dispatch + control law).
func BenchmarkLoopStep(b *testing.B) {
	d := pmsmDesign(b, 5)
	loop, err := core.NewLoop(d, []float64{1, 1, 20})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loop.Step(i % d.NumModes())
	}
}

// BenchmarkMonteCarlo1k measures the evaluation harness itself:
// 1000 sequences × 50 jobs of the adaptive PMSM loop.
func BenchmarkMonteCarlo1k(b *testing.B) {
	d := pmsmDesign(b, 5)
	w := control.LQRWeights{Q: mat.Diag(1, 1, 5), R: mat.Scale(0.01, mat.Eye(2))}
	cost := sim.QuadCost(w.Q, w.R)
	model := sim.UniformResponse{Rmin: d.Timing.Rmin, Rmax: d.Timing.Rmax}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.MonteCarloCtx(context.Background(), d, []float64{1, 1, 20}, model, cost,
			sim.MonteCarloOptions{Sequences: 1000, Jobs: 50, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLiftedVsDirect compares evaluating a 50-step switching
// sequence through Ω-products against the direct recursion.
func BenchmarkLiftedVsDirect(b *testing.B) {
	d := pmsmDesign(b, 5)
	omegas := d.OmegaSet()
	seq := make([]int, 50)
	for i := range seq {
		seq[i] = i % d.NumModes()
	}
	b.Run("lifted", func(b *testing.B) {
		dim := d.LiftedDim()
		for i := 0; i < b.N; i++ {
			xi := make([]float64, dim)
			xi[0] = 1
			for _, idx := range seq {
				xi = mat.MulVec(omegas[idx], xi)
			}
		}
	})
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			loop, err := core.NewLoop(d, []float64{1, 1, 20})
			if err != nil {
				b.Fatal(err)
			}
			for _, idx := range seq {
				loop.Step(idx)
			}
		}
	})
}

// BenchmarkBurstComparison regenerates the burst-robustness experiment.
func BenchmarkBurstComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.BurstComparison(context.Background(), benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWeaklyHard regenerates the constrained-switching analysis.
func BenchmarkWeaklyHard(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.WeaklyHard(context.Background(), 4, experiments.Options{BruteLen: 5}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObserverComparison regenerates the observer study.
func BenchmarkObserverComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ObserverComparison(context.Background(), benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuantizeSweep regenerates the fixed-point width study.
func BenchmarkQuantizeSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.QuantizeSweepCtx(context.Background(), []int{4, 12, 24}, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDrift regenerates the sleep-primitive fidelity study.
func BenchmarkDrift(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Drift([]float64{0, 0.01}, 100); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJitter regenerates the sensor-jitter robustness sweep.
func BenchmarkJitter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Jitter(context.Background(), []float64{0, 0.5}, sim.MonteCarloOptions{Sequences: 50, Jobs: 30, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
