package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"adaptivertc/internal/buildinfo"
	"adaptivertc/internal/sim"
)

// Report regenerates every experiment in this repository and writes a
// single self-contained markdown document: the paper's tables and
// figure, the design-space sweep, the three ablations, and the
// extension studies (burst, weakly-hard, drift, jitter, quantization,
// observer). Sequence counts come from opt; the full paper protocol
// takes tens of minutes, the defaults a few minutes.
func Report(ctx context.Context, opt Options, w io.Writer) error {
	opt = opt.Defaults()
	start := time.Now()
	section := func(title string) {
		fmt.Fprintf(w, "\n## %s\n\n", title)
	}
	code := func(s string) {
		fmt.Fprintf(w, "```\n%s```\n", s)
	}

	fmt.Fprintf(w, "# adaptivertc — regenerated evaluation report\n\n")
	fmt.Fprintf(w, "Reproduction of \"Adaptive Design of Real-Time Control Systems subject to\n")
	fmt.Fprintf(w, "Sporadic Overruns\" (DATE 2021). %d sequences × %d jobs per Monte-Carlo cell.\n",
		opt.Sequences, opt.Jobs)
	fmt.Fprintf(w, "Base RNG seed %d — rerun with the same seed to reproduce every number below.\n",
		opt.Seed)
	fmt.Fprintf(w, "Generated by %s.\n", buildinfo.Line("adactl"))

	section("Figure 1 — timing diagram")
	fig, err := Figure1()
	if err != nil {
		return fmt.Errorf("figure1: %w", err)
	}
	code(fig)

	section("Table I — worst-case PI performance (unstable system, T = 10 ms)")
	t1, err := Table1Ctx(ctx, opt, nil, nil)
	if err != nil {
		return fmt.Errorf("table1: %w", err)
	}
	code(Table1String(t1))

	section("Table II — stability and worst-case LQG cost (PMSM, T = 50 µs)")
	t2, err := Table2Ctx(ctx, opt, nil, nil)
	if err != nil {
		return fmt.Errorf("table2: %w", err)
	}
	code(Table2String(t2))

	section("Design-space sweep — sensor granularity (§V-B)")
	sw, err := SweepNsCtx(ctx, []int{1, 2, 4, 5, 8, 10}, opt, nil, nil)
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	code(SweepString(sw))

	section("Ablation — PI adaptation decomposition")
	api, err := AblationPI(ctx, opt)
	if err != nil {
		return fmt.Errorf("ablation pi: %w", err)
	}
	code(AblationPIString(api))

	section("Ablation — JSR estimators")
	ajs, err := AblationJSR(ctx, opt)
	if err != nil {
		return fmt.Errorf("ablation jsr: %w", err)
	}
	code(AblationJSRString(ajs))

	section("Ablation — delay-aware vs naive LQR")
	alq, err := AblationDelayLQR(ctx, opt)
	if err != nil {
		return fmt.Errorf("ablation lqr: %w", err)
	}
	code(AblationLQRString(alq))

	section("Extension — bursty overruns (Markov) vs i.i.d.")
	br, err := BurstComparison(ctx, opt)
	if err != nil {
		return fmt.Errorf("burst: %w", err)
	}
	code(BurstString(br))

	section("Extension — weakly-hard constrained switching")
	wh, err := WeaklyHard(ctx, 4, opt)
	if err != nil {
		return fmt.Errorf("weaklyhard: %w", err)
	}
	code(WeaklyHardString(wh))

	section("Extension — implementation fidelity (sleep vs sleep_until)")
	dr, err := Drift([]float64{0, 0.001, 0.005, 0.01, 0.02, 0.05}, 200)
	if err != nil {
		return fmt.Errorf("drift: %w", err)
	}
	code(DriftString(dr))

	section("Extension — sensor-jitter robustness")
	ji, err := Jitter(ctx, []float64{0, 0.05, 0.1, 0.2, 0.5, 1.0},
		sim.MonteCarloOptions{Sequences: opt.Sequences/10 + 10, Jobs: opt.Jobs, Seed: opt.Seed, Workers: opt.Workers})
	if err != nil {
		return fmt.Errorf("jitter: %w", err)
	}
	code(JitterString(ji))

	section("Extension — fixed-point table width")
	qz, err := QuantizeSweepCtx(ctx, []int{4, 6, 8, 10, 12, 16, 24}, opt)
	if err != nil {
		return fmt.Errorf("quantize: %w", err)
	}
	code(QuantizeString(qz))

	section("Extension — observer-based LQG (current sensors only)")
	ob, err := ObserverComparison(ctx, opt)
	if err != nil {
		return fmt.Errorf("observer: %w", err)
	}
	code(ObserverString(ob))

	fmt.Fprintf(w, "\n---\ngenerated in %s\n", time.Since(start).Round(time.Second))
	return nil
}
