// Command adactl regenerates the evaluation artifacts of "Adaptive
// Design of Real-Time Control Systems subject to Sporadic Overruns"
// (DATE 2021): the two result tables, the Figure 1 timing diagram, the
// sensor-granularity design-space sweep, and the design-choice
// ablations.
//
// Usage:
//
//	adactl table1 [-sequences N] [-jobs M] [-seed S] [-workers W]
//	adactl table2 [-sequences N] [-jobs M] [-seed S] [-delta D] [-brute L] [-workers W]
//	adactl fig1
//	adactl sweep  [-ns 1,2,4,5,8,10]
//	adactl ablation [pi|jsr|lqr|all]
//	adactl rta
//
// Pass -paper to table1/table2 for the paper's full 50 000-sequence
// protocol (slower).
//
// The long-running commands (table1, table2, sweep, ablation, certify,
// burst, weaklyhard, quantize, observer, faultsim, report) are
// interruptible: SIGINT/SIGTERM stops them at the next boundary and the
// process exits 5 (report then writes no file). On table1, table2,
// sweep and faultsim -timeout also caps wall-clock time; an interrupted
// table1, table2 or sweep reports the rows it completed. With
// -checkpoint the per-row grid state is persisted atomically after
// every finished row, and -resume restarts the grid without recomputing
// finished rows.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"adaptivertc/internal/api"
	"adaptivertc/internal/buildinfo"
	"adaptivertc/internal/checkpoint"
	"adaptivertc/internal/core"
	"adaptivertc/internal/experiments"
	"adaptivertc/internal/faults"
	"adaptivertc/internal/guard"
	"adaptivertc/internal/inputhash"
	"adaptivertc/internal/jsr"
	"adaptivertc/internal/sched"
	"adaptivertc/internal/sim"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "table1":
		err = runTable1(ctx, args)
	case "table2":
		err = runTable2(ctx, args)
	case "fig1":
		err = runFig1()
	case "sweep":
		err = runSweep(ctx, args)
	case "ablation":
		err = runAblation(ctx, args)
	case "rta":
		err = runRTA()
	case "export":
		err = runExport(args)
	case "certify":
		err = runCertify(ctx, args)
	case "burst":
		err = runBurst(ctx, args)
	case "weaklyhard":
		err = runWeaklyHard(ctx, args)
	case "drift":
		err = runDrift(args)
	case "jitter":
		err = runJitter(ctx, args)
	case "quantize":
		err = runQuantize(ctx, args)
	case "observer":
		err = runObserver(ctx, args)
	case "faultsim":
		err = runFaultSim(ctx, args)
	case "report":
		err = runReport(ctx, args)
	case "version", "-version", "--version":
		fmt.Println(buildinfo.Line("adactl"))
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "adactl: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "adactl:", err)
		if interrupted(err) {
			os.Exit(5)
		}
		os.Exit(1)
	}
}

// interrupted reports whether err stems from cancellation or a deadline
// (jsr.ErrDeadline wraps the context cause, so it matches too).
func interrupted(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func usage() {
	fmt.Fprintln(os.Stderr, `adactl — reproduce the paper's evaluation

commands:
  table1     worst-case PI performance, unstable plant (Table I)
  table2     JSR bounds and LQG costs, PMSM (Table II)
  fig1       timing diagram with an overrun (Figure 1)
  sweep      sensor-granularity design-space sweep (§V-B)
  ablation   design-choice ablations: pi, jsr, lqr, or all
  rta        response-time analysis demo for the motivating task set
  export     emit a deployable mode table (JSON or C) for a scenario
  certify    print the stability certificate for a scenario
  burst      compare i.i.d. vs bursty overruns (PMSM)
  weaklyhard constrained-switching stability under (m,K) patterns
  drift      sleep(period-h) vs sleep_until implementation fidelity
  jitter     robustness to sensor-grid jitter (PMSM)
  quantize   fixed-point table width vs certified stability (PMSM)
  observer   full-information vs Kalman-observer LQG (PMSM)
  faultsim   fault-injected Monte-Carlo under the certified runtime guard
  report     regenerate every experiment into one markdown file`)
}

func experimentFlags(fs *flag.FlagSet) (*experiments.Options, *bool) {
	opt := &experiments.Options{}
	paper := fs.Bool("paper", false, "use the paper's 50 000-sequence protocol")
	fs.IntVar(&opt.Sequences, "sequences", 5000, "random response-time sequences per cell")
	fs.IntVar(&opt.Jobs, "jobs", 50, "jobs per sequence")
	fs.Int64Var(&opt.Seed, "seed", 1, "base RNG seed")
	fs.IntVar(&opt.BruteLen, "brute", 6, "brute-force JSR product depth")
	fs.Float64Var(&opt.Delta, "delta", 1e-3, "Gripenberg target accuracy (shared default with jsrtool)")
	fs.StringVar(&opt.Model, "model", "uniform", "response model: uniform | sporadic | burst")
	fs.IntVar(&opt.Refine, "refine", 0, "coordinate-ascent passes refining the sampled worst case (0 = off)")
	fs.IntVar(&opt.Workers, "workers", 0, "worker goroutines per parallel stage (0 = all cores); results are identical for every value")
	return opt, paper
}

// resilienceFlags registers the interruption/resume knobs shared by the
// long-running grid commands.
func resilienceFlags(fs *flag.FlagSet) (timeout *time.Duration, ckptPath *string, resume *bool) {
	timeout = fs.Duration("timeout", 0, "wall-clock budget; an interrupted run reports completed rows and exits 5 (0 = none)")
	ckptPath = fs.String("checkpoint", "", "persist per-row grid state to this file after every completed row")
	resume = fs.Bool("resume", false, "resume from the -checkpoint file, skipping completed rows")
	return
}

// paramsFor pins a grid checkpoint to the flags that shape its rows
// (see inputhash.GridParams); a resume with different parameters is
// refused rather than silently mixing results.
func paramsFor(opt experiments.Options, n int, extra string) inputhash.GridParams {
	return inputhash.GridParams{
		Sequences: opt.Sequences, Jobs: opt.Jobs, Seed: opt.Seed,
		BruteLen: opt.BruteLen, Delta: opt.Delta, Model: opt.Model,
		Refine: opt.Refine, N: n, Extra: extra,
	}
}

// gridCkpt is the persisted state of a resumable experiment grid: the
// row slice the experiment writes into plus the per-row done flags.
type gridCkpt[T any] struct {
	Params inputhash.GridParams
	Rows   []T
	Done   []bool
}

const gridCkptVersion = 1

// newGridState builds the (rows, resume-tracker) pair for a grid
// command: fresh when resume is false, loaded and validated from the
// checkpoint otherwise. The returned GridResume persists the shared
// gridCkpt after every completed row; it is nil when no checkpoint was
// requested (timeout/signal interruption still works, it just cannot
// resume).
func newGridState[T any](kind, path string, resume bool, params inputhash.GridParams) (*gridCkpt[T], *experiments.GridResume, error) {
	ck := &gridCkpt[T]{Params: params, Rows: make([]T, params.N), Done: make([]bool, params.N)}
	if resume {
		if path == "" {
			return nil, nil, fmt.Errorf("-resume requires -checkpoint")
		}
		var loaded gridCkpt[T]
		if err := checkpoint.Load(path, kind, gridCkptVersion, &loaded); err != nil {
			return nil, nil, err
		}
		if loaded.Params != params {
			return nil, nil, fmt.Errorf("checkpoint %s was taken with different parameters; rerun with matching flags or start fresh", path)
		}
		if len(loaded.Rows) != params.N || len(loaded.Done) != params.N {
			return nil, nil, fmt.Errorf("checkpoint %s tracks %d rows, grid has %d", path, len(loaded.Rows), params.N)
		}
		ck = &loaded
	}
	if path == "" {
		return ck, nil, nil
	}
	res := &experiments.GridResume{
		Done: ck.Done,
		Save: func() error { return checkpoint.Save(path, kind, gridCkptVersion, ck) },
	}
	// Materialize the file up front so a run interrupted before its first
	// completed row still leaves a (zero-progress) checkpoint to resume.
	if err := res.Save(); err != nil {
		return nil, nil, err
	}
	return ck, res, nil
}

// finishGrid reports an interrupted grid run (completed-row count plus
// the resume hint) or clears the checkpoint of a completed one.
func finishGrid(err error, ckptPath string, done []bool) error {
	if err == nil {
		if ckptPath != "" {
			if rerr := os.Remove(ckptPath); rerr != nil && !errors.Is(rerr, os.ErrNotExist) {
				return fmt.Errorf("removing checkpoint: %w", rerr)
			}
		}
		return nil
	}
	if interrupted(err) {
		n := 0
		for _, d := range done {
			if d {
				n++
			}
		}
		fmt.Printf("\ninterrupted: %d/%d rows completed (rows above reflect finished work only)\n", n, len(done))
		if ckptPath != "" {
			fmt.Printf("resume with -resume -checkpoint %s\n", ckptPath)
		}
	}
	return err
}

// writeFileAtomic writes a derived artifact (CSV, report, export) via
// temp-file + rename so an interrupted run never leaves a truncated
// file, and propagates close/sync errors.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	return checkpoint.WriteFileAtomic(path, write)
}

func runTable1(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("table1", flag.ExitOnError)
	opt, paper := experimentFlags(fs)
	csvPath := fs.String("csv", "", "also write the rows as CSV to this file")
	timeout, ckptPath, resume := resilienceFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *paper {
		*opt = experiments.PaperOptions()
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	full := opt.Defaults()
	ck, res, err := newGridState[experiments.Table1Row]("adactl/table1", *ckptPath, *resume, paramsFor(full, len(full.Grid), ""))
	if err != nil {
		return err
	}
	start := time.Now()
	rows, err := experiments.Table1Ctx(ctx, *opt, ck.Rows, res)
	if err != nil && !interrupted(err) {
		return err
	}
	fmt.Println("Table I — worst-case performance Jm, PI controller, unstable system, T = 10 ms")
	fmt.Printf("(%d sequences × %d jobs per cell)\n\n", full.Sequences, full.Jobs)
	fmt.Print(experiments.Table1String(rows))
	fmt.Printf("\nelapsed: %s\n", time.Since(start).Round(time.Millisecond))
	if err := finishGrid(err, *ckptPath, ck.Done); err != nil {
		return err
	}
	if *csvPath != "" {
		return writeFileAtomic(*csvPath, func(w io.Writer) error {
			return experiments.Table1CSV(rows, w)
		})
	}
	return nil
}

func runTable2(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("table2", flag.ExitOnError)
	opt, paper := experimentFlags(fs)
	csvPath := fs.String("csv", "", "also write the rows as CSV to this file")
	timeout, ckptPath, resume := resilienceFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *paper {
		*opt = experiments.PaperOptions()
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	full := opt.Defaults()
	ck, res, err := newGridState[experiments.Table2Row]("adactl/table2", *ckptPath, *resume, paramsFor(full, len(full.Grid), ""))
	if err != nil {
		return err
	}
	start := time.Now()
	rows, err := experiments.Table2Ctx(ctx, *opt, ck.Rows, res)
	if err != nil && !interrupted(err) {
		return err
	}
	fmt.Println("Table II — stability and worst-case cost, PMSM, LQG, T = 50 µs")
	fmt.Printf("(%d sequences × %d jobs per cell)\n\n", full.Sequences, full.Jobs)
	fmt.Print(experiments.Table2String(rows))
	fmt.Printf("\nelapsed: %s\n", time.Since(start).Round(time.Millisecond))
	if err := finishGrid(err, *ckptPath, ck.Done); err != nil {
		return err
	}
	if *csvPath != "" {
		return writeFileAtomic(*csvPath, func(w io.Writer) error {
			return experiments.Table2CSV(rows, w)
		})
	}
	return nil
}

func runFig1() error {
	out, err := experiments.Figure1()
	if err != nil {
		return err
	}
	fmt.Println("Figure 1 — sensing/computing timeline, Ns = 8, one overrun")
	fmt.Println()
	fmt.Print(out)
	return nil
}

func runSweep(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	opt, _ := experimentFlags(fs)
	nsList := fs.String("ns", "1,2,4,5,8,10", "comma-separated oversampling factors")
	csvPath := fs.String("csv", "", "also write the rows as CSV to this file")
	timeout, ckptPath, resume := resilienceFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var factors []int
	for _, s := range strings.Split(*nsList, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return fmt.Errorf("bad -ns entry %q: %w", s, err)
		}
		factors = append(factors, v)
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// Pin the checkpoint to the normalized factor list, not the raw flag
	// string, so "1, 2" and "1,2" resume each other.
	norm := make([]string, len(factors))
	for i, f := range factors {
		norm[i] = strconv.Itoa(f)
	}
	ck, res, err := newGridState[experiments.SweepRow]("adactl/sweep", *ckptPath, *resume,
		paramsFor(opt.Defaults(), len(factors), "ns="+strings.Join(norm, ",")))
	if err != nil {
		return err
	}
	rows, err := experiments.SweepNsCtx(ctx, factors, *opt, ck.Rows, res)
	if err != nil && !interrupted(err) {
		return err
	}
	fmt.Println("Design-space sweep — sensor granularity vs #H, stability and cost (PMSM, Rmax = 1.6·T)")
	fmt.Println()
	fmt.Print(experiments.SweepString(rows))
	if err := finishGrid(err, *ckptPath, ck.Done); err != nil {
		return err
	}
	if *csvPath != "" {
		return writeFileAtomic(*csvPath, func(w io.Writer) error {
			return experiments.SweepCSV(rows, w)
		})
	}
	return nil
}

func runAblation(ctx context.Context, args []string) error {
	which := "all"
	if len(args) > 0 {
		which = args[0]
	}
	opt := experiments.Options{Sequences: 2000, Jobs: 50, Seed: 1, BruteLen: 5, Delta: 1e-3}
	if which == "pi" || which == "all" {
		rows, err := experiments.AblationPI(ctx, opt)
		if err != nil {
			return err
		}
		fmt.Println("Ablation: PI adaptation decomposition (worst-case Jm)")
		fmt.Print(experiments.AblationPIString(rows))
		fmt.Println()
	}
	if which == "jsr" || which == "all" {
		rows, err := experiments.AblationJSR(ctx, opt)
		if err != nil {
			return err
		}
		fmt.Println("Ablation: JSR estimators (raw vs Lyapunov-preconditioned)")
		fmt.Print(experiments.AblationJSRString(rows))
		fmt.Println()
	}
	if which == "lqr" || which == "all" {
		rows, err := experiments.AblationDelayLQR(ctx, opt)
		if err != nil {
			return err
		}
		fmt.Println("Ablation: delay-aware vs naive LQR (worst-case cost)")
		fmt.Print(experiments.AblationLQRString(rows))
		fmt.Println()
	}
	switch which {
	case "pi", "jsr", "lqr", "all":
		return nil
	}
	return fmt.Errorf("unknown ablation %q (want pi, jsr, lqr or all)", which)
}

// runExport emits the deployable "timer and table of control
// parameters" artifact (§IV) for one of the built-in scenarios.
func runExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	scenario := fs.String("scenario", "pmsm", "pmsm | unstable | quickstart")
	format := fs.String("format", "c", "c | json")
	rmaxFactor := fs.Float64("rmax-factor", 1.6, "Rmax as a multiple of T")
	ns := fs.Int("ns", 5, "sensor oversampling factor")
	prefix := fs.String("prefix", "adactl", "symbol prefix for C output")
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	design, err := api.BuildScenario(*scenario, *rmaxFactor, *ns)
	if err != nil {
		return err
	}

	var data []byte
	switch *format {
	case "json":
		data, err = design.ExportJSON()
		if err != nil {
			return err
		}
		data = append(data, '\n')
	case "c":
		data = []byte(design.ExportC(*prefix))
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
	if *out == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return writeFileAtomic(*out, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// runRTA demonstrates the analysis producing the Rmax that the adaptive
// design consumes: a control task interfered with by higher-priority
// work, as in the paper's motivating automotive scenario.
func runRTA() error {
	tasks := []*sched.Task{
		{Name: "interrupt", Period: 0.004, Priority: 1, Exec: sched.UniformExec{Lo: 0.0003, Hi: 0.0012}},
		{Name: "comm", Period: 0.010, Priority: 2, Exec: sched.UniformExec{Lo: 0.0008, Hi: 0.0025}},
		{Name: "control", Period: 0.010, Priority: 3, Exec: sched.UniformExec{Lo: 0.001, Hi: 0.004}},
	}
	wcrt, err := sched.ResponseTimeAnalysis(tasks, 0)
	if err != nil {
		return err
	}
	fmt.Println("Response-time analysis (fixed-priority preemptive, single core)")
	fmt.Printf("total WCET utilization: %.3f\n\n", sched.Utilization(tasks))
	fmt.Printf("%-10s %10s %10s %12s\n", "task", "T", "WCET", "WCRT")
	for _, t := range tasks {
		_, c := t.Exec.Bounds()
		fmt.Printf("%-10s %10.4g %10.4g %12.4g\n", t.Name, t.Period, c, wcrt[t.Name])
	}
	ctl := wcrt["control"]
	fmt.Printf("\ncontrol task: Rmax = %.4g = %.2f·T > T — the sporadic-overrun regime the design\n", ctl, ctl/0.010)
	fmt.Println("targets. (Single-job analysis is exact here: the adaptive release rule never")
	fmt.Println("releases a control job while its predecessor runs, so jobs do not self-interfere.)")
	return nil
}

// runCertify prints the stability certificate (JSR bracket, verdict,
// worst overrun pattern, deployment coverage) for a built-in scenario.
func runCertify(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("certify", flag.ExitOnError)
	scenario := fs.String("scenario", "pmsm", "pmsm | unstable | quickstart")
	rmaxFactor := fs.Float64("rmax-factor", 1.6, "Rmax as a multiple of T")
	ns := fs.Int("ns", 5, "sensor oversampling factor")
	delta := fs.Float64("delta", 1e-3, "Gripenberg target accuracy (shared default with jsrtool)")
	check := fs.Float64("check-rmax-factor", 0, "if > 0, also check coverage of a deployment with this Rmax/T")
	workers := fs.Int("workers", 0, "JSR worker goroutines (0 = all cores); bounds are identical for every value")
	if err := fs.Parse(args); err != nil {
		return err
	}
	design, err := buildScenario(*scenario, *rmaxFactor, *ns)
	if err != nil {
		return err
	}
	cert, err := design.CertifyCtx(ctx, 6, jsr.GripenbergOptions{Delta: *delta, MaxDepth: 30, Workers: *workers})
	if err != nil {
		return err
	}
	fmt.Print(cert.Report())
	if *check > 0 {
		actual := *check * design.Timing.T
		fmt.Printf("  deployment with Rmax = %.2f·T covered: %v\n", *check, cert.CoversDeployment(actual))
	}
	return nil
}

// buildScenario constructs the named demo design (shared by export,
// certify, faultsim, and the certification service).
func buildScenario(scenario string, rmaxFactor float64, ns int) (*core.Design, error) {
	return api.BuildScenario(scenario, rmaxFactor, ns)
}

// runBurst compares independent and bursty overrun patterns with the
// same long-run overrun fraction.
func runBurst(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("burst", flag.ExitOnError)
	opt, _ := experimentFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	rows, err := experiments.BurstComparison(ctx, *opt)
	if err != nil {
		return err
	}
	fmt.Println("Burst robustness — worst-case cost, i.i.d. vs Markov-bursty overruns (same marginal rate)")
	fmt.Println()
	fmt.Print(experiments.BurstString(rows))
	return nil
}

// runWeaklyHard brackets the constrained JSR under weakly-hard overrun
// patterns (refs [16]-[18] of the paper).
func runWeaklyHard(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("weaklyhard", flag.ExitOnError)
	k := fs.Int("k", 4, "weakly-hard window K")
	brute := fs.Int("brute", 6, "product enumeration depth")
	workers := fs.Int("workers", 0, "worker goroutines (0 = all cores); results are identical for every value")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rows, err := experiments.WeaklyHard(ctx, *k, experiments.Options{BruteLen: *brute, Workers: *workers})
	if err != nil {
		return err
	}
	fmt.Printf("Weakly-hard constrained stability — PMSM, skip-next (Ns = 1, Rmax = 1.6·T)\n")
	fmt.Printf("at most m overruns in any %d consecutive jobs; m = K is the paper's arbitrary switching\n\n", *k)
	fmt.Print(experiments.WeaklyHardString(rows))
	return nil
}

// runDrift quantifies the listing's sleep-primitive remark.
func runDrift(args []string) error {
	fs := flag.NewFlagSet("drift", flag.ExitOnError)
	jobs := fs.Int("jobs", 200, "control jobs per run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rows, err := experiments.Drift([]float64{0, 0.001, 0.005, 0.01, 0.02, 0.05}, *jobs)
	if err != nil {
		return err
	}
	fmt.Println("Implementation fidelity — relative sleep(period-h) vs absolute sleep_until")
	fmt.Println("(per-iteration loop overhead accumulates as release drift and sample staleness)")
	fmt.Println()
	fmt.Print(experiments.DriftString(rows))
	return nil
}

// runJitter sweeps sensor-jitter amplitudes on the PMSM design.
func runJitter(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("jitter", flag.ExitOnError)
	runs := fs.Int("runs", 500, "random runs per amplitude")
	jobs := fs.Int("jobs", 50, "jobs per run")
	seed := fs.Int64("seed", 1, "base RNG seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rows, err := experiments.Jitter(ctx, []float64{0, 0.05, 0.1, 0.2, 0.5, 1.0},
		sim.MonteCarloOptions{Sequences: *runs, Jobs: *jobs, Seed: *seed})
	if err != nil {
		return err
	}
	fmt.Println("Sensor-jitter robustness — actual interval = grid value + ε·Ts·U(-1,1)")
	fmt.Println("(the analysis assumes ε = 0; the design tolerates small violations gracefully)")
	fmt.Println()
	fmt.Print(experiments.JitterString(rows))
	return nil
}

// runQuantize sweeps fixed-point table widths.
func runQuantize(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("quantize", flag.ExitOnError)
	delta := fs.Float64("delta", 1e-3, "Gripenberg target accuracy (shared default with jsrtool)")
	workers := fs.Int("workers", 0, "JSR worker goroutines (0 = all cores); bounds are identical for every value")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rows, err := experiments.QuantizeSweepCtx(ctx, []int{4, 6, 8, 10, 12, 16, 24},
		experiments.Options{BruteLen: 5, Delta: *delta, Workers: *workers})
	if err != nil {
		return err
	}
	fmt.Println("Fixed-point deployment — controller-table width vs certified stability (PMSM, 1.6·T, T/5)")
	fmt.Println()
	fmt.Print(experiments.QuantizeString(rows))
	return nil
}

// runObserver compares the state-feedback and observer-based designs.
func runObserver(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("observer", flag.ExitOnError)
	opt, _ := experimentFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	rows, err := experiments.ObserverComparison(ctx, *opt)
	if err != nil {
		return err
	}
	fmt.Println("Observer-based LQG — current sensors only, per-mode Kalman predictor (§IV-B)")
	fmt.Println()
	fmt.Print(experiments.ObserverString(rows))
	return nil
}

// runFaultSim certifies the degradation ladder for a scenario, then
// runs a fault-injected Monte-Carlo under the runtime guard: response
// times escape the certified Rmax, sensors drop/stick/noise, actuators
// miss latches and releases jitter, while the monitor escalates
// Nominal → Clamp → SafeMode and recovers with hysteresis.
func runFaultSim(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("faultsim", flag.ExitOnError)
	scenario := fs.String("scenario", "pmsm", "pmsm | unstable | quickstart")
	timeout := fs.Duration("timeout", 0, "wall-clock budget; an interrupted run exits 5 (0 = none)")
	rmaxFactor := fs.Float64("rmax-factor", 1.6, "Rmax as a multiple of T")
	ns := fs.Int("ns", 5, "sensor oversampling factor")
	sequences := fs.Int("sequences", 2000, "random fault-injected sequences")
	jobs := fs.Int("jobs", 50, "jobs per sequence")
	seed := fs.Int64("seed", 1, "base RNG seed")
	workers := fs.Int("workers", 0, "worker goroutines (0 = all cores); results are identical for every value")
	// Fault mix.
	excursion := fs.Float64("excursion", 0.05, "P(response time beyond the certified Rmax) per job")
	excFactor := fs.Float64("excursion-factor", 1.5, "excursion ceiling as a multiple of Rmax")
	drop := fs.Float64("drop", 0.02, "P(sensor sample lost) per job")
	dropZero := fs.Bool("drop-zero", false, "lost samples read zero instead of holding the last value")
	stuck := fs.Float64("stuck", 0.005, "P(transducer freezes) per job")
	stuckLen := fs.Int("stuck-len", 5, "jobs a stuck fault persists")
	noise := fs.Float64("noise", 0.02, "P(noisy sample) per job")
	noiseAmp := fs.Float64("noise-amp", 0.05, "uniform per-channel noise amplitude")
	actHold := fs.Float64("act-hold", 0.01, "P(actuator misses a latch) per job")
	jitterAmp := fs.Float64("jitter", 0.1, "release jitter amplitude as a fraction of Ts")
	// Deployment contract.
	whM := fs.Int("wh-m", 2, "weakly-hard budget: at most m overruns …")
	whK := fs.Int("wh-k", 5, "… in any K consecutive jobs")
	recover := fs.Int("recover", 5, "clean jobs before de-escalating one tier")
	fallback := fs.String("fallback", "zero", "SafeMode actuator policy: zero | hold")
	diverge := fs.Float64("diverge", 1e6, "lifted-state ∞-norm forcing SafeMode (0 disables)")
	// Certification.
	extra := fs.Int("extra", 2, "excursion sensor periods covered by the degraded certificates")
	delta := fs.Float64("delta", 1e-3, "Gripenberg target accuracy (shared default with jsrtool)")
	brute := fs.Int("brute", 4, "brute-force JSR product depth")
	nodes := fs.Int("nodes", 200_000, "Gripenberg node budget per tier (degraded tiers sit near ρ = 1, where the full default budget is slow)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var fb guard.Fallback
	switch *fallback {
	case "zero":
		fb = guard.FallbackZero
	case "hold":
		fb = guard.FallbackHold
	default:
		return fmt.Errorf("unknown fallback %q (want zero or hold)", *fallback)
	}
	design, err := buildScenario(*scenario, *rmaxFactor, *ns)
	if err != nil {
		return err
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	start := time.Now()
	ladder, err := guard.CertifyLadderCtx(ctx, design, guard.CertifyOptions{
		BruteLen:   *brute,
		Grip:       jsr.GripenbergOptions{Delta: *delta, MaxDepth: 30, MaxNodes: *nodes, Workers: *workers},
		ExtraSteps: *extra,
		Fallback:   fb,
	})
	if err != nil {
		return err
	}
	fmt.Print(ladder.Report())
	fmt.Println()

	x0 := make([]float64, design.Plant.StateDim())
	x0[0] = 1
	tm := design.Timing
	metrics, err := sim.FaultMonteCarloCtx(ctx, design, x0,
		sim.SporadicResponse{Rmin: tm.Rmin, T: tm.T, Rmax: tm.Rmax, OverrunProb: 0.3},
		sim.ErrorCost(),
		sim.FaultOptions{
			MonteCarloOptions: sim.MonteCarloOptions{
				Sequences: *sequences, Jobs: *jobs, Seed: *seed, Workers: *workers,
			},
			Profile: faults.Profile{
				Excursion: *excursion, ExcursionFactor: *excFactor,
				Drop: *drop, DropZero: *dropZero,
				Stuck: *stuck, StuckLen: *stuckLen,
				Noise: *noise, NoiseAmp: *noiseAmp,
				ActHold: *actHold, JitterAmp: *jitterAmp,
			},
			Contract: guard.Contract{
				M: *whM, K: *whK,
				DivergeLimit: *diverge,
				RecoverAfter: *recover,
				Fallback:     fb,
			},
		})
	if err != nil {
		return err
	}
	fmt.Printf("Fault-injected Monte-Carlo — %s, guarded runtime (%d sequences × %d jobs)\n\n",
		*scenario, *sequences, *jobs)
	fmt.Println(metrics)
	fmt.Printf("\nelapsed: %s\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// runReport regenerates the full evaluation into a markdown report.
func runReport(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	opt, paper := experimentFlags(fs)
	out := fs.String("o", "REPORT.md", "output file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *paper {
		*opt = experiments.PaperOptions()
	}
	if err := writeFileAtomic(*out, func(w io.Writer) error {
		return experiments.Report(ctx, *opt, w)
	}); err != nil {
		return err
	}
	fmt.Printf("report written to %s\n", *out)
	return nil
}
