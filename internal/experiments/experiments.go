// Package experiments regenerates the paper's evaluation artifacts:
// Table I (worst-case PI performance on an unstable plant), Table II
// (stability bounds and LQG costs for a PMSM), Figure 1 (the timing
// diagram), and the Ts-granularity design-space sweep discussed in
// §V-B. The same entry points back cmd/adactl and the repository-level
// benchmarks.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"

	"adaptivertc/internal/control"
	"adaptivertc/internal/core"
	"adaptivertc/internal/jsr"
	"adaptivertc/internal/lti"
	"adaptivertc/internal/mat"
	"adaptivertc/internal/plants"
	"adaptivertc/internal/sched"
	"adaptivertc/internal/sim"
	"adaptivertc/internal/trace"
)

// Config is one (Rmax, Ts) cell of the paper's evaluation grid.
type Config struct {
	RmaxFactor float64 // Rmax = factor · T
	Ns         int     // Ts = T / Ns
}

// Label renders the cell as the paper prints it ("1.3·T", "T/5").
func (c Config) Label() string {
	return fmt.Sprintf("Rmax=%.1f·T Ts=T/%d", c.RmaxFactor, c.Ns)
}

// PaperGrid is the six-configuration grid of Tables I and II.
var PaperGrid = []Config{
	{1.1, 2}, {1.1, 5},
	{1.3, 2}, {1.3, 5},
	{1.6, 2}, {1.6, 5},
}

// Options tunes experiment fidelity. The paper uses Sequences=50000,
// Jobs=50; smaller values keep smoke runs and benchmarks fast.
type Options struct {
	Sequences int
	Jobs      int
	Seed      int64
	BruteLen  int      // brute-force product depth for JSR
	Delta     float64  // Gripenberg target accuracy
	Grid      []Config // evaluation grid; nil selects PaperGrid
	Model     string   // response model: "uniform" (default), "sporadic", "burst"
	Refine    int      // coordinate-ascent passes on the sampled worst (0 = off)
	// Workers bounds the goroutines used per parallel stage (grid rows,
	// JSR expansion, Monte-Carlo sequences); ≤ 0 selects GOMAXPROCS.
	// Results are identical for every value.
	Workers int
}

// GridResume tracks per-row completion of an experiment grid so an
// interrupted run can resume without recomputing finished rows. Done[i]
// marks row i complete; its length must equal the grid size. Save, when
// non-nil, is invoked after each newly completed row — row publication
// (the commit closure each grid fn registers), updates to Done, and
// Save calls are all serialized under one lock, so the hook can safely
// persist Done together with the caller's row slice: Save never
// observes a half-written row.
type GridResume struct {
	Done []bool
	Save func() error
}

// ctxInterrupted reports whether err carries nothing but a context
// cancellation or deadline (including wrapped forms).
func ctxInterrupted(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// gridParallel evaluates fn(i) for every grid row i on at most
// `workers` goroutines. Each fn owns row i exclusively and registers
// its result with publish (typically publish(func() { rows[i] = row }));
// gridParallel runs that commit closure under the same mutex that
// serializes res.Done updates and res.Save calls, so a Save hook that
// snapshots the caller's row slice never races a concurrent row write.
// Results are deterministic. Rows already marked done in res are
// skipped; cancellation stops the feeder and in-flight rows at their
// next poll. Real row failures are joined in index order and take
// precedence over cancellation noise; a run cut short purely by the
// context returns the context's error, while a run whose rows all
// completed returns nil even if the context fired afterwards.
func gridParallel(ctx context.Context, n, workers int, res *GridResume, fn func(i int, publish func(commit func())) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if res != nil && len(res.Done) != n {
		return fmt.Errorf("experiments: resume state tracks %d rows, grid has %d", len(res.Done), n)
	}
	errs := make([]error, n)
	var mu sync.Mutex // serializes row commits, res.Done updates, and res.Save calls
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if cerr := ctx.Err(); cerr != nil {
					errs[i] = cerr
					continue
				}
				var commit func()
				err := fn(i, func(c func()) { commit = c })
				if err == nil {
					mu.Lock()
					if commit != nil {
						commit()
					}
					if res != nil {
						res.Done[i] = true
						if res.Save != nil {
							err = res.Save()
						}
					}
					mu.Unlock()
				}
				errs[i] = err
			}
		}()
	}
	cut := false // feeder stopped before dispatching every remaining row
feed:
	for i := 0; i < n; i++ {
		if res != nil && res.Done[i] {
			continue
		}
		select {
		case next <- i:
		case <-ctx.Done():
			cut = true
			break feed
		}
	}
	close(next)
	wg.Wait()

	var fails []error
	var ctxErr error
	for _, err := range errs {
		switch {
		case err == nil:
		case ctxInterrupted(err):
			if ctxErr == nil {
				ctxErr = err
			}
		default:
			fails = append(fails, err)
		}
	}
	if len(fails) > 0 {
		return errors.Join(fails...)
	}
	if ctxErr != nil {
		return ctxErr
	}
	if cut {
		return ctx.Err()
	}
	return nil
}

// Defaults fills zero fields with fast-but-meaningful values.
func (o Options) Defaults() Options {
	if len(o.Grid) == 0 {
		o.Grid = PaperGrid
	}
	if o.Sequences == 0 {
		o.Sequences = 5000
	}
	if o.Jobs == 0 {
		o.Jobs = 50
	}
	if o.BruteLen == 0 {
		o.BruteLen = 6
	}
	//lint:ignore floatcompare the zero value of Delta is the documented "use the default" sentinel
	if o.Delta == 0 {
		o.Delta = 1e-3
	}
	if o.Model == "" {
		o.Model = "uniform"
	}
	return o
}

// responseModel builds the configured response-time model for a timing
// configuration. The sporadic and burst variants use a 15 % stationary
// overrun rate.
func (o Options) responseModel(tm core.Timing) (sim.ResponseModel, error) {
	switch o.Model {
	case "uniform":
		return sim.UniformResponse{Rmin: tm.Rmin, Rmax: tm.Rmax}, nil
	case "sporadic":
		return sim.SporadicResponse{Rmin: tm.Rmin, T: tm.T, Rmax: tm.Rmax, OverrunProb: 0.15}, nil
	case "burst":
		return sim.BurstResponse{Rmin: tm.Rmin, T: tm.T, Rmax: tm.Rmax, PEnter: 0.06, PExit: 0.34}, nil
	default:
		return nil, fmt.Errorf("experiments: unknown response model %q", o.Model)
	}
}

// PaperOptions reproduces the paper's sequence counts.
func PaperOptions() Options {
	return Options{Sequences: 50000, Jobs: 50, BruteLen: 6, Delta: 1e-4}
}

// ---------------------------------------------------------------------------
// Table I — PI control of an unstable system, T = 10 ms.

// Table1Row is one line of Table I: worst-case Jm for the adaptive
// controller and the two fixed-gain baselines (all with adaptive
// periods).
type Table1Row struct {
	Config
	Intervals []float64
	Adaptive  float64
	FixedT    float64
	FixedRmax float64
}

// table1T is the control period of Table I.
const table1T = 0.010

// piTuner memoizes the single-mode PI tuning behind Table I (used for
// the fixed-gain baselines and the nominal mode) and assembles the
// adaptive mode tables. It is safe for concurrent use by the parallel
// grid rows: TunePI is deterministic in h, so even a duplicated tuning
// race stores the same gains.
type piTuner struct {
	plant *lti.System
	x0    []float64

	mu     sync.Mutex
	single map[int64]control.PIGains
}

func newPITuner(plant *lti.System) *piTuner {
	return &piTuner{
		plant:  plant,
		x0:     []float64{1, 0},
		single: map[int64]control.PIGains{},
	}
}

func gainKey(h float64) int64 { return int64(math.Round(h * 1e12)) }

func (t *piTuner) tunedSingle(h float64) (control.PIGains, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if g, ok := t.single[gainKey(h)]; ok {
		return g, nil
	}
	g, err := control.TunePI(t.plant, h, control.PITuneOptions{})
	if err != nil {
		return control.PIGains{}, err
	}
	t.single[gainKey(h)] = g
	return g, nil
}

// adaptiveTable builds the full mode table for one timing
// configuration: mode 0 carries the nominal tuned gains; each overrun
// mode h keeps the same proportional/integral gains but adapts the
// forward-Euler integrator step to the experienced interval, exactly
// Eq. 7's z[k+1] = z[k] + h_{k-1}·e[k]. The internal-state compensation
// is the paper's headline mechanism ("adjust the internal states of the
// controller, such as the integrator states"), and an ablation
// (cmd/adactl ablation, BenchmarkAblationPI*) shows it is also the part
// that consistently improves the worst case; naively re-tuned per-mode
// gains overfit the tuning scenarios and lose robustness.
func (t *piTuner) adaptiveTable(tm core.Timing) (map[int64]control.PIGains, error) {
	base, err := t.tunedSingle(tm.T)
	if err != nil {
		return nil, err
	}
	hs := tm.Intervals()
	table := map[int64]control.PIGains{gainKey(tm.T): base}
	for _, h := range hs[1:] {
		table[gainKey(h)] = control.PIGains{KP: base.KP, KI: base.KI, H: h}
	}
	return table, nil
}

// Table1Ctx regenerates Table I. Grid rows are independent and
// evaluated in parallel; each goroutine owns exactly one row slot.
// rows, when non-nil and of grid length, is written in place (pass the
// slice a resume checkpoint restored); otherwise a fresh slice is
// allocated. res, when non-nil, skips rows already marked done and
// persists progress after each row. On error (including cancellation)
// the partially filled rows are returned alongside it: rows with
// res.Done[i] set are valid.
func Table1Ctx(ctx context.Context, opt Options, rows []Table1Row, res *GridResume) ([]Table1Row, error) {
	opt = opt.Defaults()
	plant := plants.Unstable()
	x0 := []float64{1, 0}
	tuner := newPITuner(plant)

	if len(rows) != len(opt.Grid) {
		rows = make([]Table1Row, len(opt.Grid))
	}
	err := gridParallel(ctx, len(opt.Grid), opt.Workers, res, func(ri int, publish func(func())) error {
		cfg := opt.Grid[ri]
		tm, err := core.NewTiming(table1T, cfg.Ns, table1T/10, cfg.RmaxFactor*table1T)
		if err != nil {
			return err
		}
		hs := tm.Intervals()
		hmax := hs[len(hs)-1]

		table, err := tuner.adaptiveTable(tm)
		if err != nil {
			return err
		}
		adaptive := core.Designer(func(h float64) (*control.StateSpace, error) {
			g, ok := table[gainKey(h)]
			if !ok {
				return nil, fmt.Errorf("experiments: no tuned mode for h=%g", h)
			}
			return g.Controller(), nil
		})
		gT, err := tuner.tunedSingle(tm.T)
		if err != nil {
			return fmt.Errorf("experiments: tuning for T: %w", err)
		}
		gMax, err := tuner.tunedSingle(hmax)
		if err != nil {
			return fmt.Errorf("experiments: tuning for Rmax: %w", err)
		}

		row := Table1Row{Config: cfg, Intervals: hs}
		model, err := opt.responseModel(tm)
		if err != nil {
			return err
		}
		for _, strat := range []struct {
			dst      *float64
			designer core.Designer
		}{
			{&row.Adaptive, adaptive},
			{&row.FixedT, core.FixedDesigner(gT.Controller())},
			{&row.FixedRmax, core.FixedDesigner(gMax.Controller())},
		} {
			d, err := core.NewDesign(plant, tm, strat.designer)
			if err != nil {
				return err
			}
			m, err := sim.WorstCaseCtx(ctx, d, x0, model, sim.ErrorCost(),
				sim.MonteCarloOptions{Sequences: opt.Sequences, Jobs: opt.Jobs, Seed: opt.Seed, Workers: opt.Workers}, opt.Refine)
			if err != nil {
				return err
			}
			*strat.dst = m.WorstCost
		}
		publish(func() { rows[ri] = row })
		return nil
	})
	return rows, err
}

// Table1String renders rows in the paper's layout.
func Table1String(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-6s %12s %12s %12s\n", "Rmax", "Ts", "Adaptive", "Fixed T", "Fixed Rmax")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-6s %12.4f %12.4f %12.4f\n",
			fmt.Sprintf("%.1f·T", r.RmaxFactor), fmt.Sprintf("T/%d", r.Ns),
			r.Adaptive, r.FixedT, r.FixedRmax)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Table II — LQG control of a PMSM, T = 50 µs.

// Table2Row is one line of Table II.
type Table2Row struct {
	Config
	JSR            jsr.Bounds // adaptive design stability bracket
	JSRBudgetHit   bool       // bracket valid but looser than requested
	CostIdeal      float64    // no overruns, nominal period
	Adaptive       float64    // adaptive period + adaptive control
	FixedT         float64    // adaptive period + gains for T
	FixedTUnstable bool
	FixedRmax      float64 // adaptive period + gains for Rmax
	FixedPeriod    float64 // fixed period Rmax + gains for Rmax
}

// table2T is the control period of Table II.
const table2T = 50e-6

func pmsmWeights() control.LQRWeights {
	// A fast speed loop (ω weighted against cheap currents/voltages)
	// reproduces the paper's regime: per-period contraction around
	// 0.65–0.98 so that extra delays of a few sensor periods visibly
	// erode stability margins, and the fixed-gain baseline designed for
	// T loses stability at Rmax = 1.6·T with Ts = T/2.
	return control.LQRWeights{
		Q: mat.Diag(1, 1, 5),
		R: mat.Scale(0.01, mat.Eye(2)),
	}
}

func pmsmInitialState() []float64 { return []float64{1, 1, 20} }

// Table2Ctx regenerates Table II; rows and res behave as in Table1Ctx.
// A JSR search cut by the node budget marks the row JSRBudgetHit (the
// bracket stays valid); a row cut by cancellation is not completed and
// will be recomputed on resume.
func Table2Ctx(ctx context.Context, opt Options, rows []Table2Row, res *GridResume) ([]Table2Row, error) {
	opt = opt.Defaults()
	plant := plants.PMSM(plants.DefaultPMSMParams())
	w := pmsmWeights()
	x0 := pmsmInitialState()
	cost := sim.QuadCost(w.Q, w.R)
	// Presentation scale shared by every cost column.
	const costScale = 1.0

	lqg := func(h float64) (*control.StateSpace, error) {
		return control.LQGFullInfo(plant, w, h)
	}

	if len(rows) != len(opt.Grid) {
		rows = make([]Table2Row, len(opt.Grid))
	}
	gerr := gridParallel(ctx, len(opt.Grid), opt.Workers, res, func(ri int, publish func(func())) error {
		cfg := opt.Grid[ri]
		tm, err := core.NewTiming(table2T, cfg.Ns, table2T/10, cfg.RmaxFactor*table2T)
		if err != nil {
			return err
		}
		hs := tm.Intervals()
		hmax := hs[len(hs)-1]
		row := Table2Row{Config: cfg}

		adaptiveDesign, err := core.NewDesign(plant, tm, lqg)
		if err != nil {
			return err
		}
		bounds, jerr := adaptiveDesign.StabilityBoundsCtx(ctx, opt.BruteLen, jsr.GripenbergOptions{Delta: opt.Delta, MaxDepth: 30, Workers: opt.Workers})
		if jerr != nil {
			if ctxInterrupted(jerr) {
				return jerr
			}
			row.JSRBudgetHit = true
		}
		row.JSR = bounds

		ideal, err := sim.NoOverrunCost(adaptiveDesign, x0, opt.Jobs, cost)
		if err != nil {
			return err
		}
		row.CostIdeal = ideal * costScale

		ctlT, err := lqg(tm.T)
		if err != nil {
			return err
		}
		ctlMax, err := lqg(hmax)
		if err != nil {
			return err
		}

		model, err := opt.responseModel(tm)
		if err != nil {
			return err
		}
		mc := sim.MonteCarloOptions{Sequences: opt.Sequences, Jobs: opt.Jobs, Seed: opt.Seed, Workers: opt.Workers}

		evalVariant := func(designer core.Designer) (float64, bool, error) {
			d, err := core.NewDesign(plant, tm, designer)
			if err != nil {
				return 0, false, err
			}
			m, err := sim.WorstCaseCtx(ctx, d, x0, model, cost, mc, opt.Refine)
			if err != nil {
				return 0, false, err
			}
			if m.Unstable() || math.IsInf(m.WorstCost, 1) {
				return math.Inf(1), true, nil
			}
			return m.WorstCost * costScale, false, nil
		}

		if row.Adaptive, _, err = evalVariant(lqg); err != nil {
			return err
		}
		var simDiverged bool
		if row.FixedT, simDiverged, err = evalVariant(core.FixedDesigner(ctlT)); err != nil {
			return err
		}
		// The fixed-gain baseline is declared unstable either by
		// simulation divergence or, as in the paper, deterministically:
		// its own switched closed loop has JSR ≥ 1.
		fixedTDesign, err := core.NewDesign(plant, tm, core.FixedDesigner(ctlT))
		if err != nil {
			return err
		}
		fixedTBounds, err := fixedTDesign.StabilityBoundsCtx(ctx, opt.BruteLen, jsr.GripenbergOptions{Delta: opt.Delta, MaxDepth: 30, Workers: opt.Workers})
		if err != nil && !errors.Is(err, jsr.ErrBudget) {
			return err
		}
		row.FixedTUnstable = simDiverged || fixedTBounds.CertifiesUnstable()
		if row.FixedRmax, _, err = evalVariant(core.FixedDesigner(ctlMax)); err != nil {
			return err
		}

		// Fixed-period baseline: controller designed and run at period
		// hmax; by construction no overruns occur (Rmax ≤ T' = hmax).
		fixedTm, err := core.NewTiming(hmax, 1, hmax/2, hmax*0.99)
		if err != nil {
			return err
		}
		fixedDesign, err := core.NewDesign(plant, fixedTm, lqg)
		if err != nil {
			return err
		}
		fp, err := sim.NoOverrunCost(fixedDesign, x0, opt.Jobs, cost)
		if err != nil {
			return err
		}
		row.FixedPeriod = fp * costScale

		publish(func() { rows[ri] = row })
		return nil
	})
	return rows, gerr
}

// Table2String renders rows in the paper's layout.
func Table2String(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-5s %-24s %10s %10s %12s %12s %12s\n",
		"Rmax", "Ts", "JSR adaptive [LB,UB]", "NoOverrun", "Adaptive", "FixedCtl(T)", "FixedCtl(Rm)", "FixedPer(Rm)")
	for _, r := range rows {
		fixedT := fmt.Sprintf("%12.4f", r.FixedT)
		if r.FixedTUnstable {
			fixedT = fmt.Sprintf("%12s", "unstable")
		}
		fmt.Fprintf(&b, "%-8s %-5s [%9.6f, %9.6f] %10.4f %10.4f %s %12.4f %12.4f\n",
			fmt.Sprintf("%.1f·T", r.RmaxFactor), fmt.Sprintf("T/%d", r.Ns),
			r.JSR.Lower, r.JSR.Upper, r.CostIdeal, r.Adaptive, fixedT, r.FixedRmax, r.FixedPeriod)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 1 — timing diagram.

// Figure1 reproduces the paper's timing example: a control task with
// T = 1, Ns = 8, whose second job overruns; the rendering shows the
// postponed release snapping to the next sensor tick.
func Figure1() (string, error) {
	tm := core.MustTiming(1, 8, 0.1, 2)
	execSeq := []float64{0.55, 1.30, 0.55, 0.55}
	i := 0
	tasks := []*sched.Task{{
		Name:     "ctl",
		Period:   tm.T,
		Priority: 1,
		Exec:     replayExec{seq: execSeq, i: &i},
		Release:  tm.NextRelease,
	}}
	res, err := sched.Simulate(tasks, sched.Options{Horizon: 4})
	if err != nil {
		return "", err
	}
	tl, err := trace.Timeline(res, trace.TimelineOptions{Task: "ctl", Ts: tm.Ts(), Horizon: 4, Width: 96})
	if err != nil {
		return "", err
	}
	tb, err := trace.JobTable(res, "ctl", tm.T)
	if err != nil {
		return "", err
	}
	return tl + "\n" + tb, nil
}

type replayExec struct {
	seq []float64
	i   *int
}

// Sample implements sched.ExecModel by replaying a fixed sequence.
func (r replayExec) Sample(_ *rand.Rand) float64 {
	v := r.seq[*r.i%len(r.seq)]
	*r.i++
	return v
}

// Bounds implements sched.ExecModel.
func (r replayExec) Bounds() (float64, float64) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range r.seq {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return lo, hi
}

// ---------------------------------------------------------------------------
// Design-space sweep (§V-B): sensor granularity vs analysis and cost.

// SweepRow reports the effect of the oversampling factor Ns for a fixed
// Rmax: the cardinality of H, the stability bracket, and the worst-case
// cost of the adaptive design.
type SweepRow struct {
	Ns        int
	NumModes  int
	JSR       jsr.Bounds
	WorstCost float64
}

// SweepNsCtx runs the granularity ablation on the PMSM at Rmax = 1.6·T.
// Rows run sequentially (in factors order — each row's JSR search is
// itself parallel); rows and res behave as in Table1Ctx.
func SweepNsCtx(ctx context.Context, factors []int, opt Options, rows []SweepRow, res *GridResume) ([]SweepRow, error) {
	opt = opt.Defaults()
	plant := plants.PMSM(plants.DefaultPMSMParams())
	w := pmsmWeights()
	cost := sim.QuadCost(w.Q, w.R)
	x0 := pmsmInitialState()
	if len(rows) != len(factors) {
		rows = make([]SweepRow, len(factors))
	}
	err := gridParallel(ctx, len(factors), 1, res, func(ri int, publish func(func())) error {
		ns := factors[ri]
		tm, err := core.NewTiming(table2T, ns, table2T/10, 1.6*table2T)
		if err != nil {
			return err
		}
		d, err := core.NewDesign(plant, tm, func(h float64) (*control.StateSpace, error) {
			return control.LQGFullInfo(plant, w, h)
		})
		if err != nil {
			return err
		}
		bounds, err := d.StabilityBoundsCtx(ctx, opt.BruteLen, jsr.GripenbergOptions{Delta: opt.Delta, MaxDepth: 25, Workers: opt.Workers})
		if err != nil && !errors.Is(err, jsr.ErrBudget) {
			return err
		}
		m, err := sim.MonteCarloCtx(ctx, d, x0, sim.UniformResponse{Rmin: tm.Rmin, Rmax: tm.Rmax}, cost,
			sim.MonteCarloOptions{Sequences: opt.Sequences, Jobs: opt.Jobs, Seed: opt.Seed, Workers: opt.Workers})
		if err != nil {
			return err
		}
		publish(func() { rows[ri] = SweepRow{Ns: ns, NumModes: d.NumModes(), JSR: bounds, WorstCost: m.WorstCost} })
		return nil
	})
	return rows, err
}

// SweepString renders the sweep.
func SweepString(rows []SweepRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s %-7s %-24s %12s\n", "Ns", "#H", "JSR [LB,UB]", "WorstCost")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-5d %-7d [%9.6f, %9.6f] %12.4f\n", r.Ns, r.NumModes, r.JSR.Lower, r.JSR.Upper, r.WorstCost)
	}
	return b.String()
}
