package experiments

import (
	"context"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"adaptivertc/internal/core"
	"adaptivertc/internal/jsr"
)

func jsrBounds(lo, hi float64) jsr.Bounds { return jsr.Bounds{Lower: lo, Upper: hi} }

// fastOpts keeps the integration tests quick while preserving the
// qualitative shape assertions.
func fastOpts() Options {
	return Options{Sequences: 150, Jobs: 40, Seed: 1, BruteLen: 4, Delta: 0.02}
}

func TestTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	// The adaptive margins are below 1% (as in the paper: 0.4233 vs
	// 0.4270), so the worst-case estimate needs enough sequences for
	// the ordering to be meaningful.
	rows, err := Table1Ctx(context.Background(), Options{Sequences: 2000, Jobs: 50, Seed: 1}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(PaperGrid) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if math.IsInf(r.Adaptive, 1) || r.Adaptive <= 0 {
			t.Fatalf("%s: adaptive cost %v", r.Label(), r.Adaptive)
		}
		// The paper's headline ordering: the adaptive controller beats
		// both fixed-gain baselines in worst-case performance (tiny
		// slack for Monte-Carlo worst-case noise).
		const slack = 1.002
		if r.Adaptive > r.FixedT*slack {
			t.Errorf("%s: adaptive %v worse than fixed-T %v", r.Label(), r.Adaptive, r.FixedT)
		}
		if r.Adaptive > r.FixedRmax*slack {
			t.Errorf("%s: adaptive %v worse than fixed-Rmax %v", r.Label(), r.Adaptive, r.FixedRmax)
		}
		// Fixed-Rmax is the conservative tuning: worst of the three.
		if r.FixedRmax*slack < r.FixedT {
			t.Errorf("%s: fixed-Rmax %v better than fixed-T %v", r.Label(), r.FixedRmax, r.FixedT)
		}
	}
	out := Table1String(rows)
	if !strings.Contains(out, "Adaptive") || !strings.Contains(out, "1.6·T") {
		t.Fatalf("Table1String rendering:\n%s", out)
	}
}

func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	rows, err := Table2Ctx(context.Background(), fastOpts(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(PaperGrid) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// The adaptive design is certified stable on every grid cell.
		if !r.JSR.CertifiesStable() {
			t.Errorf("%s: adaptive JSR %v not certified stable", r.Label(), r.JSR)
		}
		// Ideal (no overrun) cost lower-bounds every strategy.
		if r.CostIdeal > r.Adaptive {
			t.Errorf("%s: ideal %v above adaptive %v", r.Label(), r.CostIdeal, r.Adaptive)
		}
		if math.IsInf(r.Adaptive, 1) {
			t.Errorf("%s: adaptive diverged", r.Label())
		}
		// Fixed-gain-T loses stability exactly in the most stressed
		// configuration (Rmax = 1.6·T with the coarse grid).
		wantUnstable := r.RmaxFactor == 1.6 && r.Ns == 2
		if r.FixedTUnstable != wantUnstable {
			t.Errorf("%s: fixedT unstable = %v, want %v", r.Label(), r.FixedTUnstable, wantUnstable)
		}
	}
	// JSR grows with Rmax at fixed Ts (longer delays, weaker contraction).
	if rows[4].JSR.Lower < rows[0].JSR.Lower {
		t.Errorf("JSR fell from Rmax=1.1T (%v) to 1.6T (%v)", rows[0].JSR, rows[4].JSR)
	}
	// Coarser sensing (T/2) is never more stable than finer (T/5) at
	// Rmax = 1.6·T — the §V-B granularity trade-off.
	if rows[4].JSR.Lower < rows[5].JSR.Lower {
		t.Errorf("coarse grid JSR %v below fine grid %v at 1.6T", rows[4].JSR, rows[5].JSR)
	}
	out := Table2String(rows)
	if !strings.Contains(out, "unstable") {
		t.Fatalf("Table2String must flag the unstable cell:\n%s", out)
	}
}

func TestFigure1Reproduction(t *testing.T) {
	out, err := Figure1()
	if err != nil {
		t.Fatal(err)
	}
	// The overrunning job and the snapped release from the paper's
	// example: f2 = 2.3, a3 = 2.375.
	if !strings.Contains(out, "2.3") {
		t.Fatalf("missing overrun finish:\n%s", out)
	}
	if !strings.Contains(out, "2.375") {
		t.Fatalf("missing snapped release 2.375:\n%s", out)
	}
	if !strings.Contains(out, "yes") {
		t.Fatalf("overrun not flagged:\n%s", out)
	}
	if !strings.Contains(out, "sensing") || !strings.Contains(out, "computing") {
		t.Fatalf("timeline rows missing:\n%s", out)
	}
}

func TestSweepNs(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	rows, err := SweepNsCtx(context.Background(), []int{1, 2, 5}, fastOpts(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// #H grows with the oversampling factor (Eq. 3).
	if !(rows[0].NumModes <= rows[1].NumModes && rows[1].NumModes <= rows[2].NumModes) {
		t.Fatalf("mode counts not monotone: %d, %d, %d", rows[0].NumModes, rows[1].NumModes, rows[2].NumModes)
	}
	// Ns = 1 (skip-next) has exactly ceil(0.6)+1 = 2 modes.
	if rows[0].NumModes != 2 {
		t.Fatalf("skip-next mode count = %d, want 2", rows[0].NumModes)
	}
	out := SweepString(rows)
	if !strings.Contains(out, "Ns") {
		t.Fatal("SweepString rendering")
	}
}

func TestAblationPIShape(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	rows, err := AblationPI(context.Background(), Options{Sequences: 2000, Jobs: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// The integrator-step adaptation is never worse than the fixed
		// controller (that is the shipped adaptive strategy); tiny
		// slack for Monte-Carlo worst-case noise.
		if r.IntegratorH > r.FixedT*1.002 {
			t.Errorf("%s: Eq.7 adaptation %v worse than fixedT %v", r.Label(), r.IntegratorH, r.FixedT)
		}
	}
	if out := AblationPIString(rows); !strings.Contains(out, "Eq.7") {
		t.Fatal("rendering")
	}
}

func TestAblationJSRPreconditioningHelps(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	rows, err := AblationJSR(context.Background(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Preconditioning must never loosen the brute-force upper bound.
		if r.PreBrute.Upper > r.RawBrute.Upper+1e-9 {
			t.Errorf("%s: preconditioned UB %v above raw %v", r.Label(), r.PreBrute.Upper, r.RawBrute.Upper)
		}
		// All estimators bracket the same value: lower bounds below
		// every upper bound.
		if r.RawBrute.Lower > r.PreGrip.Upper+1e-6 || r.PreGrip.Lower > r.RawBrute.Upper+1e-6 {
			t.Errorf("%s: disjoint brackets raw %v vs grip %v", r.Label(), r.RawBrute, r.PreGrip)
		}
	}
	if out := AblationJSRString(rows); !strings.Contains(out, "precond") {
		t.Fatal("rendering")
	}
}

func TestAblationDelayLQR(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	rows, err := AblationDelayLQR(context.Background(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if math.IsInf(r.DelayAware, 1) {
			t.Errorf("%s: delay-aware design diverged", r.Label())
		}
	}
	if out := AblationLQRString(rows); !strings.Contains(out, "delay-aware") {
		t.Fatal("rendering")
	}
}

func TestBurstComparisonShape(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	rows, err := BurstComparison(context.Background(), Options{Sequences: 800, Jobs: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(PaperGrid) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.OverrunFrac <= 0 || r.OverrunFrac >= 1 {
			t.Fatalf("%s: overrun fraction %v", r.Label(), r.OverrunFrac)
		}
		// The adaptive design must absorb bursts at least as well as the
		// fixed controller does: its burst penalty (relative to its own
		// i.i.d. cost) must not exceed the fixed controller's by more
		// than noise.
		adaptPenalty := r.BurstAdaptive / r.IIDAdaptive
		fixedPenalty := r.BurstFixedT / r.IIDFixedT
		if adaptPenalty > fixedPenalty*1.05 {
			t.Errorf("%s: adaptive burst penalty %.3f exceeds fixed %.3f", r.Label(), adaptPenalty, fixedPenalty)
		}
	}
	if out := BurstString(rows); !strings.Contains(out, "burst") {
		t.Fatal("rendering")
	}
}

func TestWeaklyHardShape(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	rows, err := WeaklyHard(context.Background(), 4, Options{BruteLen: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 { // m = 0..4
		t.Fatalf("rows = %d", len(rows))
	}
	// Lower bounds monotone in m for both designs.
	for i := 1; i < len(rows); i++ {
		if rows[i].Adaptive.Lower < rows[i-1].Adaptive.Lower-1e-9 {
			t.Errorf("adaptive LB fell from m=%d to m=%d", i-1, i)
		}
		if rows[i].FixedT.Lower < rows[i-1].FixedT.Lower-1e-9 {
			t.Errorf("fixedT LB fell from m=%d to m=%d", i-1, i)
		}
	}
	free := rows[len(rows)-1]
	// The adaptive design needs no switching constraint (the paper's
	// point) while the frozen design is provably unstable under free
	// switching yet provably stable under a tight weakly-hard budget
	// (the refs [17,18] setting).
	if !free.Adaptive.CertifiesStable() {
		t.Errorf("adaptive not certified under free switching: %v", free.Adaptive)
	}
	if !free.FixedT.CertifiesUnstable() {
		t.Errorf("fixedT not certified unstable under free switching: %v", free.FixedT)
	}
	foundConstrainedStable := false
	for _, r := range rows[:len(rows)-1] {
		if r.FixedT.CertifiesStable() {
			foundConstrainedStable = true
		}
	}
	if !foundConstrainedStable {
		t.Error("no weakly-hard budget certifies the frozen design")
	}
	if out := WeaklyHardString(rows); !strings.Contains(out, "free") {
		t.Fatal("rendering")
	}
	want, err := os.ReadFile("testdata/weaklyhard_k4.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := weaklyHardGolden(rows); got != string(want) {
		t.Errorf("weakly-hard rows differ from testdata/weaklyhard_k4.golden:\ngot:\n%swant:\n%s", got, want)
	}
}

// weaklyHardGolden renders every row's brackets at full precision
// together with their witness words, one design per line.
func weaklyHardGolden(rows []WeaklyHardRow) string {
	var b strings.Builder
	b.WriteString("# m K design lower upper witness\n")
	ff := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	for _, r := range rows {
		for _, d := range []struct {
			name string
			b    jsr.Bounds
		}{{"adaptive", r.Adaptive}, {"fixedT", r.FixedT}} {
			fmt.Fprintf(&b, "%d %d %s %s %s %v\n", r.M, r.K, d.name, ff(d.b.Lower), ff(d.b.Upper), d.b.WitnessWord)
		}
	}
	return b.String()
}

func TestCSVEmitters(t *testing.T) {
	t1 := []Table1Row{{Config: Config{RmaxFactor: 1.1, Ns: 2}, Adaptive: 1, FixedT: 2, FixedRmax: 3}}
	var b1 strings.Builder
	if err := Table1CSV(t1, &b1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b1.String(), "rmax_factor,ns,adaptive") || !strings.Contains(b1.String(), "1.1,2,1,2,3") {
		t.Fatalf("table1 csv:\n%s", b1.String())
	}
	t2 := []Table2Row{{
		Config: Config{RmaxFactor: 1.6, Ns: 2},
		JSR:    jsrBounds(0.9, 0.95), CostIdeal: 0.5,
		Adaptive: 1, FixedT: math.Inf(1), FixedTUnstable: true, FixedRmax: 2, FixedPeriod: 3,
	}}
	var b2 strings.Builder
	if err := Table2CSV(t2, &b2); err != nil {
		t.Fatal(err)
	}
	out := b2.String()
	if !strings.Contains(out, "true") || !strings.Contains(out, "inf") {
		t.Fatalf("table2 csv must mark unstable cells:\n%s", out)
	}
	sw := []SweepRow{{Ns: 5, NumModes: 4, JSR: jsrBounds(0.7, 0.8), WorstCost: 0.66}}
	var b3 strings.Builder
	if err := SweepCSV(sw, &b3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b3.String(), "5,4,0.7,0.8,0.66") {
		t.Fatalf("sweep csv:\n%s", b3.String())
	}
}

func TestDriftShape(t *testing.T) {
	rows, err := Drift([]float64{0, 0.01, 0.02}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Zero overhead: no drift, fresh samples.
	if rows[0].RelDrift > 1e-9 || rows[0].RelAge > 1e-6 {
		t.Fatalf("ideal run drifted: %+v", rows[0])
	}
	// Drift grows monotonically with overhead; staleness bounded by Ts.
	for i := 1; i < len(rows); i++ {
		if rows[i].RelDrift <= rows[i-1].RelDrift {
			t.Fatalf("drift not increasing: %+v", rows)
		}
		if rows[i].RelAge > 1+1e-9 {
			t.Fatalf("sample age exceeded Ts: %+v", rows[i])
		}
	}
	if out := DriftString(rows); !strings.Contains(out, "overhead/T") {
		t.Fatal("rendering")
	}
}

func TestJitterShape(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	rows, err := Jitter([]float64{0, 0.5}, 100, 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Small jitter must not destabilize.
	for _, r := range rows {
		if r.Divergent != 0 {
			t.Fatalf("jitter %v diverged %d times", r.JitterFrac, r.Divergent)
		}
	}
	// More jitter cannot help the worst case.
	if rows[1].WorstCost < rows[0].WorstCost {
		t.Fatalf("worst cost fell with jitter: %v vs %v", rows[1].WorstCost, rows[0].WorstCost)
	}
	if out := JitterString(rows); !strings.Contains(out, "jitter/Ts") {
		t.Fatal("rendering")
	}
}

func TestQuantizeSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	rows, err := QuantizeSweepCtx(context.Background(), []int{4, 12, 24}, Options{BruteLen: 4, Delta: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Parameter error shrinks with width; all widths certified here.
	for i := 1; i < len(rows); i++ {
		if rows[i].MaxErr >= rows[i-1].MaxErr {
			t.Fatalf("quantization error not decreasing: %+v", rows)
		}
	}
	for _, r := range rows {
		if !r.Stable {
			t.Errorf("%d-bit table not certified (bounds %v)", r.Bits, r.Bounds)
		}
	}
	if out := QuantizeString(rows); !strings.Contains(out, "bits") {
		t.Fatal("rendering")
	}
}

func TestObserverComparisonShape(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	// The observer closed loop's JSR sits near 0.996 (the Kalman error
	// mode), so the bracket needs a finer delta than the other fast
	// tests to close below 1.
	grid := []Config{{1.1, 5}, {1.6, 5}}
	rows, err := ObserverComparison(context.Background(), Options{Sequences: 150, Jobs: 40, Seed: 1, BruteLen: 4, Delta: 0.003, Grid: grid})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(grid) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// Both designs certified stable everywhere.
		if !r.FullInfo.CertifiesStable() {
			t.Errorf("%s: full-info not certified: %v", r.Label(), r.FullInfo)
		}
		if !r.Observer.CertifiesStable() {
			t.Errorf("%s: observer not certified: %v", r.Label(), r.Observer)
		}
		// Estimation costs performance: the observer design can never
		// beat full information on the same metric.
		if r.ObserverCost < r.FullCost {
			t.Errorf("%s: observer cost %v below full information %v", r.Label(), r.ObserverCost, r.FullCost)
		}
	}
	if out := ObserverString(rows); !strings.Contains(out, "observer") {
		t.Fatal("rendering")
	}
}

func TestReportGeneratesAllSections(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	var b strings.Builder
	err := Report(context.Background(), Options{Sequences: 60, Jobs: 25, Seed: 1, BruteLen: 4, Delta: 0.02,
		Grid: []Config{{1.1, 5}, {1.6, 5}}}, &b)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"Figure 1", "Table I", "Table II", "granularity", "PI adaptation",
		"JSR estimators", "naive LQR", "bursty", "weakly-hard",
		"sleep_until", "jitter", "fixed-point", "observer", "generated in",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing section %q", want)
		}
	}
}

func TestResponseModelFactory(t *testing.T) {
	tm := core.MustTiming(0.01, 5, 0.001, 0.016)
	for _, name := range []string{"uniform", "sporadic", "burst"} {
		opt := Options{Model: name}.Defaults()
		m, err := opt.responseModel(tm)
		if err != nil || m == nil {
			t.Fatalf("model %q: %v", name, err)
		}
	}
	opt := Options{Model: "nope"}
	if _, err := opt.responseModel(tm); err == nil {
		t.Fatal("unknown model accepted")
	}
}
