package control

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"adaptivertc/internal/lti"
	"adaptivertc/internal/mat"
)

func TestNewStateSpaceValidation(t *testing.T) {
	if _, err := NewStateSpace(nil, nil, nil, nil); err == nil {
		t.Fatal("nil Dc accepted")
	}
	if _, err := NewStateSpace(mat.Eye(2), nil, nil, mat.Eye(1)); err == nil {
		t.Fatal("partial dynamic controller accepted")
	}
	if _, err := NewStateSpace(mat.New(2, 3), mat.New(2, 1), mat.New(1, 2), mat.Eye(1)); err == nil {
		t.Fatal("non-square Ac accepted")
	}
	if _, err := NewStateSpace(mat.Eye(2), mat.New(3, 1), mat.New(1, 2), mat.Eye(1)); err == nil {
		t.Fatal("Bc row mismatch accepted")
	}
	if _, err := NewStateSpace(mat.Eye(2), mat.New(2, 1), mat.New(1, 3), mat.Eye(1)); err == nil {
		t.Fatal("Cc col mismatch accepted")
	}
	if _, err := NewStateSpace(mat.Eye(2), mat.New(2, 1), mat.New(2, 2), mat.Eye(1)); err == nil {
		t.Fatal("Cc/Dc output mismatch accepted")
	}
	if _, err := NewStateSpace(mat.Eye(2), mat.New(2, 2), mat.New(1, 2), mat.Eye(1)); err == nil {
		t.Fatal("Bc/Dc input mismatch accepted")
	}
	c, err := NewStateSpace(mat.Eye(2), mat.New(2, 1), mat.New(1, 2), mat.Eye(1))
	if err != nil {
		t.Fatal(err)
	}
	if c.StateDim() != 2 || c.InputDim() != 1 || c.OutputDim() != 1 {
		t.Fatalf("dims = (%d,%d,%d)", c.StateDim(), c.InputDim(), c.OutputDim())
	}
}

func TestStaticControllerStep(t *testing.T) {
	c := Static(mat.FromRows([][]float64{{2, -1}}))
	z, u := c.Step(nil, []float64{3, 1})
	if z != nil {
		t.Fatal("static controller returned state")
	}
	if len(u) != 1 || u[0] != 5 {
		t.Fatalf("u = %v", u)
	}
}

func TestDynamicControllerStep(t *testing.T) {
	// z' = 0.5 z + e; u = 2 z + 3 e
	c, err := NewStateSpace(
		mat.FromRows([][]float64{{0.5}}),
		mat.FromRows([][]float64{{1}}),
		mat.FromRows([][]float64{{2}}),
		mat.FromRows([][]float64{{3}}),
	)
	if err != nil {
		t.Fatal(err)
	}
	z, u := c.Step([]float64{4}, []float64{1})
	if u[0] != 2*4+3*1 {
		t.Fatalf("u = %v", u)
	}
	if z[0] != 0.5*4+1 {
		t.Fatalf("z = %v", z)
	}
}

func TestSolveDAREScalarGoldenRatio(t *testing.T) {
	// a=b=q=r=1: P² - P - 1 = 0 → P = (1+√5)/2.
	one := mat.Eye(1)
	p, err := SolveDARE(one, one, one, one)
	if err != nil {
		t.Fatal(err)
	}
	want := (1 + math.Sqrt(5)) / 2
	if math.Abs(p.At(0, 0)-want) > 1e-9 {
		t.Fatalf("P = %v, want %v", p.At(0, 0), want)
	}
}

func TestSolveDAREResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		a := mat.New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
		}
		b := mat.New(n, 1)
		for i := 0; i < n; i++ {
			b.Set(i, 0, rng.NormFloat64()+0.1)
		}
		q := mat.Eye(n)
		r := mat.Eye(1)
		p, err := SolveDARE(a, b, q, r)
		if err != nil {
			return true // some random draws are not stabilizable
		}
		return DAREResidual(a, b, q, r, p) < 1e-7*(1+mat.MaxAbs(p))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveDAREDimChecks(t *testing.T) {
	if _, err := SolveDARE(mat.New(2, 3), mat.New(2, 1), mat.Eye(2), mat.Eye(1)); err == nil {
		t.Fatal("non-square A accepted")
	}
	if _, err := SolveDARE(mat.Eye(2), mat.New(2, 1), mat.Eye(3), mat.Eye(1)); err == nil {
		t.Fatal("bad Q accepted")
	}
	if _, err := SolveDARE(mat.Eye(2), mat.New(2, 1), mat.Eye(2), mat.Eye(2)); err == nil {
		t.Fatal("bad R accepted")
	}
}

func TestDLQRStabilizesUnstablePlant(t *testing.T) {
	// Unstable discrete plant.
	phi := mat.FromRows([][]float64{{1.2, 0.1}, {0, 0.9}})
	gamma := mat.ColVec(0, 1)
	k, p, err := DLQR(phi, gamma, mat.Eye(2), mat.Eye(1))
	if err != nil {
		t.Fatal(err)
	}
	if !mat.IsPosDef(p) {
		t.Fatal("Riccati solution not PD")
	}
	cl := mat.Sub(phi, mat.Mul(gamma, k))
	stable, err := mat.IsSchurStable(cl)
	if err != nil || !stable {
		t.Fatalf("closed loop unstable, K = %v", k)
	}
}

func testPlant(t *testing.T) *lti.System {
	t.Helper()
	// Lightly damped unstable second-order plant.
	return lti.MustSystem(
		mat.FromRows([][]float64{{0, 1}, {2, -0.5}}),
		mat.ColVec(0, 1),
		mat.RowVec(1, 0),
	)
}

func TestDelayLQRClosedLoopStable(t *testing.T) {
	sys := testPlant(t)
	w := LQRWeights{Q: mat.Eye(2), R: mat.Eye(1)}
	for _, h := range []float64{0.05, 0.1, 0.3} {
		g, err := DelayLQR(sys, w, h)
		if err != nil {
			t.Fatalf("h=%v: %v", h, err)
		}
		if g.H != h {
			t.Fatalf("gain interval = %v", g.H)
		}
		// Closed loop of the augmented design plant.
		d, _ := sys.Discretize(h)
		aAug := mat.Block([][]*mat.Dense{
			{d.Phi, d.Gamma},
			{mat.New(1, 2), mat.New(1, 1)},
		})
		bAug := mat.VStack(mat.New(2, 1), mat.Eye(1))
		kFull := mat.HStack(g.Kx, g.Ku)
		cl := mat.Sub(aAug, mat.Mul(bAug, kFull))
		stable, err := mat.IsSchurStable(cl)
		if err != nil || !stable {
			t.Fatalf("h=%v: delay-augmented closed loop unstable", h)
		}
	}
}

func TestDelayLQRControllerRealizesGains(t *testing.T) {
	sys := testPlant(t)
	g, err := DelayLQR(sys, LQRWeights{Q: mat.Eye(2), R: mat.Eye(1)}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	c := g.Controller()
	// With e = -x, the command must equal -Kx x - Ku u_prev.
	x := []float64{0.7, -0.3}
	uprev := 0.25
	e := []float64{-x[0], -x[1]}
	z, u := c.Step([]float64{uprev}, e)
	want := -(g.Kx.At(0, 0)*x[0] + g.Kx.At(0, 1)*x[1]) - g.Ku.At(0, 0)*uprev
	if math.Abs(u[0]-want) > 1e-12 {
		t.Fatalf("u = %v, want %v", u[0], want)
	}
	// Internal state must track the issued command.
	if math.Abs(z[0]-u[0]) > 1e-12 {
		t.Fatalf("z = %v, want %v", z[0], u[0])
	}
}

func TestPeriodLQRStatic(t *testing.T) {
	sys := testPlant(t)
	c, err := PeriodLQR(sys, LQRWeights{Q: mat.Eye(2), R: mat.Eye(1)}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if c.StateDim() != 0 {
		t.Fatal("PeriodLQR should be static")
	}
	// u = K e with e = -x must stabilize the no-delay loop: Phi - Gamma K.
	d, _ := sys.Discretize(0.1)
	cl := mat.Sub(d.Phi, mat.Mul(d.Gamma, c.Dc))
	stable, err := mat.IsSchurStable(cl)
	if err != nil || !stable {
		t.Fatal("PeriodLQR loop unstable")
	}
}

func TestLQRWeightsValidate(t *testing.T) {
	sys := testPlant(t)
	if err := (LQRWeights{Q: mat.Eye(2), R: mat.Eye(1)}).Validate(sys); err != nil {
		t.Fatal(err)
	}
	if err := (LQRWeights{Q: mat.Eye(3), R: mat.Eye(1)}).Validate(sys); err == nil {
		t.Fatal("wrong Q accepted")
	}
	if err := (LQRWeights{Q: mat.Eye(2), R: mat.Diag(-1)}).Validate(sys); err == nil {
		t.Fatal("indefinite R accepted")
	}
	if err := (LQRWeights{Q: mat.Diag(1, -1), R: mat.Eye(1)}).Validate(sys); err == nil {
		t.Fatal("indefinite Q accepted")
	}
}

func TestKalmanPredictorStableErrorDynamics(t *testing.T) {
	sys := testPlant(t)
	d, _ := sys.Discretize(0.1)
	nw := NoiseWeights{Rw: mat.Scale(0.01, mat.Eye(2)), Rv: mat.Diag(0.1)}
	l, p, err := KalmanPredictor(d.Phi, d.C, nw)
	if err != nil {
		t.Fatal(err)
	}
	if !mat.IsPosDef(p) {
		t.Fatal("filter covariance not PD")
	}
	errDyn := mat.Sub(d.Phi, mat.Mul(l, d.C))
	stable, err := mat.IsSchurStable(errDyn)
	if err != nil || !stable {
		t.Fatal("estimator error dynamics unstable")
	}
}

func TestKalmanPredictorDimChecks(t *testing.T) {
	sys := testPlant(t)
	d, _ := sys.Discretize(0.1)
	if _, _, err := KalmanPredictor(d.Phi, d.C, NoiseWeights{Rw: mat.Eye(3), Rv: mat.Eye(1)}); err == nil {
		t.Fatal("bad Rw accepted")
	}
	if _, _, err := KalmanPredictor(d.Phi, d.C, NoiseWeights{Rw: mat.Eye(2), Rv: mat.Eye(2)}); err == nil {
		t.Fatal("bad Rv accepted")
	}
}

func TestLQGDimensions(t *testing.T) {
	sys := testPlant(t)
	c, err := LQG(sys, LQRWeights{Q: mat.Eye(2), R: mat.Eye(1)},
		NoiseWeights{Rw: mat.Scale(0.01, mat.Eye(2)), Rv: mat.Diag(0.1)}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// State = [x̂ (2); u_prev (1)].
	if c.StateDim() != 3 || c.InputDim() != 1 || c.OutputDim() != 1 {
		t.Fatalf("LQG dims = (%d,%d,%d)", c.StateDim(), c.InputDim(), c.OutputDim())
	}
}

func TestLQGFullInfoMatchesDelayLQR(t *testing.T) {
	sys := testPlant(t)
	w := LQRWeights{Q: mat.Eye(2), R: mat.Eye(1)}
	a, err := LQGFullInfo(sys, w, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := DelayLQR(sys, w, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	b := g.Controller()
	if !a.Dc.EqualApprox(b.Dc, 1e-14) || !a.Ac.EqualApprox(b.Ac, 1e-14) {
		t.Fatal("LQGFullInfo differs from DelayLQR controller")
	}
}

func stableFirstOrder(t *testing.T) *lti.System {
	t.Helper()
	return lti.MustSystem(
		mat.FromRows([][]float64{{-1}}),
		mat.FromRows([][]float64{{1}}),
		mat.Eye(1),
	)
}

func TestTunePIFirstOrder(t *testing.T) {
	sys := stableFirstOrder(t)
	g, err := TunePI(sys, 0.1, PITuneOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.H != 0.1 {
		t.Fatalf("H = %v", g.H)
	}
	// The tuned loop must settle: simulate and check the final error.
	d, _ := sys.Discretize(0.1)
	cost := piStepCost(d, g, 300)
	if math.IsInf(cost, 1) {
		t.Fatal("tuned gains diverge")
	}
	// Tuned gains must strictly beat the open loop (KP = KI = 0 leaves
	// the stable plant to decay on its own).
	open := piStepCost(d, PIGains{H: 0.1}, 300)
	if cost >= open {
		t.Fatalf("tuned cost %v not better than open loop %v", cost, open)
	}
}

func TestTunePIRejectsMIMO(t *testing.T) {
	sys := lti.MustSystem(mat.Eye(2), mat.Eye(2), mat.Eye(2))
	if _, err := TunePI(sys, 0.1, PITuneOptions{}); err == nil {
		t.Fatal("MIMO plant accepted by PI tuner")
	}
}

func TestPIControllerForm(t *testing.T) {
	g := PIGains{KP: 2, KI: 3, H: 0.5}
	c := g.Controller()
	// z' = z + h e; u = KP e + KI z.
	z, u := c.Step([]float64{4}, []float64{1})
	if math.Abs(u[0]-(2*1+3*4)) > 1e-15 {
		t.Fatalf("u = %v", u[0])
	}
	if math.Abs(z[0]-(4+0.5*1)) > 1e-15 {
		t.Fatalf("z = %v", z[0])
	}
}

func TestPiStepCostPenalizesUnstable(t *testing.T) {
	sys := stableFirstOrder(t)
	d, _ := sys.Discretize(0.1)
	// Ridiculous positive-feedback gains must be Inf.
	if c := piStepCost(d, PIGains{KP: -500, KI: -500, H: 0.1}, 300); !math.IsInf(c, 1) {
		t.Fatalf("unstable candidate cost = %v, want +Inf", c)
	}
}

func TestStepIntoMatchesStep(t *testing.T) {
	// The allocation-free variant must agree with Step exactly.
	rng := rand.New(rand.NewSource(13))
	c, err := NewStateSpace(
		randomDense(rng, 3, 3), randomDense(rng, 3, 2),
		randomDense(rng, 2, 3), randomDense(rng, 2, 2),
	)
	if err != nil {
		t.Fatal(err)
	}
	z := []float64{0.3, -0.7, 1.1}
	e := []float64{0.5, -0.2}
	zWant, uWant := c.Step(z, e)
	zGot := make([]float64, 3)
	uGot := make([]float64, 2)
	c.StepInto(zGot, uGot, z, e)
	for i := range zWant {
		if math.Abs(zGot[i]-zWant[i]) > 1e-15 {
			t.Fatalf("z: %v vs %v", zGot, zWant)
		}
	}
	for i := range uWant {
		if math.Abs(uGot[i]-uWant[i]) > 1e-15 {
			t.Fatalf("u: %v vs %v", uGot, uWant)
		}
	}
	// Static controller path.
	s := Static(randomDense(rng, 2, 2))
	_, uw := s.Step(nil, e)
	ug := make([]float64, 2)
	s.StepInto(nil, ug, nil, e)
	for i := range uw {
		if ug[i] != uw[i] {
			t.Fatalf("static: %v vs %v", ug, uw)
		}
	}
}

func TestStepIntoValidation(t *testing.T) {
	c, err := NewStateSpace(mat.Eye(2), mat.New(2, 1), mat.New(1, 2), mat.Eye(1))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("short znext accepted")
		}
	}()
	c.StepInto(make([]float64, 1), make([]float64, 1), make([]float64, 2), []float64{1})
}

func randomDense(rng *rand.Rand, r, c int) *mat.Dense {
	m := mat.New(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}
