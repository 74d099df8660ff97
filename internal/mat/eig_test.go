package mat

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func sortedAbs(eigs []complex128) []float64 {
	out := make([]float64, len(eigs))
	for i, e := range eigs {
		out[i] = cmplx.Abs(e)
	}
	sort.Float64s(out)
	return out
}

func TestEigenvaluesDiagonal(t *testing.T) {
	eigs, err := Eigenvalues(Diag(3, -1, 2, 7))
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{-1, 2, 3, 7}
	got := make([]float64, len(eigs))
	for i, e := range eigs {
		if imag(e) != 0 {
			t.Fatalf("diagonal matrix yielded complex eigenvalue %v", e)
		}
		got[i] = real(e)
	}
	sort.Float64s(got)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-10 {
			t.Fatalf("eigs = %v, want %v", got, want)
		}
	}
}

func TestEigenvaluesTriangular(t *testing.T) {
	a := FromRows([][]float64{
		{1, 5, -3},
		{0, 4, 2},
		{0, 0, -2},
	})
	eigs, err := Eigenvalues(a)
	if err != nil {
		t.Fatal(err)
	}
	got := sortedAbs(eigs)
	want := []float64{1, 2, 4}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("triangular eigs |λ| = %v, want %v", got, want)
		}
	}
}

func TestEigenvaluesRotation(t *testing.T) {
	// A rotation by θ scaled by r has eigenvalues r·e^{±iθ}.
	r, theta := 0.9, 0.7
	a := FromRows([][]float64{
		{r * math.Cos(theta), -r * math.Sin(theta)},
		{r * math.Sin(theta), r * math.Cos(theta)},
	})
	eigs, err := Eigenvalues(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range eigs {
		if math.Abs(cmplx.Abs(e)-r) > 1e-12 {
			t.Fatalf("|λ| = %v, want %v", cmplx.Abs(e), r)
		}
		if math.Abs(math.Abs(imag(e))-r*math.Sin(theta)) > 1e-12 {
			t.Fatalf("imag(λ) = %v", imag(e))
		}
	}
}

func TestEigenvaluesComplexPairLarge(t *testing.T) {
	// Block diagonal: rotation block + real eigenvalues, n = 5.
	a := BlockDiag(
		FromRows([][]float64{{0, -2}, {2, 0}}), // ±2i
		Diag(5, -3, 1),
	)
	eigs, err := Eigenvalues(a)
	if err != nil {
		t.Fatal(err)
	}
	got := sortedAbs(eigs)
	want := []float64{1, 2, 2, 3, 5}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("eigs |λ| = %v, want %v", got, want)
		}
	}
}

func TestEigenvaluesCompanion(t *testing.T) {
	// Companion matrix of (x-1)(x-2)(x-3) = x³ - 6x² + 11x - 6.
	a := FromRows([][]float64{
		{6, -11, 6},
		{1, 0, 0},
		{0, 1, 0},
	})
	eigs, err := Eigenvalues(a)
	if err != nil {
		t.Fatal(err)
	}
	got := sortedAbs(eigs)
	want := []float64{1, 2, 3}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-8 {
			t.Fatalf("companion eigs = %v, want %v", got, want)
		}
	}
}

func TestEigenvaluesTraceDetInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(7)
		a := randomDense(rng, n, n)
		eigs, err := Eigenvalues(a)
		if err != nil {
			return false
		}
		sum := complex(0, 0)
		prod := complex(1, 0)
		for _, e := range eigs {
			sum += e
			prod *= e
		}
		// Σλ = trace, Πλ = det.
		trOK := math.Abs(real(sum)-a.Trace()) <= 1e-6*math.Max(1, math.Abs(a.Trace())) &&
			math.Abs(imag(sum)) <= 1e-6
		d := Det(a)
		detOK := math.Abs(real(prod)-d) <= 1e-6*math.Max(1, math.Abs(d)) &&
			math.Abs(imag(prod)) <= 1e-6*math.Max(1, math.Abs(d))
		return trOK && detOK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestEigenvaluesSimilarityInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomDense(rng, 5, 5)
	p := randomDense(rng, 5, 5)
	for i := 0; i < 5; i++ {
		p.Set(i, i, p.At(i, i)+6)
	}
	pinv, err := Inverse(p)
	if err != nil {
		t.Fatal(err)
	}
	b := MulMany(pinv, a, p)
	ea, err := Eigenvalues(a)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := Eigenvalues(b)
	if err != nil {
		t.Fatal(err)
	}
	ga, gb := sortedAbs(ea), sortedAbs(eb)
	for i := range ga {
		if math.Abs(ga[i]-gb[i]) > 1e-6*math.Max(1, ga[i]) {
			t.Fatalf("similar matrices disagree: %v vs %v", ga, gb)
		}
	}
}

func TestSpectralRadius(t *testing.T) {
	r, err := SpectralRadius(Diag(0.5, -0.9, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-0.9) > 1e-12 {
		t.Fatalf("SpectralRadius = %v, want 0.9", r)
	}
}

func TestSpectralRadiusNilpotent(t *testing.T) {
	// Strictly upper triangular: all eigenvalues zero even though norms
	// are large.
	a := FromRows([][]float64{{0, 100}, {0, 0}})
	r, err := SpectralRadius(a)
	if err != nil {
		t.Fatal(err)
	}
	if r > 1e-9 {
		t.Fatalf("nilpotent spectral radius = %v, want 0", r)
	}
}

func TestIsSchurStable(t *testing.T) {
	ok, err := IsSchurStable(Diag(0.99, -0.5))
	if err != nil || !ok {
		t.Fatalf("stable matrix reported unstable (err=%v)", err)
	}
	ok, err = IsSchurStable(Diag(1.01, 0))
	if err != nil || ok {
		t.Fatalf("unstable matrix reported stable (err=%v)", err)
	}
}

func TestIsHurwitzStable(t *testing.T) {
	ok, err := IsHurwitzStable(FromRows([][]float64{{-1, 5}, {0, -2}}))
	if err != nil || !ok {
		t.Fatalf("Hurwitz-stable matrix misreported (err=%v)", err)
	}
	ok, err = IsHurwitzStable(FromRows([][]float64{{0, 1}, {0, 0}}))
	if err != nil || ok {
		t.Fatalf("double integrator should not be Hurwitz stable")
	}
}

func TestHessenbergPreservesEigenvalues(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomDense(rng, 6, 6)
	h := Hessenberg(a)
	// Check Hessenberg structure.
	for i := 2; i < 6; i++ {
		for j := 0; j < i-1; j++ {
			if h.At(i, j) != 0 {
				t.Fatalf("H[%d,%d] = %v, want 0", i, j, h.At(i, j))
			}
		}
	}
	ea, _ := Eigenvalues(a)
	eh, _ := Eigenvalues(h)
	ga, gh := sortedAbs(ea), sortedAbs(eh)
	for i := range ga {
		if math.Abs(ga[i]-gh[i]) > 1e-7*math.Max(1, ga[i]) {
			t.Fatalf("Hessenberg changed spectrum: %v vs %v", ga, gh)
		}
	}
}

func TestEigenvaluesZeroMatrix(t *testing.T) {
	eigs, err := Eigenvalues(New(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range eigs {
		if e != 0 {
			t.Fatalf("zero matrix eigenvalue %v", e)
		}
	}
}

func TestEigenvalues1x1And2x2(t *testing.T) {
	e, err := Eigenvalues(FromRows([][]float64{{-4}}))
	if err != nil || e[0] != complex(-4, 0) {
		t.Fatalf("1×1 eig = %v (err=%v)", e, err)
	}
	e, err = Eigenvalues(FromRows([][]float64{{0, 1}, {-1, 0}}))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cmplx.Abs(e[0])-1) > 1e-14 || imag(e[0]) == 0 {
		t.Fatalf("2×2 rotation eig = %v", e)
	}
}

func BenchmarkEigenvalues6(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randomDense(rng, 6, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Eigenvalues(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEigenvalues12(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randomDense(rng, 12, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Eigenvalues(a); err != nil {
			b.Fatal(err)
		}
	}
}

// checkerboardProduct is a 9×9 Lyapunov-preconditioned closed-loop
// matrix of the lifted PMSM design (3 modes, Ns = 2, entries scaled by
// 1 + 1e-9·u). Its checkerboard-like sparsity made the double-shift QR
// iteration cycle past the old fixed budget of 60 iterations on the
// first attempt and on every retry of the ladder.
var checkerboardProduct = [][]float64{
	{0.5165791596498518, 0, 0, -0.5140682407722807, 0, 0.19902175506886677, 0, 0.007532322070358921, 0},
	{0, 0.341892431870661, -0.31722862963680987, 0, -0.669256332920246, 0, 0.13483436570888996, 0, -0.0308959458040714},
	{0, 0.415821270378471, 0.6141055883577136, 0, -0.057363835174085165, 0, 0.08103181956065647, 0, 0.11096080778051198},
	{-0.2259886191888384, 0, 0, -0.1445675452987602, 0, 0.035858411721619195, 0, -0.009160778409834036, 0},
	{0, -0.16081156635687552, 0.06605330358338118, 0, -0.10820364545963723, 0, 0.06460373905780743, 0, 0.028609818389756514},
	{-0.6203647205179676, 0, 0, -0.39685451929901217, 0, 0.12565606829594397, 0, -0.02597263439319375, 0},
	{0, -0.6310363809402718, 0.2591980078715521, 0, -0.4245990408666547, 0, 0.08921458697852439, 0, 0.10066303756960293},
	{0, 0, 0, 0, 0, 0.5890730183954976, 0, -0.017858885578137675, 0},
	{0, 0, 0, 0, 0, 0, 0.618957829191603, 0, 0.043716300248903786},
}

func TestEigenvaluesConvergeOnCheckerboardProduct(t *testing.T) {
	a := FromRows(checkerboardProduct)
	// The first attempt must converge on its own now, not via a retry.
	eigs, err := eigOnce(a)
	if err != nil {
		t.Fatalf("eigOnce: %v", err)
	}
	var sum complex128
	for _, e := range eigs {
		sum += e
	}
	if math.Abs(real(sum)-a.Trace()) > 1e-12 || math.Abs(imag(sum)) > 1e-12 {
		t.Fatalf("eigenvalue sum %v, trace %v", sum, a.Trace())
	}
	rho, err := SpectralRadius(a)
	if err != nil {
		t.Fatalf("SpectralRadius: %v", err)
	}
	rs, err := SpectralRadiusScratch(a, NewScratch(9))
	if err != nil {
		t.Fatalf("SpectralRadiusScratch: %v", err)
	}
	if math.Float64bits(rs) != math.Float64bits(rho) {
		t.Fatalf("scratch rho %v != allocating rho %v", rs, rho)
	}
	if rho > SpectralRadiusBound(a) {
		t.Fatalf("rho %v above its norm bound %v", rho, SpectralRadiusBound(a))
	}
}

// radiusBoundCase is one matrix the spectral-radius bound is checked
// on. tight marks families whose bound equals the spectral radius in
// exact arithmetic, so the computed ρ sits right at the bound; huge
// marks entries scaled outside the bound's trusted range, and far marks
// those outside the narrower range of the Gelfand bound.
type radiusBoundCase struct {
	name             string
	a                *Dense
	tight, huge, far bool
}

func radiusBoundCases(rng *rand.Rand, n int) []radiusBoundCase {
	perm := New(n, n) // cyclic shift: orthogonal with ‖·‖₁ = ‖·‖∞ = ρ
	for i := 0; i < n; i++ {
		perm.Set(i, (i+1)%n, 0.93)
	}
	u, v := randomDense(rng, n, 1), randomDense(rng, n, 1)
	jordan := Scale(0.9, Eye(n))
	for i := 0; i+1 < n; i++ {
		jordan.Set(i, i+1, 1)
	}
	jordan.Set(n-1, 0, jordan.At(n-1, 0)+1e-14)
	// Two eigenvalues 3e-13 apart: the 2×2 closed form loses half its
	// digits to cancellation here, ≈ 1.5e-8 relative.
	nearDouble := Eye(n)
	nearDouble.Set(0, 0, 1+3e-13)
	return []radiusBoundCase{
		{name: "random", a: randomDense(rng, n, n)},
		{name: "orthogonal", a: Scale(1.7, FactorQR(randomDense(rng, n, n)).Q())},
		{name: "permutation", a: perm, tight: true},
		{name: "rank-one-symmetric", a: Mul(u, u.T()), tight: true},
		{name: "rank-one", a: Mul(u, v.T())},
		{name: "jordan", a: jordan},
		{name: "scaled-1e60", a: Scale(1e60, randomDense(rng, n, n))},
		{name: "scaled-1e-60", a: Scale(1e-60, randomDense(rng, n, n))},
		{name: "scaled-1e120", a: Scale(1e120, randomDense(rng, n, n)), far: true},
		{name: "scaled-1e-120", a: Scale(1e-120, randomDense(rng, n, n)), far: true},
		{name: "scaled-1e150", a: Scale(1e150, randomDense(rng, n, n)), huge: true, far: true},
		{name: "scaled-1e-150", a: Scale(1e-150, randomDense(rng, n, n)), huge: true, far: true},
		{name: "near-double", a: nearDouble, tight: true},
		{name: "graded-up", a: gradedDense(rng, n, 20)},
		{name: "graded-down", a: gradedDense(rng, n, -20)},
		{name: "nilpotent", a: nilpotentDense(rng, n)},
		{name: "start-orthogonal", a: startOrthogonalDense(n)},
		{name: "zero", a: New(n, n)},
	}
}

// gradedDense returns D·A·D⁻¹ for a random A and D = diag(2^{step·i}),
// with i taken mod 8 so the entries stay inside the trusted range: a
// heavily graded matrix that balancing rescales before the QR solve.
func gradedDense(rng *rand.Rand, n, step int) *Dense {
	a := randomDense(rng, n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, math.Ldexp(a.At(i, j), step*(i%8-j%8)))
		}
	}
	return a
}

// nilpotentDense returns u·wᵀ with w orthogonal to u, so a² = 0 in exact
// arithmetic and the Gelfand bound rests on its absolute term alone.
func nilpotentDense(rng *rand.Rand, n int) *Dense {
	u, w := randomDense(rng, n, 1), randomDense(rng, n, 1)
	c := Dot(u.Raw(), w.Raw()) / Dot(u.Raw(), u.Raw())
	for i := range w.Raw() {
		w.Raw()[i] -= c * u.Raw()[i]
	}
	return Mul(u, w.T())
}

// startOrthogonalDense returns 2·v·vᵀ + x·xᵀ with x the power
// iteration's start direction and v a unit vector orthogonal to it: the
// iteration never sees the dominant eigenvalue 2 and converges to 1.
func startOrthogonalDense(n int) *Dense {
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 / math.Sqrt(float64(n)+float64(i))
	}
	normalize(x)
	v := make([]float64, n)
	if n > 1 {
		v[0], v[1] = x[1], -x[0]
		normalize(v)
	}
	a := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, 2*v[i]*v[j]+x[i]*x[j])
		}
	}
	return a
}

func TestSpectralRadiusBoundCoversComputedRadius(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 9, 64} {
		ms := NewScratch(n)
		for _, c := range radiusBoundCases(rng, n) {
			bound := SpectralRadiusBound(c.a)
			rho, err := SpectralRadius(c.a)
			if err != nil {
				t.Fatalf("n=%d %s: SpectralRadius: %v", n, c.name, err)
			}
			rs, err := SpectralRadiusScratch(c.a, ms)
			if err != nil {
				t.Fatalf("n=%d %s: SpectralRadiusScratch: %v", n, c.name, err)
			}
			if !(rho <= bound) || !(rs <= bound) {
				t.Errorf("n=%d %s: rho %v / scratch %v above bound %v", n, c.name, rho, rs, bound)
			}
			if c.huge != math.IsInf(bound, 1) {
				t.Errorf("n=%d %s: bound %v, want +Inf exactly when outside the trusted range", n, c.name, bound)
			}
			if c.tight && bound > rho*(1+1e-9) {
				t.Errorf("n=%d %s: bound %v not tight against rho %v", n, c.name, bound, rho)
			}
		}
	}
}

// TestNormBoundsCoverComputedKernels checks the bounds the JSR engine
// gates its O(n³) kernels on: NormBoundsScratch's Radius is
// SpectralRadiusBound bit for bit, its TwoNorm is never below the
// computed 2-norm, and the Gelfand bound is never below the computed
// spectral radius. Outside the trusted range every bound is +Inf.
func TestNormBoundsCoverComputedKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 3, 9, 64} {
		ms := NewScratch(n)
		for _, c := range radiusBoundCases(rng, n) {
			nb := NormBoundsScratch(c.a, ms)
			if want := SpectralRadiusBound(c.a); math.Float64bits(nb.Radius) != math.Float64bits(want) {
				t.Errorf("n=%d %s: fused Radius %v != SpectralRadiusBound %v", n, c.name, nb.Radius, want)
			}
			if alloc := NormBoundsScratch(c.a, NewScratch(n+1)); alloc != nb {
				t.Errorf("n=%d %s: mismatched-scratch bounds %+v != %+v", n, c.name, alloc, nb)
			}
			two, twoS := TwoNorm(c.a), TwoNormScratch(c.a, ms)
			if !(two <= nb.TwoNorm) || !(twoS <= nb.TwoNorm) {
				t.Errorf("n=%d %s: 2-norm %v / scratch %v above bound %v", n, c.name, two, twoS, nb.TwoNorm)
			}
			sq := SquareRadiusBoundScratch(c.a, nb, ms)
			rho, err := SpectralRadius(c.a)
			if err != nil {
				t.Fatalf("n=%d %s: SpectralRadius: %v", n, c.name, err)
			}
			rs, err := SpectralRadiusScratch(c.a, ms)
			if err != nil {
				t.Fatalf("n=%d %s: SpectralRadiusScratch: %v", n, c.name, err)
			}
			if !(rho <= sq) || !(rs <= sq) {
				t.Errorf("n=%d %s: rho %v / scratch %v above Gelfand bound %v", n, c.name, rho, rs, sq)
			}
			for name, b := range map[string]float64{"Radius": nb.Radius, "TwoNorm": nb.TwoNorm} {
				if c.huge != math.IsInf(b, 1) {
					t.Errorf("n=%d %s: %s bound %v, want +Inf exactly when outside the trusted range", n, c.name, name, b)
				}
			}
			if c.far != math.IsInf(sq, 1) {
				t.Errorf("n=%d %s: Gelfand bound %v, want +Inf exactly when outside its trusted range", n, c.name, sq)
			}
		}
	}
}

// TestSquareRadiusBoundTightensNonNormal pins why the Gelfand bound
// exists: on a non-normal product its square is small, so the bound
// sits far below every norm of the matrix itself.
func TestSquareRadiusBoundTightensNonNormal(t *testing.T) {
	// a² = 0.01·I: the off-diagonal 4 cancels in the square.
	a := FromRows([][]float64{{0.1, 4, 0}, {0, -0.1, 0}, {0, 0, 0.1}})
	ms := NewScratch(3)
	nb := NormBoundsScratch(a, ms)
	sq := SquareRadiusBoundScratch(a, nb, ms)
	if !(sq < nb.Radius/10) {
		t.Fatalf("Gelfand bound %v not below a tenth of the norm bound %v", sq, nb.Radius)
	}
	if rho, _ := SpectralRadius(a); !(rho <= sq) {
		t.Fatalf("rho %v above Gelfand bound %v", rho, sq)
	}
}
