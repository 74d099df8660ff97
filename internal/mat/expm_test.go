package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestExpZero(t *testing.T) {
	if got := Exp(New(3, 3)); !got.EqualApprox(Eye(3), 1e-14) {
		t.Fatalf("Exp(0) = %v", got)
	}
}

func TestExpDiagonal(t *testing.T) {
	a := Diag(1, -2, 0.5)
	got := Exp(a)
	want := Diag(math.E, math.Exp(-2), math.Exp(0.5))
	if !got.EqualApprox(want, 1e-12) {
		t.Fatalf("Exp(diag) = %v, want %v", got, want)
	}
}

func TestExpNilpotent(t *testing.T) {
	// exp([[0,1],[0,0]]) = [[1,1],[0,1]] exactly.
	a := FromRows([][]float64{{0, 1}, {0, 0}})
	got := Exp(a)
	want := FromRows([][]float64{{1, 1}, {0, 1}})
	if !got.EqualApprox(want, 1e-14) {
		t.Fatalf("Exp(nilpotent) = %v", got)
	}
}

func TestExpRotation(t *testing.T) {
	// exp([[0,-θ],[θ,0]]) is a rotation by θ.
	theta := 1.23
	a := FromRows([][]float64{{0, -theta}, {theta, 0}})
	got := Exp(a)
	want := FromRows([][]float64{
		{math.Cos(theta), -math.Sin(theta)},
		{math.Sin(theta), math.Cos(theta)},
	})
	if !got.EqualApprox(want, 1e-13) {
		t.Fatalf("Exp(rotation) = %v, want %v", got, want)
	}
}

func TestExpLargeNormUsesScaling(t *testing.T) {
	// Norm far above theta13 exercises the squaring phase.
	a := Diag(10, -10)
	got := Exp(a)
	if math.Abs(got.At(0, 0)-math.Exp(10)) > 1e-6*math.Exp(10) {
		t.Fatalf("Exp large = %v", got.At(0, 0))
	}
	if math.Abs(got.At(1, 1)-math.Exp(-10)) > 1e-9 {
		t.Fatalf("Exp small entry = %v", got.At(1, 1))
	}
}

func TestExpAdditivityCommuting(t *testing.T) {
	// For commuting A, B: e^{A+B} = e^A e^B. Use polynomials in one matrix.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		m := Scale(0.5, randomDense(rng, n, n))
		a := m
		b := Mul(m, m) // commutes with m
		lhs := Exp(Add(a, b))
		rhs := Mul(Exp(a), Exp(b))
		tol := 1e-9 * math.Max(1, FroNorm(lhs))
		return lhs.EqualApprox(rhs, tol)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestExpInverseProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		a := randomDense(rng, n, n)
		// e^A e^{-A} = I
		p := Mul(Exp(a), Exp(Neg(a)))
		return p.EqualApprox(Eye(n), 1e-8*math.Max(1, FroNorm(Exp(a))))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestExpMatchesSeriesSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := Scale(0.01, randomDense(rng, 4, 4))
	// Taylor series to 12 terms is extremely accurate for tiny norms.
	sum := Eye(4)
	term := Eye(4)
	for k := 1; k <= 12; k++ {
		term = Scale(1/float64(k), Mul(term, a))
		sum = Add(sum, term)
	}
	if !Exp(a).EqualApprox(sum, 1e-13) {
		t.Fatal("Exp disagrees with Taylor series for small norm")
	}
}

func TestExpIntegralKnownScalar(t *testing.T) {
	// ẋ = -x + u: Φ(h) = e^{-h}, Γ(h) = 1 - e^{-h}.
	a := FromRows([][]float64{{-1}})
	b := FromRows([][]float64{{1}})
	h := 0.3
	phi, gamma := ExpIntegral(a, b, h)
	if math.Abs(phi.At(0, 0)-math.Exp(-h)) > 1e-13 {
		t.Fatalf("Phi = %v", phi.At(0, 0))
	}
	if math.Abs(gamma.At(0, 0)-(1-math.Exp(-h))) > 1e-13 {
		t.Fatalf("Gamma = %v", gamma.At(0, 0))
	}
}

func TestExpIntegralDoubleIntegrator(t *testing.T) {
	// ẍ = u: Φ = [[1,h],[0,1]], Γ = [h²/2, h]ᵀ.
	a := FromRows([][]float64{{0, 1}, {0, 0}})
	b := ColVec(0, 1)
	h := 0.7
	phi, gamma := ExpIntegral(a, b, h)
	wantPhi := FromRows([][]float64{{1, h}, {0, 1}})
	wantGamma := ColVec(h*h/2, h)
	if !phi.EqualApprox(wantPhi, 1e-13) {
		t.Fatalf("Phi = %v", phi)
	}
	if !gamma.EqualApprox(wantGamma, 1e-13) {
		t.Fatalf("Gamma = %v", gamma)
	}
}

func TestExpIntegralZeroHorizon(t *testing.T) {
	a := FromRows([][]float64{{0, 1}, {-2, -3}})
	b := ColVec(0, 1)
	phi, gamma := ExpIntegral(a, b, 0)
	if !phi.EqualApprox(Eye(2), 1e-14) {
		t.Fatalf("Phi(0) = %v", phi)
	}
	if MaxAbs(gamma) > 1e-14 {
		t.Fatalf("Gamma(0) = %v", gamma)
	}
}

func TestExpIntegralSemigroupProperty(t *testing.T) {
	// Φ(h1+h2) = Φ(h2)Φ(h1) and Γ(h1+h2) = Φ(h2)Γ(h1) + Γ(h2).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomDense(rng, 3, 3)
		b := randomDense(rng, 3, 2)
		h1 := 0.05 + 0.3*rng.Float64()
		h2 := 0.05 + 0.3*rng.Float64()
		phi1, gam1 := ExpIntegral(a, b, h1)
		phi2, gam2 := ExpIntegral(a, b, h2)
		phi12, gam12 := ExpIntegral(a, b, h1+h2)
		okPhi := phi12.EqualApprox(Mul(phi2, phi1), 1e-9)
		okGam := gam12.EqualApprox(Add(Mul(phi2, gam1), gam2), 1e-9)
		return okPhi && okGam
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkExp4(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randomDense(rng, 4, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Exp(a)
	}
}

func BenchmarkExp12(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randomDense(rng, 12, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Exp(a)
	}
}
