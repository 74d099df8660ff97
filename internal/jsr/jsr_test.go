package jsr

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"adaptivertc/internal/mat"
)

func TestSingletonEqualsSpectralRadius(t *testing.T) {
	a := mat.FromRows([][]float64{{0.5, 1}, {0, 0.3}})
	rho, _ := mat.SpectralRadius(a)
	b, err := BruteForceBoundsCtx(context.Background(), []*mat.Dense{a}, 8, BruteForceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if b.Lower > rho+1e-12 || b.Lower < rho-1e-12 {
		t.Fatalf("lower = %v, want ρ = %v", b.Lower, rho)
	}
	if b.Upper < rho-1e-12 {
		t.Fatalf("upper = %v < ρ = %v", b.Upper, rho)
	}
	// For a non-normal matrix the norm certificates tighten only like
	// ‖Aᵐ‖^{1/m}, so a coarse delta converges while a very fine one may
	// exhaust the depth budget with a still-valid bracket.
	g, err := GripenbergCtx(context.Background(), []*mat.Dense{a}, GripenbergOptions{Delta: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if g.Lower < rho-1e-9 || g.Upper > rho+0.05+1e-9 {
		t.Fatalf("Gripenberg %v, want ≈ %v", g, rho)
	}
	gTight, err := GripenbergCtx(context.Background(), []*mat.Dense{a}, GripenbergOptions{Delta: 1e-4})
	if err != nil && !errors.Is(err, ErrBudget) {
		t.Fatal(err)
	}
	if gTight.Lower > rho+1e-9 || gTight.Upper < rho-1e-9 {
		t.Fatalf("tight bracket %v does not contain ρ = %v", gTight, rho)
	}
}

func TestDiagonalSetJSRIsMaxRho(t *testing.T) {
	set := []*mat.Dense{mat.Diag(0.5, 0.2), mat.Diag(0.3, 0.8)}
	g, err := GripenbergCtx(context.Background(), set, GripenbergOptions{Delta: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g.Lower-0.8) > 1e-9 {
		t.Fatalf("lower = %v, want 0.8", g.Lower)
	}
	if g.Upper > 0.8+1e-3 {
		t.Fatalf("upper = %v", g.Upper)
	}
}

func TestGoldenRatioPair(t *testing.T) {
	// Classic example: JSR({[[1,1],[0,1]], [[1,0],[1,1]]}) = φ.
	set := []*mat.Dense{
		mat.FromRows([][]float64{{1, 1}, {0, 1}}),
		mat.FromRows([][]float64{{1, 0}, {1, 1}}),
	}
	phi := (1 + math.Sqrt(5)) / 2
	b, err := BruteForceBoundsCtx(context.Background(), set, 10, BruteForceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b.Lower-phi) > 1e-9 {
		t.Fatalf("brute lower = %v, want φ = %v", b.Lower, phi)
	}
	if b.Upper < phi-1e-9 {
		t.Fatalf("brute upper = %v < φ", b.Upper)
	}
	// Gripenberg must bracket φ. (Norm-based upper bounds converge
	// slowly here, so allow the budget-exhausted path as long as the
	// bracket is valid.)
	g, err := GripenbergCtx(context.Background(), set, GripenbergOptions{Delta: 0.05, MaxDepth: 25})
	if err != nil && !errors.Is(err, ErrBudget) {
		t.Fatal(err)
	}
	if g.Lower > phi+1e-9 || g.Upper < phi-1e-9 {
		t.Fatalf("Gripenberg bracket %v does not contain φ = %v", g, phi)
	}
	if math.Abs(g.Lower-phi) > 1e-6 {
		t.Fatalf("Gripenberg lower = %v, want φ", g.Lower)
	}
}

func TestBoundsOrderingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(3)
		n := 1 + rng.Intn(3)
		set := make([]*mat.Dense, k)
		for i := range set {
			m := mat.New(n, n)
			for r := 0; r < n; r++ {
				for c := 0; c < n; c++ {
					m.Set(r, c, rng.NormFloat64())
				}
			}
			set[i] = m
		}
		b, err := BruteForceBoundsCtx(context.Background(), set, 5, BruteForceOptions{})
		if err != nil {
			return false
		}
		if b.Lower > b.Upper+1e-12 {
			return false
		}
		g, err := GripenbergCtx(context.Background(), set, GripenbergOptions{Delta: 0.02, MaxDepth: 12, MaxNodes: 100000})
		if err != nil && !errors.Is(err, ErrBudget) {
			return false
		}
		// The two brackets must intersect (they bound the same number).
		return g.Lower <= b.Upper+1e-9 && b.Lower <= g.Upper+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestStabilityVerdicts(t *testing.T) {
	stable := []*mat.Dense{mat.Diag(0.5), mat.Diag(0.7)}
	b, err := GripenbergCtx(context.Background(), stable, GripenbergOptions{Delta: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if !b.CertifiesStable() || b.CertifiesUnstable() {
		t.Fatalf("stable set verdicts wrong: %v", b)
	}
	unstable := []*mat.Dense{mat.Diag(1.2), mat.Diag(0.7)}
	b, err = GripenbergCtx(context.Background(), unstable, GripenbergOptions{Delta: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if !b.CertifiesUnstable() || b.CertifiesStable() {
		t.Fatalf("unstable set verdicts wrong: %v", b)
	}
}

func TestScalingHomogeneity(t *testing.T) {
	// JSR(cA) = c·JSR(A): verify on the bracket.
	set := []*mat.Dense{
		mat.FromRows([][]float64{{0.3, 0.4}, {0, 0.5}}),
		mat.FromRows([][]float64{{0.5, 0}, {0.2, 0.3}}),
	}
	c := 1.7
	scaled := []*mat.Dense{mat.Scale(c, set[0]), mat.Scale(c, set[1])}
	b1, err := BruteForceBoundsCtx(context.Background(), set, 8, BruteForceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b2, err := BruteForceBoundsCtx(context.Background(), scaled, 8, BruteForceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b2.Lower-c*b1.Lower) > 1e-9 || math.Abs(b2.Upper-c*b1.Upper) > 1e-9 {
		t.Fatalf("homogeneity violated: %v vs scaled %v", b1, b2)
	}
}

func TestEmptySetAndBadArgs(t *testing.T) {
	if _, err := BruteForceBoundsCtx(context.Background(), nil, 3, BruteForceOptions{}); !errors.Is(err, ErrEmptySet) {
		t.Fatalf("err = %v", err)
	}
	if _, err := GripenbergCtx(context.Background(), nil, GripenbergOptions{}); !errors.Is(err, ErrEmptySet) {
		t.Fatalf("err = %v", err)
	}
	if _, err := BruteForceBoundsCtx(context.Background(), []*mat.Dense{mat.Eye(2)}, 0, BruteForceOptions{}); err == nil {
		t.Fatal("maxLen=0 accepted")
	}
	if _, err := BruteForceBoundsCtx(context.Background(), []*mat.Dense{mat.Eye(2), mat.Eye(3)}, 2, BruteForceOptions{}); err == nil {
		t.Fatal("mixed dimensions accepted")
	}
	if _, err := GripenbergCtx(context.Background(), []*mat.Dense{mat.Eye(2)}, GripenbergOptions{Delta: -1}); err == nil {
		t.Fatal("negative delta accepted")
	}
}

func TestGripenbergBudgetStillValid(t *testing.T) {
	// Force a tiny budget; bounds must still bracket the true value
	// (here JSR = 1 for a pair of rotations).
	theta := 0.5
	rot := func(s float64) *mat.Dense {
		return mat.FromRows([][]float64{
			{math.Cos(s), -math.Sin(s)},
			{math.Sin(s), math.Cos(s)},
		})
	}
	set := []*mat.Dense{rot(theta), rot(-theta * 0.7)}
	b, err := GripenbergCtx(context.Background(), set, GripenbergOptions{Delta: 1e-6, MaxDepth: 30, MaxNodes: 50})
	if err != nil && !errors.Is(err, ErrBudget) {
		t.Fatal(err)
	}
	if b.Lower > 1+1e-9 || b.Upper < 1-1e-9 {
		t.Fatalf("bracket %v does not contain 1", b)
	}
}

func TestEstimateIntersectsBrackets(t *testing.T) {
	set := []*mat.Dense{
		mat.FromRows([][]float64{{0.6, 0.3}, {0, 0.4}}),
		mat.FromRows([][]float64{{0.2, 0}, {0.5, 0.7}}),
	}
	est, err := EstimateCtx(context.Background(), set, 6, GripenbergOptions{Delta: 0.01})
	if err != nil && !errors.Is(err, ErrBudget) {
		t.Fatal(err)
	}
	bf, _ := BruteForceBoundsCtx(context.Background(), set, 6, BruteForceOptions{})
	if est.Upper > bf.Upper+1e-12 {
		t.Fatalf("Estimate upper %v worse than brute force %v", est.Upper, bf.Upper)
	}
	if est.Lower < bf.Lower-1e-12 {
		t.Fatalf("Estimate lower %v worse than brute force %v", est.Lower, bf.Lower)
	}
	if est.Lower > est.Upper {
		t.Fatalf("inverted bracket %v", est)
	}
}

func TestBruteForceMonotoneUpper(t *testing.T) {
	// Deeper enumeration can only tighten the upper bound.
	set := []*mat.Dense{
		mat.FromRows([][]float64{{0.9, 0.5}, {0, 0.1}}),
		mat.FromRows([][]float64{{0.1, 0}, {0.5, 0.9}}),
	}
	prev := math.Inf(1)
	for _, l := range []int{1, 2, 4, 6} {
		b, err := BruteForceBoundsCtx(context.Background(), set, l, BruteForceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if b.Upper > prev+1e-12 {
			t.Fatalf("upper bound rose from %v to %v at depth %d", prev, b.Upper, l)
		}
		prev = b.Upper
	}
}

func witnessRate(t *testing.T, set []*mat.Dense, word []int) float64 {
	t.Helper()
	if len(word) == 0 {
		t.Fatal("empty witness word")
	}
	p := set[word[0]]
	for _, i := range word[1:] {
		p = mat.Mul(set[i], p)
	}
	rho, err := mat.SpectralRadius(p)
	if err != nil {
		t.Fatal(err)
	}
	return math.Pow(rho, 1/float64(len(word)))
}

func TestWitnessWordReproducesLowerBound(t *testing.T) {
	set := []*mat.Dense{
		mat.FromRows([][]float64{{1, 1}, {0, 1}}),
		mat.FromRows([][]float64{{1, 0}, {1, 1}}),
	}
	b, err := BruteForceBoundsCtx(context.Background(), set, 6, BruteForceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := witnessRate(t, set, b.WitnessWord); math.Abs(got-b.Lower) > 1e-9 {
		t.Fatalf("brute witness rate %v != lower %v (word %v)", got, b.Lower, b.WitnessWord)
	}
	g, err := GripenbergCtx(context.Background(), set, GripenbergOptions{Delta: 0.05, MaxDepth: 12})
	if err != nil && !errors.Is(err, ErrBudget) {
		t.Fatal(err)
	}
	if got := witnessRate(t, set, g.WitnessWord); math.Abs(got-g.Lower) > 1e-9 {
		t.Fatalf("Gripenberg witness rate %v != lower %v (word %v)", got, g.Lower, g.WitnessWord)
	}
	// For the golden-ratio pair the optimal word alternates the two
	// generators.
	alternates := true
	for i := 1; i < len(g.WitnessWord); i++ {
		if g.WitnessWord[i] == g.WitnessWord[i-1] {
			alternates = false
		}
	}
	if !alternates {
		t.Logf("note: witness %v does not alternate (still a valid maximizer)", g.WitnessWord)
	}
}

func TestWitnessWordSingleton(t *testing.T) {
	set := []*mat.Dense{mat.Diag(0.5, 0.2)}
	b, err := BruteForceBoundsCtx(context.Background(), set, 3, BruteForceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range b.WitnessWord {
		if i != 0 {
			t.Fatalf("witness %v references a missing matrix", b.WitnessWord)
		}
	}
}

// pmsmLikeSet builds a small non-normal stable set resembling the
// closed-loop families the repository analyzes.
func pmsmLikeSet() []*mat.Dense {
	return []*mat.Dense{
		mat.FromRows([][]float64{{0.8, 0.3, 0}, {0, 0.7, 0.2}, {0.1, 0, 0.75}}),
		mat.FromRows([][]float64{{0.85, 0, 0.25}, {0.15, 0.65, 0}, {0, 0.1, 0.8}}),
	}
}

func BenchmarkGripenberg(b *testing.B) {
	set := pmsmLikeSet()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GripenbergCtx(context.Background(), set, GripenbergOptions{Delta: 0.01, MaxDepth: 20}); err != nil && !errors.Is(err, ErrBudget) {
			b.Fatal(err)
		}
	}
}

func BenchmarkEstimatePreconditioned(b *testing.B) {
	set := pmsmLikeSet()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EstimateCtx(context.Background(), set, 5, GripenbergOptions{Delta: 0.01, MaxDepth: 20}); err != nil && !errors.Is(err, ErrBudget) {
			b.Fatal(err)
		}
	}
}
