package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func checkSVD(t *testing.T, a *Dense) {
	t.Helper()
	u, s, v, err := SVD(a)
	if err != nil {
		t.Fatal(err)
	}
	m, n := a.Dims()
	k := n
	if m < n {
		k = m
	}
	if u.Rows() != m || u.Cols() != k || v.Rows() != n || v.Cols() != k || len(s) != k {
		t.Fatalf("SVD shapes: U %d×%d, V %d×%d, len(S)=%d for A %d×%d",
			u.Rows(), u.Cols(), v.Rows(), v.Cols(), len(s), m, n)
	}
	// Reconstruction A = U S Vᵀ.
	us := u.Clone()
	for j := 0; j < k; j++ {
		for i := 0; i < m; i++ {
			us.Set(i, j, us.At(i, j)*s[j])
		}
	}
	if !Mul(us, v.T()).EqualApprox(a, 1e-9*(1+MaxAbs(a))) {
		t.Fatal("SVD reconstruction failed")
	}
	// Orthogonality and ordering.
	if !Mul(v.T(), v).EqualApprox(Eye(k), 1e-10) {
		t.Fatal("V not orthonormal")
	}
	for j := 1; j < k; j++ {
		if s[j] > s[j-1]+1e-12 {
			t.Fatalf("singular values not sorted: %v", s)
		}
		if s[j] < 0 {
			t.Fatalf("negative singular value: %v", s)
		}
	}
	// Columns of U with nonzero sigma are orthonormal.
	for i := 0; i < k; i++ {
		for j := i; j < k; j++ {
			if s[i] == 0 || s[j] == 0 {
				continue
			}
			dot := Dot(u.Col(i), u.Col(j))
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(dot-want) > 1e-10 {
				t.Fatalf("UᵀU[%d,%d] = %v", i, j, dot)
			}
		}
	}
}

func TestSVDKnownDiagonal(t *testing.T) {
	a := Diag(3, -2, 1) // singular values are magnitudes
	_, s, _, err := SVD(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 2, 1}
	for i := range want {
		if math.Abs(s[i]-want[i]) > 1e-12 {
			t.Fatalf("S = %v, want %v", s, want)
		}
	}
	checkSVD(t, a)
}

func TestSVDRandomShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, dims := range [][2]int{{3, 3}, {5, 2}, {2, 5}, {6, 4}, {1, 4}, {4, 1}} {
		a := randomDense(rng, dims[0], dims[1])
		checkSVD(t, a)
	}
}

func TestSVDRankDeficient(t *testing.T) {
	// Rank-1 matrix: exactly one nonzero singular value.
	a := Mul(ColVec(1, 2, 2), RowVec(3, 0, 4))
	_, s, _, err := SVD(a)
	if err != nil {
		t.Fatal(err)
	}
	// σ₁ = ‖u‖‖v‖ = 3·5 = 15.
	if math.Abs(s[0]-15) > 1e-10 || s[1] > 1e-10 || s[2] > 1e-10 {
		t.Fatalf("S = %v, want [15 0 0]", s)
	}
	checkSVD(t, a)
}

func TestSVDZeroMatrix(t *testing.T) {
	_, s, _, err := SVD(New(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range s {
		if v != 0 {
			t.Fatalf("S = %v", s)
		}
	}
}

func TestSVDMatchesTwoNormProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomDense(rng, 2+rng.Intn(5), 2+rng.Intn(5))
		s, err := SingularValues(a)
		if err != nil {
			return false
		}
		return math.Abs(s[0]-TwoNorm(a)) <= 1e-7*(1+s[0])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSVDFrobeniusIdentityProperty(t *testing.T) {
	// ‖A‖F² = Σ σᵢ².
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomDense(rng, 2+rng.Intn(4), 2+rng.Intn(4))
		s, err := SingularValues(a)
		if err != nil {
			return false
		}
		sum := 0.0
		for _, v := range s {
			sum += v * v
		}
		fro := FroNorm(a)
		return math.Abs(sum-fro*fro) <= 1e-9*(1+fro*fro)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRankSVDAgreesWithQRRank(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(4)
		n := 2 + rng.Intn(4)
		r := 1 + rng.Intn(min(m, n))
		// Random rank-r matrix as a product of full-rank factors.
		a := Mul(randomDense(rng, m, r), randomDense(rng, r, n))
		s, err := SingularValues(a)
		if err != nil {
			return false
		}
		// SVD rank: singular values above 1e-9·σ_max.
		got := 0
		for _, v := range s {
			if v > 1e-9*s[0] {
				got++
			}
		}
		return got == r && Rank(a, 1e-9) == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSVD6x4(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randomDense(rng, 6, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := SVD(a); err != nil {
			b.Fatal(err)
		}
	}
}
