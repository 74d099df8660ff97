package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomDense(rng *rand.Rand, r, c int) *Dense {
	m := New(r, c)
	for i := range m.data {
		m.data[i] = rng.NormFloat64()
	}
	return m
}

func TestAddSub(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	if got := Add(a, b); !got.Equal(FromRows([][]float64{{6, 8}, {10, 12}})) {
		t.Fatalf("Add = %v", got)
	}
	if got := Sub(b, a); !got.Equal(FromRows([][]float64{{4, 4}, {4, 4}})) {
		t.Fatalf("Sub = %v", got)
	}
}

func TestScaleAndNeg(t *testing.T) {
	a := FromRows([][]float64{{1, -2}})
	if got := Scale(3, a); !got.Equal(FromRows([][]float64{{3, -6}})) {
		t.Fatalf("Scale = %v", got)
	}
	if got := Neg(a); !got.Equal(FromRows([][]float64{{-1, 2}})) {
		t.Fatalf("Neg = %v", got)
	}
}

func TestInPlaceOps(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	AddInPlace(a, FromRows([][]float64{{1, 1}}))
	if !a.Equal(FromRows([][]float64{{2, 3}})) {
		t.Fatalf("in-place result = %v", a)
	}
}

func TestMulKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if got := Mul(a, b); !got.Equal(want) {
		t.Fatalf("Mul = %v, want %v", got, want)
	}
}

func TestMulNonSquare(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}})     // 1×3
	b := FromRows([][]float64{{1}, {2}, {3}}) // 3×1
	if got := Mul(a, b); got.At(0, 0) != 14 {
		t.Fatalf("Mul = %v, want 14", got)
	}
	if got := Mul(b, a); got.Rows() != 3 || got.Cols() != 3 || got.At(2, 2) != 9 {
		t.Fatalf("outer product wrong: %v", got)
	}
}

func TestMulIdentityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		a := randomDense(rng, n, n)
		return Mul(a, Eye(n)).EqualApprox(a, 1e-12) && Mul(Eye(n), a).EqualApprox(a, 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMulAssociativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		a, b, c := randomDense(rng, n, n), randomDense(rng, n, n), randomDense(rng, n, n)
		left := Mul(Mul(a, b), c)
		right := Mul(a, Mul(b, c))
		return left.EqualApprox(right, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMulMany(t *testing.T) {
	a := Diag(2, 2)
	got := MulMany(a, a, a)
	if !got.EqualApprox(Diag(8, 8), 1e-14) {
		t.Fatalf("MulMany = %v", got)
	}
}

func TestMulVec(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	y := MulVec(a, []float64{1, 1})
	if y[0] != 3 || y[1] != 7 {
		t.Fatalf("MulVec = %v", y)
	}
}

func TestTranspose(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.T()
	if at.Rows() != 3 || at.Cols() != 2 || at.At(2, 0) != 3 || at.At(0, 1) != 4 {
		t.Fatalf("T = %v", at)
	}
	if !at.T().Equal(a) {
		t.Fatal("double transpose is not identity")
	}
}

func TestTransposeProductProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomDense(rng, 3, 4)
		b := randomDense(rng, 4, 2)
		// (AB)ᵀ = Bᵀ Aᵀ
		return Mul(a, b).T().EqualApprox(Mul(b.T(), a.T()), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTrace(t *testing.T) {
	a := FromRows([][]float64{{1, 9}, {9, 4}})
	if a.Trace() != 5 {
		t.Fatalf("Trace = %v", a.Trace())
	}
}

func TestSymmetrize(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {4, 3}})
	s := Symmetrize(a)
	if s.At(0, 1) != 3 || s.At(1, 0) != 3 {
		t.Fatalf("Symmetrize = %v", s)
	}
}

func TestDot(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("Dot wrong")
	}
}

func TestDimensionPanics(t *testing.T) {
	cases := []func(){
		func() { Add(New(1, 2), New(2, 1)) },
		func() { Mul(New(2, 3), New(2, 3)) },
		func() { MulVec(New(2, 3), []float64{1}) },
		func() { New(2, 3).Trace() },
		func() { Dot([]float64{1}, []float64{1, 2}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestScaleDistributesOverAdd(t *testing.T) {
	f := func(seed int64, sRaw float64) bool {
		if math.IsNaN(sRaw) || math.IsInf(sRaw, 0) {
			return true
		}
		s := math.Mod(sRaw, 1e3)
		rng := rand.New(rand.NewSource(seed))
		a, b := randomDense(rng, 3, 3), randomDense(rng, 3, 3)
		return Scale(s, Add(a, b)).EqualApprox(Add(Scale(s, a), Scale(s, b)), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMulVecInto(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	dst := make([]float64, 3)
	MulVecInto(dst, a, []float64{1, -1})
	want := []float64{-1, -1, -1}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("MulVecInto = %v", dst)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("short dst accepted")
		}
	}()
	MulVecInto(make([]float64, 2), a, []float64{1, -1})
}
