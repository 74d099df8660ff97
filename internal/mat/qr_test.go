package mat

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQRReconstruction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(6)
		n := 1 + rng.Intn(m)
		a := randomDense(rng, m, n)
		qr := FactorQR(a)
		q, r := qr.Q(), qr.R()
		// A = QR
		if !Mul(q, r).EqualApprox(a, 1e-10) {
			return false
		}
		// QᵀQ = I
		return Mul(q.T(), q).EqualApprox(Eye(n), 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQRUpperTriangular(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomDense(rng, 5, 3)
	r := FactorQR(a).R()
	for i := 1; i < 3; i++ {
		for j := 0; j < i; j++ {
			if r.At(i, j) != 0 {
				t.Fatalf("R[%d,%d] = %v, want 0", i, j, r.At(i, j))
			}
		}
	}
}

func TestRank(t *testing.T) {
	if r := Rank(Eye(4), 1e-10); r != 4 {
		t.Fatalf("Rank(I4) = %d", r)
	}
	// Rank-1 outer product.
	a := Mul(ColVec(1, 2, 3), RowVec(4, 5, 6))
	if r := Rank(a, 1e-10); r != 1 {
		t.Fatalf("Rank(outer) = %d", r)
	}
	if r := Rank(New(3, 3), 1e-10); r != 0 {
		t.Fatalf("Rank(0) = %d", r)
	}
	// Wide matrix goes through the transpose path.
	wide := FromRows([][]float64{{1, 0, 0, 2}, {0, 1, 0, 3}})
	if r := Rank(wide, 1e-10); r != 2 {
		t.Fatalf("Rank(wide) = %d", r)
	}
}

func TestFactorQRWidePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FactorQR of wide matrix did not panic")
		}
	}()
	FactorQR(New(2, 3))
}
