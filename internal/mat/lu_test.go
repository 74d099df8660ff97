package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolveKnown(t *testing.T) {
	a := FromRows([][]float64{{2, 1}, {1, 3}})
	b := ColVec(3, 5)
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// 2x+y=3, x+3y=5 → x=4/5, y=7/5
	if math.Abs(x.At(0, 0)-0.8) > 1e-12 || math.Abs(x.At(1, 0)-1.4) > 1e-12 {
		t.Fatalf("Solve = %v", x)
	}
}

func TestSolveResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a := randomDense(rng, n, n)
		// Diagonal dominance keeps the system comfortably nonsingular.
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n)+1)
		}
		b := randomDense(rng, n, 2)
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		return Mul(a, x).EqualApprox(b, 1e-8)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInverseProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(7)
		a := randomDense(rng, n, n)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n)+1)
		}
		inv, err := Inverse(a)
		if err != nil {
			return false
		}
		return Mul(a, inv).EqualApprox(Eye(n), 1e-8) && Mul(inv, a).EqualApprox(Eye(n), 1e-8)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSingularDetection(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Inverse(a); !errors.Is(err, ErrSingular) {
		t.Fatalf("Inverse of singular = %v, want ErrSingular", err)
	}
	if _, err := Solve(a, ColVec(1, 1)); !errors.Is(err, ErrSingular) {
		t.Fatalf("Solve of singular = %v, want ErrSingular", err)
	}
}

func TestDetKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	if d := Det(a); math.Abs(d-(-2)) > 1e-12 {
		t.Fatalf("Det = %v, want -2", d)
	}
	if d := Det(Eye(4)); math.Abs(d-1) > 1e-12 {
		t.Fatalf("Det(I) = %v", d)
	}
	if d := Det(Diag(2, 3, 4)); math.Abs(d-24) > 1e-12 {
		t.Fatalf("Det(diag) = %v", d)
	}
}

func TestDetPermutationSign(t *testing.T) {
	// A permutation matrix swapping two rows has determinant -1.
	p := FromRows([][]float64{{0, 1}, {1, 0}})
	if d := Det(p); math.Abs(d-(-1)) > 1e-12 {
		t.Fatalf("Det(swap) = %v, want -1", d)
	}
}

func TestDetProductProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		a, b := randomDense(rng, n, n), randomDense(rng, n, n)
		da, db, dab := Det(a), Det(b), Det(Mul(a, b))
		scale := math.Max(1, math.Abs(da*db))
		return math.Abs(dab-da*db) <= 1e-8*scale
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLUPivotingStability(t *testing.T) {
	// Tiny leading pivot forces a row swap; without pivoting the result
	// would be garbage.
	a := FromRows([][]float64{{1e-18, 1}, {1, 1}})
	b := ColVec(1, 2)
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	res := Sub(Mul(a, x), b)
	if MaxAbs(res) > 1e-12 {
		t.Fatalf("pivoted solve residual too large: %v", res)
	}
}

func TestSolveRHSWrongRowsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched Solve did not panic")
		}
	}()
	_, _ = Solve(Eye(2), New(3, 1))
}
