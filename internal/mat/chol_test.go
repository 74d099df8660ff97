package mat

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomSPD(rng *rand.Rand, n int) *Dense {
	m := randomDense(rng, n, n)
	// MᵀM + I is symmetric positive definite.
	return Add(Mul(m.T(), m), Eye(n))
}

func TestCholeskyReconstruction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		a := randomSPD(rng, n)
		l, err := Cholesky(a)
		if err != nil {
			return false
		}
		// Lower triangular?
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if l.At(i, j) != 0 {
					return false
				}
			}
		}
		return Mul(l, l.T()).EqualApprox(a, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := Diag(1, -1)
	if _, err := Cholesky(a); !errors.Is(err, ErrNotPosDef) {
		t.Fatalf("Cholesky(indefinite) err = %v", err)
	}
}

func TestIsPosDef(t *testing.T) {
	if !IsPosDef(Eye(3)) {
		t.Fatal("identity not PD?")
	}
	if IsPosDef(Diag(1, 0)) {
		t.Fatal("singular matrix reported PD")
	}
	if !IsPosSemiDef(Diag(1, 0), 1e-9) {
		t.Fatal("PSD matrix rejected")
	}
	if IsPosSemiDef(Diag(1, -1), 1e-9) {
		t.Fatal("indefinite matrix accepted as PSD")
	}
}
