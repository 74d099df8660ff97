package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorization or solve encounters a
// numerically singular matrix.
var ErrSingular = errors.New("mat: matrix is singular to working precision")

// LU holds an LU factorization with partial pivoting: P*A = L*U, stored
// compactly (unit lower triangle of L below the diagonal of lu, U on and
// above it).
type LU struct {
	lu    *Dense
	piv   []int // row permutation: row i of U came from row piv[i] of A
	sign  float64
	n     int
	fail  bool
	small float64 // magnitude of the smallest pivot, for diagnostics
}

// FactorLU computes the LU factorization of a square matrix with partial
// pivoting. The factorization itself always completes; singularity is
// reported by the solve/inverse methods.
func FactorLU(a *Dense) *LU {
	mustSquare("FactorLU", a)
	n := a.rows
	f := &LU{lu: a.Clone(), piv: make([]int, n), sign: 1, n: n, small: math.Inf(1)}
	lu := f.lu.data
	for i := range f.piv {
		f.piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Partial pivoting: pick the largest magnitude in column k.
		p, max := k, math.Abs(lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu[i*n+k]); v > max {
				p, max = i, v
			}
		}
		if p != k {
			for j := 0; j < n; j++ {
				lu[k*n+j], lu[p*n+j] = lu[p*n+j], lu[k*n+j]
			}
			f.piv[k], f.piv[p] = f.piv[p], f.piv[k]
			f.sign = -f.sign
		}
		pivot := lu[k*n+k]
		if max < f.small {
			f.small = max
		}
		//lint:ignore floatcompare an exactly zero pivot after partial pivoting makes elimination undefined; near-singularity is reported via Cond, and a threshold here would reject solvable systems
		if pivot == 0 {
			f.fail = true
			continue
		}
		for i := k + 1; i < n; i++ {
			m := lu[i*n+k] / pivot
			lu[i*n+k] = m
			//lint:ignore floatcompare exact-zero sparsity skip: the row update is a no-op only for an exactly zero multiplier
			if m == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu[i*n+j] -= m * lu[k*n+j]
			}
		}
	}
	return f
}

// Det returns the determinant of the factored matrix.
func (f *LU) Det() float64 {
	d := f.sign
	for i := 0; i < f.n; i++ {
		d *= f.lu.data[i*f.n+i]
	}
	return d
}

// Solve solves A*X = B for X, where B has the same number of rows as A.
func (f *LU) Solve(b *Dense) (*Dense, error) {
	if b.rows != f.n {
		panic(fmt.Sprintf("mat: LU.Solve with rhs of %d rows, want %d", b.rows, f.n))
	}
	if f.fail {
		return nil, ErrSingular
	}
	n, nc := f.n, b.cols
	x := New(n, nc)
	// Apply permutation to B.
	for i := 0; i < n; i++ {
		copy(x.data[i*nc:(i+1)*nc], b.data[f.piv[i]*nc:(f.piv[i]+1)*nc])
	}
	lu := f.lu.data
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		for k := 0; k < i; k++ {
			m := lu[i*n+k]
			//lint:ignore floatcompare exact-zero sparsity skip: the substitution update is a no-op only for an exactly zero multiplier
			if m == 0 {
				continue
			}
			for j := 0; j < nc; j++ {
				x.data[i*nc+j] -= m * x.data[k*nc+j]
			}
		}
	}
	// Back substitution with U.
	for i := n - 1; i >= 0; i-- {
		for k := i + 1; k < n; k++ {
			m := lu[i*n+k]
			//lint:ignore floatcompare exact-zero sparsity skip: the substitution update is a no-op only for an exactly zero multiplier
			if m == 0 {
				continue
			}
			for j := 0; j < nc; j++ {
				x.data[i*nc+j] -= m * x.data[k*nc+j]
			}
		}
		d := lu[i*n+i]
		for j := 0; j < nc; j++ {
			x.data[i*nc+j] /= d
		}
	}
	if x.HasNaN() {
		return nil, ErrSingular
	}
	return x, nil
}

// Solve solves a*x = b.
func Solve(a, b *Dense) (*Dense, error) { return FactorLU(a).Solve(b) }

// Inverse returns a⁻¹.
func Inverse(a *Dense) (*Dense, error) {
	return FactorLU(a).Solve(Eye(a.rows))
}

// Det returns the determinant of a square matrix.
func Det(a *Dense) float64 { return FactorLU(a).Det() }
