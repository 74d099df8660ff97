package mat

import (
	"errors"
	"math"
)

// ErrNotPosDef is returned when a Cholesky factorization is attempted on
// a matrix that is not (numerically) symmetric positive definite.
var ErrNotPosDef = errors.New("mat: matrix is not positive definite")

// Cholesky returns the lower-triangular factor L with A = L Lᵀ for a
// symmetric positive-definite matrix.
func Cholesky(a *Dense) (*Dense, error) {
	mustSquare("Cholesky", a)
	n := a.rows
	l := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := a.data[i*n+j]
			for k := 0; k < j; k++ {
				s -= l.data[i*n+k] * l.data[j*n+k]
			}
			if i == j {
				if s <= 0 {
					return nil, ErrNotPosDef
				}
				l.data[i*n+i] = math.Sqrt(s)
			} else {
				l.data[i*n+j] = s / l.data[j*n+j]
			}
		}
	}
	return l, nil
}

// IsPosDef reports whether a symmetric matrix is positive definite.
func IsPosDef(a *Dense) bool {
	_, err := Cholesky(a)
	return err == nil
}

// IsPosSemiDef reports whether a symmetric matrix is positive
// semi-definite within tolerance tol, by testing A + tol·I for positive
// definiteness.
func IsPosSemiDef(a *Dense, tol float64) bool {
	shifted := Add(a, Scale(tol, Eye(a.rows)))
	return IsPosDef(shifted)
}
