package mat

import (
	"fmt"
	"math"
)

// QR holds a Householder QR factorization A = Q*R of an m×n matrix with
// m >= n.
type QR struct {
	qr   *Dense    // Householder vectors below the diagonal, R on/above
	rdia []float64 // diagonal of R
	m, n int
}

// FactorQR computes the Householder QR factorization of a (not
// necessarily square) matrix with at least as many rows as columns.
func FactorQR(a *Dense) *QR {
	if a.rows < a.cols {
		panic(fmt.Sprintf("mat: FactorQR of wide %d×%d matrix", a.rows, a.cols))
	}
	m, n := a.rows, a.cols
	f := &QR{qr: a.Clone(), rdia: make([]float64, n), m: m, n: n}
	q := f.qr.data
	for k := 0; k < n; k++ {
		// Norm of column k below (and including) the diagonal.
		nrm := 0.0
		for i := k; i < m; i++ {
			nrm = math.Hypot(nrm, q[i*n+k])
		}
		//lint:ignore floatcompare an exactly zero column norm means no reflector exists; also guards divisions by nrm
		if nrm == 0 {
			f.rdia[k] = 0
			continue
		}
		if q[k*n+k] < 0 {
			nrm = -nrm
		}
		for i := k; i < m; i++ {
			q[i*n+k] /= nrm
		}
		q[k*n+k] += 1
		// Apply the reflector to the remaining columns.
		for j := k + 1; j < n; j++ {
			s := 0.0
			for i := k; i < m; i++ {
				s += q[i*n+k] * q[i*n+j]
			}
			s = -s / q[k*n+k]
			for i := k; i < m; i++ {
				q[i*n+j] += s * q[i*n+k]
			}
		}
		f.rdia[k] = -nrm
	}
	return f
}

// R returns the upper-triangular factor (n×n).
func (f *QR) R() *Dense {
	r := New(f.n, f.n)
	for i := 0; i < f.n; i++ {
		r.data[i*f.n+i] = f.rdia[i]
		for j := i + 1; j < f.n; j++ {
			r.data[i*f.n+j] = f.qr.data[i*f.n+j]
		}
	}
	return r
}

// Q returns the thin orthogonal factor (m×n).
func (f *QR) Q() *Dense {
	m, n := f.m, f.n
	q := New(m, n)
	qr := f.qr.data
	for k := n - 1; k >= 0; k-- {
		q.data[k*n+k] = 1
		for j := k; j < n; j++ {
			//lint:ignore floatcompare a zero Householder diagonal marks a skipped (zero) column; no reflector was stored
			if qr[k*n+k] == 0 {
				continue
			}
			s := 0.0
			for i := k; i < m; i++ {
				s += qr[i*n+k] * q.data[i*n+j]
			}
			s = -s / qr[k*n+k]
			for i := k; i < m; i++ {
				q.data[i*n+j] += s * qr[i*n+k]
			}
		}
	}
	return q
}

// Rank estimates the numerical rank of a matrix via QR with a relative
// tolerance on the diagonal of R. (For the small, well-scaled matrices
// in this repository a column-pivot-free QR is adequate; controllability
// tests additionally randomize the input directions.)
func Rank(a *Dense, tol float64) int {
	work := a
	if a.rows < a.cols {
		work = a.T()
	}
	f := FactorQR(work)
	max := 0.0
	for _, d := range f.rdia {
		if v := math.Abs(d); v > max {
			max = v
		}
	}
	//lint:ignore floatcompare all R diagonals exactly zero means the exactly zero matrix: rank 0
	if max == 0 {
		return 0
	}
	r := 0
	for _, d := range f.rdia {
		if math.Abs(d) > tol*max {
			r++
		}
	}
	return r
}
