package mat

import (
	"math"
	"sort"
)

// SVD computes the thin singular value decomposition A = U diag(S) Vᵀ
// of an m×n matrix by the one-sided Jacobi method: V accumulates the
// plane rotations that mutually orthogonalize the columns of A, after
// which the column norms are the singular values and the normalized
// columns form U. For the small, well-scaled matrices in this
// repository the method is simple, backward stable, and accurate to
// machine precision.
//
// Shapes: U is m×k, S has length k, V is n×k with k = min(m, n).
// Singular values are returned in non-increasing order.
func SVD(a *Dense) (u *Dense, s []float64, v *Dense, err error) {
	m, n := a.Dims()
	if m < n {
		// A = U S Vᵀ ⇔ Aᵀ = V S Uᵀ.
		vT, sT, uT, err := SVD(a.T())
		return uT, sT, vT, err
	}

	work := a.Clone()
	vAcc := Eye(n)
	const (
		maxSweeps = 60
		tol       = 1e-14
	)
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				// Gram entries of columns p, q.
				app, aqq, apq := 0.0, 0.0, 0.0
				for i := 0; i < m; i++ {
					cp := work.data[i*n+p]
					cq := work.data[i*n+q]
					app += cp * cp
					aqq += cq * cq
					apq += cp * cq
				}
				if math.Abs(apq) <= tol*math.Sqrt(app*aqq) {
					continue
				}
				off += apq * apq
				// Jacobi rotation zeroing the (p,q) Gram entry.
				zeta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, zeta) / (math.Abs(zeta) + math.Sqrt(1+zeta*zeta))
				c := 1 / math.Sqrt(1+t*t)
				sn := c * t
				for i := 0; i < m; i++ {
					cp := work.data[i*n+p]
					cq := work.data[i*n+q]
					work.data[i*n+p] = c*cp - sn*cq
					work.data[i*n+q] = sn*cp + c*cq
				}
				for i := 0; i < n; i++ {
					vp := vAcc.data[i*n+p]
					vq := vAcc.data[i*n+q]
					vAcc.data[i*n+p] = c*vp - sn*vq
					vAcc.data[i*n+q] = sn*vp + c*vq
				}
			}
		}
		//lint:ignore floatcompare early exit when every off-diagonal rotation this sweep was exactly zero; the eps test below handles near-convergence
		if off == 0 {
			break
		}
		if sweep == maxSweeps-1 {
			return nil, nil, nil, ErrEigNotConverged
		}
	}

	// Column norms → singular values; normalized columns → U.
	type col struct {
		sigma float64
		idx   int
	}
	cols := make([]col, n)
	for j := 0; j < n; j++ {
		norm := 0.0
		for i := 0; i < m; i++ {
			norm += work.data[i*n+j] * work.data[i*n+j]
		}
		cols[j] = col{sigma: math.Sqrt(norm), idx: j}
	}
	sort.SliceStable(cols, func(a, b int) bool { return cols[a].sigma > cols[b].sigma })

	u = New(m, n)
	v = New(n, n)
	s = make([]float64, n)
	for j, cj := range cols {
		s[j] = cj.sigma
		if cj.sigma > 0 {
			for i := 0; i < m; i++ {
				u.data[i*n+j] = work.data[i*n+cj.idx] / cj.sigma
			}
		}
		for i := 0; i < n; i++ {
			v.data[i*n+j] = vAcc.data[i*n+cj.idx]
		}
	}
	return u, s, v, nil
}

// SingularValues returns the singular values of a in non-increasing
// order.
func SingularValues(a *Dense) ([]float64, error) {
	_, s, _, err := SVD(a)
	return s, err
}
