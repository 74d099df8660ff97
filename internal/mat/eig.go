package mat

import (
	"errors"
	"math"
	"math/cmplx"
	"sort"
)

// ErrEigNotConverged is returned when the QR iteration fails to isolate
// all eigenvalues within the iteration budget.
var ErrEigNotConverged = errors.New("mat: eigenvalue iteration did not converge")

// Hessenberg reduces a square matrix to upper Hessenberg form by
// Householder similarity transforms and returns the reduced matrix. The
// result has the same eigenvalues as the input.
func Hessenberg(a *Dense) *Dense {
	mustSquare("Hessenberg", a)
	h := a.Clone()
	hessenbergInPlace(h, make([]float64, a.rows))
	return h
}

// hessenbergInPlace reduces h to upper Hessenberg form in place. v is a
// length-n work vector whose prior contents are ignored. Shared by the
// allocating Hessenberg wrapper and the scratch-arena eigenvalue path;
// both therefore produce bit-identical reductions.
func hessenbergInPlace(h *Dense, v []float64) {
	n := h.rows
	d := h.data
	for k := 0; k < n-2; k++ {
		// Build the Householder vector for column k, rows k+1..n-1.
		scale := 0.0
		for i := k + 1; i < n; i++ {
			scale += math.Abs(d[i*n+k])
		}
		//lint:ignore floatcompare exactly zero subdiagonal column needs no reflector, and 1/scale below requires scale != 0
		if scale == 0 {
			continue
		}
		nrm := 0.0
		for i := k + 1; i < n; i++ {
			v[i] = d[i*n+k] / scale
			nrm += v[i] * v[i]
		}
		nrm = math.Sqrt(nrm)
		if v[k+1] < 0 {
			nrm = -nrm
		}
		v[k+1] += nrm
		beta := nrm * v[k+1]
		//lint:ignore floatcompare division guard: v vᵀ/beta is applied below only when beta is exactly nonzero
		if beta == 0 {
			continue
		}
		// Apply H = I - v vᵀ/beta from the left: rows k+1..n-1.
		for j := k; j < n; j++ {
			s := 0.0
			for i := k + 1; i < n; i++ {
				s += v[i] * d[i*n+j]
			}
			s /= beta
			for i := k + 1; i < n; i++ {
				d[i*n+j] -= s * v[i]
			}
		}
		// Apply from the right: columns k+1..n-1.
		for i := 0; i < n; i++ {
			s := 0.0
			for j := k + 1; j < n; j++ {
				s += v[j] * d[i*n+j]
			}
			s /= beta
			for j := k + 1; j < n; j++ {
				d[i*n+j] -= s * v[j]
			}
		}
		// Zero the annihilated entries exactly.
		d[(k+1)*n+k] = -nrm * scale
		for i := k + 2; i < n; i++ {
			d[i*n+k] = 0
		}
	}
}

// balance applies diagonal similarity scaling (Parlett–Reinsch) so that
// row and column norms are of comparable magnitude, improving the
// accuracy of the subsequent QR iteration. Eigenvalues are unchanged.
func balance(a *Dense) {
	const radix = 2.0
	n := a.rows
	d := a.data
	for done := false; !done; {
		done = true
		for i := 0; i < n; i++ {
			r, c := 0.0, 0.0
			for j := 0; j < n; j++ {
				if j != i {
					c += math.Abs(d[j*n+i])
					r += math.Abs(d[i*n+j])
				}
			}
			//lint:ignore floatcompare an exactly zero row or column cannot be balanced and would divide by zero below
			if c == 0 || r == 0 {
				continue
			}
			g, f, s := r/radix, 1.0, c+r
			for c < g {
				f *= radix
				c *= radix * radix
			}
			g = r * radix
			for c > g {
				f /= radix
				c /= radix * radix
			}
			if (c+r)/f < 0.95*s {
				done = false
				g = 1 / f
				for j := 0; j < n; j++ {
					d[i*n+j] *= g
				}
				for j := 0; j < n; j++ {
					d[j*n+i] *= f
				}
			}
		}
	}
}

// Eigenvalues returns the eigenvalues of a square real matrix as complex
// numbers (complex-conjugate pairs for complex eigenvalues), computed by
// balancing, Hessenberg reduction, and the Francis double-shift QR
// iteration.
func Eigenvalues(a *Dense) ([]complex128, error) {
	mustSquare("Eigenvalues", a)
	n := a.rows
	switch n {
	case 1:
		return []complex128{complex(a.data[0], 0)}, nil
	case 2:
		return eig2x2(a.data[0], a.data[1], a.data[2], a.data[3]), nil
	}
	if eigs, err := eigOnce(a); err == nil {
		return eigs, nil
	}
	return eigRetry(a)
}

// eigRetry is the fallback ladder used after a first eigOnce attempt
// fails. The QR iteration occasionally cycles on highly structured
// matrices (e.g. checkerboard sparsity); retry on equivalent problems:
// a normalized copy (eigenvalues scale linearly) and the transpose
// (identical spectrum).
func eigRetry(a *Dense) ([]complex128, error) {
	//lint:ignore floatcompare rescaling is only pointless at exactly 1; any other norm value is safe to divide by
	if s := InfNorm(a); s > 0 && s != 1 {
		if eigs, err := eigOnce(Scale(1/s, a)); err == nil {
			for i := range eigs {
				eigs[i] *= complex(s, 0)
			}
			return eigs, nil
		}
		if eigs, err := eigOnce(Scale(1/s, a).T()); err == nil {
			for i := range eigs {
				eigs[i] *= complex(s, 0)
			}
			return eigs, nil
		}
	}
	return eigOnce(a.T())
}

func eigOnce(a *Dense) ([]complex128, error) {
	work := a.Clone()
	balance(work)
	hessenbergInPlace(work, make([]float64, a.rows))
	return hqr(work)
}

// eig2x2 returns the eigenvalues of [[a,b],[c,d]].
func eig2x2(a, b, c, d float64) []complex128 {
	tr := a + d
	det := a*d - b*c
	disc := tr*tr/4 - det
	if disc >= 0 {
		s := math.Sqrt(disc)
		return []complex128{complex(tr/2+s, 0), complex(tr/2-s, 0)}
	}
	s := math.Sqrt(-disc)
	return []complex128{complex(tr/2, s), complex(tr/2, -s)}
}

// hqr computes all eigenvalues of an upper Hessenberg matrix by the
// Francis double-shift QR iteration with deflation (after EISPACK HQR /
// Numerical Recipes). The matrix is destroyed.
func hqr(hm *Dense) ([]complex128, error) {
	n := hm.rows
	wr := make([]float64, n)
	wi := make([]float64, n)
	if err := hqrInPlace(hm, wr, wi); err != nil {
		return nil, err
	}
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(wr[i], wi[i])
	}
	sort.Slice(out, func(i, j int) bool {
		//lint:ignore floatcompare sort comparator: a deterministic total order needs exact tie-breaks
		if real(out[i]) != real(out[j]) {
			return real(out[i]) < real(out[j])
		}
		return imag(out[i]) < imag(out[j])
	})
	return out, nil
}

// hqrInPlace is the iteration core of hqr. It destroys hm and writes
// the eigenvalue real/imaginary parts into the caller-provided wr and
// wi (length n, prior contents ignored), allocating nothing itself so
// the scratch-arena spectral-radius path can reuse buffers.
func hqrInPlace(hm *Dense, wr, wi []float64) error {
	n := hm.rows
	a := hm.data
	at := func(i, j int) float64 { return a[i*n+j] }
	set := func(i, j int, v float64) { a[i*n+j] = v }

	const eps = 2.22e-16
	anorm := 0.0
	for i := 0; i < n; i++ {
		for j := maxInt(i-1, 0); j < n; j++ {
			anorm += math.Abs(at(i, j))
		}
	}
	//lint:ignore floatcompare a norm is exactly zero only for the exactly zero matrix
	if anorm == 0 {
		// The zero matrix: all eigenvalues are zero.
		for i := 0; i < n; i++ {
			wr[i], wi[i] = 0, 0
		}
		return nil
	}

	maxIts := maxInt(60, 30*n)
	nn := n - 1
	t := 0.0
	for nn >= 0 {
		its := 0
		var l int
		for {
			// Look for a single small subdiagonal element.
			for l = nn; l >= 1; l-- {
				s := math.Abs(at(l-1, l-1)) + math.Abs(at(l, l))
				//lint:ignore floatcompare guard before using s as a relative-threshold denominator
				if s == 0 {
					s = anorm
				}
				if math.Abs(at(l, l-1)) <= eps*s {
					set(l, l-1, 0)
					break
				}
			}
			x := at(nn, nn)
			if l == nn {
				// One real root found.
				wr[nn] = x + t
				wi[nn] = 0
				nn--
				break
			}
			y := at(nn-1, nn-1)
			w := at(nn, nn-1) * at(nn-1, nn)
			if l == nn-1 {
				// A 2×2 block has deflated: two roots.
				p := 0.5 * (y - x)
				q := p*p + w
				z := math.Sqrt(math.Abs(q))
				x += t
				if q >= 0 {
					// Real pair.
					if p >= 0 {
						z = p + z
					} else {
						z = p - z
					}
					wr[nn-1] = x + z
					wr[nn] = wr[nn-1]
					//lint:ignore floatcompare division guard for w/z; a zero root keeps the paired value
					if z != 0 {
						wr[nn] = x - w/z
					}
					wi[nn-1], wi[nn] = 0, 0
				} else {
					// Complex conjugate pair.
					wr[nn-1] = x + p
					wr[nn] = x + p
					wi[nn-1] = -z
					wi[nn] = z
				}
				nn -= 2
				break
			}
			// No root yet: perform a double QR step, within LAPACK's
			// per-eigenvalue budget of 30·n steps (at least 60).
			if its == maxIts {
				return ErrEigNotConverged
			}
			if its > 0 && its%10 == 0 {
				// Exceptional shift, every 10th step, to break the cycles
				// that structured (e.g. checkerboard) matrices fall into.
				t += x
				for i := 0; i <= nn; i++ {
					set(i, i, at(i, i)-x)
				}
				s := math.Abs(at(nn, nn-1)) + math.Abs(at(nn-1, nn-2))
				y = 0.75 * s
				x = y
				w = -0.4375 * s * s
			}
			its++
			// Find two consecutive small subdiagonal elements.
			var m int
			var p, q, r float64
			for m = nn - 2; m >= l; m-- {
				z := at(m, m)
				rr := x - z
				ss := y - z
				p = (rr*ss-w)/at(m+1, m) + at(m, m+1)
				q = at(m+1, m+1) - z - rr - ss
				r = at(m+2, m+1)
				s := math.Abs(p) + math.Abs(q) + math.Abs(r)
				p /= s
				q /= s
				r /= s
				if m == l {
					break
				}
				u := math.Abs(at(m, m-1)) * (math.Abs(q) + math.Abs(r))
				v := math.Abs(p) * (math.Abs(at(m-1, m-1)) + math.Abs(z) + math.Abs(at(m+1, m+1)))
				if u <= eps*v {
					break
				}
			}
			for i := m + 2; i <= nn; i++ {
				set(i, i-2, 0)
				if i != m+2 {
					set(i, i-3, 0)
				}
			}
			// Double QR step on rows l..nn and columns l..nn.
			for k := m; k <= nn-1; k++ {
				if k != m {
					p = at(k, k-1)
					q = at(k+1, k-1)
					r = 0
					if k != nn-1 {
						r = at(k+2, k-1)
					}
					x = math.Abs(p) + math.Abs(q) + math.Abs(r)
					//lint:ignore floatcompare division guard before normalizing the reflector by x
					if x != 0 {
						p /= x
						q /= x
						r /= x
					}
				}
				s := math.Sqrt(p*p + q*q + r*r)
				if p < 0 {
					s = -s
				}
				//lint:ignore floatcompare a zero Householder norm means the column is already eliminated; also guards s divisions below
				if s == 0 {
					continue
				}
				if k == m {
					if l != m {
						set(k, k-1, -at(k, k-1))
					}
				} else {
					set(k, k-1, -s*x)
				}
				p += s
				x = p / s
				y := q / s
				z := r / s
				q /= p
				r /= p
				// Row modification.
				for j := k; j <= nn; j++ {
					pp := at(k, j) + q*at(k+1, j)
					if k != nn-1 {
						pp += r * at(k+2, j)
						set(k+2, j, at(k+2, j)-pp*z)
					}
					set(k+1, j, at(k+1, j)-pp*y)
					set(k, j, at(k, j)-pp*x)
				}
				mmin := nn
				if k+3 < nn {
					mmin = k + 3
				}
				// Column modification.
				for i := l; i <= mmin; i++ {
					pp := x*at(i, k) + y*at(i, k+1)
					if k != nn-1 {
						pp += z * at(i, k+2)
						set(i, k+2, at(i, k+2)-pp*r)
					}
					set(i, k+1, at(i, k+1)-pp*q)
					set(i, k, at(i, k)-pp)
				}
			}
		}
	}
	return nil
}

// SpectralRadius returns max |λᵢ| over the eigenvalues of a square
// matrix.
func SpectralRadius(a *Dense) (float64, error) {
	eigs, err := Eigenvalues(a)
	if err != nil {
		return 0, err
	}
	r := 0.0
	for _, l := range eigs {
		if v := cmplx.Abs(l); v > r {
			r = v
		}
	}
	return r, nil
}

// Rounding allowances and trusted range of the cheap bounds below. The
// relative margin is four to five orders of magnitude above the
// backward error of the balance + Hessenberg + QR solve (≈ n·eps·‖A‖ for
// n ≤ 64) and the n-term rounding of the norm sums. Inside
// [radiusBoundMin, radiusBoundMax] no intermediate of that solve over-
// or underflows: balancing only shrinks the off-diagonal mass and the
// Hessenberg and QR steps are orthogonal, so every entry they see stays
// within a factor n of the bound, and squares of such entries stay
// normal. The Gelfand bound (SquareRadiusBoundScratch) has a wider
// margin, because its absolute term must also absorb the rounding of
// the extra product, and a narrower range on ‖A‖_F, because it squares
// the entries of A² and so takes fourth powers of A's scale.
const (
	radiusBoundMargin = 1e-10
	radiusBoundMin    = 0x1p-450
	radiusBoundMax    = 0x1p450
	squareBoundMargin = 1e-8
	squareBoundMin    = 0x1p-220
	squareBoundMax    = 0x1p220
)

// trustedBound inflates b by the rounding margin, or returns +Inf when b
// lies outside the trusted range or is not a number, which never allows
// a skip. The zero matrix keeps its exact bound 0.
func trustedBound(b float64) float64 {
	if !(b <= radiusBoundMax) || b < radiusBoundMin && b > 0 {
		return math.Inf(1)
	}
	return b * (1 + radiusBoundMargin)
}

// radiusBound is SpectralRadiusBound on already computed norms of a.
// For n ≤ 2 it returns the closed-form radius itself: it costs less
// than the norms, and the 2×2 formula is not within the relative
// margin of the norms when two eigenvalues nearly coincide (the
// discriminant cancels, so a computed radius can exceed ‖a‖₁ by
// ≈ √eps relative).
func radiusBound(a *Dense, fro, one, inf float64) float64 {
	b := trustedBound(math.Min(fro, math.Min(one, inf)))
	if math.IsInf(b, 1) {
		return b
	}
	switch a.rows {
	case 1:
		return math.Abs(a.data[0])
	case 2:
		return radius2x2(a.data[0], a.data[1], a.data[2], a.data[3])
	}
	return b
}

// SpectralRadiusBound returns a cheap upper bound on the value
// SpectralRadius and SpectralRadiusScratch compute for a: the smallest
// of ‖a‖_F, ‖a‖₁ and ‖a‖∞, each of which bounds every |λ|, inflated by a
// relative margin of 1e-10 that covers the eigenvalue solve's rounding
// (for n ≤ 2, the closed-form radius itself). Callers that fold
// spectral radii into a running maximum may skip the O(n³) solve
// whenever this O(n²) bound cannot beat the maximum. Outside the range
// where that margin is trusted (and for non-finite entries) it returns
// +Inf, which never allows a skip; the zero matrix gets 0. It allocates
// nothing. NormBoundsScratch returns the same value from a single
// sweep together with a bound on the 2-norm.
func SpectralRadiusBound(a *Dense) float64 {
	mustSquare("SpectralRadiusBound", a)
	return radiusBound(a, FroNorm(a), OneNorm(a), InfNorm(a))
}

// IsSchurStable reports whether every eigenvalue lies strictly inside
// the unit disc (discrete-time asymptotic stability of x⁺ = A x).
func IsSchurStable(a *Dense) (bool, error) {
	r, err := SpectralRadius(a)
	if err != nil {
		return false, err
	}
	return r < 1, nil
}

// IsHurwitzStable reports whether every eigenvalue has a strictly
// negative real part (continuous-time asymptotic stability of ẋ = A x).
func IsHurwitzStable(a *Dense) (bool, error) {
	eigs, err := Eigenvalues(a)
	if err != nil {
		return false, err
	}
	for _, l := range eigs {
		if real(l) >= 0 {
			return false, nil
		}
	}
	return true, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
