package mat

import (
	"math"
	"math/cmplx"
)

// Scratch is a reusable workspace for the norm and spectral-radius
// computations on n×n matrices that dominate the JSR hot loop. One
// Scratch serves one goroutine; callers that parallelize keep one per
// worker. The scratch variants produce bit-identical results to their
// allocating counterparts (TwoNorm, SpectralRadius) because they share
// the same computational cores (twoNormPower, hessenbergInPlace,
// hqrInPlace) — only the buffer lifetimes differ. The same workspace
// serves the cheap bounds that let callers skip those kernels
// (NormBoundsScratch, SquareRadiusBoundScratch).
type Scratch struct {
	n                int
	at, ata, eig, sq *Dense
	x, y, z, v       []float64
	wr, wi           []float64
}

// NewScratch returns a workspace for n×n operands.
func NewScratch(n int) *Scratch {
	return &Scratch{
		n:   n,
		at:  New(n, n),
		ata: New(n, n),
		eig: New(n, n),
		sq:  New(n, n),
		x:   make([]float64, n),
		y:   make([]float64, n),
		z:   make([]float64, n),
		v:   make([]float64, n),
		wr:  make([]float64, n),
		wi:  make([]float64, n),
	}
}

// N returns the operand size this scratch was built for.
func (s *Scratch) N() int { return s.n }

// transposeInto writes srcᵀ into dst. dst must not alias src.
func transposeInto(dst, src *Dense) {
	for i := 0; i < src.rows; i++ {
		for j := 0; j < src.cols; j++ {
			dst.data[j*dst.cols+i] = src.data[i*src.cols+j]
		}
	}
}

// TwoNormScratch returns ‖a‖₂ for a square matrix using s's buffers,
// allocating nothing. Bit-identical to TwoNorm(a).
func TwoNormScratch(a *Dense, s *Scratch) float64 {
	if a.rows != s.n || a.cols != s.n {
		mustSquare("TwoNormScratch", a)
		// Shape mismatch against the arena: fall back to the allocating
		// path rather than corrupt buffers.
		return TwoNorm(a)
	}
	transposeInto(s.at, a)
	MulInto(s.ata, s.at, a)
	return twoNormPower(a, s.ata, s.x, s.y, s.z)
}

// NormBounds holds the cheap upper bounds NormBoundsScratch derives from
// one sweep over a square matrix a. Each bound is +Inf outside the
// trusted range of SpectralRadiusBound (and for non-finite entries), so
// a caller comparing against it never skips a kernel there.
type NormBounds struct {
	// Radius is SpectralRadiusBound(a), bit for bit: it is never below
	// the value SpectralRadius and SpectralRadiusScratch compute for a.
	Radius float64
	// TwoNorm is min(‖a‖_F, √(‖a‖₁‖a‖∞))·(1 + 1e-10): it is never below
	// the value TwoNorm and TwoNormScratch compute for a.
	TwoNorm float64
	// fro is ‖a‖_F as computed, the scale of the rounding allowance in
	// SquareRadiusBoundScratch.
	fro float64
}

// NormBoundsScratch computes ‖a‖_F, ‖a‖₁ and ‖a‖∞ of a square matrix in
// a single O(n²) sweep, keeping the column sums in s, and returns the
// bounds derived from them. Each norm is summed in the same order as
// FroNorm, OneNorm and InfNorm, so Radius equals SpectralRadiusBound(a)
// bit for bit. It allocates nothing when s fits a.
//
// TwoNorm bounds the power iteration of TwoNorm and TwoNormScratch: it
// returns the square root of a Rayleigh quotient of fl(aᵀa), which is at
// most ‖a‖₂² plus the n-term rounding of that product, and ‖a‖₂ is at
// most both ‖a‖_F and √(‖a‖₁‖a‖∞); on stagnation it returns a value
// no larger than the computed ‖a‖_F.
func NormBoundsScratch(a *Dense, s *Scratch) NormBounds {
	mustSquare("NormBoundsScratch", a)
	if a.rows != s.n {
		return normBounds(a, FroNorm(a), OneNorm(a), InfNorm(a))
	}
	n := a.rows
	col := s.v
	for j := range col {
		col[j] = 0
	}
	fro2, inf := 0.0, 0.0
	for i := 0; i < n; i++ {
		row := a.data[i*n : (i+1)*n : (i+1)*n]
		r := 0.0
		for j, v := range row {
			fro2 += v * v
			w := math.Abs(v)
			r += w
			col[j] += w
		}
		if r > inf {
			inf = r
		}
	}
	one := 0.0
	for _, c := range col {
		if c > one {
			one = c
		}
	}
	return normBounds(a, math.Sqrt(fro2), one, inf)
}

func normBounds(a *Dense, fro, one, inf float64) NormBounds {
	return NormBounds{
		Radius:  radiusBound(a, fro, one, inf),
		TwoNorm: trustedBound(math.Min(fro, math.Sqrt(one*inf))),
		fro:     fro,
	}
}

// SquareRadiusBoundScratch returns an upper bound on the value
// SpectralRadius and SpectralRadiusScratch compute for a, from the
// Gelfand inequality ρ(a)² = ρ(a²) ≤ ‖a²‖_F. nb must be
// NormBoundsScratch(a, s). With Q = fl(a·a) formed in s and m = 1e-8 the
// bound is
//
//	S = √(‖Q‖_F·(1+m) + m·‖a‖_F²)·(1+m).
//
// The absolute term covers both the rounding of Q (at most n·eps·‖a‖_F²
// in the Frobenius norm) and the eigenvalue solve's backward error E:
// a computed eigenvalue λ̂ of a + E satisfies |λ̂|² ≤ ‖(a+E)²‖ ≤ ‖a²‖ +
// 2‖a‖‖E‖ + ‖E‖², with ‖E‖ ≈ n·eps·‖a‖. The bound costs one n×n product
// and is much tighter than Radius on products whose square is small,
// such as non-normal ones. It is +Inf wherever Radius is and whenever
// ‖a‖_F lies outside [2^-220, 2^220]: inside that range the entries of
// Q square without overflow, and whatever underflows is far below the
// absolute term. It allocates nothing when s fits a.
func SquareRadiusBoundScratch(a *Dense, nb NormBounds, s *Scratch) float64 {
	if math.IsInf(nb.Radius, 1) || !(nb.fro <= squareBoundMax) || nb.fro < squareBoundMin && nb.fro > 0 ||
		a.rows != s.n || a.cols != s.n {
		return math.Inf(1)
	}
	MulInto(s.sq, a, a)
	const m = squareBoundMargin
	return math.Sqrt(FroNorm(s.sq)*(1+m)+m*nb.fro*nb.fro) * (1 + m)
}

// SpectralRadiusScratch returns max |λᵢ| for a square matrix using s's
// buffers. The warm path (first QR attempt converges, which is the
// overwhelmingly common case) allocates nothing; the cold retry ladder
// falls back to the allocating path. Bit-identical to SpectralRadius(a).
func SpectralRadiusScratch(a *Dense, s *Scratch) (float64, error) {
	mustSquare("SpectralRadiusScratch", a)
	switch a.rows {
	case 1:
		return math.Abs(a.data[0]), nil
	case 2:
		return radius2x2(a.data[0], a.data[1], a.data[2], a.data[3]), nil
	}
	if a.rows != s.n {
		return SpectralRadius(a)
	}
	// Same op sequence as eigOnce: copy, balance, Hessenberg, QR.
	s.eig.CopyFrom(a)
	balance(s.eig)
	hessenbergInPlace(s.eig, s.v)
	if err := hqrInPlace(s.eig, s.wr, s.wi); err != nil {
		// Mirror Eigenvalues' retry ladder so failures resolve the same
		// way as the allocating path.
		eigs, rerr := eigRetry(a)
		if rerr != nil {
			return 0, rerr
		}
		r := 0.0
		for _, l := range eigs {
			if v := cmplx.Abs(l); v > r {
				r = v
			}
		}
		return r, nil
	}
	// max over (wr, wi) pairs equals max cmplx.Abs over the sorted
	// eigenvalue slice: cmplx.Abs is math.Hypot(re, im) and the max
	// fold is order-independent.
	r := 0.0
	for i := range s.wr {
		if v := math.Hypot(s.wr[i], s.wi[i]); v > r {
			r = v
		}
	}
	return r, nil
}

// radius2x2 is the closed-form spectral radius of [[a,b],[c,d]],
// following eig2x2's arithmetic exactly.
func radius2x2(a, b, c, d float64) float64 {
	tr := a + d
	det := a*d - b*c
	disc := tr*tr/4 - det
	if disc >= 0 {
		s := math.Sqrt(disc)
		return math.Max(math.Abs(tr/2+s), math.Abs(tr/2-s))
	}
	return math.Hypot(tr/2, math.Sqrt(-disc))
}
