package mat

import (
	"fmt"
	"math"
)

// This file holds the pre-product Frobenius bound: an upper bound on the
// norms NormBoundsScratch would compute for a product a·p, read from the
// Gram matrices of a and p without forming the product. ‖a·p‖_F² =
// tr(pᵀaᵀa·p) = ⟨aᵀa, p·pᵀ⟩, so with G = aᵀa known per factor a and
// S = p·pᵀ formed once per factor p, each product's bound costs one
// n(n+1)/2-term inner product instead of an n×n multiply and a norm
// sweep.

// Gram is the symmetric positive semidefinite n×n Gram matrix a·aᵀ of
// some a, packed as its n diagonal entries followed by the n(n−1)/2
// entries above the diagonal in row order, together with its trace: the
// squared Frobenius norm of a. The Gram aᵀa of a is that of aᵀ.
type Gram struct {
	n  int
	d  []float64
	tr float64
}

// NewGram returns an n×n Gram workspace.
func NewGram(n int) *Gram {
	return &Gram{n: n, d: make([]float64, n*(n+1)/2)}
}

// SetRowGram sets g to a·aᵀ, whose entry (i, j) is the dot product of
// rows i and j of a, each summed from +0 in column order. It allocates
// nothing.
func (g *Gram) SetRowGram(a *Dense) {
	mustSquare("SetRowGram", a)
	n := g.n
	if a.rows != n {
		panic(fmt.Sprintf("mat: SetRowGram of a %d×%d matrix into a %d×%d Gram", a.rows, a.cols, n, n))
	}
	d, t := g.d, n
	for i := 0; i < n; i++ {
		ri := a.data[i*n : (i+1)*n : (i+1)*n]
		d[i] = rowDot(ri, ri)
		for j := i + 1; j < n; j++ {
			d[t] = rowDot(ri, a.data[j*n:(j+1)*n:(j+1)*n])
			t++
		}
	}
	g.tr = 0
	for _, v := range d[:n] {
		g.tr += v
	}
}

// rowDot is Dot without its length check, so that it inlines into the
// loops above and below.
func rowDot(x, y []float64) float64 {
	y = y[:len(x)]
	s := 0.0
	for k, v := range x {
		s += v * y[k]
	}
	return s
}

// Trusted range of ProductFroBound: each trace in [2^-440, 2^440], the
// bound's square above 2^-880 past its margin, and the bound itself at
// most 2^440.
const (
	froBoundMin   = 0x1p-440
	froBoundMax   = 0x1p440
	froBoundFloor = 0x1p-880
)

// ProductFroBound returns an upper bound on the Frobenius norm of the
// computed product fl(a·p), inflated so that it is never below the
// Radius and TwoNorm bounds NormBoundsScratch returns for that product.
// ga must be aᵀa (SetRowGram of aᵀ) and sp must be p·pᵀ (SetRowGram
// of p). With
// q = ⟨ga, sp⟩, sᵢ = tr ga = ‖a‖_F², s_P = tr sp = ‖p‖_F² and m = 1e-8
// the bound is
//
//	F̂ = √(max(q, 0) + m·sᵢ·s_P)·(1 + m).
//
// The absolute term covers the rounding of fl(a·p), at most n·eps·
// ‖a‖_F‖p‖_F in the Frobenius norm, and of ga, sp and q, at most
// (n² + 2n)·eps·sᵢ·s_P, since Σ|Gᵢⱼ||Sᵢⱼ| ≤ ‖|a||p|‖_F² ≤ sᵢ·s_P. The
// factor covers the 1e-10 margin NormBoundsScratch adds and the
// rounding of its sweep. The bound is +Inf, which never allows a skip,
// unless n ≥ 3, both traces lie in [2^-440, 2^440], q − m·sᵢ·s_P >
// 2^-880 and F̂ ≤ 2^440. Inside that range nothing over- or underflows
// beyond the absolute term, ‖fl(a·p)‖_F is at least ≈2^-441, so its
// norms stay inside the trusted range of NormBoundsScratch, and for
// n ≥ 3 both its bounds are at most the trusted Frobenius norm. For
// n ≤ 2 Radius is the closed-form radius instead, which is why the
// bound does not serve those sizes. It allocates nothing.
func ProductFroBound(ga, sp *Gram) float64 {
	n := ga.n
	if n < 3 || sp.n != n {
		return math.Inf(1)
	}
	si, sP := ga.tr, sp.tr
	if !(si >= froBoundMin && si <= froBoundMax && sP >= froBoundMin && sP <= froBoundMax) {
		return math.Inf(1)
	}
	g, s := ga.d, sp.d[:len(ga.d)]
	q := rowDot(g[:n], s[:n]) + 2*rowDot(g[n:], s[n:])
	const m = squareBoundMargin
	abs := m * si * sP
	if !(q-abs > froBoundFloor) {
		return math.Inf(1)
	}
	f := math.Sqrt(math.Max(q, 0)+abs) * (1 + m)
	if !(f <= froBoundMax) {
		return math.Inf(1)
	}
	return f
}
