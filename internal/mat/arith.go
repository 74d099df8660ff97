package mat

import "fmt"

// Add returns a + b.
func Add(a, b *Dense) *Dense {
	sameDims("Add", a, b)
	c := New(a.rows, a.cols)
	for i := range a.data {
		c.data[i] = a.data[i] + b.data[i]
	}
	return c
}

// Sub returns a - b.
func Sub(a, b *Dense) *Dense {
	sameDims("Sub", a, b)
	c := New(a.rows, a.cols)
	for i := range a.data {
		c.data[i] = a.data[i] - b.data[i]
	}
	return c
}

// Scale returns s * a.
func Scale(s float64, a *Dense) *Dense {
	c := New(a.rows, a.cols)
	for i := range a.data {
		c.data[i] = s * a.data[i]
	}
	return c
}

// AddInPlace computes a += b, returning a.
func AddInPlace(a, b *Dense) *Dense {
	sameDims("AddInPlace", a, b)
	for i := range a.data {
		a.data[i] += b.data[i]
	}
	return a
}

// Mul returns the matrix product a * b.
func Mul(a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: Mul %d×%d by %d×%d", a.rows, a.cols, b.rows, b.cols))
	}
	c := New(a.rows, b.cols)
	mulInto(c, a, b)
	return c
}

// mulInto computes c = a*b, where c must not alias a or b and must be
// zero-filled on entry (New returns zeroed storage; MulInto clears
// reused buffers before calling). Square sizes with a hand-unrolled
// kernel dispatch to it; the kernels accumulate in exactly the same
// k-outer/j-inner order as the generic loop, so every code path yields
// bit-identical products.
func mulInto(c, a, b *Dense) {
	if k := kernelFor(a, b); k != nil {
		k(c.data, a.data, b.data)
		return
	}
	mulGeneric(c, a, b)
}

// mulGeneric is the general-size product loop. c must be pre-zeroed and
// must not alias a or b.
func mulGeneric(c, a, b *Dense) {
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		crow := c.data[i*c.cols : (i+1)*c.cols]
		for k, av := range arow {
			//lint:ignore floatcompare exact-zero sparsity skip: any nonzero value, however small, multiplies normally
			if av == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// MulMany multiplies the given matrices left to right.
func MulMany(ms ...*Dense) *Dense {
	if len(ms) == 0 {
		//lint:ignore nakedpanic the empty-argument condition has no dynamic values to report
		panic("mat: MulMany with no operands")
	}
	acc := ms[0]
	for _, m := range ms[1:] {
		acc = Mul(acc, m)
	}
	return acc
}

// MulVec returns a*x for a column vector x given as a slice.
func MulVec(a *Dense, x []float64) []float64 {
	y := make([]float64, a.rows)
	MulVecInto(y, a, x)
	return y
}

// MulVecInto computes dst = a*x without allocating. dst must have
// length a.Rows() and must not alias x.
func MulVecInto(dst []float64, a *Dense, x []float64) {
	if a.cols != len(x) {
		panic(fmt.Sprintf("mat: MulVec %d×%d by vector of %d", a.rows, a.cols, len(x)))
	}
	if len(dst) != a.rows {
		panic(fmt.Sprintf("mat: MulVecInto dst of %d for %d rows", len(dst), a.rows))
	}
	mulVecGeneric(dst, a, x)
}

// mulVecGeneric is MulVecInto's loop: each row sum starts at +0 and
// adds its terms in column order.
func mulVecGeneric(dst []float64, a *Dense, x []float64) {
	for i := 0; i < a.rows; i++ {
		row := a.data[i*a.cols : (i+1)*a.cols]
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
}

// T returns the transpose of m.
func (m *Dense) T() *Dense {
	t := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.data[j*t.cols+i] = m.data[i*m.cols+j]
		}
	}
	return t
}

// Neg returns -m.
func Neg(m *Dense) *Dense { return Scale(-1, m) }

// Trace returns the sum of diagonal elements of a square matrix.
func (m *Dense) Trace() float64 {
	mustSquare("Trace", m)
	s := 0.0
	for i := 0; i < m.rows; i++ {
		s += m.data[i*m.cols+i]
	}
	return s
}

// Symmetrize returns (m + mᵀ)/2, useful to suppress round-off drift in
// Riccati/Lyapunov iterations that should stay symmetric.
func Symmetrize(m *Dense) *Dense {
	mustSquare("Symmetrize", m)
	s := New(m.rows, m.cols)
	SymmetrizeInto(s, m)
	return s
}

// SymmetrizeInto writes (m + mᵀ)/2 into dst without allocating. dst must
// have m's dimensions and must not alias it.
func SymmetrizeInto(dst, m *Dense) {
	mustSquare("SymmetrizeInto", m)
	sameDims("SymmetrizeInto", dst, m)
	if sharesData(dst, m) {
		//lint:ignore nakedpanic the aliasing condition has no dynamic values beyond identity
		panic("mat: SymmetrizeInto destination aliases its source")
	}
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			dst.data[i*m.cols+j] = 0.5 * (m.data[i*m.cols+j] + m.data[j*m.cols+i])
		}
	}
}

// Dot returns the Euclidean inner product of two equal-length vectors.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: Dot of %d and %d", len(x), len(y)))
	}
	s := 0.0
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}

func sameDims(op string, a, b *Dense) {
	if a.rows != b.rows || a.cols != b.cols {
		panic(fmt.Sprintf("mat: %s %d×%d with %d×%d", op, a.rows, a.cols, b.rows, b.cols))
	}
}

func mustSquare(op string, m *Dense) {
	if !m.IsSquare() {
		panic(fmt.Sprintf("mat: %s of non-square %d×%d", op, m.rows, m.cols))
	}
}
