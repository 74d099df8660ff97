package mat

import "fmt"

// This file holds the allocation-free product entry point and the
// loop-unrolled square kernels. n = 9 is the size this repository
// certifies most: every lifted PMSM mode of paper Eq. 10–12 is 9×9, so
// it also gets a transpose-free Gram product (gram9, for TwoNormScratch)
// and a 9-row matrix-vector product (mulVec9, for MulVecInto). n = 4,
// 6 and 8 are the smaller closed loops. The kernels keep one output row
// in registers instead of streaming it through memory and elide bounds
// checks via explicit slice pinning, but they preserve the generic
// loops' floating-point behaviour exactly: accumulation runs in the same
// k-outer/j-inner order with the same exact-zero sparsity skip, so Mul,
// MulInto, and every kernel produce bit-identical results for the same
// operands.

// MulInto computes c = a*b without allocating. c must have dimensions
// a.Rows()×b.Cols() and must not alias a or b (checked; aliasing would
// feed partially written output back into the inputs).
func MulInto(c, a, b *Dense) {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: MulInto %d×%d by %d×%d", a.rows, a.cols, b.rows, b.cols))
	}
	if c.rows != a.rows || c.cols != b.cols {
		panic(fmt.Sprintf("mat: MulInto destination %d×%d for %d×%d product", c.rows, c.cols, a.rows, b.cols))
	}
	if sharesData(c, a) || sharesData(c, b) {
		//lint:ignore nakedpanic the aliasing condition has no dynamic values beyond identity
		panic("mat: MulInto destination aliases a source operand")
	}
	if k := kernelFor(a, b); k != nil {
		// The unrolled kernels fully overwrite c, so no clear is needed.
		k(c.data, a.data, b.data)
		return
	}
	for i := range c.data {
		c.data[i] = 0
	}
	mulGeneric(c, a, b)
}

// sharesData reports whether two matrices use the same backing array.
// Dense storage is always allocated whole by New, so comparing the
// first-element addresses is exact.
func sharesData(x, y *Dense) bool {
	return x == y || &x.data[0] == &y.data[0]
}

// kernelFor selects the unrolled kernel for the operand shape, or nil
// for the generic loop.
func kernelFor(a, b *Dense) func(c, a, b []float64) {
	if a.rows != a.cols || b.rows != b.cols || a.rows != b.rows {
		return nil
	}
	switch a.rows {
	case 4:
		return mul4x4
	case 6:
		return mul6x6
	case 8:
		return mul8x8
	case 9:
		return mul9x9
	}
	return nil
}

// mul4x4 computes the 4×4 product c = a·b with the output row held in
// registers. Same accumulation order as mulGeneric.
func mul4x4(c, a, b []float64) {
	b = b[:16:16]
	a = a[:16:16]
	c = c[:16:16]
	for i := 0; i < 4; i++ {
		ar := a[i*4 : i*4+4 : i*4+4]
		var c0, c1, c2, c3 float64
		for k := 0; k < 4; k++ {
			av := ar[k]
			//lint:ignore floatcompare exact-zero sparsity skip mirrors mulGeneric bit for bit
			if av == 0 {
				continue
			}
			br := b[k*4 : k*4+4 : k*4+4]
			c0 += av * br[0]
			c1 += av * br[1]
			c2 += av * br[2]
			c3 += av * br[3]
		}
		cr := c[i*4 : i*4+4 : i*4+4]
		cr[0], cr[1], cr[2], cr[3] = c0, c1, c2, c3
	}
}

// mul6x6 computes the 6×6 product c = a·b with the output row held in
// registers. Same accumulation order as mulGeneric.
func mul6x6(c, a, b []float64) {
	b = b[:36:36]
	a = a[:36:36]
	c = c[:36:36]
	for i := 0; i < 6; i++ {
		ar := a[i*6 : i*6+6 : i*6+6]
		var c0, c1, c2, c3, c4, c5 float64
		for k := 0; k < 6; k++ {
			av := ar[k]
			//lint:ignore floatcompare exact-zero sparsity skip mirrors mulGeneric bit for bit
			if av == 0 {
				continue
			}
			br := b[k*6 : k*6+6 : k*6+6]
			c0 += av * br[0]
			c1 += av * br[1]
			c2 += av * br[2]
			c3 += av * br[3]
			c4 += av * br[4]
			c5 += av * br[5]
		}
		cr := c[i*6 : i*6+6 : i*6+6]
		cr[0], cr[1], cr[2], cr[3], cr[4], cr[5] = c0, c1, c2, c3, c4, c5
	}
}

// mul8x8 computes the 8×8 product c = a·b with the output row held in
// registers. Same accumulation order as mulGeneric.
func mul8x8(c, a, b []float64) {
	b = b[:64:64]
	a = a[:64:64]
	c = c[:64:64]
	for i := 0; i < 8; i++ {
		ar := a[i*8 : i*8+8 : i*8+8]
		var c0, c1, c2, c3, c4, c5, c6, c7 float64
		for k := 0; k < 8; k++ {
			av := ar[k]
			//lint:ignore floatcompare exact-zero sparsity skip mirrors mulGeneric bit for bit
			if av == 0 {
				continue
			}
			br := b[k*8 : k*8+8 : k*8+8]
			c0 += av * br[0]
			c1 += av * br[1]
			c2 += av * br[2]
			c3 += av * br[3]
			c4 += av * br[4]
			c5 += av * br[5]
			c6 += av * br[6]
			c7 += av * br[7]
		}
		cr := c[i*8 : i*8+8 : i*8+8]
		cr[0], cr[1], cr[2], cr[3], cr[4], cr[5], cr[6], cr[7] = c0, c1, c2, c3, c4, c5, c6, c7
	}
}

// mul9x9 computes the 9×9 product c = a·b with the output row held in
// registers. Same accumulation order as mulGeneric.
func mul9x9(c, a, b []float64) {
	b = b[:81:81]
	a = a[:81:81]
	c = c[:81:81]
	for i := 0; i < 9; i++ {
		ar := a[i*9 : i*9+9 : i*9+9]
		var c0, c1, c2, c3, c4, c5, c6, c7, c8 float64
		for k := 0; k < 9; k++ {
			av := ar[k]
			//lint:ignore floatcompare exact-zero sparsity skip mirrors mulGeneric bit for bit
			if av == 0 {
				continue
			}
			br := b[k*9 : k*9+9 : k*9+9]
			c0 += av * br[0]
			c1 += av * br[1]
			c2 += av * br[2]
			c3 += av * br[3]
			c4 += av * br[4]
			c5 += av * br[5]
			c6 += av * br[6]
			c7 += av * br[7]
			c8 += av * br[8]
		}
		cr := c[i*9 : i*9+9 : i*9+9]
		cr[0], cr[1], cr[2], cr[3], cr[4], cr[5], cr[6], cr[7], cr[8] = c0, c1, c2, c3, c4, c5, c6, c7, c8
	}
}

// gram9 computes the 9×9 Gram product c = aᵀ·a without forming aᵀ:
// c[i][j] = Σₖ a[k][i]·a[k][j], summed in k order with the term skipped
// when a[k][i] is exactly zero. That is mulGeneric's arithmetic on the
// operands (aᵀ, a), so the result is bit-identical to transposeInto
// followed by MulInto. Symmetry is deliberately not exploited: the zero
// skip of c[i][j] tests a[k][i] and that of c[j][i] tests a[k][j], so
// the two differ once an Inf or NaN meets a skipped zero.
func gram9(c, a []float64) {
	a = a[:81:81]
	c = c[:81:81]
	for i := 0; i < 9; i++ {
		var c0, c1, c2, c3, c4, c5, c6, c7, c8 float64
		for k := 0; k < 9; k++ {
			ar := a[k*9 : k*9+9 : k*9+9]
			av := ar[i]
			//lint:ignore floatcompare exact-zero sparsity skip mirrors mulGeneric bit for bit
			if av == 0 {
				continue
			}
			c0 += av * ar[0]
			c1 += av * ar[1]
			c2 += av * ar[2]
			c3 += av * ar[3]
			c4 += av * ar[4]
			c5 += av * ar[5]
			c6 += av * ar[6]
			c7 += av * ar[7]
			c8 += av * ar[8]
		}
		cr := c[i*9 : i*9+9 : i*9+9]
		cr[0], cr[1], cr[2], cr[3], cr[4], cr[5], cr[6], cr[7], cr[8] = c0, c1, c2, c3, c4, c5, c6, c7, c8
	}
}

// mulVec9 computes dst = a·x for a 9×9 a with x held in registers. Each
// row sum starts at +0 and adds its terms in column order, exactly as
// mulVecGeneric does.
func mulVec9(dst, a, x []float64) {
	a = a[:81:81]
	x = x[:9:9]
	dst = dst[:9:9]
	x0, x1, x2, x3, x4, x5, x6, x7, x8 := x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7], x[8]
	for i := 0; i < 9; i++ {
		r := a[i*9 : i*9+9 : i*9+9]
		s := 0.0
		s += r[0] * x0
		s += r[1] * x1
		s += r[2] * x2
		s += r[3] * x3
		s += r[4] * x4
		s += r[5] * x5
		s += r[6] * x6
		s += r[7] * x7
		s += r[8] * x8
		dst[i] = s
	}
}
