package mat

import "fmt"

// This file holds the allocation-free product entry point and the
// loop-unrolled square kernels for n = 4, 6 and 8, the smaller closed
// loops. The lifted 9×9 PMSM modes of paper Eq. 10–12 are certified as
// their 4- and 5-state invariant blocks (internal/jsr/blocks.go), so no
// served product is 9×9 and that size has no kernel. The kernels keep
// one output row in registers instead of streaming it through memory
// and elide bounds checks via explicit slice pinning, but they preserve
// the generic loops' floating-point behaviour exactly: accumulation runs
// in the same k-outer/j-inner order with the same exact-zero sparsity
// skip, so Mul, MulInto, and every kernel produce bit-identical results
// for the same operands.

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
