package mat

import (
	"math"
	"math/rand"
	"testing"
)

// mulNaive is the reference product: the textbook triple loop in the
// same k-outer/j-inner accumulation order and with the same exact-zero
// skip as mulGeneric, written independently of the dispatch machinery.
func mulNaive(a, b *Dense) *Dense {
	c := New(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		for k := 0; k < a.cols; k++ {
			av := a.data[i*a.cols+k]
			//lint:ignore floatcompare reference loop mirrors mulGeneric's sparsity skip
			if av == 0 {
				continue
			}
			for j := 0; j < b.cols; j++ {
				c.data[i*c.cols+j] += av * b.data[k*b.cols+j]
			}
		}
	}
	return c
}

// sparsifiedRandom returns an n×n matrix with normal entries and a few
// exact zeros so the kernels' sparsity-skip path is exercised.
func sparsifiedRandom(rng *rand.Rand, n int) *Dense {
	m := randomDense(rng, n, n)
	for i := range m.data {
		if rng.Intn(5) == 0 {
			m.data[i] = 0
		}
	}
	return m
}

// posInf is a variable so that posInf − posInf is computed at run time.
var posInf = math.Inf(1)

// machineNaN returns the NaN the floating-point unit generates (∞ − ∞).
// When two NaNs with different bits meet in one sum, IEEE 754 leaves
// open which one the result carries, and the compiler's operand order
// picks it; mulGeneric and mulNaive already disagree there. With every
// NaN equal to the generated one the bits are decided by the source
// alone. That is also the only NaN the certifier's arithmetic can meet:
// requests are validated finite, so any NaN is generated on the way.
func machineNaN() float64 { return posInf - posInf }

// specialNine returns a 9×9 matrix whose bits the exact-zero skip
// decides. Column zeroCol is zero (+0 or −0) in rows 0..4, and those
// rows and row zeroCol carry ±Inf or NaN in other columns: a skipped
// term there would have been 0·Inf = NaN. A product whose left factor
// has that zero column meets the non-finite entries of row zeroCol of
// its right factor, and the Gram product c[i][j] = Σₖ a[k][i]·a[k][j]
// meets them in the same rows. Row 8 is all +0, so against an
// all-negative vector every term of its matvec sum is −0 and only the
// sum's +0 start makes the result +0. Subnormals and −0 are sprinkled
// elsewhere. With nonFinite false the ±Inf and NaN entries are left
// out, so norms stay finite.
func specialNine(rng *rand.Rand, nonFinite bool) *Dense {
	const zeroCol = 2
	m := sparsifiedRandom(rng, 9)
	for r := 0; r < 5; r++ {
		m.data[r*9+zeroCol] = 0
		if r%2 == 1 {
			m.data[r*9+zeroCol] = math.Copysign(0, -1)
		}
	}
	for c := 0; c < 9; c++ {
		m.data[8*9+c] = 0
	}
	tiny := []float64{math.SmallestNonzeroFloat64, -4 * math.SmallestNonzeroFloat64, 2.2e-310, math.Copysign(0, -1)}
	for i := 0; i < 6; i++ {
		m.data[rng.Intn(72)] = tiny[rng.Intn(len(tiny))]
	}
	if nonFinite {
		special := []float64{math.Inf(1), math.Inf(-1), machineNaN()}
		for _, r := range []int{0, 1, 3, zeroCol} {
			c := rng.Intn(8)
			if c >= zeroCol {
				c++
			}
			m.data[r*9+c] = special[rng.Intn(len(special))]
		}
	}
	return m
}

func sameBits(a, b *Dense) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i := range a.data {
		if math.Float64bits(a.data[i]) != math.Float64bits(b.data[i]) {
			return false
		}
	}
	return true
}

// TestMulIntoBitIdenticalToNaive drives Mul, MulInto into a fresh
// destination, and MulInto into a dirty reused destination through all
// sizes n=1..12 — covering each unrolled kernel (4, 6, 8) and the
// generic path — and demands bit-for-bit identity with the naive
// reference product.
func TestMulIntoBitIdenticalToNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 1; n <= 12; n++ {
		for trial := 0; trial < 25; trial++ {
			a := sparsifiedRandom(rng, n)
			b := sparsifiedRandom(rng, n)
			want := mulNaive(a, b)

			if got := Mul(a, b); !sameBits(got, want) {
				t.Fatalf("n=%d trial=%d: Mul differs from naive product", n, trial)
			}

			fresh := New(n, n)
			MulInto(fresh, a, b)
			if !sameBits(fresh, want) {
				t.Fatalf("n=%d trial=%d: MulInto(fresh) differs from naive product", n, trial)
			}

			dirty := randomDense(rng, n, n)
			MulInto(dirty, a, b)
			if !sameBits(dirty, want) {
				t.Fatalf("n=%d trial=%d: MulInto(dirty) differs from naive product — stale destination data leaked", n, trial)
			}
		}
	}
}

// TestKernelsMatchGenericDirectly pins each unrolled kernel (4, 6, 8)
// against mulGeneric without going through dispatch, so a routing bug
// cannot mask a kernel bug.
func TestKernelsMatchGenericDirectly(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	kernels := map[int]func(c, a, b []float64){4: mul4x4, 6: mul6x6, 8: mul8x8}
	for n, kern := range kernels {
		for trial := 0; trial < 50; trial++ {
			a := sparsifiedRandom(rng, n)
			b := sparsifiedRandom(rng, n)
			want := New(n, n)
			mulGeneric(want, a, b)
			got := New(n, n)
			kern(got.data, a.data, b.data)
			if !sameBits(got, want) {
				t.Fatalf("n=%d trial=%d: unrolled kernel differs from mulGeneric", n, trial)
			}
		}
	}
}

func TestMulIntoRectangular(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randomDense(rng, 3, 7)
	b := randomDense(rng, 7, 5)
	want := mulNaive(a, b)
	got := New(3, 5)
	MulInto(got, a, b)
	if !sameBits(got, want) {
		t.Fatalf("rectangular MulInto differs from naive product")
	}
}

func TestMulIntoPanics(t *testing.T) {
	a := New(3, 3)
	b := New(3, 3)
	cases := []struct {
		name string
		call func()
	}{
		{"inner mismatch", func() { MulInto(New(3, 3), New(3, 2), b) }},
		{"dest shape", func() { MulInto(New(2, 3), a, b) }},
		{"dest aliases a", func() { MulInto(a, a, b) }},
		{"dest aliases b", func() { MulInto(b, a, b) }},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", tc.name)
				}
			}()
			tc.call()
		}()
	}
}

func TestMulIntoZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{4, 6, 8, 9} {
		a := randomDense(rng, n, n)
		b := randomDense(rng, n, n)
		c := New(n, n)
		allocs := testing.AllocsPerRun(100, func() { MulInto(c, a, b) })
		if allocs != 0 {
			t.Errorf("n=%d: MulInto allocates %.1f per call, want 0", n, allocs)
		}
	}
}

func TestTwoNormScratchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, n := range []int{1, 2, 4, 6, 8, 9, 12} {
		s := NewScratch(n)
		for trial := 0; trial < 20; trial++ {
			a := sparsifiedRandom(rng, n)
			if n == 9 && trial >= 10 {
				// The special family: −0 and subnormals, and from
				// trial 15 on ±Inf/NaN where the zero skip decides.
				a = specialNine(rng, trial >= 15)
			}
			want := TwoNorm(a)
			got := TwoNormScratch(a, s)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d trial=%d: TwoNormScratch=%v TwoNorm=%v", n, trial, got, want)
			}
			// Reuse must not drift: run again on the warm scratch.
			if again := TwoNormScratch(a, s); math.Float64bits(again) != math.Float64bits(want) {
				t.Fatalf("n=%d trial=%d: warm TwoNormScratch=%v TwoNorm=%v", n, trial, again, want)
			}
		}
	}
	// Zero matrix edge case.
	s := NewScratch(3)
	if got := TwoNormScratch(New(3, 3), s); got != 0 {
		t.Fatalf("TwoNormScratch(0) = %v", got)
	}
}

func TestSpectralRadiusScratchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{1, 2, 3, 4, 6, 8, 9} {
		s := NewScratch(n)
		for trial := 0; trial < 20; trial++ {
			a := sparsifiedRandom(rng, n)
			want, werr := SpectralRadius(a)
			got, gerr := SpectralRadiusScratch(a, s)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("n=%d trial=%d: error mismatch: %v vs %v", n, trial, werr, gerr)
			}
			if werr != nil {
				continue
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d trial=%d: SpectralRadiusScratch=%v SpectralRadius=%v", n, trial, got, want)
			}
		}
	}
}

func TestScratchWrongSizeFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	s := NewScratch(4)
	a := randomDense(rng, 6, 6)
	if got, want := TwoNormScratch(a, s), TwoNorm(a); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("TwoNormScratch fallback = %v, want %v", got, want)
	}
	gr, gerr := SpectralRadiusScratch(a, s)
	wr, werr := SpectralRadius(a)
	if gerr != nil || werr != nil {
		t.Fatalf("unexpected errors: %v %v", gerr, werr)
	}
	if math.Float64bits(gr) != math.Float64bits(wr) {
		t.Fatalf("SpectralRadiusScratch fallback = %v, want %v", gr, wr)
	}
}

func TestScratchZeroAllocsWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := 9
	s := NewScratch(n)
	a := randomDense(rng, n, n)
	// Warm once so any lazy state settles.
	TwoNormScratch(a, s)
	if _, err := SpectralRadiusScratch(a, s); err != nil {
		t.Fatalf("SpectralRadiusScratch: %v", err)
	}
	if allocs := testing.AllocsPerRun(50, func() { TwoNormScratch(a, s) }); allocs != 0 {
		t.Errorf("TwoNormScratch allocates %.1f per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := SpectralRadiusScratch(a, s); err != nil {
			panic(err)
		}
	}); allocs != 0 {
		t.Errorf("SpectralRadiusScratch allocates %.1f per call, want 0", allocs)
	}
}
