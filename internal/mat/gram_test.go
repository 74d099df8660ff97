package mat

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// TestGramLayouts checks SetRowGram against its definition: entry
// (i, j) of the packed a·aᵀ is the dot product of rows i and j, and the
// trace is ‖a‖_F² up to rounding.
func TestGramLayouts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 3, 5, 9, 12} {
		for trial := 0; trial < 20; trial++ {
			a := sparsifiedRandom(rng, n)
			row := NewGram(n)
			row.SetRowGram(a)
			k := n
			for i := 0; i < n; i++ {
				for j := i; j < n; j++ {
					want := Dot(a.data[i*n:(i+1)*n], a.data[j*n:(j+1)*n])
					got := row.d[i]
					if j > i {
						got = row.d[k]
						k++
					}
					if math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
						t.Fatalf("n=%d trial=%d: a·aᵀ(%d,%d) = %v, want %v", n, trial, i, j, got, want)
					}
				}
			}
			if fro := FroNorm(a); math.Abs(row.tr-fro*fro) > 1e-12*fro*fro {
				t.Fatalf("n=%d trial=%d: trace %v, ‖a‖_F² %v", n, trial, row.tr, fro*fro)
			}
		}
	}
}

// checkProductFroBound asserts the contract of ProductFroBound on one
// pair: when the bound is finite, it is at least the Radius and TwoNorm
// bounds NormBoundsScratch returns for the computed product a·p. It
// reports whether the bound was finite.
func checkProductFroBound(t *testing.T, name string, a, p *Dense) bool {
	t.Helper()
	n := a.rows
	ga, sp := NewGram(n), NewGram(n)
	ga.SetRowGram(a.T())
	sp.SetRowGram(p)
	f := ProductFroBound(ga, sp)
	if math.IsInf(f, 1) {
		return false
	}
	if !(f >= 0) || n < 3 {
		t.Fatalf("%s: bound %v for n = %d, want +Inf below n = 3 and a finite non-negative value otherwise", name, f, n)
	}
	c := New(n, n)
	MulInto(c, a, p)
	nb := NormBoundsScratch(c, NewScratch(n))
	if !(f >= nb.Radius) || !(f >= nb.TwoNorm) {
		t.Fatalf("%s: pre-product bound %v below the product's Radius %v or TwoNorm %v", name, f, nb.Radius, nb.TwoNorm)
	}
	return true
}

// TestProductFroBoundCoversProductNorms runs the contract over every
// ordered pair of the spectral-radius bound families, which include
// tight, graded, nilpotent, start-orthogonal and scaled matrices, at
// n = 1..64. It also pins where the bound must fall through: n ≤ 2,
// traces outside [2^-440, 2^440], and products whose squared norm is
// below the absolute term (a nilpotent matrix times itself).
func TestProductFroBoundCoversProductNorms(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, n := range []int{1, 2, 3, 4, 9, 16, 64} {
		cases := radiusBoundCases(rng, n)
		finite := 0
		for _, x := range cases {
			for _, y := range cases {
				if checkProductFroBound(t, x.name+"·"+y.name, x.a, y.a) {
					finite++
				}
			}
		}
		if n < 3 && finite != 0 || n >= 3 && finite == 0 {
			t.Errorf("n=%d: %d finite bounds", n, finite)
		}
	}
	a := randomDense(rng, 9, 9)
	nil9 := nilpotentDense(rng, 9)
	// Both traces at exactly 2^440 and q = sᵢ·s_P, so only the margins
	// push the bound past 2^440.
	edge := New(9, 9)
	edge.Set(0, 0, 0x1p220)
	for _, tc := range []struct {
		name string
		a, p *Dense
	}{
		{"trace above 2^440", Scale(0x1p221, a), a},
		{"trace below 2^-440", Scale(0x1p-224, a), a},
		{"bound above 2^440", edge, edge},
		{"nilpotent squared", nil9, nil9},
	} {
		if checkProductFroBound(t, tc.name, tc.a, tc.p) {
			t.Errorf("%s: finite bound, want +Inf", tc.name)
		}
	}
}

// FuzzProductFroBound checks ProductFroBound's contract on arbitrary
// 9×9 operands. The input holds a and p (81 entries each) as
// little-endian float64 bits; missing bytes read as +0. Whenever the
// guards pass (the bound is finite), the bound must be at least both
// bounds NormBoundsScratch returns for the computed product.
func FuzzProductFroBound(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := make([]float64, 2*81)
		for i := range vals {
			var word [8]byte
			if 8*i < len(data) {
				copy(word[:], data[8*i:])
			}
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(word[:]))
		}
		a, p := New(9, 9), New(9, 9)
		copy(a.data, vals[:81])
		copy(p.data, vals[81:])
		checkProductFroBound(t, "fuzz", a, p)
	})
}
