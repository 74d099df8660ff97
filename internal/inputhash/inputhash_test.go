package inputhash

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"testing"

	"adaptivertc/internal/mat"
)

// testSet is the two-matrix rotation-ish example used across the
// repo's smoke tests.
func testSet() []*mat.Dense {
	return []*mat.Dense{
		mat.FromRows([][]float64{{0.55, 0.55}, {0, 0.55}}),
		mat.FromRows([][]float64{{0.55, 0}, {0.55, 0.55}}),
	}
}

// Golden digests: cache keys and checkpoint pins must not change
// across releases, or every persisted certificate silently misses and
// every checkpoint refuses to resume. If an intentional encoding
// change lands, update these values AND bump the consumers'
// checkpoint/cache format versions in the same commit.
const (
	goldenSetHash    = "6afbdfd755c9a8091341d6b7f57d7e68887cde948091297ab7ad790691cd4386"
	goldenSetHashRaw = "f6114601b4d019aa2da4b94c14e9eaffd99dc98b753370337ee87c6d50318110"
	goldenGridHash   = "e11c04c2a58c89c77f17856b26e112d87fafe2b15d174d020d30c2f877ea6b85"
)

func TestSetHashGolden(t *testing.T) {
	if got := SetHash(testSet(), false).String(); got != goldenSetHash {
		t.Errorf("SetHash(raw=false) = %s, golden %s", got, goldenSetHash)
	}
	if got := SetHash(testSet(), true).String(); got != goldenSetHashRaw {
		t.Errorf("SetHash(raw=true) = %s, golden %s", got, goldenSetHashRaw)
	}
}

// TestSetHashMatchesLegacyLayout replays the byte layout the jsrtool
// checkpoint used before the extraction; SetHash must reproduce it
// exactly so old checkpoints keep validating.
func TestSetHashMatchesLegacyLayout(t *testing.T) {
	legacy := func(set []*mat.Dense, raw bool) Sum {
		h := sha256.New()
		var buf [8]byte
		writeU64 := func(v uint64) {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
		if raw {
			writeU64(1)
		} else {
			writeU64(0)
		}
		writeU64(uint64(len(set)))
		for _, m := range set {
			writeU64(uint64(m.Rows()))
			writeU64(uint64(m.Cols()))
			for i := 0; i < m.Rows(); i++ {
				for j := 0; j < m.Cols(); j++ {
					writeU64(math.Float64bits(m.At(i, j)))
				}
			}
		}
		var sum Sum
		h.Sum(sum[:0])
		return sum
	}
	sets := [][]*mat.Dense{
		testSet(),
		{mat.FromRows([][]float64{{1.2}})},
		{mat.Eye(3), mat.Scale(0.5, mat.Eye(3)), mat.Diag(1, 2, 3)},
	}
	for si, set := range sets {
		for _, raw := range []bool{false, true} {
			if got, want := SetHash(set, raw), legacy(set, raw); got != want {
				t.Errorf("set %d raw=%v: SetHash = %s, legacy layout %s", si, raw, got, want)
			}
		}
	}
}

func TestSetHashSensitivity(t *testing.T) {
	base := SetHash(testSet(), false)
	if SetHash(testSet(), true) == base {
		t.Error("raw flag does not affect the hash")
	}
	perturbed := testSet()
	perturbed[1].Set(1, 1, math.Nextafter(0.55, 1))
	if SetHash(perturbed, false) == base {
		t.Error("one-ulp entry change does not affect the hash")
	}
	reordered := testSet()
	reordered[0], reordered[1] = reordered[1], reordered[0]
	if SetHash(reordered, false) == base {
		t.Error("matrix order does not affect the hash")
	}
}

func TestGridParamsHashGolden(t *testing.T) {
	p := GridParams{
		Sequences: 5000, Jobs: 50, Seed: 1, BruteLen: 6, Delta: 1e-3,
		Model: "uniform", Refine: 0, N: 7, Extra: "ns=1,2,4,5,8,10",
	}
	if got := p.Hash().String(); got != goldenGridHash {
		t.Errorf("GridParams.Hash = %s, golden %s", got, goldenGridHash)
	}
}

func TestGridParamsHashSensitivity(t *testing.T) {
	base := GridParams{
		Sequences: 5000, Jobs: 50, Seed: 1, BruteLen: 6, Delta: 1e-3,
		Model: "uniform", Refine: 0, N: 7, Extra: "x",
	}
	mutations := map[string]GridParams{}
	for name, mutate := range map[string]func(*GridParams){
		"Sequences": func(p *GridParams) { p.Sequences++ },
		"Jobs":      func(p *GridParams) { p.Jobs++ },
		"Seed":      func(p *GridParams) { p.Seed++ },
		"BruteLen":  func(p *GridParams) { p.BruteLen++ },
		"Delta":     func(p *GridParams) { p.Delta *= 2 },
		"Model":     func(p *GridParams) { p.Model = "burst" },
		"Refine":    func(p *GridParams) { p.Refine++ },
		"N":         func(p *GridParams) { p.N++ },
		"Extra":     func(p *GridParams) { p.Extra = "y" },
	} {
		q := base
		mutate(&q)
		mutations[name] = q
	}
	ref := base.Hash()
	for name, q := range mutations {
		if q.Hash() == ref {
			t.Errorf("mutating %s does not change the hash", name)
		}
	}
}

// TestDigestDomainSeparation: equal payloads under different domains
// must not collide, and string encoding must not be ambiguous under
// concatenation.
func TestDigestDomainSeparation(t *testing.T) {
	a := New("domain-a")
	b := New("domain-b")
	a.Uint64(42)
	b.Uint64(42)
	if a.Sum() == b.Sum() {
		t.Error("different domains hash equal")
	}
	c := New("d")
	c.String("ab")
	c.String("c")
	d := New("d")
	d.String("a")
	d.String("bc")
	if c.Sum() == d.Sum() {
		t.Error("length prefixes fail to disambiguate concatenation")
	}
}
