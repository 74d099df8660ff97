// Package inputhash canonically hashes and pins analysis inputs.
//
// Three consumers need to agree, bit for bit, on what "the same input"
// means: the jsrtool checkpoint (refuse to resume a Gripenberg search
// against a different matrix set), the adactl grid checkpoints (refuse
// to mix rows computed under different experiment parameters), and the
// adaserved certificate cache (content-address a certification request
// so identical requests share one computation and one cached verdict).
// Before this package each tool carried its own copy of that logic;
// a drift between the copies would silently poison caches or accept
// stale checkpoints.
//
// The encoding is deliberately primitive and frozen: little-endian
// uint64 words — raw IEEE-754 bits for floats, length prefixes for
// strings and slices — fed to SHA-256. Nothing here depends on gob,
// JSON, or reflection, so the hash of a given input can never change
// without an explicit edit to this file. The golden tests in
// inputhash_test.go pin the exact digests; if an edit changes them,
// bump the consumers' checkpoint/cache versions in the same commit.
package inputhash

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"

	"adaptivertc/internal/mat"
)

// Sum is a content hash of an analysis input.
type Sum [sha256.Size]byte

// String returns the lowercase hex form of the sum — the identifier
// used for cache file names and job ids.
func (s Sum) String() string { return hex.EncodeToString(s[:]) }

// A Digest accumulates canonically encoded values into a SHA-256 sum.
// The zero value is not usable; call New.
type Digest struct {
	h   hash.Hash
	buf [8]byte
}

// New returns an empty digest, optionally seeded with a domain
// separator so hashes of different kinds of input can never collide
// (e.g. "jsrtool/set" vs "adaserved/certify").
func New(domain string) *Digest {
	d := &Digest{h: sha256.New()}
	d.String(domain)
	return d
}

// Uint64 absorbs one little-endian word.
func (d *Digest) Uint64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

// Int absorbs an int as its int64 two's-complement bits.
func (d *Digest) Int(v int) { d.Uint64(uint64(int64(v))) }

// Int64 absorbs an int64 as its two's-complement bits.
func (d *Digest) Int64(v int64) { d.Uint64(uint64(v)) }

// Bool absorbs a bool as 0 or 1.
func (d *Digest) Bool(v bool) {
	if v {
		d.Uint64(1)
	} else {
		d.Uint64(0)
	}
}

// Float64 absorbs the raw IEEE-754 bits of v. Distinct bit patterns
// hash differently even when they compare equal (0.0 vs -0.0): the
// pinning is exact-bits by design, matching the bit-reproducibility
// contract of the JSR engine.
func (d *Digest) Float64(v float64) { d.Uint64(math.Float64bits(v)) }

// String absorbs a length-prefixed string.
func (d *Digest) String(s string) {
	d.Uint64(uint64(len(s)))
	d.h.Write([]byte(s))
}

// Matrix absorbs dimensions then entries in row-major order.
func (d *Digest) Matrix(m *mat.Dense) {
	d.Uint64(uint64(m.Rows()))
	d.Uint64(uint64(m.Cols()))
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			d.Float64(m.At(i, j))
		}
	}
}

// MatrixSet absorbs a count-prefixed sequence of matrices in order.
// Order matters: the JSR witness words index into the set.
func (d *Digest) MatrixSet(set []*mat.Dense) {
	d.Uint64(uint64(len(set)))
	for _, m := range set {
		d.Matrix(m)
	}
}

// Sum finalizes the digest. The digest remains usable; absorbing more
// values after Sum extends the stream as if Sum had not been called.
func (d *Digest) Sum() Sum {
	var out Sum
	d.h.Sum(out[:0])
	return out
}

// SetHash pins a matrix-set analysis input: preconditioning mode,
// matrix count, dimensions, and raw float bits in order. It preserves
// the exact byte layout of the original jsrtool checkpoint hash
// (mode word, count, then per-matrix rows/cols/entries) so the golden
// values below are also a regression test for checkpoint
// compatibility.
func SetHash(set []*mat.Dense, raw bool) Sum {
	d := &Digest{h: sha256.New()}
	d.Bool(raw)
	d.MatrixSet(set)
	return d.Sum()
}

// GridParams pins a resumable experiment grid to the parameters that
// shape its rows; a resume with different parameters must be refused
// rather than silently mixing results. The struct is comparable so
// checkpoint validation is a plain != on the decoded value.
type GridParams struct {
	Sequences int
	Jobs      int
	Seed      int64
	BruteLen  int
	Delta     float64
	Model     string
	Refine    int
	N         int    // grid size
	Extra     string // command-specific input (e.g. the sweep's -ns list)
}

// Hash returns the canonical digest of the parameter set, for
// consumers that key by hash rather than comparing structs.
func (p GridParams) Hash() Sum {
	d := New("adaptivertc/gridparams/v1")
	d.Int(p.Sequences)
	d.Int(p.Jobs)
	d.Int64(p.Seed)
	d.Int(p.BruteLen)
	d.Float64(p.Delta)
	d.String(p.Model)
	d.Int(p.Refine)
	d.Int(p.N)
	d.String(p.Extra)
	return d.Sum()
}
