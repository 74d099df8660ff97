package api

import (
	"fmt"
	"strconv"
)

// MatrixSet is the literal matrix set of a CertifyRequest: matrices of
// rows of entries. It is a [][][]float64 in every respect but its JSON
// decoding, which parses the value bytes directly instead of through
// encoding/json's reflection: every entry lands in one flat []float64,
// every row header in one [][]float64, so a request of any size costs
// three allocations to decode.
//
// UnmarshalJSON accepts exactly what encoding/json accepts into a
// [][][]float64 and produces the same values, which FuzzDecodeRequest
// checks against encoding/json itself:
//   - null gives a nil matrix or row, and leaves an entry as it was
//     (0 in a freshly decoded row);
//   - [] gives an empty non-nil slice;
//   - numbers parse with strconv.ParseFloat, so out-of-range literals
//     such as 1e400 are errors;
//   - strings, booleans, objects and arrays nested too deep are errors.
//
// Decoding into a non-nil MatrixSet (a duplicated "matrices" key) reuses
// its slices the way encoding/json reuses a slice's backing array.
type MatrixSet [][][]float64

// UnmarshalJSON implements json.Unmarshaler. data is one complete JSON
// value that encoding/json has already checked for syntax, so only the
// types of its elements are left to check here.
func (m *MatrixSet) UnmarshalJSON(data []byte) error {
	d := matrixDecoder{data: data}
	d.presize()
	v, err := d.matrices(*m)
	if err != nil {
		return err
	}
	*m = v
	return nil
}

// matrixDecoder is one UnmarshalJSON call. Every array that decodes into
// a nil slice takes its elements from the front of the pool for its
// level (mats, rows, flat) and caps its slice there, so rows never share
// capacity and a later reuse cannot expose a neighbour's entries.
type matrixDecoder struct {
	data []byte
	off  int
	mats [][][]float64
	rows [][]float64
	flat []float64
}

// presize sizes the pools from one pass over the bytes. Every opening
// bracket and every comma at a level counts one element slot there, an
// upper bound that is exact for non-empty arrays. Counting stops at the
// first string or object: decoding fails there, so it never needs a
// slot past it.
func (d *matrixDecoder) presize() {
	var n [4]int
	depth := 0
scan:
	for _, c := range d.data {
		switch c {
		case '[':
			depth++
			if 0 < depth && depth < len(n) {
				n[depth]++
			}
		case ',':
			if 0 < depth && depth < len(n) {
				n[depth]++
			}
		case ']':
			depth--
		case '"', '{':
			break scan
		}
	}
	d.mats = make([][][]float64, n[1])
	d.rows = make([][]float64, n[2])
	d.flat = make([]float64, n[3])
}

func (d *matrixDecoder) matrices(old [][][]float64) ([][][]float64, error) {
	switch c := d.peek(); c {
	case 'n':
		d.off += len("null")
		return nil, nil
	case '[':
		d.off++
	default:
		return nil, fmt.Errorf("matrices: got %s, want an array of matrices", kind(c))
	}
	s, fresh := start(old, d.mats)
	i := 0
	for ; d.more(); i++ {
		s = extend(s, i)
		m, err := d.matrix(s[i], i)
		if err != nil {
			return nil, err
		}
		s[i] = m
	}
	return finish(s, i, fresh, &d.mats), nil
}

func (d *matrixDecoder) matrix(old [][]float64, mi int) ([][]float64, error) {
	switch c := d.peek(); c {
	case 'n':
		d.off += len("null")
		return nil, nil
	case '[':
		d.off++
	default:
		return nil, fmt.Errorf("matrix %d: got %s, want an array of rows", mi, kind(c))
	}
	s, fresh := start(old, d.rows)
	i := 0
	for ; d.more(); i++ {
		s = extend(s, i)
		r, err := d.row(s[i], mi, i)
		if err != nil {
			return nil, err
		}
		s[i] = r
	}
	return finish(s, i, fresh, &d.rows), nil
}

func (d *matrixDecoder) row(old []float64, mi, ri int) ([]float64, error) {
	switch c := d.peek(); c {
	case 'n':
		d.off += len("null")
		return nil, nil
	case '[':
		d.off++
	default:
		return nil, fmt.Errorf("matrix %d row %d: got %s, want an array of numbers", mi, ri, kind(c))
	}
	s, fresh := start(old, d.flat)
	i := 0
	for ; d.more(); i++ {
		s = extend(s, i)
		switch c := d.peek(); {
		case c == 'n':
			// encoding/json ignores null for a number: the entry keeps
			// whatever the slice held there.
			d.off += len("null")
		case c == '-' || '0' <= c && c <= '9':
			begin := d.off
			for d.off < len(d.data) && isNumberByte(d.data[d.off]) {
				d.off++
			}
			lit := d.data[begin:d.off]
			v, err := strconv.ParseFloat(string(lit), 64)
			if err != nil {
				return nil, fmt.Errorf("matrix %d row %d entry %d: number %s out of range", mi, ri, i, lit)
			}
			s[i] = v
		default:
			return nil, fmt.Errorf("matrix %d row %d entry %d: got %s, want a number", mi, ri, i, kind(c))
		}
	}
	return finish(s, i, fresh, &d.flat), nil
}

// peek skips whitespace and returns the next byte, or 0 at the end.
func (d *matrixDecoder) peek() byte {
	for d.off < len(d.data) {
		switch c := d.data[d.off]; c {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return c
		}
	}
	return 0
}

// more reports whether the open array holds another element, consuming
// the separating comma or the closing bracket. The bytes are valid
// JSON, so after the opening bracket comes ']' or an element, and after
// an element ',' or ']'.
func (d *matrixDecoder) more() bool {
	switch d.peek() {
	case ']':
		d.off++
		return false
	case ',':
		d.off++
	}
	return true
}

// start returns the slice an array decodes into: old itself, reused as
// encoding/json reuses it, or for a nil old the unused front of pool.
func start[T any](old, pool []T) (s []T, fresh bool) {
	if old == nil {
		return pool[:0], true
	}
	return old, false
}

// extend makes index i of s addressable the way encoding/json does:
// within the length s is kept, within the capacity it is resliced
// (exposing what the backing array held), past it one zero element is
// appended.
func extend[T any](s []T, i int) []T {
	switch {
	case i < len(s):
		return s
	case i < cap(s):
		return s[:i+1]
	default:
		var zero T
		return append(s, zero)
	}
}

// finish truncates s to the n decoded elements. An empty array gives an
// empty non-nil slice, as encoding/json's fresh make does. A fresh slice
// is capped at n and its elements taken off the front of the pool.
func finish[T any](s []T, n int, fresh bool, pool *[]T) []T {
	if !fresh {
		if n == 0 {
			return s[:0:0]
		}
		return s[:n]
	}
	*pool = (*pool)[min(n, len(*pool)):]
	return s[:n:n]
}

func isNumberByte(c byte) bool {
	return '0' <= c && c <= '9' || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E'
}

// kind names the JSON type a value starting with c has.
func kind(c byte) string {
	switch c {
	case '"':
		return "string"
	case '{':
		return "object"
	case '[':
		return "array"
	case 't', 'f':
		return "boolean"
	case 'n':
		return "null"
	}
	return "number"
}
