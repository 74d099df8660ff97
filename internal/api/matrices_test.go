package api

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
)

// refRequest is CertifyRequest with Matrices as a plain [][][]float64,
// which encoding/json decodes by reflection: the oracle MatrixSet's
// decoder must agree with.
type refRequest struct {
	Version  int           `json:"version"`
	Matrices [][][]float64 `json:"matrices,omitempty"`
	Scenario *Scenario     `json:"scenario,omitempty"`
	Delta    float64       `json:"delta,omitempty"`
	Depth    int           `json:"depth,omitempty"`
	Brute    int           `json:"brute,omitempty"`
	MaxNodes int           `json:"max_nodes,omitempty"`
	Raw      bool          `json:"raw,omitempty"`
}

// refDecode is DecodeRequest's contract run on refRequest: the same
// size limit, unknown-field and trailing-data rules.
func refDecode(body []byte) (refRequest, error) {
	var req refRequest
	dec := json.NewDecoder(io.LimitReader(bytes.NewReader(body), MaxRequestBytes+1))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, err
	}
	if dec.More() {
		return req, errors.New("trailing data")
	}
	return req, nil
}

// The oracle is only as good as its likeness: refRequest must keep
// CertifyRequest's fields, in order, with the same tags and types.
func TestRefRequestMirrorsCertifyRequest(t *testing.T) {
	got, want := reflect.TypeOf(refRequest{}), reflect.TypeOf(CertifyRequest{})
	if got.NumField() != want.NumField() {
		t.Fatalf("refRequest has %d fields, CertifyRequest %d", got.NumField(), want.NumField())
	}
	for i := 0; i < want.NumField(); i++ {
		g, w := got.Field(i), want.Field(i)
		wt := w.Type
		if wt == reflect.TypeOf(MatrixSet(nil)) {
			wt = reflect.TypeOf([][][]float64(nil))
		}
		if g.Name != w.Name || g.Tag != w.Tag || g.Type != wt {
			t.Errorf("field %d: refRequest has %s %v %q, CertifyRequest %s %v %q", i, g.Name, g.Type, g.Tag, w.Name, w.Type, w.Tag)
		}
	}
}

// sameMatrices reports the first difference between two matrix sets in
// shape, nil versus empty, or entry bits.
func sameMatrices(got, want [][][]float64) error {
	if (got == nil) != (want == nil) || len(got) != len(want) {
		return fmt.Errorf("matrices: got %d (nil %t), want %d (nil %t)", len(got), got == nil, len(want), want == nil)
	}
	for mi := range want {
		gm, wm := got[mi], want[mi]
		if (gm == nil) != (wm == nil) || len(gm) != len(wm) {
			return fmt.Errorf("matrix %d: got %d rows (nil %t), want %d (nil %t)", mi, len(gm), gm == nil, len(wm), wm == nil)
		}
		for ri := range wm {
			gr, wr := gm[ri], wm[ri]
			if (gr == nil) != (wr == nil) || len(gr) != len(wr) {
				return fmt.Errorf("matrix %d row %d: got %d entries (nil %t), want %d (nil %t)", mi, ri, len(gr), gr == nil, len(wr), wr == nil)
			}
			for ci := range wr {
				if math.Float64bits(gr[ci]) != math.Float64bits(wr[ci]) {
					return fmt.Errorf("matrix %d row %d entry %d: got %v, want %v", mi, ri, ci, gr[ci], wr[ci])
				}
			}
		}
	}
	return nil
}

// FuzzDecodeRequest checks DecodeRequest against encoding/json's
// reflective decode: for any bytes, it succeeds exactly when the
// reference does, and then with the same request, matrices compared
// bit for bit and nil versus empty.
func FuzzDecodeRequest(f *testing.F) {
	f.Add([]byte(`{"version":1,"matrices":[[[0.55,0.55],[0,0.55]],[[0.55,0],[0.55,0.55]]]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		got, gerr := DecodeRequest(bytes.NewReader(body))
		want, werr := refDecode(body)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("DecodeRequest error %v, encoding/json error %v", gerr, werr)
		}
		if gerr != nil {
			return
		}
		if err := sameMatrices(got.Matrices, want.Matrices); err != nil {
			t.Fatal(err)
		}
		if got.Version != want.Version || !reflect.DeepEqual(got.Scenario, want.Scenario) ||
			math.Float64bits(got.Delta) != math.Float64bits(want.Delta) || got.Depth != want.Depth ||
			got.Brute != want.Brute || got.MaxNodes != want.MaxNodes || got.Raw != want.Raw {
			t.Fatalf("request fields differ: got %+v, want %+v", got, want)
		}
	})
}

func TestMatrixSetErrorsNamePosition(t *testing.T) {
	cases := map[string]string{
		`[[[0.5]],[[1,"2"]]]`:     `matrix 1 row 0 entry 1: got string, want a number`,
		`[[[0.5]],[[1],[1e400]]]`: `matrix 1 row 1 entry 0: number 1e400 out of range`,
		`[[[0.5]],[true]]`:        `matrix 1 row 0: got boolean, want an array of numbers`,
		`[[[0.5]],{}]`:            `matrix 1: got object, want an array of rows`,
		`[[[[1]]]]`:               `matrix 0 row 0 entry 0: got array, want a number`,
		`3`:                       `matrices: got number, want an array of matrices`,
	}
	for in, want := range cases {
		_, err := DecodeRequest(strings.NewReader(`{"version":1,"matrices":` + in + `}`))
		if err == nil || !strings.HasSuffix(err.Error(), want) {
			t.Errorf("%s: error %v, want one ending %q", in, err, want)
		}
	}
}

// Every fresh row is capped at its own length: growing one row (a
// caller appending to a decoded set) can never write into its
// neighbour.
func TestMatrixSetRowsDoNotShareCapacity(t *testing.T) {
	var m MatrixSet
	if err := json.Unmarshal([]byte(`[[[1,2],[3,4]],[[5]]]`), &m); err != nil {
		t.Fatal(err)
	}
	for mi, rows := range m {
		if cap(rows) != len(rows) {
			t.Errorf("matrix %d: cap %d, len %d", mi, cap(rows), len(rows))
		}
		for ri, row := range rows {
			if cap(row) != len(row) {
				t.Errorf("matrix %d row %d: cap %d, len %d", mi, ri, cap(row), len(row))
			}
		}
	}
}

// Job checkpoints gob-encode the request: a checkpoint written with a
// plain [][][]float64 field decodes into MatrixSet and back.
func TestMatrixSetGobCompatible(t *testing.T) {
	type oldReq struct{ Matrices [][][]float64 }
	type newReq struct{ Matrices MatrixSet }
	want := [][][]float64{{{0.5, -1}, {0, 2}}, {{3, 4}, {5, 6}}}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(oldReq{want}); err != nil {
		t.Fatal(err)
	}
	var n newReq
	if err := gob.NewDecoder(&buf).Decode(&n); err != nil {
		t.Fatal(err)
	}
	if err := sameMatrices(n.Matrices, want); err != nil {
		t.Fatalf("old to new: %v", err)
	}
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(n); err != nil {
		t.Fatal(err)
	}
	var o oldReq
	if err := gob.NewDecoder(&buf).Decode(&o); err != nil {
		t.Fatal(err)
	}
	if err := sameMatrices(o.Matrices, want); err != nil {
		t.Fatalf("new to old: %v", err)
	}
}

// BenchmarkDecodeRequest decodes a 3-mode 9×9 literal request.
func BenchmarkDecodeRequest(b *testing.B) {
	design, err := BuildScenario("pmsm", 1.6, 2)
	if err != nil {
		b.Fatal(err)
	}
	var ms [][][]float64
	for _, m := range design.OmegaSet() {
		rows := make([][]float64, m.Rows())
		for i := range rows {
			rows[i] = make([]float64, m.Cols())
			for j := range rows[i] {
				rows[i][j] = m.At(i, j)
			}
		}
		ms = append(ms, rows)
	}
	body, err := json.Marshal(CertifyRequest{Version: RequestVersion, Matrices: ms})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeRequest(bytes.NewReader(body)); err != nil {
			b.Fatal(err)
		}
	}
}
