package api

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"adaptivertc/internal/jsr"
)

func validMatrixReq() CertifyRequest {
	return CertifyRequest{
		Version: RequestVersion,
		Matrices: [][][]float64{
			{{0.55, 0.55}, {0, 0.55}},
			{{0.55, 0}, {0.55, 0.55}},
		},
	}
}

func normalized(r CertifyRequest) CertifyRequest {
	r.Normalize()
	return r
}

func TestDecodeRequestStrict(t *testing.T) {
	good := `{"version":1,"matrices":[[[0.5]]]}`
	if _, err := DecodeRequest(strings.NewReader(good)); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	cases := map[string]string{
		"unknown field": `{"version":1,"matrices":[[[0.5]]],"detla":1e-4}`,
		"trailing data": good + `{"version":1}`,
		"not an object": `[1,2,3]`,
		"empty":         ``,
	}
	for name, body := range cases {
		if _, err := DecodeRequest(strings.NewReader(body)); err == nil {
			t.Errorf("%s: accepted %q, want error", name, body)
		}
	}
}

func TestNormalizeFillsPinnedDefaults(t *testing.T) {
	r := CertifyRequest{Version: 1, Scenario: &Scenario{Name: "pmsm"}}
	r.Normalize()
	if r.Delta != DefaultDelta || r.Depth != DefaultDepth || r.Brute != DefaultBrute || r.MaxNodes != DefaultMaxNodes {
		t.Fatalf("budget defaults not applied: %+v", r)
	}
	if r.Scenario.RmaxFactor != 1.6 || r.Scenario.Ns != 5 {
		t.Fatalf("scenario defaults not applied: %+v", r.Scenario)
	}
	// Explicit values survive.
	r2 := CertifyRequest{Version: 1, Delta: 1e-5, Depth: 7, Brute: 2, MaxNodes: 99}
	r2.Normalize()
	if r2.Delta != 1e-5 || r2.Depth != 7 || r2.Brute != 2 || r2.MaxNodes != 99 {
		t.Fatalf("explicit budgets overwritten: %+v", r2)
	}
}

func TestValidateRejections(t *testing.T) {
	huge := make([][][]float64, MaxMatrices+1)
	for i := range huge {
		huge[i] = [][]float64{{0.5}}
	}
	mutate := map[string]func(*CertifyRequest){
		"wrong version":       func(r *CertifyRequest) { r.Version = 2 },
		"neither source":      func(r *CertifyRequest) { r.Matrices = nil },
		"both sources":        func(r *CertifyRequest) { r.Scenario = &Scenario{Name: "pmsm", RmaxFactor: 1.6, Ns: 5} },
		"negative delta":      func(r *CertifyRequest) { r.Delta = -1e-3 },
		"NaN delta":           func(r *CertifyRequest) { r.Delta = math.NaN() },
		"depth over cap":      func(r *CertifyRequest) { r.Depth = MaxDepth + 1 },
		"brute over cap":      func(r *CertifyRequest) { r.Brute = MaxBrute + 1 },
		"max_nodes over cap":  func(r *CertifyRequest) { r.MaxNodes = MaxNodesCeiling + 1 },
		"too many matrices":   func(r *CertifyRequest) { r.Matrices = huge },
		"non-square matrix":   func(r *CertifyRequest) { r.Matrices = [][][]float64{{{1, 2}}} },
		"ragged dimensions":   func(r *CertifyRequest) { r.Matrices = [][][]float64{{{1}}, {{1, 0}, {0, 1}}} },
		"non-finite entry":    func(r *CertifyRequest) { r.Matrices[0][0][0] = math.Inf(1) },
		"brute work explodes": func(r *CertifyRequest) { r.Matrices = huge[:MaxMatrices]; r.Brute = MaxBrute },
	}
	for name, f := range mutate {
		r := normalized(validMatrixReq())
		f(&r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: validated, want error", name)
		}
	}

	scenarioMutate := map[string]func(*Scenario){
		"unknown scenario": func(s *Scenario) { s.Name = "lorenz" },
		"rmax too small":   func(s *Scenario) { s.RmaxFactor = 1.0 },
		"rmax too large":   func(s *Scenario) { s.RmaxFactor = 17 },
		"ns zero":          func(s *Scenario) { s.Ns = -1 },
	}
	for name, f := range scenarioMutate {
		r := normalized(CertifyRequest{Version: 1, Scenario: &Scenario{Name: "pmsm"}})
		f(r.Scenario)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: validated, want error", name)
		}
	}

	vr := normalized(validMatrixReq())
	if err := vr.Validate(); err != nil {
		t.Fatalf("valid matrix request rejected: %v", err)
	}
	ok := normalized(CertifyRequest{Version: 1, Scenario: &Scenario{Name: "quickstart"}})
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid scenario request rejected: %v", err)
	}
}

// TestValidateRejectsNonFiniteEntries pins the first line of defense
// against the vacuous-bracket bug: a NaN entry makes every comparison
// in the JSR search false, so an unvalidated request could come back
// "certified stable" with Upper stuck at 0. The /v1/certify path must
// reject every non-finite entry here (and the jsr package now rejects
// them again with jsr.ErrNonFinite as a second layer).
func TestValidateRejectsNonFiniteEntries(t *testing.T) {
	for name, v := range map[string]float64{"nan": math.NaN(), "+inf": math.Inf(1), "-inf": math.Inf(-1)} {
		r := normalized(validMatrixReq())
		r.Matrices[1][0][1] = v
		if err := r.Validate(); err == nil {
			t.Errorf("%s entry validated, want rejection", name)
		}
	}
}

// Golden key: the content address of the canonical two-matrix request.
// If this changes, every persisted cache entry is orphaned — that is
// only acceptable with a deliberate domain-string or EngineVersion
// bump. Recorded at EngineVersion 2.
const goldenRequestKey = "5800616203019fc0147c0561809f7a8ab4ac9f8a16606a26add027ad194b090d"

func TestKeyGoldenAndCanonicalization(t *testing.T) {
	r := normalized(validMatrixReq())
	if got := r.Key().String(); got != goldenRequestKey {
		t.Fatalf("request key drifted:\n got  %s\n want %s", got, goldenRequestKey)
	}
	// "delta omitted" and "delta":1e-3 share a key after Normalize.
	explicit := validMatrixReq()
	explicit.Delta = DefaultDelta
	explicit.Depth = DefaultDepth
	explicit.Brute = DefaultBrute
	explicit.MaxNodes = DefaultMaxNodes
	if explicit.Key() != r.Key() {
		t.Fatal("explicit defaults and omitted defaults must share a key")
	}
}

func TestKeySensitivity(t *testing.T) {
	baseReq := normalized(validMatrixReq())
	base := baseReq.Key()
	mutate := map[string]func(*CertifyRequest){
		"delta":        func(r *CertifyRequest) { r.Delta = 1e-4 },
		"depth":        func(r *CertifyRequest) { r.Depth = 31 },
		"brute":        func(r *CertifyRequest) { r.Brute = 5 },
		"max_nodes":    func(r *CertifyRequest) { r.MaxNodes = DefaultMaxNodes + 1 },
		"raw":          func(r *CertifyRequest) { r.Raw = true },
		"matrix entry": func(r *CertifyRequest) { r.Matrices[1][0][0] = math.Nextafter(0.55, 1) },
		"matrix order": func(r *CertifyRequest) { r.Matrices[0], r.Matrices[1] = r.Matrices[1], r.Matrices[0] },
	}
	for name, f := range mutate {
		r := normalized(validMatrixReq())
		f(&r)
		if r.Key() == base {
			t.Errorf("changing %s did not change the key", name)
		}
	}
	s1 := normalized(CertifyRequest{Version: 1, Scenario: &Scenario{Name: "pmsm"}})
	s2 := normalized(CertifyRequest{Version: 1, Scenario: &Scenario{Name: "pmsm", Ns: 6}})
	if s1.Key() == s2.Key() {
		t.Error("scenario ns change did not change the key")
	}
	if s1.Key() == base {
		t.Error("scenario and matrix requests collided")
	}
}

func TestResponseForVerdicts(t *testing.T) {
	req := normalized(validMatrixReq())
	set, err := req.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		bounds  jsr.Bounds
		verdict string
	}{
		{jsr.Bounds{Lower: 0.8, Upper: 0.9}, VerdictStable},
		{jsr.Bounds{Lower: 1.1, Upper: 1.3}, VerdictUnstable},
		{jsr.Bounds{Lower: 0.95, Upper: 1.05}, VerdictUndecided},
	}
	for _, c := range cases {
		resp := ResponseFor(set, c.bounds, false)
		if resp.Verdict != c.verdict {
			t.Errorf("bounds %v: verdict %q, want %q", c.bounds, resp.Verdict, c.verdict)
		}
		if resp.Matrices != 2 || resp.Dim != 2 {
			t.Errorf("bounds %v: matrices=%d dim=%d, want 2/2", c.bounds, resp.Matrices, resp.Dim)
		}
		if resp.Bracket != c.bounds.String() {
			t.Errorf("bracket %q, want jsrtool rendering %q", resp.Bracket, c.bounds.String())
		}
	}
}

func TestEncodeCanonicalDeterministic(t *testing.T) {
	resp := ResponseFor(nil, jsr.Bounds{Lower: 0.5, Upper: 0.75, WitnessWord: []int{0, 1}}, true)
	a, err := EncodeCanonical(resp)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := EncodeCanonical(resp)
	if !bytes.Equal(a, b) {
		t.Fatal("two encodings of the same response differ")
	}
	if a[len(a)-1] != '\n' {
		t.Fatal("canonical encoding must be newline-terminated")
	}
}

func TestResolveScenario(t *testing.T) {
	r := normalized(CertifyRequest{Version: 1, Scenario: &Scenario{Name: "quickstart"}})
	set, err := r.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if len(set) == 0 {
		t.Fatal("quickstart scenario resolved to an empty set")
	}
	n := set[0].Rows()
	for i, m := range set {
		if m.Rows() != n || m.Cols() != n {
			t.Fatalf("matrix %d is %dx%d, want %dx%d", i, m.Rows(), m.Cols(), n, n)
		}
	}
}
