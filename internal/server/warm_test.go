package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"adaptivertc/internal/api"
)

// pmsmScenarioJSON names the paper's PMSM design at Ns = 2: three
// lifted 9×9 modes, small enough to certify in the handler.
const pmsmScenarioJSON = `{"version":1,"scenario":{"name":"pmsm","ns":2,"rmax_factor":1.7}}`

// pmsmLiteralJSON is the request certifying the same three 9×9 modes,
// given as literal matrices.
func pmsmLiteralJSON(t *testing.T) string {
	t.Helper()
	req := api.CertifyRequest{Version: api.RequestVersion, Scenario: &api.Scenario{Name: "pmsm", Ns: 2, RmaxFactor: 1.7}}
	set, err := req.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	lit := api.CertifyRequest{Version: api.RequestVersion}
	for _, m := range set {
		rows := make([][]float64, m.Rows())
		for i := range rows {
			rows[i] = make([]float64, m.Cols())
			for j := range rows[i] {
				rows[i][j] = m.At(i, j)
			}
		}
		lit.Matrices = append(lit.Matrices, rows)
	}
	if len(lit.Matrices) != 3 || len(lit.Matrices[0]) != 9 {
		t.Fatalf("pmsm at ns 2 resolves to %d modes of %d rows, want 3 of 9", len(lit.Matrices), len(lit.Matrices[0]))
	}
	body, err := json.Marshal(lit)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// serve runs one POST through the handler without a network.
func serve(h http.Handler, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec
}

// A cache hit costs a decode, a key and a lookup: no design synthesis
// for a scenario, no reflective decode for literal matrices. The bound
// sits well below what resolving before the lookup costs (thousands of
// allocations for a scenario) and what the reflective decode of a
// 3-mode 9×9 literal costs (about two hundred).
func TestWarmHitAllocs(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	h := s.Handler()
	for name, body := range map[string]string{
		"literal 3x9x9": pmsmLiteralJSON(t),
		"scenario pmsm": pmsmScenarioJSON,
	} {
		if rec := serve(h, "/v1/certify", body); rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "miss" {
			t.Fatalf("%s: first POST status %d X-Cache %q body %s", name, rec.Code, rec.Header().Get("X-Cache"), rec.Body)
		}
		misses := s.cache.Stats().Misses
		allocs := testing.AllocsPerRun(20, func() {
			if rec := serve(h, "/v1/certify", body); rec.Header().Get("X-Cache") != "hit" {
				t.Fatalf("%s: repeat POST status %d X-Cache %q", name, rec.Code, rec.Header().Get("X-Cache"))
			}
		})
		t.Logf("%s: %.0f allocs per cached POST", name, allocs)
		if allocs > 100 {
			t.Errorf("%s: a cached POST makes %.0f allocations, want at most 100", name, allocs)
		}
		if st := s.cache.Stats(); st.Misses != misses {
			t.Errorf("%s: cached POSTs ran %d computations, want none", name, st.Misses-misses)
		}
	}
}
