package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"adaptivertc/internal/api"
	"adaptivertc/internal/certcache"
	"adaptivertc/internal/checkpoint"
	"adaptivertc/internal/jsr"
	"adaptivertc/internal/store"
)

// paperReqJSON is the running example set: two 2×2 matrices with
// JSR ≈ 0.8596 — certifiably stable in well under a second.
const paperReqJSON = `{"version":1,"matrices":[[[0.55,0.55],[0,0.55]],[[0.55,0],[0.55,0.55]]]}`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Cache == nil {
		c, err := certcache.New(certcache.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Cache = c
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

func postCertify(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/certify", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// The tentpole contract: N concurrent identical POSTs run exactly one
// JSR computation (asserted via cache metrics) and every client
// receives byte-identical bodies.
func TestConcurrentIdenticalPOSTs(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	const n = 16
	bodies := make([][]byte, n)
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/certify", "application/json", strings.NewReader(paperReqJSON))
			if err != nil {
				t.Errorf("POST %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			bodies[i], codes[i] = buf.Bytes(), resp.StatusCode
		}(i)
	}
	wg.Wait()

	for i := range bodies {
		if codes[i] != http.StatusOK {
			t.Fatalf("POST %d: status %d body %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("POST %d body differs:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	if st := s.cache.Stats(); st.Misses != 1 {
		t.Fatalf("cache ran %d computations for %d identical requests, want exactly 1 (stats %+v)", st.Misses, n, st)
	}
	var res api.CertifyResponse
	if err := json.Unmarshal(bodies[0], &res); err != nil {
		t.Fatal(err)
	}
	if res.Verdict != api.VerdictStable {
		t.Fatalf("verdict %q, want stable (bracket %s)", res.Verdict, res.Bracket)
	}
}

func TestSyncCacheHeaders(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp1, body1 := postCertify(t, ts, paperReqJSON)
	if resp1.StatusCode != http.StatusOK || resp1.Header.Get("X-Cache") != "miss" {
		t.Fatalf("first POST: status %d X-Cache %q", resp1.StatusCode, resp1.Header.Get("X-Cache"))
	}
	resp2, body2 := postCertify(t, ts, paperReqJSON)
	if resp2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("second POST: X-Cache %q, want hit", resp2.Header.Get("X-Cache"))
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("cached body differs from computed body")
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := map[string]string{
		"malformed json":  `{nope`,
		"unknown field":   `{"version":1,"matrices":[[[0.5]]],"detla":1}`,
		"no source":       `{"version":1}`,
		"bad version":     `{"version":9,"matrices":[[[0.5]]]}`,
		"non-square":      `{"version":1,"matrices":[[[1,2]]]}`,
		"scenario + mats": `{"version":1,"matrices":[[[0.5]]],"scenario":{"name":"pmsm"}}`,
	}
	for name, body := range cases {
		resp, out := postCertify(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d body %s, want 400", name, resp.StatusCode, out)
		}
		var e api.ErrorResponse
		if err := json.Unmarshal(out, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %q not an ErrorResponse", name, out)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/deadbeefdeadbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

// pollJob polls until the job leaves queued/running or the deadline hits.
func pollJob(t *testing.T, ts *httptest.Server, id string) api.JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st api.JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == api.JobDone || st.State == api.JobFailed {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %q", id, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Async path: with sync serving disabled the POST returns a job
// reference; the finished job carries the same result a sync POST
// would, and a repeat POST is a cache hit serving the job's bytes.
func TestAsyncJobFlow(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, MaxSyncWork: -1})
	resp, body := postCertify(t, ts, paperReqJSON)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d body %s, want 202", resp.StatusCode, body)
	}
	var ref api.JobRef
	if err := json.Unmarshal(body, &ref); err != nil {
		t.Fatal(err)
	}
	if ref.JobID == "" || ref.StatusURL != "/v1/jobs/"+ref.JobID {
		t.Fatalf("bad job ref %+v", ref)
	}
	st := pollJob(t, ts, ref.JobID)
	if st.State != api.JobDone || st.Result == nil {
		t.Fatalf("job finished %+v, want done with result", st)
	}
	if st.Result.Verdict != api.VerdictStable {
		t.Fatalf("verdict %q, want stable", st.Result.Verdict)
	}
	// Same request again: served straight from the cache, as bytes.
	resp2, body2 := postCertify(t, ts, paperReqJSON)
	if resp2.StatusCode != http.StatusOK || resp2.Header.Get("X-Cache") == "" {
		t.Fatalf("repeat POST: status %d X-Cache %q", resp2.StatusCode, resp2.Header.Get("X-Cache"))
	}
	reenc, err := api.EncodeCanonical(st.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body2, reenc) {
		t.Fatalf("cached body and job result differ:\n%s\nvs\n%s", body2, reenc)
	}
	// Duplicate async submission reuses the same job id.
	resp3, body3 := postCertify(t, ts, `{"version":1,"matrices":[[[0.55,0.55],[0,0.55]],[[0.55,0],[0.55,0.55]]],"max_nodes":3000000}`)
	if resp3.StatusCode != http.StatusAccepted {
		t.Fatalf("async variant: status %d body %s", resp3.StatusCode, body3)
	}
}

// Every POST body is bounded: the certify endpoint answers 413 — not
// a JSON parse 400 — when the transport bound fires.
func TestOversizedBodies413(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	// A syntactically plausible prefix followed by filler well past
	// MaxRequestBytes; MaxBytesReader must cut it off first.
	big := `{"version":1,"matrices":[[[` + strings.Repeat("0.123456789,", api.MaxRequestBytes/12) + `0.5]]]}`
	resp, body := postCertify(t, ts, big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized certify: status %d body %.120s, want 413", resp.StatusCode, body)
	}
	var e api.ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("413 body %q is not an ErrorResponse", body)
	}
}

// ?watch=1 long-polls: the GET blocks while the job runs (gauge up),
// wakes on the state transition, and reports the terminal status; a
// watch on an already-terminal job returns immediately.
func TestJobWatch(t *testing.T) {
	gate := make(chan struct{})
	s, ts := newTestServer(t, Config{
		Workers:     1,
		MaxSyncWork: -1,
		FaultHook: func(ctx context.Context) error {
			select {
			case <-gate:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		},
	})
	resp, body := postCertify(t, ts, paperReqJSON)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d body %s, want 202", resp.StatusCode, body)
	}
	var ref api.JobRef
	if err := json.Unmarshal(body, &ref); err != nil {
		t.Fatal(err)
	}

	type watchResult struct {
		st      api.JobStatus
		elapsed time.Duration
	}
	watched := make(chan watchResult, 1)
	start := time.Now()
	go func() {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + ref.JobID + "?watch=1")
		if err != nil {
			t.Errorf("watch GET: %v", err)
			close(watched)
			return
		}
		defer resp.Body.Close()
		var st api.JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Errorf("watch decode: %v", err)
		}
		watched <- watchResult{st, time.Since(start)}
	}()

	// The watcher must be blocked (visible in the gauge) before we let
	// the job finish.
	deadline := time.Now().Add(10 * time.Second)
	for s.metrics.watchers.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("watcher gauge never rose")
		}
		time.Sleep(2 * time.Millisecond)
	}
	held := 50 * time.Millisecond
	time.Sleep(held) // prove the poll is actually parked, not spinning through
	close(gate)

	res, ok := <-watched
	if !ok {
		t.Fatal("watch goroutine failed")
	}
	if res.st.State != api.JobDone || res.st.Result == nil {
		t.Fatalf("watched status %+v, want done with result", res.st)
	}
	if res.elapsed < held {
		t.Fatalf("watch returned after %v, before the job could have finished", res.elapsed)
	}
	if s.metrics.watchers.Load() != 0 {
		t.Fatalf("watcher gauge %d after the poll returned, want 0", s.metrics.watchers.Load())
	}

	// Terminal job: watch answers immediately with the same status.
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + ref.JobID + "?watch=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var st2 api.JobStatus
	if err := json.NewDecoder(resp2.Body).Decode(&st2); err != nil {
		t.Fatal(err)
	}
	if st2.State != api.JobDone {
		t.Fatalf("terminal watch state %q, want done", st2.State)
	}
}

// Certified bytes are identical at every worker count.
func TestWorkerCountByteIdentity(t *testing.T) {
	var ref []byte
	for _, workers := range []int{1, 4} {
		_, ts := newTestServer(t, Config{Workers: workers, MaxSyncWork: -1})
		resp, body := postCertify(t, ts, paperReqJSON)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("workers=%d: status %d", workers, resp.StatusCode)
		}
		var jr api.JobRef
		json.Unmarshal(body, &jr)
		if st := pollJob(t, ts, jr.JobID); st.State != api.JobDone {
			t.Fatalf("workers=%d: job %+v", workers, st)
		}
		_, got := postCertify(t, ts, paperReqJSON) // raw cached bytes
		if ref == nil {
			ref = got
		} else if !bytes.Equal(got, ref) {
			t.Fatalf("workers=%d body differs:\n%s\nvs\n%s", workers, got, ref)
		}
	}
}

// A corrupted persistent cache entry is discarded on reopen and
// recomputed to the same bytes by a fresh server over the same
// directory. The flipped byte lands in the log's final frame, so the
// store treats it as a torn tail: truncated at startup, served as a
// miss, never as wrong bytes.
func TestCorruptDiskEntryRecomputedByServer(t *testing.T) {
	dir := t.TempDir()
	c1, err := certcache.New(certcache.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := New(Config{Workers: 1, Cache: c1})
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	ts1 := httptest.NewServer(s1.Handler())
	_, body1 := postCertify(t, ts1, paperReqJSON)
	if st := c1.Stats(); st.Misses != 1 {
		t.Fatalf("first server stats %+v", st)
	}
	// Shut the first server down completely (and seal its log) before
	// corrupting the directory: two live logs over one dir is operator
	// error, not the scenario under test.
	ts1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	s1.Shutdown(ctx)
	cancel()
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the persisted entry: the last frame of the newest segment.
	if err := flipLastByte(newestSegment(t, dir)); err != nil {
		t.Fatal(err)
	}

	c2, err := certcache.New(certcache.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	_, ts2 := newTestServer(t, Config{Workers: 1, Cache: c2})
	resp2, body2 := postCertify(t, ts2, paperReqJSON)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("recompute status %d", resp2.StatusCode)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("recomputed body differs from original")
	}
	if st := c2.Stats(); st.Misses != 1 {
		t.Fatalf("second server stats %+v, want Misses=1 (recomputed)", st)
	}
	if st := c2.StoreStats(); st.TornBytes == 0 {
		t.Fatalf("store stats %+v: corrupted tail frame was not truncated on reopen", st)
	}
}

// Checkpoint/resume: a job interrupted mid-search (checkpoint file
// holding a real Gripenberg frontier) is recovered by a new server and
// finishes with bytes bit-identical to an uninterrupted run. The
// second case is a reducible set whose snapshot is taken in the second
// of its two searched invariant blocks, so the recovered job re-runs
// the first block before it resumes.
func TestJobCheckpointResume(t *testing.T) {
	for _, tc := range []struct {
		name    string
		body    string
		capture func(jsr.GripenbergState) bool
	}{
		{"paper", `{"version":1,"matrices":[[[0.55,0.55],[0,0.55]],[[0.55,0],[0.55,0.55]]],"delta":1e-6,"depth":25,"brute":3}`,
			func(st jsr.GripenbergState) bool { return st.Depth >= 5 }},
		{"second-block", twoBlockRequest(t),
			func(st jsr.GripenbergState) bool { return st.Block == 1 && st.Depth >= 3 }},
	} {
		t.Run(tc.name, func(t *testing.T) { checkJobCheckpointResume(t, tc.body, tc.capture) })
	}
}

// twoBlockRequest is a 5-state set with two invariant blocks that
// EstimateCtx both searches: states {1, 3, 4} carry a 3×3 non-normal
// pair (JSR ≈ 0.95–0.96), states {0, 2} the golden pair scaled to JSR
// 0.95, with every entry from the first block into the second at 0.3.
func twoBlockRequest(t *testing.T) string {
	t.Helper()
	a := [][][]float64{
		{{0.8, 0.3, 0}, {0, 0.7, 0.2}, {0.1, 0, 0.75}},
		{{0.85, 0, 0.25}, {0.15, 0.65, 0}, {0, 0.1, 0.8}},
	}
	c := 0.95 / math.Phi
	b := [][][]float64{{{c, c}, {0, c}}, {{c, 0}, {c, c}}}
	perm := []int{3, 0, 4, 2, 1} // state s of the set is state perm[s] of diag(a, b)
	set := make([][][]float64, 2)
	for l := range set {
		set[l] = make([][]float64, 5)
		for i := range set[l] {
			set[l][i] = make([]float64, 5)
			for j := range set[l][i] {
				pi, pj := perm[i], perm[j]
				switch {
				case pi < 3 && pj < 3:
					set[l][i][j] = a[l][pi][pj]
				case pi >= 3 && pj >= 3:
					set[l][i][j] = b[l][pi-3][pj-3]
				case pi < 3:
					set[l][i][j] = 0.3
				}
			}
		}
	}
	body, err := json.Marshal(api.CertifyRequest{Version: api.RequestVersion, Matrices: set, Delta: 0.02, Depth: 14, Brute: 4, MaxNodes: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func checkJobCheckpointResume(t *testing.T, body string, capture func(jsr.GripenbergState) bool) {
	stateDir := t.TempDir()
	req, err := api.DecodeRequest(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Normalize()
	if err := req.Validate(); err != nil {
		t.Fatal(err)
	}
	set, err := req.Resolve()
	if err != nil {
		t.Fatal(err)
	}

	// Uninterrupted reference run. At delta 1e-6 the paper set's search
	// exhausts the default node budget — a valid "exhausted" bracket,
	// which is exactly what the server would serve and cache.
	refBounds, err := jsr.EstimateCtx(context.Background(), set, req.Brute, req.GripenbergOptions(0))
	exhausted := errors.Is(err, jsr.ErrBudget)
	if err != nil && !exhausted {
		t.Fatal(err)
	}
	want, err := api.EncodeCanonical(api.ResponseFor(set, refBounds, exhausted))
	if err != nil {
		t.Fatal(err)
	}

	// Partial run: capture the frontier a few levels in, then cancel —
	// exactly what a forced shutdown leaves on disk.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var captured *jsr.GripenbergState
	opt := req.GripenbergOptions(0)
	opt.Snapshot = func(st jsr.GripenbergState) error {
		if captured == nil && capture(st) {
			c := st
			captured = &c
			cancel()
		}
		return nil
	}
	if _, err := jsr.EstimateCtx(ctx, set, req.Brute, opt); err == nil {
		t.Fatal("partial run completed before the capture point; deepen the search")
	}
	if captured == nil {
		t.Fatal("no frontier captured — search finished too fast for this fixture")
	}

	key := req.Key()
	id := jobID(key)
	putJobRecord(t, stateDir, id, jobCkptBytes(t, jobCkpt{ID: id, Key: key, Req: req, HasState: true, State: *captured}))

	cache, err := certcache.New(certcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Workers: 1, Cache: cache, StateDir: stateDir, MaxSyncWork: -1})
	if err != nil {
		t.Fatal(err)
	}
	n, err := s.Recover()
	if err != nil || n != 1 {
		t.Fatalf("Recover = (%d, %v), want (1, nil)", n, err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()

	st := pollJob(t, ts, id)
	if st.State != api.JobDone {
		t.Fatalf("recovered job: %+v", st)
	}
	got := s.jobs.get(id).resultBody()
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed result differs from uninterrupted run:\n%s\nvs\n%s", got, want)
	}
	// Completion deleted the record.
	if _, ok, gerr := s.jobLog.Get(id); gerr != nil || ok {
		t.Fatalf("completed job left its checkpoint in the store (ok=%v, err=%v)", ok, gerr)
	}
}

func TestHealthAndMetrics(t *testing.T) {
	stateDir := t.TempDir()
	c, err := certcache.New(certcache.Options{Dir: filepath.Join(stateDir, "certs")})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: 3, Cache: c, StateDir: stateDir})
	postCertify(t, ts, paperReqJSON)
	postCertify(t, ts, paperReqJSON)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h api.Health
	err = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Version == "" || h.Workers != 3 {
		t.Fatalf("health %+v", h)
	}
	if h.StoreCompactionDegraded || h.StoreCompactionReason != "" {
		t.Fatalf("healthy stores reported compaction-degraded: %+v", h)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	text := buf.String()
	for _, want := range []string{
		`adaserved_requests_total{route="/v1/certify",code="200"} 2`,
		"adaserved_cache_misses_total 1",
		`adaserved_cache_hits_total{layer="memory"} 1`,
		`adaserved_request_duration_seconds_bucket{route="/v1/certify",le="+Inf"} 2`,
		`adaserved_request_duration_seconds_count{route="/v1/certify"} 2`,
		"adaserved_job_queue_wait_seconds_count 0",
		`adaserved_store_appends_total{store="certs"} 1`,
		`adaserved_store_appends_total{store="jobs"} 0`,
		`adaserved_store_records{store="certs"} 1`,
		`adaserved_store_compaction_degraded{store="certs"} 0`,
		"adaserved_queue_depth 0",
		"adaserved_workers 3",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// Graceful drain: jobs already queued complete during Shutdown.
func TestShutdownDrainsQueue(t *testing.T) {
	cache, err := certcache.New(certcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Workers: 1, Cache: cache, MaxSyncWork: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, body := postCertify(t, ts, paperReqJSON)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var ref api.JobRef
	json.Unmarshal(body, &ref)

	// Workers start only now: the job is certainly still queued.
	s.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if st := s.jobs.get(ref.JobID).status(); st.State != api.JobDone {
		t.Fatalf("queued job not drained: %+v", st)
	}
}

// --- small test helpers ---

// jobCkptBytes encodes a jobCkpt exactly as putJobCkpt does.
func jobCkptBytes(t *testing.T, ck jobCkpt) []byte {
	t.Helper()
	data, err := checkpoint.Marshal(jobCkptKind, jobCkptVersion, ck)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// putJobRecord writes data under id into the job log in
// stateDir/jobs — the record a crashed server leaves behind — and
// closes the log so a fresh Server can open it.
func putJobRecord(t *testing.T, stateDir, id string, data []byte) {
	t.Helper()
	l, err := store.Open(filepath.Join(stateDir, "jobs"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Put(id, data); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// flipLastByte corrupts a file in place.
func flipLastByte(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	raw[len(raw)-1] ^= 0xFF
	return os.WriteFile(path, raw, 0o644)
}

// newestSegment returns the path of the highest-numbered segment file
// in a store directory — where the most recent append lives.
func newestSegment(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var newest string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".seg") && e.Name() > newest {
			newest = e.Name()
		}
	}
	if newest == "" {
		t.Fatalf("no segment files in %s", dir)
	}
	return filepath.Join(dir, newest)
}

// startOrthogonalRequest is the raw request of ROADMAP item 1's pair:
// with v, w and x orthonormal in ℝ⁹ and x the power iteration's start
// direction, A = 1.8·v·wᵀ + 0.5·x·xᵀ and B = 1.8·w·vᵀ + 0.5·x·xᵀ, so
// JSR ≥ ρ(A·B)^{1/2} = 1.8 while the 2-norm iteration sees only 0.5.
func startOrthogonalRequest(t *testing.T) string {
	t.Helper()
	const n = 9
	unit := func(x []float64) {
		s := 0.0
		for _, v := range x {
			s += v * v
		}
		for i := range x {
			x[i] /= math.Sqrt(s)
		}
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 / math.Sqrt(float64(n)+float64(i))
	}
	unit(x)
	v, w := make([]float64, n), make([]float64, n)
	v[0], v[1] = x[1], -x[0]
	unit(v)
	w[2], w[3] = x[3], -x[2]
	unit(w)
	a, b := make([][]float64, n), make([][]float64, n)
	for i := 0; i < n; i++ {
		a[i], b[i] = make([]float64, n), make([]float64, n)
		for j := 0; j < n; j++ {
			a[i][j] = 1.8*v[i]*w[j] + 0.5*x[i]*x[j]
			b[i][j] = 1.8*w[i]*v[j] + 0.5*x[i]*x[j]
		}
	}
	body, err := json.Marshal(api.CertifyRequest{Version: api.RequestVersion, Raw: true, Matrices: [][][]float64{a, b}})
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestInvertedBracketIsNeverCached: a raw request whose 2-norm
// certificates come out below its spectral radius inverts the bracket.
// The server answers 500 with jsr.ErrInverted's text, every time, and
// caches nothing: no false STABLE is ever served.
func TestInvertedBracketIsNeverCached(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	body := startOrthogonalRequest(t)
	for i := 0; i < 2; i++ {
		resp, out := postCertify(t, ts, body)
		if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(out), "lower bound above upper bound") {
			t.Fatalf("POST %d: status %d body %s, want 500 with the inverted-bracket error", i, resp.StatusCode, out)
		}
	}
	if st := s.cache.Stats(); st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("cache stats after two inverted requests: %d misses, %d entries; want none stored", st.Misses, st.Entries)
	}
}
