package chaos

// Service-layer chaos tests: a real adaserved instance (httptest) with
// a faulty disk and faulty workers, driven by concurrent clients that
// speak plain HTTP and honour the service's shed contract (see
// certify). The assertions are the four invariants from the package
// comment: no dropped work, no false certificates, a bounded queue,
// and clean recovery once the fault window closes.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"adaptivertc/internal/api"
	"adaptivertc/internal/certcache"
	"adaptivertc/internal/server"
)

// httpc bounds every test round trip; it outlasts the server's 30 s
// ?watch=1 long-poll window.
var httpc = &http.Client{Timeout: time.Minute}

// chaosRequests returns distinct small certification requests: 1×1
// systems whose JSR is the matrix entry itself, so each certifies in
// microseconds and the canonical answer is beyond doubt.
func chaosRequests(n int) []api.CertifyRequest {
	reqs := make([]api.CertifyRequest, n)
	for i := range reqs {
		rho := 0.1 + 0.05*float64(i)
		reqs[i] = api.CertifyRequest{Version: 1, Matrices: [][][]float64{{{rho}}}}
	}
	return reqs
}

// roundTrip performs one request as clientID and returns the status,
// headers and body.
func roundTrip(ctx context.Context, method, url, clientID string, body []byte) (int, http.Header, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("X-Client-ID", clientID)
	req.Header.Set("Content-Type", "application/json")
	resp, err := httpc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, raw, err
}

// certify POSTs req until the service answers 200 and returns that
// body, honouring the shed contract as any client must. On 202 it
// long-polls the job with ?watch=1 until the job is done or failed,
// then re-POSTs: a done job answers from the cache with the canonical
// bytes, and a failed one is requeued. On 429/503 it sleeps for
// Retry-After. On 500 it retries. Each shed, 500, failed job and lost
// job counts against maxRetries; any other status is an error.
func certify(ctx context.Context, base, clientID string, req api.CertifyRequest, maxRetries int) ([]byte, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	retries := 0
	retry := func(why string, wait time.Duration) error {
		if retries++; retries > maxRetries {
			return fmt.Errorf("gave up after %d retries, last: %s", maxRetries, why)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(wait):
			return nil
		}
	}
	for {
		code, hdr, body, err := roundTrip(ctx, http.MethodPost, base+"/v1/certify", clientID, payload)
		if err != nil {
			return nil, err
		}
		switch code {
		case http.StatusOK:
			return body, nil
		case http.StatusAccepted:
			var ref api.JobRef
			if err := json.Unmarshal(body, &ref); err != nil || ref.StatusURL == "" {
				return nil, fmt.Errorf("malformed 202 body %q", body)
			}
			state, err := watchJob(ctx, base+ref.StatusURL, clientID)
			if err != nil {
				return nil, err
			}
			if state != api.JobDone {
				if err := retry("job "+state, time.Millisecond); err != nil {
					return nil, err
				}
			}
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			secs, err := strconv.Atoi(hdr.Get("Retry-After"))
			if err != nil || secs < 1 {
				return nil, fmt.Errorf("%d without a usable Retry-After (%q)", code, hdr.Get("Retry-After"))
			}
			if err := retry(fmt.Sprintf("shed %d", code), time.Duration(secs)*time.Second); err != nil {
				return nil, err
			}
		case http.StatusInternalServerError:
			if err := retry(fmt.Sprintf("500: %s", body), time.Millisecond); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("POST /v1/certify: %d %s", code, body)
		}
	}
}

// watchJob long-polls the job at statusURL until it is done or failed
// and returns that state. A 404 reports "lost": a failed job whose
// requeue was shed is dropped from the store, and a re-POST starts it
// afresh.
func watchJob(ctx context.Context, statusURL, clientID string) (string, error) {
	for {
		code, _, body, err := roundTrip(ctx, http.MethodGet, statusURL+"?watch=1", clientID, nil)
		if err != nil {
			return "", err
		}
		if code == http.StatusNotFound {
			return "lost", nil
		}
		if code != http.StatusOK {
			return "", fmt.Errorf("GET %s: %d %s", statusURL, code, body)
		}
		var st api.JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			return "", err
		}
		if st.State == api.JobDone || st.State == api.JobFailed {
			return st.State, nil
		}
	}
}

// referenceBytes certifies every request against a pristine server —
// no faults, no admission pressure — and returns the canonical bytes
// each request must produce under chaos too.
func referenceBytes(t *testing.T, reqs []api.CertifyRequest) map[int][]byte {
	t.Helper()
	cache, err := certcache.New(certcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Workers: 2, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("reference shutdown: %v", err)
		}
	}()
	ref := make(map[int][]byte, len(reqs))
	for i, req := range reqs {
		body, err := certify(context.Background(), ts.URL, "reference", req, 0)
		if err != nil {
			t.Fatalf("reference certify %d: %v", i, err)
		}
		ref[i] = body
	}
	return ref
}

func TestServiceInvariantsUnderChaos(t *testing.T) {
	for _, workers := range []int{1, 4} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			runChaos(t, workers)
		})
	}
}

func runChaos(t *testing.T, workers int) {
	const (
		nRequests = 6
		queueSize = 4
		nClients  = 3
		// nBurst more distinct requests arrive at once after the storm,
		// while every worker is held: more than the queue and the workers
		// can take, so the queue must fill and shed.
		nBurst = 12
	)
	if nBurst <= queueSize+workers {
		t.Fatalf("a burst of %d cannot overflow %d queue slots and %d workers", nBurst, queueSize, workers)
	}
	reqs := chaosRequests(nRequests + nBurst)
	ref := referenceBytes(t, reqs)

	// Service under test: faulty disk from the start, faulty workers
	// while the window is open, a deliberately tight queue.
	ffs := NewFaultyFS(nil)
	cache, err := certcache.New(certcache.Options{
		Dir:           t.TempDir(),
		FS:            ffs,
		ProbeInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each distinct request draws once per computation, so the mix must
	// fail one of the first six draws or the workers never fault: at
	// seed 1 those are 0.60, 0.94, 0.66, 0.44, 0.42, 0.69, and a 0.3
	// fail probability only ever slowed two of them.
	wf := NewWorkerFaults(1)
	wf.Configure(0.5, 0.2, time.Millisecond)
	faults := wf.Hook()
	// hold is write-locked while the burst arrives: every computation
	// then waits at its start, so no admitted job finishes and frees a
	// slot.
	var hold sync.RWMutex
	srv, err := server.New(server.Config{
		Workers:     workers,
		QueueSize:   queueSize,
		Cache:       cache,
		MaxSyncWork: -1, // force every request through the bounded queue
		MaxInflight: 16,
		FaultHook: func(ctx context.Context) error {
			hold.RLock()
			hold.RUnlock()
			return faults(ctx)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	ffs.BreakWrites(nil) // the disk is gone before the first certificate lands
	wf.Open()

	// Invariant 3 (bounded queue): poll /healthz throughout the storm.
	stopHealth := make(chan struct{})
	var healthWG sync.WaitGroup
	healthWG.Add(1)
	var maxQueueDepth int
	go func() {
		defer healthWG.Done()
		for {
			select {
			case <-stopHealth:
				return
			case <-time.After(2 * time.Millisecond):
			}
			resp, err := httpc.Get(ts.URL + "/healthz")
			if err != nil {
				continue
			}
			var h api.Health
			err = json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if err != nil {
				continue
			}
			if h.QueueDepth > maxQueueDepth {
				maxQueueDepth = h.QueueDepth
			}
		}
	}()

	// Invariants 1 and 2: every client converges on every request, and
	// every answer matches the pristine reference bytes.
	type result struct {
		client, req int
		body        []byte
		err         error
	}
	results := make(chan result, nClients*nRequests+nBurst)
	var wg sync.WaitGroup
	for ci := 0; ci < nClients; ci++ {
		ci := ci
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := fmt.Sprintf("chaos-%d", ci)
			for ri := range reqs[:nRequests] {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				body, err := certify(ctx, ts.URL, id, reqs[ri], 60)
				cancel()
				results <- result{client: ci, req: ri, body: body, err: err}
			}
		}()
	}
	wg.Wait()

	// Invariant 3 under pressure: the burst's requests are each sent
	// once while the workers are held, so at most queueSize + workers
	// are admitted and the rest must be shed with 503 + Retry-After.
	// Then the workers go, and every burst client honours its answer
	// and converges like the storm's. The storm's finished jobs keep
	// the drain estimate, and so each Retry-After, near one second.
	type answer struct {
		code, retryAfter int
		err              error
	}
	answers := make(chan answer, nBurst)
	released := make(chan struct{})
	hold.Lock()
	for bi := 0; bi < nBurst; bi++ {
		ci, ri := nClients+bi, nRequests+bi
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := fmt.Sprintf("burst-%d", bi)
			payload, err := json.Marshal(reqs[ri])
			a := answer{err: err}
			if err == nil {
				var hdr http.Header
				a.code, hdr, _, a.err = roundTrip(context.Background(), http.MethodPost, ts.URL+"/v1/certify", id, payload)
				a.retryAfter, _ = strconv.Atoi(hdr.Get("Retry-After"))
			}
			answers <- a
			<-released
			if a.code == http.StatusServiceUnavailable {
				time.Sleep(time.Duration(a.retryAfter) * time.Second)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			body, err := certify(ctx, ts.URL, id, reqs[ri], 60)
			cancel()
			results <- result{client: ci, req: ri, body: body, err: err}
		}()
	}
	shed := 0
	for range nBurst {
		switch a := <-answers; {
		case a.err != nil:
			t.Errorf("burst POST: %v", a.err)
		case a.code == http.StatusServiceUnavailable && a.retryAfter >= 1:
			shed++
		case a.code != http.StatusAccepted:
			t.Errorf("burst POST answered %d with Retry-After %d, want 202, or 503 with Retry-After ≥ 1", a.code, a.retryAfter)
		}
	}
	hold.Unlock()
	close(released)
	if want := nBurst - queueSize - workers; shed < want {
		t.Errorf("%d of %d burst requests were shed, want at least %d: the queue admitted more than its capacity", shed, nBurst, want)
	}

	wg.Wait()
	close(results)
	close(stopHealth)
	healthWG.Wait()

	delivered := 0
	for r := range results {
		if r.err != nil {
			t.Errorf("client %d request %d dropped: %v", r.client, r.req, r.err)
			continue
		}
		delivered++
		if string(r.body) != string(ref[r.req]) {
			t.Errorf("client %d request %d: bytes differ from pristine reference\n got: %s\nwant: %s",
				r.client, r.req, r.body, ref[r.req])
		}
	}
	if want := nClients*nRequests + nBurst; delivered != want {
		t.Errorf("delivered %d results, want %d (no dropped work)", delivered, want)
	}
	if maxQueueDepth > queueSize {
		t.Errorf("queue depth reached %d, capacity is %d", maxQueueDepth, queueSize)
	}

	// The storm must actually have stormed, or the test proves nothing.
	if wFailed, _, _ := ffs.Injected(); wFailed == 0 {
		t.Error("faulty fs never fired")
	}
	if failed, _ := wf.Injected(); failed == 0 {
		t.Error("worker faults never failed a computation")
	}
	if degraded, _ := cache.Degraded(); !degraded {
		t.Error("cache never demoted to memory-only despite a broken disk")
	}
	st := cache.Stats()
	if st.Demotions == 0 {
		t.Error("no demotion recorded")
	}

	// Invariant 4 (clean recovery): close the window, heal the disk,
	// and the next write re-probes and re-promotes the disk layer.
	wf.Close()
	ffs.Heal()
	deadline := time.Now().Add(5 * time.Second)
	recovered := false
	for time.Now().Before(deadline) {
		if cache.Probe() {
			recovered = true
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !recovered {
		t.Fatal("cache did not recover after the fault window closed")
	}
	if degraded, reason := cache.Degraded(); degraded {
		t.Fatalf("cache still degraded after heal: %s", reason)
	}
	if st := cache.Stats(); st.Recoveries == 0 {
		t.Error("no recovery recorded")
	}

	// And a fresh post-storm request certifies clean, first try.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	body, err := certify(ctx, ts.URL, "post-storm", reqs[0], 0)
	if err != nil {
		t.Fatalf("post-storm certify: %v", err)
	}
	if string(body) != string(ref[0]) {
		t.Fatal("post-storm bytes differ from reference")
	}
}

// TestShedCarriesRetryAfter drives a server with a one-token bucket and
// asserts the shed contract every client relies on: 429 with a
// Retry-After header and a matching JSON hint.
func TestShedCarriesRetryAfter(t *testing.T) {
	cache, err := certcache.New(certcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Workers: 1, Cache: cache, RatePerSec: 0.5, Burst: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	body := []byte(`{"version":1,"matrices":[[[0.5]]]}`)
	do := func() (int, http.Header, []byte) {
		code, hdr, raw, err := roundTrip(context.Background(), http.MethodPost, ts.URL+"/v1/certify", "shed-test", body)
		if err != nil {
			t.Fatal(err)
		}
		return code, hdr, raw
	}
	if code, _, _ := do(); code != http.StatusOK {
		t.Fatalf("first request: %d", code)
	}
	code, hdr, raw := do()
	if code != http.StatusTooManyRequests {
		t.Fatalf("second request: %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	var er api.ErrorResponse
	if err := json.Unmarshal(raw, &er); err != nil {
		t.Fatal(err)
	}
	if er.RetryAfterSeconds < 1 {
		t.Fatalf("retry_after_seconds = %d, want ≥ 1", er.RetryAfterSeconds)
	}
}
