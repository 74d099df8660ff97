package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// certify sends one request body to POST /v1/certify and returns the
// certificate bytes and the X-Cache header. A 202 is followed through
// the job's ?watch=1 long-poll until the job is done; the result is
// then returned in the canonical form a synchronous response has (the
// result object plus a newline).
func certify(ctx context.Context, hc *http.Client, base string, body []byte) ([]byte, string, error) {
	status, hdr, data, err := call(ctx, hc, http.MethodPost, base+"/v1/certify", body)
	if err != nil {
		return nil, "", err
	}
	switch status {
	case http.StatusOK:
		return data, hdr.Get("X-Cache"), nil
	case http.StatusAccepted:
	default:
		return nil, "", fmt.Errorf("POST /v1/certify: status %d: %s", status, bytes.TrimSpace(data))
	}
	var ref struct {
		StatusURL string `json:"status_url"`
	}
	if err := json.Unmarshal(data, &ref); err != nil || ref.StatusURL == "" {
		return nil, "", fmt.Errorf("POST /v1/certify: bad job reference %q", bytes.TrimSpace(data))
	}
	for {
		status, _, data, err := call(ctx, hc, http.MethodGet, base+ref.StatusURL+"?watch=1", nil)
		if err != nil {
			return nil, "", err
		}
		if status != http.StatusOK {
			return nil, "", fmt.Errorf("GET %s: status %d: %s", ref.StatusURL, status, bytes.TrimSpace(data))
		}
		var st struct {
			State  string          `json:"state"`
			Result json.RawMessage `json:"result"`
			Error  string          `json:"error"`
		}
		if err := json.Unmarshal(data, &st); err != nil {
			return nil, "", fmt.Errorf("GET %s: decoding status: %w", ref.StatusURL, err)
		}
		switch st.State {
		case "done":
			if len(st.Result) == 0 {
				return nil, "", fmt.Errorf("GET %s: job done without a result", ref.StatusURL)
			}
			return append(st.Result, '\n'), "job", nil
		case "failed":
			return nil, "", fmt.Errorf("GET %s: job failed: %s", ref.StatusURL, st.Error)
		}
	}
}

// call performs one HTTP exchange and reads the whole response body.
func call(ctx context.Context, hc *http.Client, method, url string, body []byte) (int, http.Header, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, fmt.Errorf("%s %s: %w", method, url, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("%s %s: %w", method, url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("%s %s: reading body: %w", method, url, err)
	}
	return resp.StatusCode, resp.Header, data, nil
}

// sample is one completed measured request.
type sample struct {
	i     uint64
	start time.Time
	lat   time.Duration
	gap   float64 // Upper − Lower of the certificate
	body  []byte  // kept only for requests the traced run compares
}

// loadResult is the outcome of one closed-loop run.
type loadResult struct {
	samples   []sample // successful requests
	attempted int64
	failed    int64
}

// op sends request i and returns its checked certificate bytes and gap.
type op func(ctx context.Context, i uint64) ([]byte, float64, error)

// drive runs a closed loop: each of clients goroutines takes the next
// request index, sends it, and waits for the checked reply before
// taking another, until d has passed. Requests in flight at the end are
// completed and counted, so the run lasts until the last one returns.
// Bodies of requests with index below keep are retained.
func drive(ctx context.Context, clients int, d time.Duration, keep uint64, do op, logf func(string, ...any)) loadResult {
	var (
		next, failed atomic.Int64
		mu           sync.Mutex
		all          []sample
		wg           sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			for time.Since(start) < d && ctx.Err() == nil {
				i := uint64(next.Add(1) - 1)
				t0 := time.Now()
				body, gap, err := do(ctx, i)
				lat := time.Since(t0)
				if err != nil {
					if n := failed.Add(1); n <= 5 {
						logf("request %d failed: %v", i, err)
					}
					continue
				}
				s := sample{i: i, start: t0, lat: lat, gap: gap}
				if i < keep {
					s.body = body
				}
				mine = append(mine, s)
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return loadResult{samples: all, attempted: next.Load(), failed: failed.Load()}
}
