// Package client is a resilient, stdlib-only client for the adaserved
// certification service (POST /v1/certify).
//
// The server sheds load honestly — 429 when a client outruns its token
// bucket, 503 when the service is saturated, both with a computed
// Retry-After — and this client is the matching half of that contract:
//
//   - Shed responses (429/503) are obeyed, not punished: the client
//     sleeps for the server's Retry-After hint and tries again. They
//     never trip the circuit breaker, because a shedding server is a
//     healthy server telling the truth about its capacity.
//
//   - Transport errors and server faults (500, 502, 504) are retried
//     under capped exponential backoff with deterministic seeded
//     jitter, and they do feed the circuit breaker: after Threshold
//     consecutive failures the breaker opens and calls fail fast for
//     Cooldown, then a single half-open probe decides between closing
//     and re-opening.
//
//   - Retries are idempotent by construction: adaserved derives the
//     job id from the request's content key, so a retried POST joins
//     the same job (or hits the same cache entry) instead of spawning
//     duplicate work. The client never needs a client-generated
//     idempotency token.
//
//   - 202 Accepted is followed through: the client polls the job URL
//     until the job completes, then re-POSTs the request — by then a
//     cache hit — so the bytes it returns are the server's canonical
//     encoding, byte-identical to a synchronous answer or a local
//     jsrtool run.
//
// Client-side failures (4xx other than 429) are returned immediately:
// retrying a request the server has already rejected as malformed
// wastes both sides' budgets.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"adaptivertc/internal/api"
)

// Defaults for Options zero values.
const (
	defaultMaxAttempts      = 8
	defaultBaseBackoff      = 100 * time.Millisecond
	defaultMaxBackoff       = 5 * time.Second
	defaultPollInterval     = 100 * time.Millisecond
	defaultHTTPTimeout      = 30 * time.Second
	defaultBreakerThreshold = 5
	defaultBreakerCooldown  = 10 * time.Second

	// maxResponseBytes bounds any response body we read.
	maxResponseBytes = 8 << 20
)

// ErrCircuitOpen is returned (wrapped) when the circuit breaker is
// open and the cooldown has not yet elapsed: the last Threshold
// attempts all failed with transport or server faults, so the client
// fails fast instead of piling onto a struggling service.
var ErrCircuitOpen = errors.New("client: circuit breaker open")

// StatusError is a non-2xx server reply. RetryAfterSeconds carries the
// server's backoff hint on 429/503 (zero otherwise).
type StatusError struct {
	Code              int
	Message           string
	RetryAfterSeconds int
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("client: server returned %d: %s", e.Code, e.Message)
}

// Options configures a Client. The zero value of every field selects a
// serviceable default.
type Options struct {
	// BaseURL is the service root, e.g. "http://127.0.0.1:8080"
	// (required; no trailing slash needed).
	BaseURL string
	// HTTPClient overrides the transport. The default client carries a
	// 30 s timeout; a replacement should set its own Timeout, or the
	// per-call context deadline must bound every request.
	HTTPClient *http.Client
	// ClientID, when non-empty, is sent as X-Client-ID so the server's
	// per-client rate limiter keys on it instead of the remote address.
	ClientID string
	// MaxAttempts bounds retryable attempts per Certify call (≤ 0
	// selects 8). Permanent errors return before the bound.
	MaxAttempts int
	// BaseBackoff and MaxBackoff shape the exponential backoff for
	// transport/server faults: attempt n sleeps a jittered value in
	// [d/2, d) where d = min(MaxBackoff, BaseBackoff·2ⁿ).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Seed makes the retry jitter deterministic: two clients with the
	// same seed sleep the same schedule. Zero selects seed 1 (still
	// deterministic — this client is built for reproducible harnesses).
	Seed int64
	// PollInterval is the sleep between job-status polls after a 202
	// (≤ 0 selects 100 ms).
	PollInterval time.Duration
	// BreakerThreshold consecutive transport/server faults open the
	// circuit (≤ 0 selects 5); BreakerCooldown is how long it stays
	// open before a half-open probe (≤ 0 selects 10 s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
}

// Client calls one adaserved instance. Safe for concurrent use.
type Client struct {
	opts    Options
	httpc   *http.Client
	breaker *breaker

	mu  sync.Mutex
	rng *rand.Rand

	// test seams: the real clock and a context-respecting sleep.
	now   func() time.Time
	sleep func(context.Context, time.Duration) error
}

// New builds a Client for the service at opts.BaseURL.
func New(opts Options) (*Client, error) {
	if opts.BaseURL == "" {
		return nil, errors.New("client: Options.BaseURL is required")
	}
	opts.BaseURL = strings.TrimRight(opts.BaseURL, "/")
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = defaultMaxAttempts
	}
	if opts.BaseBackoff <= 0 {
		opts.BaseBackoff = defaultBaseBackoff
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = defaultMaxBackoff
	}
	if opts.PollInterval <= 0 {
		opts.PollInterval = defaultPollInterval
	}
	if opts.BreakerThreshold <= 0 {
		opts.BreakerThreshold = defaultBreakerThreshold
	}
	if opts.BreakerCooldown <= 0 {
		opts.BreakerCooldown = defaultBreakerCooldown
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	httpc := opts.HTTPClient
	if httpc == nil {
		httpc = &http.Client{Timeout: defaultHTTPTimeout}
	}
	now := time.Now
	c := &Client{
		opts:  opts,
		httpc: httpc,
		breaker: &breaker{
			threshold: opts.BreakerThreshold,
			cooldown:  opts.BreakerCooldown,
		},
		rng:   rand.New(rand.NewSource(seed)),
		now:   now,
		sleep: sleepCtx,
	}
	return c, nil
}

// Certify submits req and returns the decoded certified response,
// retrying through sheds, faults, and asynchronous job execution as
// described in the package comment.
func (c *Client) Certify(ctx context.Context, req api.CertifyRequest) (*api.CertifyResponse, error) {
	body, err := c.CertifyBytes(ctx, req)
	if err != nil {
		return nil, err
	}
	var res api.CertifyResponse
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, fmt.Errorf("client: decoding response: %w", err)
	}
	return &res, nil
}

// CertifyBytes is Certify returning the server's canonical response
// bytes unparsed — byte-identical to what a local jsrtool run encodes
// for the same request, which is what reproducibility harnesses diff.
func (c *Client) CertifyBytes(ctx context.Context, req api.CertifyRequest) ([]byte, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("client: encoding request: %w", err)
	}
	attempts := 0
	for {
		if err := c.breaker.allow(c.now()); err != nil {
			return nil, err
		}
		body, jobURL, err := c.postOnce(ctx, payload)
		switch {
		case err == nil && jobURL == "":
			c.breaker.success()
			return body, nil
		case err == nil:
			// 202 Accepted: the server queued the work. Poll to
			// completion, then loop to re-POST — a cache hit now — for
			// the canonical bytes.
			c.breaker.success()
			st, perr := c.pollJob(ctx, jobURL)
			if perr != nil {
				return nil, perr
			}
			if st.State == api.JobFailed {
				// A failed job may be a transient fault (the server
				// retries failed jobs on resubmission); back off and
				// re-POST. The service answered coherently, so the
				// breaker stays closed.
				attempts++
				if attempts >= c.opts.MaxAttempts {
					return nil, fmt.Errorf("client: job failed after %d attempts: %s", attempts, st.Error)
				}
				if err := c.sleep(ctx, c.backoff(attempts)); err != nil {
					return nil, err
				}
			}
			continue
		case isShed(err):
			// Honest backpressure: obey Retry-After, don't punish it.
			attempts++
			if attempts >= c.opts.MaxAttempts {
				return nil, err
			}
			if serr := c.sleep(ctx, c.shedDelay(err, attempts)); serr != nil {
				return nil, serr
			}
			continue
		case isRetryable(err):
			c.breaker.failure(c.now())
			attempts++
			if attempts >= c.opts.MaxAttempts {
				return nil, err
			}
			if serr := c.sleep(ctx, c.backoff(attempts)); serr != nil {
				return nil, serr
			}
			continue
		default:
			// Permanent: a 4xx the server will reject identically next
			// time, or a context cancellation.
			return nil, err
		}
	}
}

// postOnce performs one POST /v1/certify. It returns the response body
// on 200, the job status URL on 202, and a typed error otherwise.
func (c *Client) postOnce(ctx context.Context, payload []byte) (body []byte, jobURL string, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.opts.BaseURL+"/v1/certify", bytes.NewReader(payload))
	if err != nil {
		return nil, "", fmt.Errorf("client: building request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if c.opts.ClientID != "" {
		req.Header.Set("X-Client-ID", c.opts.ClientID)
	}
	if dl, ok := ctx.Deadline(); ok {
		// Propagate the caller's budget so the server bounds the job
		// too, instead of computing past the point anyone is listening.
		if left := dl.Sub(c.now()); left > 0 {
			req.Header.Set("X-Request-Deadline", left.Round(time.Millisecond).String())
		}
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		return nil, "", &transportError{err}
	}
	raw, err := readBody(resp)
	if err != nil {
		return nil, "", &transportError{err}
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return raw, "", nil
	case http.StatusAccepted:
		var ref api.JobRef
		if err := json.Unmarshal(raw, &ref); err != nil || ref.StatusURL == "" {
			return nil, "", fmt.Errorf("client: malformed 202 job reference: %q", raw)
		}
		return nil, ref.StatusURL, nil
	default:
		return nil, "", statusError(resp, raw)
	}
}

// pollJob polls the job status URL until the job reaches a terminal
// state. Transient poll failures (transport blips, 5xx) are absorbed by
// continuing to poll — the job keeps running server-side regardless.
func (c *Client) pollJob(ctx context.Context, statusURL string) (*api.JobStatus, error) {
	for {
		if err := c.sleep(ctx, c.opts.PollInterval); err != nil {
			return nil, err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.opts.BaseURL+statusURL, nil)
		if err != nil {
			return nil, fmt.Errorf("client: building poll request: %w", err)
		}
		if c.opts.ClientID != "" {
			req.Header.Set("X-Client-ID", c.opts.ClientID)
		}
		resp, err := c.httpc.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			continue
		}
		raw, err := readBody(resp)
		if err != nil || resp.StatusCode != http.StatusOK {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			if resp.StatusCode == http.StatusNotFound {
				// The job id is content-addressed: a 404 after a 202
				// means the server restarted without that checkpoint.
				// Report queued-lost so the caller re-POSTs.
				return &api.JobStatus{State: api.JobFailed, Error: "job lost (server restart)"}, nil
			}
			continue
		}
		var st api.JobStatus
		if err := json.Unmarshal(raw, &st); err != nil {
			continue
		}
		if st.State == api.JobDone || st.State == api.JobFailed {
			return &st, nil
		}
	}
}

// backoff computes the jittered exponential delay for the given
// attempt number (1-based): a deterministic draw in [d/2, d) with
// d = min(MaxBackoff, BaseBackoff·2^(attempt-1)).
func (c *Client) backoff(attempt int) time.Duration {
	d := float64(c.opts.BaseBackoff) * math.Pow(2, float64(attempt-1))
	if d > float64(c.opts.MaxBackoff) {
		d = float64(c.opts.MaxBackoff)
	}
	c.mu.Lock()
	f := c.rng.Float64()
	c.mu.Unlock()
	return time.Duration(d/2 + f*d/2)
}

// shedDelay picks the sleep after a 429/503: the server's Retry-After
// when it sent one, else the regular backoff schedule.
func (c *Client) shedDelay(err error, attempt int) time.Duration {
	var se *StatusError
	if errors.As(err, &se) && se.RetryAfterSeconds > 0 {
		return time.Duration(se.RetryAfterSeconds) * time.Second
	}
	return c.backoff(attempt)
}

// transportError wraps a failed round trip (connection refused, DNS,
// timeout) so the retry logic can tell it from server verdicts.
type transportError struct{ err error }

func (e *transportError) Error() string { return "client: transport: " + e.err.Error() }
func (e *transportError) Unwrap() error { return e.err }

// isShed reports whether err is the server declining load with a
// backoff hint (429 or 503).
func isShed(err error) bool {
	var se *StatusError
	if !errors.As(err, &se) {
		return false
	}
	return se.Code == http.StatusTooManyRequests || se.Code == http.StatusServiceUnavailable
}

// isRetryable reports whether err warrants another attempt under
// backoff: transport failures and the transient 5xx family (500, 502,
// 504). Context cancellation is never retryable.
func isRetryable(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var te *transportError
	if errors.As(err, &te) {
		return true
	}
	var se *StatusError
	if !errors.As(err, &se) {
		return false
	}
	switch se.Code {
	case http.StatusInternalServerError, http.StatusBadGateway, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// statusError builds the typed error for a non-2xx response, reading
// the backoff hint from the Retry-After header with the JSON body as
// fallback.
func statusError(resp *http.Response, raw []byte) error {
	se := &StatusError{Code: resp.StatusCode, Message: strings.TrimSpace(string(raw))}
	var body api.ErrorResponse
	if err := json.Unmarshal(raw, &body); err == nil && body.Error != "" {
		se.Message = body.Error
		se.RetryAfterSeconds = body.RetryAfterSeconds
	}
	if h := resp.Header.Get("Retry-After"); h != "" {
		if n, err := strconv.Atoi(h); err == nil && n > 0 {
			se.RetryAfterSeconds = n
		}
	}
	return se
}

// readBody drains and closes a response body, bounded by
// maxResponseBytes.
func readBody(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	return io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
}

// sleepCtx sleeps for d or until ctx is done, whichever first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
