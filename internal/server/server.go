// Package server implements adaserved, the HTTP certification
// service: POST a matrix set (or a named scenario) to /v1/certify and
// receive the certified JSR bracket and stability verdict that a local
// jsrtool run would print — byte-identical, because both sides call
// the same engine with the same pinned defaults and the response is
// encoded canonically.
//
// Requests below the synchronous work threshold are certified in the
// handler under the caller's context; larger requests are enqueued on
// a bounded job queue and answered with a job reference to poll at
// /v1/jobs/{id}. Either path funnels through the content-addressed
// certificate cache (internal/certcache), so N concurrent identical
// requests cost one computation and repeats are served from memory or
// disk. Queued work survives restarts: every job checkpoint carries
// the request plus the latest Gripenberg frontier snapshot, and
// Recover re-enqueues them for a bit-identical finish.
//
// Observability is stdlib-only: /healthz reports liveness plus build
// version, /metrics speaks the Prometheus text exposition format
// (request counts, latency histogram, cache and queue gauges).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"adaptivertc/internal/api"
	"adaptivertc/internal/buildinfo"
	"adaptivertc/internal/certcache"
	"adaptivertc/internal/jsr"
	"adaptivertc/internal/mat"
	"adaptivertc/internal/store"
)

// Config configures a Server. Cache is required; everything else has
// serviceable defaults.
type Config struct {
	// Workers is the number of job-queue workers; ≤ 0 selects
	// GOMAXPROCS. Certified bounds are bit-identical for every value.
	Workers int
	// QueueSize bounds the asynchronous job queue; ≤ 0 selects 64.
	// A full queue answers 503, never blocks the handler.
	QueueSize int
	// Timeout is the per-job wall-clock budget; ≤ 0 selects 5 minutes.
	Timeout time.Duration
	// Cache is the content-addressed certificate store (required).
	Cache *certcache.Cache
	// StateDir, when non-empty, persists per-job checkpoints (request +
	// Gripenberg frontier) in a crash-safe segmented log under
	// StateDir/jobs so queued and in-flight jobs survive a restart;
	// Recover re-enqueues them.
	StateDir string
	// StateFS is the filesystem the job log runs on; nil selects the
	// real one. Tests and the chaos harness substitute a faulty FS.
	StateFS store.FS
	// StoreSegmentBytes is the job log's segment rotation threshold;
	// ≤ 0 selects the store default (64 MiB).
	StoreSegmentBytes int64
	// MaxSyncWork is the largest brute-force enumeration (k^brute) a
	// request may demand and still be certified synchronously in the
	// handler; 0 selects 4096, negative forces every request through
	// the job queue.
	MaxSyncWork int
	// RatePerSec enables per-client admission control on POST
	// /v1/certify: each client (X-Client-ID header, or remote host)
	// accrues RatePerSec tokens per second up to Burst, and a request
	// with an empty bucket is shed with 429 + Retry-After. ≤ 0
	// disables rate limiting.
	RatePerSec float64
	// Burst is the per-client token-bucket capacity; ≤ 0 selects 8.
	Burst int
	// MaxInflight caps the number of /v1/certify requests admitted
	// concurrently; excess requests are shed with 503 + Retry-After
	// computed from the observed drain rate. ≤ 0 disables the cap.
	MaxInflight int
	// FaultHook, when non-nil, runs at the start of every
	// certification compute (sync and queued) under the compute
	// context; an error fails the computation exactly as an engine
	// error would, and is never cached. It exists for the chaos
	// harness (internal/chaos) to inject slow or failing workers.
	// Must be nil in production.
	FaultHook func(ctx context.Context) error
}

// defaults for Config zero values.
const (
	defaultQueueSize   = 64
	defaultTimeout     = 5 * time.Minute
	defaultMaxSyncWork = 4096
	maxSyncDim         = 32 // sync requests must also stay small-dimensional
)

// Server is the certification service. Create with New, install
// Handler in an http.Server, call Start to launch the workers, and
// Shutdown to drain them.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	cache   *certcache.Cache
	jobs    *jobStore
	jobLog  *store.Log // nil when StateDir is empty
	logOnce sync.Once  // guards closing jobLog
	queue   chan *job
	metrics *metrics
	started time.Time

	limiter  *limiter
	drain    *drainEstimator
	inflight atomic.Int64

	baseCtx context.Context
	cancel  context.CancelFunc
	quit    chan struct{}
	quitOne sync.Once
	wg      sync.WaitGroup
	busy    atomic.Int64
}

// New builds a Server from cfg. Workers are not running until Start.
func New(cfg Config) (*Server, error) {
	if cfg.Cache == nil {
		return nil, errors.New("server: Config.Cache is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = defaultQueueSize
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = defaultTimeout
	}
	if cfg.MaxSyncWork == 0 {
		cfg.MaxSyncWork = defaultMaxSyncWork
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		cache:   cfg.Cache,
		jobs:    newJobStore(),
		queue:   make(chan *job, cfg.QueueSize),
		metrics: newMetrics(),
		started: time.Now(),
		limiter: newLimiter(cfg.RatePerSec, cfg.Burst, time.Now),
		drain:   &drainEstimator{},
		baseCtx: ctx,
		cancel:  cancel,
		quit:    make(chan struct{}),
	}
	if cfg.StateDir != "" {
		l, err := store.Open(s.jobsDir(), store.Options{FS: cfg.StateFS, SegmentBytes: cfg.StoreSegmentBytes})
		if err != nil {
			cancel()
			return nil, fmt.Errorf("server: opening job store in %s: %w", s.jobsDir(), err)
		}
		s.jobLog = l
	}
	s.mux.HandleFunc("POST /v1/certify", s.instrument("/v1/certify", s.handleCertify))
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("/v1/jobs/{id}", s.handleJob))
	s.mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealth))
	s.mux.HandleFunc("GET /metrics", s.instrument("/metrics", s.handleMetrics))
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Start launches the job-queue workers. Call Recover first to
// re-enqueue checkpointed jobs from a previous process.
func (s *Server) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// Shutdown drains the service: intake should already be stopped (via
// http.Server.Shutdown); workers finish the queued jobs, and when ctx
// expires before they do, in-flight Gripenberg searches are cancelled
// at the next level boundary — their frontier checkpoints stay on disk
// for Recover. Always returns with all workers stopped.
func (s *Server) Shutdown(ctx context.Context) error {
	s.quitOne.Do(func() { close(s.quit) })
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		s.cancel()
		s.closeJobLog()
		return nil
	case <-ctx.Done():
		s.cancel() // interrupt at the next level boundary; checkpoints persist
		<-done
		s.closeJobLog()
		return ctx.Err()
	}
}

// closeJobLog seals the job log once all workers have stopped, so the
// last frontier snapshots are fsynced and the active segment closes
// cleanly. Idempotent; a nil log is a no-op.
func (s *Server) closeJobLog() {
	s.logOnce.Do(func() {
		if s.jobLog != nil {
			//lint:ignore droppederr every Put already fsynced; a failing close loses nothing Recover needs
			s.jobLog.Close()
		}
	})
}

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.quit:
			// Drain what is already queued, then stop. A forced
			// Shutdown cancels baseCtx, which aborts these runs at the
			// next level boundary with their checkpoints intact.
			for {
				select {
				case j := <-s.queue:
					s.runJob(j)
				default:
					return
				}
			}
		case j := <-s.queue:
			s.runJob(j)
		}
	}
}

// certify runs one certification of set, the matrix set req resolves
// to, under ctx and returns the canonical response bytes. It is the
// single compute function behind the cache: the sync handler and the
// job workers both land here, so their bytes can never differ. The set is a deterministic function of the request and
// the engine does not mutate it, so a flight stays a pure function of
// its key whichever caller resolved the set.
func (s *Server) certify(ctx context.Context, req api.CertifyRequest, set []*mat.Dense, opt jsr.GripenbergOptions) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, s.cfg.Timeout)
	defer cancel()
	if s.cfg.FaultHook != nil {
		// Chaos seam: injected worker faults fail the computation like
		// an engine error — never cached, never a false certificate.
		if err := s.cfg.FaultHook(ctx); err != nil {
			return nil, err
		}
	}

	var bounds jsr.Bounds
	var serr error
	if req.Raw {
		bounds, serr = jsr.EstimateRawCtx(ctx, set, req.Brute, opt)
	} else {
		bounds, serr = jsr.EstimateCtx(ctx, set, req.Brute, opt)
	}
	exhausted := errors.Is(serr, jsr.ErrBudget)
	if serr != nil && !exhausted {
		// ErrDeadline (timeout, client disconnect, shutdown) and engine
		// errors are failures: the bracket may be valid best-so-far but
		// a certification service must not cache an unfinished search.
		return nil, serr
	}
	return api.EncodeCanonical(api.ResponseFor(set, bounds, exhausted))
}

// syncable reports whether a request is small enough to certify in
// the handler: bounded brute-force enumeration, small dimension, and
// the default node budget.
func (s *Server) syncable(req *api.CertifyRequest, set []*mat.Dense) bool {
	if s.cfg.MaxSyncWork < 0 {
		return false
	}
	work := 1
	for i := 0; i < req.Brute; i++ {
		work *= len(set)
		if work > s.cfg.MaxSyncWork {
			return false
		}
	}
	return len(set) > 0 && set[0].Rows() <= maxSyncDim && req.MaxNodes <= api.DefaultMaxNodes
}

func (s *Server) handleCertify(w http.ResponseWriter, r *http.Request) {
	// Admission gate 1: per-client rate limit. Shed before reading the
	// body — a limited client costs the service nothing but this check.
	if ok, retry := s.limiter.admit(clientID(r)); !ok {
		s.metrics.shed("rate")
		s.writeShed(w, http.StatusTooManyRequests, retry, "per-client rate limit exceeded")
		return
	}
	// Admission gate 2: global in-flight cap — queue-depth-aware load
	// shedding for the synchronous path, honest 503 + Retry-After
	// derived from the observed drain rate.
	if max := s.cfg.MaxInflight; max > 0 {
		if n := s.inflight.Add(1); n > int64(max) {
			s.inflight.Add(-1)
			s.metrics.shed("inflight")
			retry := s.drain.retryAfter(len(s.queue)+max, s.cfg.Workers)
			s.writeShed(w, http.StatusServiceUnavailable, retry, "server saturated: in-flight request cap reached")
			return
		}
		defer s.inflight.Add(-1)
	}

	deadline, err := requestDeadline(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Bound the body before reading it: an oversized request is a 413,
	// detected by the typed MaxBytesReader error rather than a JSON
	// truncation artifact.
	r.Body = http.MaxBytesReader(w, r.Body, api.MaxRequestBytes)
	req, err := api.DecodeRequest(r.Body)
	if err != nil {
		s.writeError(w, bodyErrStatus(err), err.Error())
		return
	}
	req.Normalize()
	if err := req.Validate(); err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// A certificate is a pure function of the normalized request, so a
	// hit costs the key and one lookup. Only a miss resolves the matrix
	// set, which for a scenario means design synthesis.
	key := req.Key()
	if body, outcome, ok := s.cache.Get(key); ok {
		s.writeBody(w, outcome, body)
		return
	}
	set, err := req.Resolve()
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	if !s.syncable(&req, set) {
		var absDeadline time.Time
		if deadline > 0 {
			absDeadline = time.Now().Add(deadline)
		}
		j, err := s.enqueue(req, key, absDeadline)
		if err != nil {
			s.metrics.shed("queue")
			retry := s.drain.retryAfter(len(s.queue), s.cfg.Workers)
			s.writeShed(w, http.StatusServiceUnavailable, retry, err.Error())
			return
		}
		s.writeJSON(w, http.StatusAccepted, api.JobRef{JobID: j.id, StatusURL: "/v1/jobs/" + j.id})
		return
	}

	ctx := r.Context()
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	body, outcome, err := s.cache.GetOrCompute(ctx, key, func(ctx context.Context) ([]byte, error) {
		return s.certify(ctx, req, set, req.GripenbergOptions(0))
	})
	if err != nil {
		if errors.Is(err, jsr.ErrDeadline) || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			s.writeError(w, http.StatusGatewayTimeout, "certification deadline exceeded")
			return
		}
		s.writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.writeBody(w, outcome, body)
}

// bodyErrStatus maps a request-decode failure to its status code: 413
// when the MaxBytesReader bound fired, 400 for everything else.
func bodyErrStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// requestDeadline parses the optional X-Request-Deadline header (a Go
// duration such as "30s" or "1.5m") bounding this request's
// certification work. Zero means "no extra bound": the per-job server
// Timeout still applies as the default deadline either way.
func requestDeadline(r *http.Request) (time.Duration, error) {
	h := r.Header.Get("X-Request-Deadline")
	if h == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(h)
	if err != nil || d <= 0 {
		return 0, fmt.Errorf("server: invalid X-Request-Deadline %q: want a positive Go duration like \"30s\"", h)
	}
	return d, nil
}

// watchTimeout caps one ?watch=1 long-poll: on expiry the current
// (unchanged) status is returned and the client re-polls, which keeps
// every handler bounded and lets intermediaries reap idle connections.
const watchTimeout = 30 * time.Second

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.jobs.get(r.PathValue("id"))
	if j == nil {
		s.writeError(w, http.StatusNotFound, "unknown job id")
		return
	}
	st := j.status()
	if r.URL.Query().Get("watch") == "1" && st.State != api.JobDone && st.State != api.JobFailed {
		// Long-poll: block until the job changes state, the watch
		// window expires, or the client goes away — then fall through
		// and report whatever the status is now. subscribe-then-recheck
		// closes the race with a transition between status() and
		// subscribe(): the channel subscribed to is only closed by a
		// LATER transition, so the recheck below must see the earlier
		// one.
		ch := j.subscribe()
		if st = j.status(); st.State != api.JobDone && st.State != api.JobFailed {
			s.metrics.watchers.Add(1)
			t := time.NewTimer(watchTimeout)
			select {
			case <-ch:
			case <-t.C:
			case <-r.Context().Done():
			}
			t.Stop()
			s.metrics.watchers.Add(-1)
			st = j.status()
		}
	}
	if st.State == api.JobDone && st.Result == nil {
		// Body bytes are canonical JSON of a CertifyResponse.
		var res api.CertifyResponse
		if err := json.Unmarshal(j.resultBody(), &res); err == nil {
			st.Result = &res
		}
	}
	s.writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	q, run, done, failed := s.jobs.counts()
	degraded, reason := s.cache.Degraded()
	// Fold the stores' compaction health in: a log whose appends work
	// but whose compaction keeps failing is degraded-not-dead — every
	// record still persists, garbage just stops being reclaimed until
	// the backoff retries succeed.
	compDegraded, compReason := false, ""
	if cs := s.cache.StoreStats(); cs.CompactionDegraded {
		compDegraded, compReason = true, "certs: "+cs.CompactionReason
	}
	if js := s.JobStoreStats(); js.CompactionDegraded && !compDegraded {
		compDegraded, compReason = true, "jobs: "+js.CompactionReason
	}
	status := "ok"
	if degraded || compDegraded {
		// Degraded is still serving: certificates compute and memory
		// caching works; only cross-restart persistence (or space
		// reclamation) is impaired.
		status = "degraded"
	}
	s.writeJSON(w, http.StatusOK, api.Health{
		Status:                  status,
		Version:                 buildinfo.Version(),
		UptimeSeconds:           int64(time.Since(s.started).Seconds()),
		Workers:                 s.cfg.Workers,
		QueueDepth:              len(s.queue),
		JobsQueued:              q,
		JobsRunning:             run,
		JobsDone:                done,
		JobsFailed:              failed,
		CacheDegraded:           degraded,
		CacheDegradedReason:     reason,
		StoreCompactionDegraded: compDegraded,
		StoreCompactionReason:   compReason,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.render(w, s.snapshot())
}

// snapshot gathers the gauge values that live outside the metrics
// struct (cache, queue, jobs, workers).
func (s *Server) snapshot() gauges {
	q, run, done, failed := s.jobs.counts()
	g := gauges{
		cache:       s.cache.Stats(),
		queueDepth:  len(s.queue),
		queueCap:    s.cfg.QueueSize,
		workers:     s.cfg.Workers,
		workersBusy: int(s.busy.Load()),
		jobsQueued:  q, jobsRunning: run, jobsDone: done, jobsFailed: failed,
		inflight: int(s.inflight.Load()),
	}
	if s.cache.Persistent() {
		g.stores = append(g.stores, storeGauges{name: "certs", stats: s.cache.StoreStats()})
	}
	if s.jobLog != nil {
		g.stores = append(g.stores, storeGauges{name: "jobs", stats: s.jobLog.Stats()})
	}
	return g
}

func (s *Server) writeBody(w http.ResponseWriter, outcome certcache.Outcome, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", outcome.String())
	w.Write(body)
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := api.EncodeCanonical(v)
	if err != nil {
		http.Error(w, `{"error":"encoding response"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(body)
}

func (s *Server) writeError(w http.ResponseWriter, code int, msg string) {
	s.writeJSON(w, code, api.ErrorResponse{Error: msg})
}

// writeShed answers a load-shed (429/503) with the same backoff hint
// in both the Retry-After header and the JSON body — shedding is
// honest backpressure, never a silent drop.
func (s *Server) writeShed(w http.ResponseWriter, code, retryAfter int, msg string) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	s.writeJSON(w, code, api.ErrorResponse{Error: msg, RetryAfterSeconds: retryAfter})
}

// instrument wraps a handler with request counting (by route pattern
// and status code) and latency observation.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		s.metrics.observe(route, sw.code, time.Since(start).Seconds())
	}
}

// statusWriter records the status code a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}
