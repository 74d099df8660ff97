// Package api defines the versioned JSON wire types of the adaserved
// certification service, together with the strict validation, default
// normalization, canonical encoding, and content-addressing they need.
//
// A certification job is a pure function of its request: the matrix
// set (given literally or as a named design scenario), the Gripenberg
// and brute-force budgets, and the target accuracy. The package
// therefore defines one canonical form per request — Normalize fills
// the pinned defaults, Validate rejects everything the engine would
// choke on, and Key hashes the normalized request through
// internal/inputhash — so two requests that mean the same computation
// always share a cache key, and a cache key can never collide across
// different computations.
//
// Responses are encoded canonically (EncodeCanonical): given the same
// jsr.Bounds, the body bytes are identical, which is what lets the
// service promise byte-identical responses for deduplicated requests
// and lets scripts compare a served verdict against a local jsrtool
// run with cmp.
package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"adaptivertc/internal/inputhash"
	"adaptivertc/internal/jsr"
	"adaptivertc/internal/mat"
)

// RequestVersion is the wire version this package speaks. Breaking
// changes to request semantics bump it; Validate rejects anything else.
const RequestVersion = 1

// EngineVersion names the certificate bytes the engine produces for a
// request. It is hashed into Key, so a change to the engine that moves
// any certificate's bits bumps it and orphans the cached certificates
// of the old engine instead of serving them as the new engine's. It is
// not part of the wire format. 2 is the engine that certifies each
// invariant block of a set on its own (jsr.EstimateCtx); the engine
// before it, which certified the set whole, never hashed a version.
const EngineVersion = 2

// Service guardrails: a public certification endpoint must bound the
// work a single request can demand. The limits are generous for the
// paper's workloads (lifted PMSM modes are 9×9, mode tables have ≤ 11
// entries) while keeping worst-case requests finite.
const (
	MaxMatrices     = 64          // matrices per set
	MaxDim          = 64          // state dimension
	MaxDepth        = 200         // Gripenberg product length
	MaxBrute        = 12          // brute-force enumeration depth
	MaxBruteWork    = 1 << 22     // cap on k^brute products
	MaxNodesCeiling = 100_000_000 // Gripenberg node budget
)

// Pinned defaults, shared verbatim with the jsrtool flag defaults (and
// jsr.GripenbergOptions for MaxNodes). They are spelled out here — not
// inherited from the engine — because the cache Key covers them: a
// changed default must change the key, never silently re-interpret an
// old one.
const (
	DefaultDelta    = 1e-3
	DefaultDepth    = 30
	DefaultBrute    = 6
	DefaultMaxNodes = 2_000_000
)

// Scenario names a built-in design instead of literal matrices — the
// adactl scenarios, resolved server-side into the closed-loop Omega
// set (see BuildScenario).
type Scenario struct {
	Name       string  `json:"name"`                  // pmsm | unstable | quickstart
	RmaxFactor float64 `json:"rmax_factor,omitempty"` // Rmax as a multiple of T; default 1.6
	Ns         int     `json:"ns,omitempty"`          // sensor oversampling factor; default 5
}

// CertifyRequest is one certification job. Exactly one of Matrices and
// Scenario must be set. Zero-valued budget fields select the pinned
// defaults above.
type CertifyRequest struct {
	Version  int       `json:"version"`
	Matrices MatrixSet `json:"matrices,omitempty"`
	Scenario *Scenario `json:"scenario,omitempty"`
	Delta    float64   `json:"delta,omitempty"`
	Depth    int       `json:"depth,omitempty"`
	Brute    int       `json:"brute,omitempty"`
	MaxNodes int       `json:"max_nodes,omitempty"`
	Raw      bool      `json:"raw,omitempty"` // skip Lyapunov preconditioning
}

// Verdict values of a CertifyResponse, mirroring jsrtool's exit codes.
const (
	VerdictStable    = "stable"    // UB < 1: stable under arbitrary switching
	VerdictUnstable  = "unstable"  // LB ≥ 1
	VerdictUndecided = "undecided" // 1 lies inside the bracket
)

// CertifyResponse is the certified result of a job. It is encoded
// canonically: for a given engine result the bytes are identical, so
// cached and freshly computed responses compare equal with cmp.
type CertifyResponse struct {
	Version     int     `json:"version"`
	Verdict     string  `json:"verdict"`
	Lower       float64 `json:"lower"`
	Upper       float64 `json:"upper"`
	Bracket     string  `json:"bracket"` // jsrtool's "[%.6f, %.6f]" rendering
	Gap         float64 `json:"gap"`
	WitnessWord []int   `json:"witness_word,omitempty"`
	Matrices    int     `json:"matrices"`
	Dim         int     `json:"dim"`
	// Exhausted marks a bracket that is valid but looser than the
	// requested delta because the node or depth budget ran out
	// (jsr.ErrBudget).
	Exhausted bool `json:"budget_exhausted,omitempty"`
}

// JobRef is returned by POST /v1/certify when the job is queued for
// asynchronous execution.
type JobRef struct {
	JobID     string `json:"job_id"`
	StatusURL string `json:"status_url"`
}

// Job states reported by GET /v1/jobs/{id}.
const (
	JobQueued  = "queued"
	JobRunning = "running"
	JobDone    = "done"
	JobFailed  = "failed"
)

// JobStatus is the polling view of an asynchronous job.
type JobStatus struct {
	ID     string           `json:"id"`
	State  string           `json:"state"`
	Result *CertifyResponse `json:"result,omitempty"`
	Error  string           `json:"error,omitempty"`
}

// Health is the /healthz document. CacheDegraded reports the
// certificate cache's persistent layer: true means a disk fault
// demoted it to memory-only (the service still certifies; repeats just
// recompute after a restart) and a recovery probe is pending.
type Health struct {
	Status              string `json:"status"`
	Version             string `json:"version"`
	UptimeSeconds       int64  `json:"uptime_seconds"`
	Workers             int    `json:"workers"`
	QueueDepth          int    `json:"queue_depth"`
	JobsQueued          int    `json:"jobs_queued"`
	JobsRunning         int    `json:"jobs_running"`
	JobsDone            int    `json:"jobs_done"`
	JobsFailed          int    `json:"jobs_failed"`
	CacheDegraded       bool   `json:"cache_degraded"`
	CacheDegradedReason string `json:"cache_degraded_reason,omitempty"`
	// StoreCompactionDegraded reports a persistent store (certificate
	// or job log) whose background compaction is failing while appends
	// still work: degraded-not-dead — records keep persisting, space
	// reclamation retries with backoff, and the reason names the store
	// and its last error.
	StoreCompactionDegraded bool   `json:"store_compaction_degraded"`
	StoreCompactionReason   string `json:"store_compaction_reason,omitempty"`
}

// ErrorResponse is the body of every non-2xx JSON reply.
// RetryAfterSeconds mirrors the Retry-After header on 429/503
// load-shed responses, so clients that only see the body still learn
// the server's backoff hint; zero means the error is not retryable on
// a schedule.
type ErrorResponse struct {
	Error             string `json:"error"`
	RetryAfterSeconds int    `json:"retry_after_seconds,omitempty"`
}

// MaxRequestBytes bounds one CertifyRequest body: 64 matrices of
// 64×64 float64 literals fit comfortably. Servers enforce it with
// http.MaxBytesReader so oversized bodies answer 413; the decoder's
// own LimitReader sits one byte beyond so the reader's typed
// *http.MaxBytesError — not a JSON truncation error — is what
// surfaces when the transport bound fires first.
const MaxRequestBytes = 8 << 20

// DecodeRequest strictly parses one CertifyRequest: unknown fields,
// trailing data, and bodies beyond MaxRequestBytes are errors, so a
// typo in a budget field can never silently certify under defaults.
// Literal matrices decode through MatrixSet, without reflection.
func DecodeRequest(r io.Reader) (CertifyRequest, error) {
	var req CertifyRequest
	dec := json.NewDecoder(io.LimitReader(r, MaxRequestBytes+1))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, fmt.Errorf("api: parsing request: %w", err)
	}
	if dec.More() {
		return req, errors.New("api: trailing data after request object")
	}
	return req, nil
}

// Normalize fills the pinned defaults into zero-valued budget fields
// and scenario knobs. Validate assumes a normalized request; Key
// hashes one, so "delta omitted" and "delta":1e-3 share a cache entry.
func (r *CertifyRequest) Normalize() {
	//lint:ignore floatcompare the zero value is the documented "use the default" sentinel
	if r.Delta == 0 {
		r.Delta = DefaultDelta
	}
	if r.Depth == 0 {
		r.Depth = DefaultDepth
	}
	if r.Brute == 0 {
		r.Brute = DefaultBrute
	}
	if r.MaxNodes == 0 {
		r.MaxNodes = DefaultMaxNodes
	}
	if r.Scenario != nil {
		//lint:ignore floatcompare the zero value is the documented "use the default" sentinel
		if r.Scenario.RmaxFactor == 0 {
			r.Scenario.RmaxFactor = 1.6
		}
		if r.Scenario.Ns == 0 {
			r.Scenario.Ns = 5
		}
	}
}

// Validate checks a normalized request against the wire contract and
// the service guardrails. It never allocates matrices; Resolve does.
func (r *CertifyRequest) Validate() error {
	if r.Version != RequestVersion {
		return fmt.Errorf("api: unsupported version %d (want %d)", r.Version, RequestVersion)
	}
	hasM, hasS := len(r.Matrices) > 0, r.Scenario != nil
	if hasM == hasS {
		return errors.New("api: exactly one of matrices and scenario must be set")
	}
	if r.Delta <= 0 || math.IsInf(r.Delta, 0) || math.IsNaN(r.Delta) {
		return fmt.Errorf("api: delta must be a positive finite number, got %g", r.Delta)
	}
	if r.Depth < 1 || r.Depth > MaxDepth {
		return fmt.Errorf("api: depth must be in [1, %d], got %d", MaxDepth, r.Depth)
	}
	if r.Brute < 1 || r.Brute > MaxBrute {
		return fmt.Errorf("api: brute must be in [1, %d], got %d", MaxBrute, r.Brute)
	}
	if r.MaxNodes < 1 || r.MaxNodes > MaxNodesCeiling {
		return fmt.Errorf("api: max_nodes must be in [1, %d], got %d", MaxNodesCeiling, r.MaxNodes)
	}
	if hasM {
		if err := validateMatrices(r.Matrices); err != nil {
			return err
		}
		if w := bruteWork(len(r.Matrices), r.Brute); w > MaxBruteWork {
			return fmt.Errorf("api: %d matrices at brute depth %d enumerate %d products (limit %d); lower brute",
				len(r.Matrices), r.Brute, w, MaxBruteWork)
		}
	}
	if hasS {
		switch r.Scenario.Name {
		case "pmsm", "unstable", "quickstart":
		default:
			return fmt.Errorf("api: unknown scenario %q (want pmsm, unstable or quickstart)", r.Scenario.Name)
		}
		if f := r.Scenario.RmaxFactor; !(f > 1) || math.IsInf(f, 0) || f > 16 {
			return fmt.Errorf("api: scenario rmax_factor must be in (1, 16], got %g", f)
		}
		if ns := r.Scenario.Ns; ns < 1 || ns > MaxMatrices {
			return fmt.Errorf("api: scenario ns must be in [1, %d], got %d", MaxMatrices, ns)
		}
	}
	return nil
}

func validateMatrices(ms [][][]float64) error {
	if len(ms) > MaxMatrices {
		return fmt.Errorf("api: %d matrices exceed the limit of %d", len(ms), MaxMatrices)
	}
	n := len(ms[0])
	if n < 1 || n > MaxDim {
		return fmt.Errorf("api: matrix 0 has %d rows (want 1..%d)", n, MaxDim)
	}
	for mi, m := range ms {
		if len(m) != n {
			return fmt.Errorf("api: matrix %d has %d rows, matrix 0 has %d", mi, len(m), n)
		}
		for ri, row := range m {
			if len(row) != n {
				return fmt.Errorf("api: matrix %d row %d has %d entries, want %d (square, uniform dimension)", mi, ri, len(row), n)
			}
			for ci, v := range row {
				if math.IsInf(v, 0) || math.IsNaN(v) {
					return fmt.Errorf("api: matrix %d entry (%d,%d) is not finite", mi, ri, ci)
				}
			}
		}
	}
	return nil
}

// bruteWork returns k^brute, saturating well above MaxBruteWork.
func bruteWork(k, brute int) int {
	w := 1
	for i := 0; i < brute; i++ {
		w *= k
		if w > MaxBruteWork {
			return w
		}
	}
	return w
}

// Key content-addresses a normalized, validated request: every field
// that shapes the computation is absorbed through the frozen
// inputhash encoding, behind a domain separator, the EngineVersion
// that computes it, and a kind tag so literal-matrix and scenario
// requests can never collide.
func (r *CertifyRequest) Key() inputhash.Sum {
	d := inputhash.New("adaserved/certify/v1")
	d.Int(EngineVersion)
	d.Int(r.Version)
	d.Bool(r.Raw)
	d.Float64(r.Delta)
	d.Int(r.Depth)
	d.Int(r.Brute)
	d.Int(r.MaxNodes)
	if r.Scenario != nil {
		d.String("scenario")
		d.String(r.Scenario.Name)
		d.Float64(r.Scenario.RmaxFactor)
		d.Int(r.Scenario.Ns)
		return d.Sum()
	}
	d.String("matrices")
	d.Uint64(uint64(len(r.Matrices)))
	for _, m := range r.Matrices {
		d.Uint64(uint64(len(m)))
		d.Uint64(uint64(len(m)))
		for _, row := range m {
			for _, v := range row {
				d.Float64(v)
			}
		}
	}
	return d.Sum()
}

// Resolve materializes the matrix set the request certifies: literal
// matrices verbatim, scenarios via the shared design builder (the
// closed-loop Omega set of Eq. 10).
func (r *CertifyRequest) Resolve() ([]*mat.Dense, error) {
	if r.Scenario != nil {
		design, err := BuildScenario(r.Scenario.Name, r.Scenario.RmaxFactor, r.Scenario.Ns)
		if err != nil {
			return nil, err
		}
		return design.OmegaSet(), nil
	}
	set := make([]*mat.Dense, len(r.Matrices))
	for i, m := range r.Matrices {
		set[i] = mat.FromRows(m)
	}
	return set, nil
}

// GripenbergOptions translates the request budgets into engine options.
// Workers is the engine's worker count; results are bit-identical for
// every value, so it is a knob of the serving process, not the request
// (and deliberately not part of Key).
func (r *CertifyRequest) GripenbergOptions(workers int) jsr.GripenbergOptions {
	return jsr.GripenbergOptions{
		Delta:    r.Delta,
		MaxDepth: r.Depth,
		MaxNodes: r.MaxNodes,
		Workers:  workers,
	}
}

// ResponseFor assembles the canonical response for a request's engine
// result.
func ResponseFor(set []*mat.Dense, bounds jsr.Bounds, exhausted bool) CertifyResponse {
	verdict := VerdictUndecided
	switch {
	case bounds.CertifiesStable():
		verdict = VerdictStable
	case bounds.CertifiesUnstable():
		verdict = VerdictUnstable
	}
	dim := 0
	if len(set) > 0 {
		dim = set[0].Rows()
	}
	return CertifyResponse{
		Version:     RequestVersion,
		Verdict:     verdict,
		Lower:       bounds.Lower,
		Upper:       bounds.Upper,
		Bracket:     bounds.String(),
		Gap:         bounds.Gap(),
		WitnessWord: bounds.WitnessWord,
		Matrices:    len(set),
		Dim:         dim,
		Exhausted:   exhausted,
	}
}

// EncodeCanonical renders v as its one canonical JSON form: Go's
// encoding/json with the struct field order above and shortest-float
// rendering, terminated by a newline. Two equal values always encode
// to identical bytes.
func EncodeCanonical(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("api: encoding response: %w", err)
	}
	return append(b, '\n'), nil
}
