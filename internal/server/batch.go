package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"adaptivertc/internal/api"
	"adaptivertc/internal/certcache"
	"adaptivertc/internal/jsr"
	"adaptivertc/internal/mat"
)

// batchGroup is one unique content key within a batch: the first
// occurrence's request plus every item position sharing the key. The
// group is certified (or enqueued) once and its verdict copied to all
// members — N identical items in one batch cost one computation, the
// same coalescing guarantee concurrent single requests get from the
// cache's singleflight.
type batchGroup struct {
	req     api.CertifyRequest
	set     []*mat.Dense
	key     certcache.Key
	members []int // item indices, ascending (first-occurrence grouping)
}

// handleBatch answers POST /v1/certify/batch: N certification requests
// in one call, admitted as a unit (one rate-limit token, one in-flight
// slot), deduplicated by content key, answered per item with an inline
// result, a job reference, or an item-level error. The batch itself
// only fails for envelope problems (bad JSON, too many items); one
// malformed item never sinks its siblings.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	// Admission gates, same order and semantics as /v1/certify. A batch
	// is one admission unit by design: it amortizes HTTP overhead, not
	// admission control.
	if ok, retry := s.limiter.admit(clientID(r)); !ok {
		s.metrics.shed("rate")
		s.writeShed(w, http.StatusTooManyRequests, retry, "per-client rate limit exceeded")
		return
	}
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
	r.Body = http.MaxBytesReader(w, r.Body, api.MaxBatchBytes)
	breq, err := api.DecodeBatchRequest(r.Body)
	if err != nil {
		s.writeError(w, bodyErrStatus(err), err.Error())
		return
	}
	if err := breq.Validate(); err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	// Pass 1: validate items individually and group by content key in
	// first-occurrence order, so response generation below is
	// deterministic in the request, not in map iteration.
	items := make([]api.BatchItem, len(breq.Items))
	var order []*batchGroup
	groups := make(map[certcache.Key]*batchGroup)
	for i := range breq.Items {
		items[i].Index = i
		req := breq.Items[i]
		req.Normalize()
		if err := req.Validate(); err != nil {
			items[i].Error = err.Error()
			continue
		}
		set, err := req.Resolve()
		if err != nil {
			items[i].Error = err.Error()
			continue
		}
		key := req.Key()
		items[i].Key = key.String()
		g, ok := groups[key]
		if !ok {
			g = &batchGroup{req: req, set: set, key: key}
			groups[key] = g
			order = append(order, g)
		}
		g.members = append(g.members, i)
	}

	ctx := r.Context()
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	var absDeadline time.Time
	if deadline > 0 {
		absDeadline = time.Now().Add(deadline)
	}

	for _, g := range order {
		verdict := s.resolveBatchGroup(ctx, g, absDeadline)
		for _, i := range g.members {
			verdict.Index = i
			verdict.Key = items[i].Key
			items[i] = verdict
		}
	}
	s.writeJSON(w, http.StatusOK, api.BatchResponse{Version: api.RequestVersion, Items: items})
}

// resolveBatchGroup produces the shared verdict for one unique key:
// an inline result when cached or cheap enough to certify here, a job
// reference when queued, an item error when compute or enqueue failed.
// Index and Key are the caller's per-member concern.
func (s *Server) resolveBatchGroup(ctx context.Context, g *batchGroup, absDeadline time.Time) api.BatchItem {
	// Any cached certificate answers inline regardless of size — same
	// fast path a single async request takes before enqueueing.
	if body, outcome, ok := s.cache.Get(g.key); ok {
		return batchResult(outcome, body)
	}
	if s.syncable(&g.req, g.set) {
		body, outcome, err := s.cache.GetOrCompute(ctx, g.key, func(ctx context.Context) ([]byte, error) {
			return s.certify(ctx, g.req, g.req.GripenbergOptions(0))
		})
		if err != nil {
			if errors.Is(err, jsr.ErrDeadline) || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
				return api.BatchItem{Error: "certification deadline exceeded"}
			}
			return api.BatchItem{Error: err.Error()}
		}
		return batchResult(outcome, body)
	}
	j, err := s.enqueue(g.req, g.key, absDeadline)
	if err != nil {
		// Queue full: this item (and its duplicates) report the shed;
		// the rest of the batch still gets answered.
		s.metrics.shed("queue")
		return api.BatchItem{Error: err.Error()}
	}
	return api.BatchItem{Job: &api.JobRef{JobID: j.id, StatusURL: "/v1/jobs/" + j.id}}
}

// batchResult decodes canonical certificate bytes into an inline item
// verdict carrying the cache outcome a single request would have seen
// in its X-Cache header.
func batchResult(outcome certcache.Outcome, body []byte) api.BatchItem {
	// Body bytes are canonical JSON of a CertifyResponse (same bytes
	// writeBody streams for a single request).
	var res api.CertifyResponse
	if err := json.Unmarshal(body, &res); err != nil {
		// Cannot happen for bytes this server wrote; surface rather
		// than hide if a store is ever corrupted in place.
		return api.BatchItem{Error: "decoding cached certificate: " + err.Error()}
	}
	return api.BatchItem{Cache: outcome.String(), Result: &res}
}
