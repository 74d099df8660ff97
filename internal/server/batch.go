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
)

// batchGroup is one unique content key within a batch: the first
// occurrence's request plus every item position sharing the key. The
// group is answered from the cache, certified, or enqueued once and its
// verdict copied to all members — N identical items in one batch cost
// one computation, the same coalescing guarantee concurrent single
// requests get from the cache's singleflight.
type batchGroup struct {
	req     api.CertifyRequest
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
	// deterministic in the request, not in map iteration. Nothing is
	// resolved yet: a group answered from the cache never needs its set.
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
		key := req.Key()
		g, ok := groups[key]
		if !ok {
			g = &batchGroup{req: req, key: key}
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
			items[i] = verdict
		}
	}
	s.writeJSON(w, http.StatusOK, api.BatchResponse{Version: api.RequestVersion, Items: items})
}

// resolveBatchGroup produces the shared verdict for one unique key:
// an inline result when cached or cheap enough to certify here, a job
// reference when queued, an item error when compute or enqueue failed.
// Every verdict carries the key, except for a set that fails to
// resolve: that item is invalid, as a single request's 400 says. Index
// is the caller's per-member concern.
func (s *Server) resolveBatchGroup(ctx context.Context, g *batchGroup, absDeadline time.Time) api.BatchItem {
	key := g.key.String()
	// Any cached certificate answers inline regardless of size — the
	// same lookup a single request makes before resolving its set.
	if body, outcome, ok := s.cache.Get(g.key); ok {
		return batchResult(key, outcome, body)
	}
	set, err := g.req.Resolve()
	if err != nil {
		return api.BatchItem{Error: err.Error()}
	}
	if s.syncable(&g.req, set) {
		body, outcome, err := s.cache.GetOrCompute(ctx, g.key, func(ctx context.Context) ([]byte, error) {
			return s.certify(ctx, g.req, set, g.req.GripenbergOptions(0))
		})
		if err != nil {
			if errors.Is(err, jsr.ErrDeadline) || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
				return api.BatchItem{Key: key, Error: "certification deadline exceeded"}
			}
			return api.BatchItem{Key: key, Error: err.Error()}
		}
		return batchResult(key, outcome, body)
	}
	j, err := s.enqueue(g.req, g.key, absDeadline)
	if err != nil {
		// Queue full: this item (and its duplicates) report the shed;
		// the rest of the batch still gets answered.
		s.metrics.shed("queue")
		return api.BatchItem{Key: key, Error: err.Error()}
	}
	return api.BatchItem{Key: key, Job: &api.JobRef{JobID: j.id, StatusURL: "/v1/jobs/" + j.id}}
}

// batchResult decodes canonical certificate bytes into an inline item
// verdict carrying the cache outcome a single request would have seen
// in its X-Cache header.
func batchResult(key string, outcome certcache.Outcome, body []byte) api.BatchItem {
	// Body bytes are canonical JSON of a CertifyResponse (same bytes
	// writeBody streams for a single request).
	var res api.CertifyResponse
	if err := json.Unmarshal(body, &res); err != nil {
		// Cannot happen for bytes this server wrote; surface rather
		// than hide if a store is ever corrupted in place.
		return api.BatchItem{Key: key, Error: "decoding cached certificate: " + err.Error()}
	}
	return api.BatchItem{Key: key, Cache: outcome.String(), Result: &res}
}
