package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call. Spans of one request share Req; Parent is
// the ID of the enclosing span, -1 for a request's root. Count is the
// number of calls a span aggregates (mat kernels, witness replays),
// Errors the calls among them that failed and were skipped, Bytes the
// size of the record it wrote (checkpoints).
type span struct {
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Tag    string `json:"tag,omitempty"`
	Count  int    `json:"count,omitempty"`
	Errors int    `json:"errors,omitempty"`
	Bytes  int    `json:"bytes,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer records spans in memory. The replay is sequential and every
// engine hook it installs runs on the calling goroutine, so spans nest
// strictly and need no locking.
type tracer struct {
	t0    time.Time
	req   int
	spans []span
	open  []int // stack of open span IDs
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// request starts a new request: the spans begun until the next call
// share its id.
func (t *tracer) request() { t.req++ }

// begin opens a span under the innermost open one and returns its ID.
func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Req: t.req, ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open one.
func (t *tracer) end(id int) {
	t.spans[id].End = int64(time.Since(t.t0))
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("tracer: span %d (%s) closed out of order", id, t.spans[id].Name))
	}
	t.open = t.open[:len(t.open)-1]
}

// selfMs returns each span's duration minus the time its children
// cover, by span ID.
func (t *tracer) selfMs() []float64 {
	self := make([]float64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.ms()
		if s.Parent >= 0 {
			self[s.Parent] -= s.ms()
		}
	}
	return self
}

// stat accumulates a mean.
type stat struct {
	sum float64
	n   int
}

func (s *stat) add(v float64) { s.sum += v; s.n++ }

func (s stat) mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// meanMs returns the mean duration in ms of the spans named name.
func (t *tracer) meanMs(name string) float64 {
	var st stat
	for _, s := range t.spans {
		if s.Name == name {
			st.add(s.ms())
		}
	}
	return st.mean()
}

// perCall returns the mean time in ms per aggregated call of the spans
// named name.
func (t *tracer) perCall(name string) float64 {
	var ms float64
	var calls int
	for _, s := range t.spans {
		if s.Name == name {
			ms += s.ms()
			calls += s.Count
		}
	}
	if calls == 0 {
		return 0
	}
	return ms / float64(calls)
}

// write stores the spans, with the run's host record, as one JSON file.
func (t *tracer) write(path string, header map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	header["spans"] = t.spans
	data, err := json.Marshal(header)
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}
