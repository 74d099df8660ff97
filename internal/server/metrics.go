package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"adaptivertc/internal/certcache"
	"adaptivertc/internal/store"
)

// metrics accumulates the service counters and the latency histograms,
// and renders them in the Prometheus text exposition format (version
// 0.0.4) — hand-rolled, because the whole service is stdlib-only by
// design.
type metrics struct {
	mu       sync.Mutex
	requests map[reqLabel]int64
	// latency per route pattern, in the Prometheus "le" convention.
	latency map[string]*hist
	// queueWait is how long async jobs sat queued before a worker
	// picked them up — the honest measure of service backlog that
	// request latency (which only sees the 202) cannot show.
	queueWait hist
	// admission sheds by gate ("rate", "inflight", "queue").
	shedByReason map[string]int64

	ckptErrs atomic.Int64 // job-checkpoint write failures (best-effort persistence)
	watchers atomic.Int64 // GET /v1/jobs/{id}?watch=1 long-polls currently blocked
}

type reqLabel struct {
	route string
	code  int
}

// latencyBuckets spans sub-millisecond cache hits to multi-minute
// Gripenberg searches; queue waits live in the same range.
var latencyBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 5, 15, 60, 300}

// hist is one cumulative histogram over latencyBuckets.
type hist struct {
	counts []int64
	sum    float64
	count  int64
}

func newHist() *hist { return &hist{counts: make([]int64, len(latencyBuckets))} }

func (h *hist) observe(seconds float64) {
	for i, le := range latencyBuckets {
		if seconds <= le {
			h.counts[i]++
		}
	}
	h.sum += seconds
	h.count++
}

func newMetrics() *metrics {
	return &metrics{
		requests:     make(map[reqLabel]int64),
		latency:      make(map[string]*hist),
		queueWait:    *newHist(),
		shedByReason: make(map[string]int64),
	}
}

// shed records one admission rejection by gate.
func (m *metrics) shed(reason string) {
	m.mu.Lock()
	m.shedByReason[reason]++
	m.mu.Unlock()
}

// observe records one served request.
func (m *metrics) observe(route string, code int, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[reqLabel{route, code}]++
	h, ok := m.latency[route]
	if !ok {
		h = newHist()
		m.latency[route] = h
	}
	h.observe(seconds)
}

// observeQueueWait records how long one job waited on the queue.
func (m *metrics) observeQueueWait(seconds float64) {
	m.mu.Lock()
	m.queueWait.observe(seconds)
	m.mu.Unlock()
}

// gauges carries the point-in-time values sampled outside metrics.
type gauges struct {
	cache       certcache.Stats
	stores      []storeGauges
	queueDepth  int
	queueCap    int
	workers     int
	workersBusy int
	jobsQueued  int
	jobsRunning int
	jobsDone    int
	jobsFailed  int
	inflight    int
}

// storeGauges is one persistent log's counters, labeled by role.
type storeGauges struct {
	name  string // "certs" or "jobs"
	stats store.Stats
}

// render writes the full exposition. Families are emitted in a fixed
// order and labels sorted, so scrapes are deterministic.
func (m *metrics) render(w io.Writer, g gauges) {
	m.mu.Lock()
	labels := make([]reqLabel, 0, len(m.requests))
	for l := range m.requests {
		labels = append(labels, l)
	}
	sort.Slice(labels, func(i, j int) bool {
		if labels[i].route != labels[j].route {
			return labels[i].route < labels[j].route
		}
		return labels[i].code < labels[j].code
	})

	fmt.Fprintln(w, "# HELP adaserved_requests_total Requests served, by route pattern and status code.")
	fmt.Fprintln(w, "# TYPE adaserved_requests_total counter")
	for _, l := range labels {
		fmt.Fprintf(w, "adaserved_requests_total{route=%q,code=\"%d\"} %d\n", l.route, l.code, m.requests[l])
	}

	routes := make([]string, 0, len(m.latency))
	for r := range m.latency {
		routes = append(routes, r)
	}
	sort.Strings(routes)
	fmt.Fprintln(w, "# HELP adaserved_request_duration_seconds Request latency, by route pattern.")
	fmt.Fprintln(w, "# TYPE adaserved_request_duration_seconds histogram")
	for _, r := range routes {
		h := m.latency[r]
		for i, le := range latencyBuckets {
			fmt.Fprintf(w, "adaserved_request_duration_seconds_bucket{route=%q,le=\"%g\"} %d\n", r, le, h.counts[i])
		}
		fmt.Fprintf(w, "adaserved_request_duration_seconds_bucket{route=%q,le=\"+Inf\"} %d\n", r, h.count)
		fmt.Fprintf(w, "adaserved_request_duration_seconds_sum{route=%q} %g\n", r, h.sum)
		fmt.Fprintf(w, "adaserved_request_duration_seconds_count{route=%q} %d\n", r, h.count)
	}

	fmt.Fprintln(w, "# HELP adaserved_job_queue_wait_seconds Time async jobs spent queued before a worker picked them up.")
	fmt.Fprintln(w, "# TYPE adaserved_job_queue_wait_seconds histogram")
	for i, le := range latencyBuckets {
		fmt.Fprintf(w, "adaserved_job_queue_wait_seconds_bucket{le=\"%g\"} %d\n", le, m.queueWait.counts[i])
	}
	fmt.Fprintf(w, "adaserved_job_queue_wait_seconds_bucket{le=\"+Inf\"} %d\n", m.queueWait.count)
	fmt.Fprintf(w, "adaserved_job_queue_wait_seconds_sum %g\n", m.queueWait.sum)
	fmt.Fprintf(w, "adaserved_job_queue_wait_seconds_count %d\n", m.queueWait.count)

	reasons := make([]string, 0, len(m.shedByReason))
	for r := range m.shedByReason {
		reasons = append(reasons, r)
	}
	sort.Strings(reasons)
	fmt.Fprintln(w, "# HELP adaserved_admission_shed_total Requests rejected by admission control, by gate.")
	fmt.Fprintln(w, "# TYPE adaserved_admission_shed_total counter")
	for _, r := range reasons {
		fmt.Fprintf(w, "adaserved_admission_shed_total{reason=%q} %d\n", r, m.shedByReason[r])
	}
	m.mu.Unlock()

	c := g.cache
	fmt.Fprintln(w, "# HELP adaserved_cache_hits_total Certificate cache hits, by layer.")
	fmt.Fprintln(w, "# TYPE adaserved_cache_hits_total counter")
	fmt.Fprintf(w, "adaserved_cache_hits_total{layer=\"memory\"} %d\n", c.Hits)
	fmt.Fprintf(w, "adaserved_cache_hits_total{layer=\"disk\"} %d\n", c.DiskHits)
	fmt.Fprintln(w, "# HELP adaserved_cache_misses_total Certifications actually computed.")
	fmt.Fprintln(w, "# TYPE adaserved_cache_misses_total counter")
	fmt.Fprintf(w, "adaserved_cache_misses_total %d\n", c.Misses)
	fmt.Fprintln(w, "# HELP adaserved_cache_shared_total Requests served by joining an in-flight computation.")
	fmt.Fprintln(w, "# TYPE adaserved_cache_shared_total counter")
	fmt.Fprintf(w, "adaserved_cache_shared_total %d\n", c.Shared)
	fmt.Fprintln(w, "# HELP adaserved_cache_corrupt_evictions_total Corrupt or mismatching disk entries evicted.")
	fmt.Fprintln(w, "# TYPE adaserved_cache_corrupt_evictions_total counter")
	fmt.Fprintf(w, "adaserved_cache_corrupt_evictions_total %d\n", c.Corrupt)
	fmt.Fprintln(w, "# HELP adaserved_cache_entries In-memory cache entries.")
	fmt.Fprintln(w, "# TYPE adaserved_cache_entries gauge")
	fmt.Fprintf(w, "adaserved_cache_entries %d\n", c.Entries)
	degraded := 0
	if c.Degraded {
		degraded = 1
	}
	fmt.Fprintln(w, "# HELP adaserved_cache_degraded Whether the disk cache layer is demoted to memory-only (1 = degraded).")
	fmt.Fprintln(w, "# TYPE adaserved_cache_degraded gauge")
	fmt.Fprintf(w, "adaserved_cache_degraded %d\n", degraded)
	fmt.Fprintln(w, "# HELP adaserved_cache_demotions_total Times the disk layer was demoted to memory-only after a fault.")
	fmt.Fprintln(w, "# TYPE adaserved_cache_demotions_total counter")
	fmt.Fprintf(w, "adaserved_cache_demotions_total %d\n", c.Demotions)
	fmt.Fprintln(w, "# HELP adaserved_cache_recoveries_total Times a recovery probe restored the disk layer.")
	fmt.Fprintln(w, "# TYPE adaserved_cache_recoveries_total counter")
	fmt.Fprintf(w, "adaserved_cache_recoveries_total %d\n", c.Recoveries)

	renderStores(w, g.stores)

	fmt.Fprintln(w, "# HELP adaserved_queue_depth Jobs waiting on the bounded queue.")
	fmt.Fprintln(w, "# TYPE adaserved_queue_depth gauge")
	fmt.Fprintf(w, "adaserved_queue_depth %d\n", g.queueDepth)
	fmt.Fprintln(w, "# HELP adaserved_queue_capacity Bounded queue capacity.")
	fmt.Fprintln(w, "# TYPE adaserved_queue_capacity gauge")
	fmt.Fprintf(w, "adaserved_queue_capacity %d\n", g.queueCap)
	fmt.Fprintln(w, "# HELP adaserved_workers Job workers configured.")
	fmt.Fprintln(w, "# TYPE adaserved_workers gauge")
	fmt.Fprintf(w, "adaserved_workers %d\n", g.workers)
	fmt.Fprintln(w, "# HELP adaserved_workers_busy Job workers currently certifying.")
	fmt.Fprintln(w, "# TYPE adaserved_workers_busy gauge")
	fmt.Fprintf(w, "adaserved_workers_busy %d\n", g.workersBusy)
	fmt.Fprintln(w, "# HELP adaserved_inflight Certify requests currently being handled.")
	fmt.Fprintln(w, "# TYPE adaserved_inflight gauge")
	fmt.Fprintf(w, "adaserved_inflight %d\n", g.inflight)

	fmt.Fprintln(w, "# HELP adaserved_jobs Jobs known to this process, by state.")
	fmt.Fprintln(w, "# TYPE adaserved_jobs gauge")
	fmt.Fprintf(w, "adaserved_jobs{state=\"queued\"} %d\n", g.jobsQueued)
	fmt.Fprintf(w, "adaserved_jobs{state=\"running\"} %d\n", g.jobsRunning)
	fmt.Fprintf(w, "adaserved_jobs{state=\"done\"} %d\n", g.jobsDone)
	fmt.Fprintf(w, "adaserved_jobs{state=\"failed\"} %d\n", g.jobsFailed)

	fmt.Fprintln(w, "# HELP adaserved_job_checkpoint_errors_total Best-effort job checkpoint writes that failed.")
	fmt.Fprintln(w, "# TYPE adaserved_job_checkpoint_errors_total counter")
	fmt.Fprintf(w, "adaserved_job_checkpoint_errors_total %d\n", m.ckptErrs.Load())

	fmt.Fprintln(w, "# HELP adaserved_job_watchers Job-status long-polls (?watch=1) currently blocked.")
	fmt.Fprintln(w, "# TYPE adaserved_job_watchers gauge")
	fmt.Fprintf(w, "adaserved_job_watchers %d\n", m.watchers.Load())
}

// renderStores emits the segmented-log counters for every persistent
// store the server runs, labeled store="certs"/"jobs". Families are
// skipped entirely when no store is configured (memory-only service).
func renderStores(w io.Writer, stores []storeGauges) {
	if len(stores) == 0 {
		return
	}
	counter := func(family, help string, value func(store.Stats) int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", family, help, family)
		for _, sg := range stores {
			fmt.Fprintf(w, "%s{store=%q} %d\n", family, sg.name, value(sg.stats))
		}
	}
	gauge := func(family, help string, value func(store.Stats) int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", family, help, family)
		for _, sg := range stores {
			fmt.Fprintf(w, "%s{store=%q} %d\n", family, sg.name, value(sg.stats))
		}
	}
	counter("adaserved_store_appends_total", "Record frames appended to the segmented log.",
		func(s store.Stats) int64 { return s.Appends })
	counter("adaserved_store_append_bytes_total", "Bytes appended to the segmented log, framing included.",
		func(s store.Stats) int64 { return s.AppendBytes })
	counter("adaserved_store_syncs_total", "fsyncs issued on segment files.",
		func(s store.Stats) int64 { return s.Syncs })
	counter("adaserved_store_reads_total", "Record reads served from segment files.",
		func(s store.Stats) int64 { return s.Reads })
	counter("adaserved_store_rotations_total", "Segment rotations at the size threshold.",
		func(s store.Stats) int64 { return s.Rotations })
	counter("adaserved_store_compactions_total", "Completed log compactions.",
		func(s store.Stats) int64 { return s.Compactions })
	counter("adaserved_store_compaction_errors_total", "Failed log compaction attempts (retried with backoff).",
		func(s store.Stats) int64 { return s.CompactionErrs })
	counter("adaserved_store_torn_bytes_total", "Unacknowledged tail bytes truncated during crash recovery.",
		func(s store.Stats) int64 { return s.TornBytes })
	gauge("adaserved_store_segments", "Current segment files.",
		func(s store.Stats) int64 { return int64(s.Segments) })
	gauge("adaserved_store_records", "Live records the index references.",
		func(s store.Stats) int64 { return int64(s.Records) })
	gauge("adaserved_store_live_bytes", "Bytes of frames the index references.",
		func(s store.Stats) int64 { return s.LiveBytes })
	gauge("adaserved_store_total_bytes", "Bytes across all segment files.",
		func(s store.Stats) int64 { return s.TotalBytes })
	gauge("adaserved_store_compaction_degraded", "Whether compaction is failing while appends still work (1 = degraded-not-dead).",
		func(s store.Stats) int64 {
			if s.CompactionDegraded {
				return 1
			}
			return 0
		})
}
