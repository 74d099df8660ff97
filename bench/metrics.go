package main

import (
	"math"
	"sort"
	"strings"
)

// metricDef names one reported metric and its unit. The lists below
// are the ones BENCHMARK.json declares; bench_test.go keeps them equal.
type metricDef struct{ name, unit string }

// endToEnd are measured with tracing off, from the client and the
// server process; timings are at the reference host speed (hostspeed.go).
var endToEnd = []metricDef{
	{"throughput_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"gap_mean", "1"},
	{"server_cpu_ms_per_op", "ms"},
	{"server_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer come from /metrics deltas over the measured run (server.*,
// certcache.hit_ratio, store.certs.*, store.jobs.*), from the client
// process (bench.*), and from the traced replay (everything else).
var perLayer = []metricDef{
	{"server.handler_ms_mean", "ms"},
	{"server.transport_ms_mean", "ms"},
	{"server.job_queue_wait_ms_mean", "ms"},
	{"server.job_polls_per_job", "count"},
	{"api.decode_us", "us"},
	{"api.validate_us", "us"},
	{"api.resolve_us", "us"},
	{"api.key_us", "us"},
	{"api.encode_us", "us"},
	{"core.design_us", "us"},
	{"certcache.hit_ratio", "ratio"},
	{"certcache.lookup_us", "us"},
	{"certcache.persist_ms", "ms"},
	{"store.certs.syncs_per_op", "count"},
	{"store.certs.bytes_per_op", "B"},
	{"store.jobs.syncs_per_job", "count"},
	{"store.jobs.bytes_per_job", "B"},
	{"store.put_ms", "ms"},
	{"store.open_ms", "ms"},
	{"checkpoint.job_marshal_ms_per_level", "ms"},
	{"checkpoint.job_bytes_per_level", "B"},
	{"jsr.estimate_ms", "ms"},
	{"jsr.precondition_ms", "ms"},
	{"jsr.bruteforce_ms", "ms"},
	{"jsr.gripenberg_ms", "ms"},
	{"jsr.witness_us", "us"},
	{"jsr.gripenberg.levels", "count"},
	{"jsr.gripenberg.nodes", "count"},
	{"jsr.gripenberg.frontier_max", "count"},
	{"jsr.gripenberg.level_ms_max", "ms"},
	{"jsr.bruteforce.products", "count"},
	{"jsr.bruteforce.tightened_ratio", "ratio"},
	{"jsr.bruteforce.tightened_base", "count"},
	{"mat.mul_ns", "ns"},
	{"mat.rho_ns", "ns"},
	{"mat.twonorm_ns", "ns"},
	{"mat.kernel_share", "ratio"},
	{"bench.client_cpu_ms_per_op", "ms"},
	{"bench.host_speed", "ratio"},
	{"bench.host_speed_load_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// percentile returns the nearest-rank q-quantile of sorted values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// median returns the median of values (which it sorts).
func median(values []float64) float64 {
	sort.Float64s(values)
	n := len(values)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return values[n/2]
	}
	return (values[n/2-1] + values[n/2]) / 2
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// serverLayers derives the per-layer server counters from the /metrics
// deltas of the measured run: ops completed requests, clientMs their
// mean client-side latency.
func serverLayers(before, after map[string]float64, ops, clientMs float64) map[string]float64 {
	d := func(series string) float64 { return after[series] - before[series] }
	sumPrefix := func(prefix string) float64 {
		total := 0.0
		for series := range after {
			if strings.HasPrefix(series, prefix) {
				total += d(series)
			}
		}
		return total
	}
	handlerMs := 1000 * ratio(d(`adaserved_request_duration_seconds_sum{route="/v1/certify"}`)+
		d(`adaserved_request_duration_seconds_sum{route="/v1/jobs/{id}"}`), ops)
	jobs := d(`adaserved_requests_total{route="/v1/certify",code="202"}`)
	hits := d(`adaserved_cache_hits_total{layer="memory"}`) + d(`adaserved_cache_hits_total{layer="disk"}`)
	lookups := hits + d(`adaserved_cache_misses_total`) + d(`adaserved_cache_shared_total`)
	return map[string]float64{
		"server.handler_ms_mean":        handlerMs,
		"server.transport_ms_mean":      clientMs - handlerMs,
		"server.job_queue_wait_ms_mean": 1000 * ratio(d(`adaserved_job_queue_wait_seconds_sum`), d(`adaserved_job_queue_wait_seconds_count`)),
		"server.job_polls_per_job":      ratio(sumPrefix(`adaserved_requests_total{route="/v1/jobs/{id}",`), jobs),
		"certcache.hit_ratio":           ratio(hits, lookups),
		"store.certs.syncs_per_op":      ratio(d(`adaserved_store_syncs_total{store="certs"}`), ops),
		"store.certs.bytes_per_op":      ratio(d(`adaserved_store_append_bytes_total{store="certs"}`), ops),
		"store.jobs.syncs_per_job":      ratio(d(`adaserved_store_syncs_total{store="jobs"}`), jobs),
		"store.jobs.bytes_per_job":      ratio(d(`adaserved_store_append_bytes_total{store="jobs"}`), jobs),
	}
}
