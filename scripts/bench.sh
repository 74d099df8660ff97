#!/bin/sh
# JSR benchmark snapshot: runs the pinned JSR-path benchmarks (worker
# sweep, certificate hot path, the zero-alloc expand kernel, and the
# weakly-hard analysis, whose constrained searches run on the same
# engines) and rewrites BENCH_jsr.json, the committed record of the
# engine's throughput and allocation behavior.
#
# Each benchmark runs -count times and the snapshot records the MINIMUM
# ns/op across runs: the minimum is the least noisy estimator of the
# true cost on a shared host (noise only ever adds time). B/op and
# allocs/op come from -benchmem; the warm expand loop is pinned at zero
# allocations, so any increase is a regression, not noise.
#
# The pinned benchtime keeps iteration counts comparable across
# snapshots; absolute ns/op still depends on the host, which is why the
# host fields (goos/goarch/cpu, go version) are part of the record.
#
# Usage: scripts/bench.sh [output.json]
#   BENCHTIME=2x COUNT=1 scripts/bench.sh   # override the pins
set -eu

cd "$(dirname "$0")/.."

out="${1:-BENCH_jsr.json}"
benchtime="${BENCHTIME:-5x}"
count="${COUNT:-3}"
pattern='^(BenchmarkJSRWorkers|BenchmarkStabilityCertificate|BenchmarkDesignSynthesis|BenchmarkJSRExpand|BenchmarkBruteForcePMSM|BenchmarkWeaklyHard)$'

raw="$(go test -run '^$' -bench "$pattern" -benchtime "$benchtime" -count "$count" -benchmem . ./internal/jsr)"
printf '%s\n' "$raw"

printf '%s\n' "$raw" | awk -v benchtime="$benchtime" -v count="$count" -v goversion="$(go env GOVERSION)" '
function jstr(s) { gsub(/\\/, "\\\\", s); gsub(/"/, "\\\"", s); return "\"" s "\"" }
/^goos:/   { goos = $2 }
/^goarch:/ { goarch = $2 }
/^cpu:/    { cpu = $0; sub(/^cpu:[ \t]*/, "", cpu) }
/^Benchmark/ {
    # Fields: Name iters X ns/op [Y B/op Z allocs/op]. The -GOMAXPROCS
    # suffix is stripped so names stay stable across hosts.
    name = $1; sub(/-[0-9]+$/, "", name)
    ns = ""; bop = ""; aop = ""
    for (i = 3; i < NF; i++) {
        if ($(i+1) == "ns/op") ns = $i
        else if ($(i+1) == "B/op") bop = $i
        else if ($(i+1) == "allocs/op") aop = $i
    }
    if (ns == "") next
    if (!(name in seen)) {
        seen[name] = 1; order[n++] = name
        iters[name] = $2; minns[name] = ns; minb[name] = bop; mina[name] = aop
    } else {
        if (ns + 0 < minns[name] + 0) { minns[name] = ns; iters[name] = $2 }
        if (bop != "" && (minb[name] == "" || bop + 0 < minb[name] + 0)) minb[name] = bop
        if (aop != "" && (mina[name] == "" || aop + 0 < mina[name] + 0)) mina[name] = aop
    }
}
END {
    print "{"
    print "  \"benchtime\": " jstr(benchtime) ","
    print "  \"count\": " count ","
    print "  \"go\": " jstr(goversion) ","
    print "  \"goos\": " jstr(goos) ","
    print "  \"goarch\": " jstr(goarch) ","
    print "  \"cpu\": " jstr(cpu) ","
    print "  \"benchmarks\": ["
    for (i = 0; i < n; i++) {
        name = order[i]
        row = "    {\"name\": " jstr(name) ", \"iterations\": " iters[name] ", \"ns_per_op\": " minns[name]
        if (minb[name] != "") row = row ", \"b_per_op\": " minb[name]
        if (mina[name] != "") row = row ", \"allocs_per_op\": " mina[name]
        print row "}" (i < n-1 ? "," : "")
    }
    print "  ]"
    print "}"
}' > "$out"

# A snapshot with no benchmark rows means the pattern rotted.
grep -q '"name"' "$out" || {
    echo "error: no benchmark rows captured into $out" >&2
    exit 1
}
echo "wrote $out"

# --- serving-path snapshot -------------------------------------------
# Drives a real adaserved process with the adabench load generator and
# records end-to-end HTTP latency (p50/p95/p99) and throughput for the
# single-request and batch endpoints into BENCH_serve.json. Unlike the
# engine numbers above this includes the full serving stack: JSON
# decode, admission, cache lookup, and response encode.
#
#   SERVE_OUT=other.json scripts/bench.sh   # override the output path
#   SERVE_N=2000 SERVE_C=16 scripts/bench.sh # override the load shape
serve_out="${SERVE_OUT:-BENCH_serve.json}"
serve_n="${SERVE_N:-500}"
serve_c="${SERVE_C:-8}"

tmp="$(mktemp -d)"
serverpid=""
cleanup() {
    [ -n "$serverpid" ] && kill "$serverpid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

go build -o "$tmp/adaserved" ./cmd/adaserved
go build -o "$tmp/adabench" ./cmd/adabench

"$tmp/adaserved" -addr 127.0.0.1:0 > "$tmp/serve.log" 2>&1 &
serverpid=$!
addr=""
for _ in $(seq 1 100); do
    addr="$(sed -n 's/^listening on \([^ ]*\).*/\1/p' "$tmp/serve.log")"
    [ -n "$addr" ] && break
    kill -0 "$serverpid" 2>/dev/null || { cat "$tmp/serve.log" >&2; exit 1; }
    sleep 0.1
done
[ -n "$addr" ] || { echo "error: adaserved never reported its address" >&2; exit 1; }

"$tmp/adabench" -server "http://$addr" -n "$serve_n" -c "$serve_c" -out "$tmp/single.json"
"$tmp/adabench" -server "http://$addr" -n "$serve_n" -c "$serve_c" -batch 8 -out "$tmp/batch.json"

kill "$serverpid" 2>/dev/null || true
wait "$serverpid" 2>/dev/null || true
serverpid=""

printf '{\n"single": %s,\n"batch": %s\n}\n' "$(cat "$tmp/single.json")" "$(cat "$tmp/batch.json")" > "$serve_out"
grep -q '"ops_per_sec"' "$serve_out" || {
    echo "error: no serving rows captured into $serve_out" >&2
    exit 1
}
echo "wrote $serve_out"
