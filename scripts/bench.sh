#!/bin/sh
# JSR benchmark snapshot: runs the pinned JSR-path benchmarks (design
# synthesis, certificate hot path, the zero-alloc expand kernel, the
# served EstimateCtx call and its brute-force pre-pass on the lifted
# PMSM set at one and two workers, and the weakly-hard analysis, whose
# constrained searches run on the same engines) and rewrites
# BENCH_jsr.json, the committed record of the engine's throughput and
# allocation behavior.
#
# Each benchmark runs -count times and the snapshot records the MINIMUM
# ns/op across runs: the minimum is the least noisy estimator of the
# true cost on a shared host (noise only ever adds time). B/op and
# allocs/op come from -benchmem in a second, single -cpu 1 pass: with
# one OS thread running Go code the runtime's own allocations no longer
# depend on scheduling, so a row whose engine runs two workers (the w2
# rows) reads the same count on every run, and bench_compare.sh can
# gate allocs/op exactly. A row the -cpu 1 pass does not report keeps
# the first pass's minimum. The warm expand loop is pinned at zero
# allocations, so any increase is a regression, not noise.
#
# The pinned benchtime keeps iteration counts comparable across
# snapshots; absolute ns/op still depends on the host, which is why the
# host fields (goos/goarch/cpu, GOMAXPROCS, go version) are part of the
# record.
#
# Usage: scripts/bench.sh [output.json]
#   BENCHTIME=2x COUNT=1 scripts/bench.sh   # override the pins
set -eu

cd "$(dirname "$0")/.."

out="${1:-BENCH_jsr.json}"
benchtime="${BENCHTIME:-5x}"
count="${COUNT:-3}"
pattern='^(BenchmarkStabilityCertificate|BenchmarkDesignSynthesis|BenchmarkJSRExpand|BenchmarkBruteForcePMSM|BenchmarkEstimatePMSM|BenchmarkWeaklyHard)$'

raw="$(go test -run '^$' -bench "$pattern" -benchtime "$benchtime" -count "$count" -benchmem . ./internal/jsr)"
printf '%s\n' "$raw"
mem="$(go test -run '^$' -bench "$pattern" -benchtime "$benchtime" -count 1 -cpu 1 -benchmem . ./internal/jsr)"
printf '%s\n' "$mem"

printf '%s\n== cpu1 ==\n%s\n' "$raw" "$mem" | awk -v benchtime="$benchtime" -v count="$count" -v goversion="$(go env GOVERSION)" '
function jstr(s) { gsub(/\\/, "\\\\", s); gsub(/"/, "\\\"", s); return "\"" s "\"" }
/^== cpu1 ==$/ { cpu1 = 1; next }
/^goos:/   { goos = $2 }
/^goarch:/ { goarch = $2 }
/^cpu:/    { cpu = $0; sub(/^cpu:[ \t]*/, "", cpu) }
cpu1 && /^Benchmark/ {
    # The -cpu 1 pass: names carry no -GOMAXPROCS suffix.
    for (i = 3; i < NF; i++) {
        if ($(i+1) == "B/op") memb[$1] = $i
        else if ($(i+1) == "allocs/op") mema[$1] = $i
    }
    next
}
/^Benchmark/ {
    # Fields: Name iters X ns/op [Y B/op Z allocs/op]. The -GOMAXPROCS
    # suffix is recorded once and stripped so names stay stable across
    # hosts; go test leaves it off when GOMAXPROCS is 1.
    name = $1
    if (match(name, /-[0-9]+$/)) procs = substr(name, RSTART + 1)
    else procs = 1
    sub(/-[0-9]+$/, "", name)
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
    print "  \"gomaxprocs\": " procs ","
    print "  \"benchmarks\": ["
    for (i = 0; i < n; i++) {
        name = order[i]
        if (name in mema) { minb[name] = memb[name]; mina[name] = mema[name] }
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

