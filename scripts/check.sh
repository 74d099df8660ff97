#!/bin/sh
# Extended verification gate: build, vet, adalint, race-enabled tests.
# Run from anywhere inside the repo; exits non-zero on the first failure.
set -eu

cd "$(dirname "$0")/.."

tmpdir="$(mktemp -d)"
# On any exit, stop a server a failed stage left running, then clean up.
served_pid=""
trap 'if [ -n "$served_pid" ]; then kill "$served_pid" 2>/dev/null || true; fi; rm -rf "$tmpdir"' EXIT

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== adalint ./... (full suite, suppression accounting included)"
go build -o "$tmpdir/adalint" ./cmd/adalint
"$tmpdir/adalint" ./...

echo "== go test -race ./internal/jsr/ ./internal/sim/ (worker-invariance under the race detector)"
go test -race ./internal/jsr/ ./internal/sim/

echo "== go test -race ./..."
go test -race ./...

# Each fuzz stage caps the minimization of a new interesting input at
# 200 runs: the default 60 s minimization uses up a whole time box, and
# the stage then logs 0 execs/sec until the box closes.
echo "== fuzz DecodeRequest against encoding/json (time-boxed)"
go test ./internal/api -run '^$' -fuzz '^FuzzDecodeRequest$' -fuzztime 20s \
    -fuzzminimizetime 200x

echo "== fuzz the pre-product Frobenius bound against the product's norm bounds (time-boxed)"
go test ./internal/mat -run '^$' -fuzz '^FuzzProductFroBound$' -fuzztime 10s \
    -fuzzminimizetime 200x

echo "== bench self-test (bench/ is its own module, so go test ./... never reaches it)"
(cd bench && go test -short ./...)

echo "== interruption smoke: jsrtool -timeout cuts with a valid bracket, -resume matches a fresh run, malformed input exits 2 without a panic"
go build -o "$tmpdir/jsrtool" ./cmd/jsrtool
cat > "$tmpdir/set.json" <<'EOF'
[ [[0.55, 0.55], [0, 0.55]],
  [[0.55, 0], [0.55, 0.55]] ]
EOF
# Reference: uninterrupted run, capturing the certified bracket line.
"$tmpdir/jsrtool" -in "$tmpdir/set.json" -delta 1e-4 -depth 24 > "$tmpdir/full.out"
grep '^JSR in' "$tmpdir/full.out" > "$tmpdir/full.bracket"
# Interrupted run: must exit 5 and still print a valid best-so-far bracket.
set +e
"$tmpdir/jsrtool" -in "$tmpdir/set.json" -delta 1e-4 -depth 24 \
    -timeout 1ns -checkpoint "$tmpdir/ck" > "$tmpdir/cut.out"
cut_status=$?
set -e
if [ "$cut_status" -ne 5 ]; then
    echo "error: interrupted jsrtool exited $cut_status, want 5" >&2
    exit 1
fi
grep -q '^JSR in' "$tmpdir/cut.out" || {
    echo "error: interrupted jsrtool printed no bracket" >&2
    exit 1
}
grep -q 'interrupted (deadline)' "$tmpdir/cut.out" || {
    echo "error: interrupted jsrtool did not report the deadline cut" >&2
    exit 1
}
test -f "$tmpdir/ck" || {
    echo "error: interrupted jsrtool left no checkpoint" >&2
    exit 1
}
# Resumed run: must complete with a bracket bit-identical to the fresh run
# and clean up its checkpoint.
"$tmpdir/jsrtool" -in "$tmpdir/set.json" -delta 1e-4 -depth 24 \
    -checkpoint "$tmpdir/ck" -resume > "$tmpdir/resumed.out"
grep '^JSR in' "$tmpdir/resumed.out" > "$tmpdir/resumed.bracket"
if ! cmp -s "$tmpdir/full.bracket" "$tmpdir/resumed.bracket"; then
    echo "error: resumed bracket differs from a fresh run:" >&2
    cat "$tmpdir/full.bracket" "$tmpdir/resumed.bracket" >&2
    exit 1
fi
if [ -e "$tmpdir/ck" ]; then
    echo "error: completed resume left its checkpoint behind" >&2
    exit 1
fi
# Non-stable verdicts are completed runs too: an UNSTABLE certification
# must also remove its checkpoint (regression: cleanup used to be
# reachable only from the STABLE branch).
cat > "$tmpdir/unstable.json" <<'EOF'
[ [[1.2, 0], [0, 1.2]] ]
EOF
set +e
"$tmpdir/jsrtool" -in "$tmpdir/unstable.json" -delta 1e-3 -depth 8 \
    -checkpoint "$tmpdir/ck-unstable" > "$tmpdir/unstable.out"
unstable_status=$?
set -e
if [ "$unstable_status" -ne 3 ]; then
    echo "error: unstable-set jsrtool exited $unstable_status, want 3" >&2
    exit 1
fi
if [ -e "$tmpdir/ck-unstable" ]; then
    echo "error: UNSTABLE verdict left its checkpoint behind" >&2
    exit 1
fi
# A ragged matrix on stdin is an input error: exit 2 with a jsrtool:
# line. A Go panic also exits 2, so stderr must hold no panic trace.
set +e
printf '[[[1,2],[3]]]' | "$tmpdir/jsrtool" > /dev/null 2> "$tmpdir/ragged.err"
ragged_status=$?
set -e
if [ "$ragged_status" -ne 2 ] || ! grep -q '^jsrtool: ' "$tmpdir/ragged.err" \
    || grep -q 'panic:\|goroutine' "$tmpdir/ragged.err"; then
    echo "error: ragged input exited $ragged_status, want 2 with a jsrtool: error and no panic:" >&2
    cat "$tmpdir/ragged.err" >&2
    exit 1
fi

echo "== interruption smoke: adactl report stops on SIGINT, exits 5 and writes no report"
go build -o "$tmpdir/adactl" ./cmd/adactl
set +e
timeout --preserve-status -s INT -k 10 1 "$tmpdir/adactl" report -o "$tmpdir/report.md" \
    > "$tmpdir/report.out" 2>&1
report_status=$?
set -e
if [ "$report_status" -ne 5 ]; then
    echo "error: interrupted adactl report exited $report_status, want 5" >&2
    cat "$tmpdir/report.out" >&2
    exit 1
fi
if [ -e "$tmpdir/report.md" ]; then
    echo "error: interrupted adactl report left a report file" >&2
    exit 1
fi

echo "== interruption smoke: adactl jitter stops on SIGINT, exits 5 and prints no table"
set +e
timeout --preserve-status -s INT -k 10 1 "$tmpdir/adactl" jitter -runs 20000 \
    > "$tmpdir/jitter.out" 2>&1
jitter_status=$?
set -e
if [ "$jitter_status" -ne 5 ]; then
    echo "error: interrupted adactl jitter exited $jitter_status, want 5" >&2
    cat "$tmpdir/jitter.out" >&2
    exit 1
fi
if grep -q 'jitter/Ts' "$tmpdir/jitter.out"; then
    echo "error: interrupted adactl jitter printed a table" >&2
    cat "$tmpdir/jitter.out" >&2
    exit 1
fi

# start_served LOG FLAGS... runs adaserved on a free loopback port with
# its output in LOG, waits for the "listening on" line, and sets
# served_pid and base. The EXIT trap stops a server a failed check
# leaves running.
start_served() {
    log="$1"
    shift
    "$tmpdir/adaserved" -addr 127.0.0.1:0 "$@" > "$log" 2>&1 &
    served_pid=$!
    port=""
    for _ in $(seq 1 100); do
        port="$(sed -n 's/^listening on .*:\([0-9][0-9]*\).*$/\1/p' "$log")"
        [ -n "$port" ] && break
        sleep 0.1
    done
    if [ -z "$port" ]; then
        echo "error: adaserved never reported its listen address:" >&2
        cat "$log" >&2
        exit 1
    fi
    base="http://127.0.0.1:$port"
}

echo "== service smoke: adaserved certifies the paper example, matches jsrtool, caches, and shuts down cleanly"
go build -o "$tmpdir/adaserved" ./cmd/adaserved
cat > "$tmpdir/req.json" <<'EOF'
{"version":1,"matrices":[[[0.55,0.55],[0,0.55]],[[0.55,0],[0.55,0.55]]]}
EOF
start_served "$tmpdir/served.out" -cache-dir "$tmpdir/servecache"
# First POST: computed fresh.
curl -sS -D "$tmpdir/h1" -o "$tmpdir/r1.json" \
    -X POST --data @"$tmpdir/req.json" "$base/v1/certify"
grep -qi '^X-Cache: miss' "$tmpdir/h1" || {
    echo "error: first certify was not a cache miss:" >&2
    cat "$tmpdir/h1" "$tmpdir/r1.json" >&2
    exit 1
}
# The served verdict and bracket must match a fresh jsrtool run on the
# same matrices with the same (default) budgets.
"$tmpdir/jsrtool" -in "$tmpdir/set.json" > "$tmpdir/tool.out"
tool_bracket="$(sed -n 's/^JSR in \(\[[^]]*\]\).*/\1/p' "$tmpdir/tool.out")"
served_bracket="$(sed -n 's/.*"bracket":"\([^"]*\)".*/\1/p' "$tmpdir/r1.json")"
if [ -z "$tool_bracket" ] || [ "$tool_bracket" != "$served_bracket" ]; then
    echo "error: served bracket '$served_bracket' != jsrtool bracket '$tool_bracket'" >&2
    exit 1
fi
grep -q '"verdict":"stable"' "$tmpdir/r1.json" || {
    echo "error: service verdict is not stable:" >&2
    cat "$tmpdir/r1.json" >&2
    exit 1
}
# Second POST: served from the cache, byte-identical body.
curl -sS -D "$tmpdir/h2" -o "$tmpdir/r2.json" \
    -X POST --data @"$tmpdir/req.json" "$base/v1/certify"
grep -qi '^X-Cache: hit' "$tmpdir/h2" || {
    echo "error: second certify was not a cache hit:" >&2
    cat "$tmpdir/h2" >&2
    exit 1
}
cmp -s "$tmpdir/r1.json" "$tmpdir/r2.json" || {
    echo "error: cached response is not byte-identical to the computed one" >&2
    exit 1
}
# Liveness and metrics surfaces.
curl -sS -o "$tmpdir/healthz.out" "$base/healthz" && grep -q '"status":"ok"' "$tmpdir/healthz.out" || {
    echo "error: /healthz not ok" >&2
    exit 1
}
curl -sS -o "$tmpdir/metrics.out" "$base/metrics" && grep -q '^adaserved_cache_misses_total 1$' "$tmpdir/metrics.out" || {
    echo "error: /metrics does not report exactly one computation" >&2
    exit 1
}
# SIGTERM: graceful drain and clean exit.
kill -TERM "$served_pid"
set +e
wait "$served_pid"
served_status=$?
set -e
served_pid=""
if [ "$served_status" -ne 0 ]; then
    echo "error: adaserved exited $served_status on SIGTERM, want 0:" >&2
    cat "$tmpdir/served.out" >&2
    exit 1
fi
grep -q '^bye$' "$tmpdir/served.out" || {
    echo "error: adaserved did not report a graceful shutdown" >&2
    exit 1
}

echo "== chaos smoke: disk fault degrades the cache, sheds carry Retry-After, a retry after Retry-After converges"
# -store-segment 32 makes every put after the first rotate the
# segmented log, so the yanked directory below is felt on the very
# next record — appends to the already-open segment file descriptor
# would otherwise keep succeeding against an unlinked file. (A
# header-only segment is exempt from rotation, hence the priming
# request before the yank.)
start_served "$tmpdir/chaos.out" -cache-dir "$tmpdir/chaoscache" \
    -store-segment 32 -rate 1 -burst 1 -cache-probe 50ms
# Prime one record into the active segment. Rotation skips a segment
# holding nothing but its header (rotating an empty segment would spin
# forever), so the put after the yank needs a non-empty active segment
# to reach the rotation path and its MkdirAll.
curl -sS -o "$tmpdir/chprime.json" -H 'X-Client-ID: primer' \
    -X POST -d '{"version":1,"matrices":[[[0.5]]]}' "$base/v1/certify"
grep -q '"verdict":' "$tmpdir/chprime.json" || {
    echo "error: priming certify before the disk yank failed:" >&2
    cat "$tmpdir/chprime.json" >&2
    exit 1
}
# Yank the disk out from under the certificate cache: a plain file
# where the certs directory should be fails every write with ENOTDIR —
# even for root, which ignores permission bits, so a chmod-based fault
# would not fire here.
rm -rf "$tmpdir/chaoscache/certs"
touch "$tmpdir/chaoscache/certs"
# The request still certifies: persistence failure demotes the cache to
# memory-only instead of failing the caller.
curl -sS -D "$tmpdir/chh1" -o "$tmpdir/chr1.json" -H 'X-Client-ID: smoke' \
    -X POST --data @"$tmpdir/req.json" "$base/v1/certify"
grep -q '"verdict":"stable"' "$tmpdir/chr1.json" || {
    echo "error: certify on a broken disk did not still certify:" >&2
    cat "$tmpdir/chr1.json" >&2
    exit 1
}
curl -sS -o "$tmpdir/healthz.out" "$base/healthz" && grep -q '"cache_degraded":true' "$tmpdir/healthz.out" || {
    echo "error: /healthz does not report the degraded cache" >&2
    exit 1
}
curl -sS -o "$tmpdir/metrics.out" "$base/metrics" && grep -q '^adaserved_cache_demotions_total [1-9]' "$tmpdir/metrics.out" || {
    echo "error: /metrics does not count the cache demotion" >&2
    exit 1
}
# An immediate second request outruns the 1-token bucket: an honest 429
# that tells the client when to come back.
shed_status="$(curl -sS -D "$tmpdir/chh2" -o "$tmpdir/chr2.json" -w '%{http_code}' \
    -H 'X-Client-ID: smoke' -X POST --data @"$tmpdir/req.json" "$base/v1/certify")"
if [ "$shed_status" != 429 ]; then
    echo "error: burst POST got $shed_status, want 429" >&2
    exit 1
fi
grep -qi '^Retry-After: [0-9]' "$tmpdir/chh2" || {
    echo "error: 429 shed does not carry a Retry-After header:" >&2
    cat "$tmpdir/chh2" >&2
    exit 1
}
grep -q '"retry_after_seconds":' "$tmpdir/chr2.json" || {
    echo "error: 429 body does not carry retry_after_seconds:" >&2
    cat "$tmpdir/chr2.json" >&2
    exit 1
}
# Honour the shed: sleep for the Retry-After the 429 named and re-POST
# under the same client id. The retry must land, with bytes identical
# to the degraded miss and the bracket of a fresh jsrtool run on the
# same matrices.
retry_after="$(sed -n 's/^[Rr]etry-[Aa]fter: *\([0-9][0-9]*\).*$/\1/p' "$tmpdir/chh2")"
sleep "$retry_after"
retry_status="$(curl -sS -o "$tmpdir/chretry.json" -w '%{http_code}' \
    -H 'X-Client-ID: smoke' -X POST --data @"$tmpdir/req.json" "$base/v1/certify")"
if [ "$retry_status" != 200 ]; then
    echo "error: POST after the ${retry_after}s Retry-After got $retry_status, want 200:" >&2
    cat "$tmpdir/chretry.json" >&2
    exit 1
fi
"$tmpdir/jsrtool" -in "$tmpdir/set.json" > "$tmpdir/chtool.out"
chaos_tool_bracket="$(sed -n 's/^JSR in \(\[[^]]*\]\).*/\1/p' "$tmpdir/chtool.out")"
retry_bracket="$(sed -n 's/.*"bracket":"\([^"]*\)".*/\1/p' "$tmpdir/chretry.json")"
if [ -z "$chaos_tool_bracket" ] || [ "$retry_bracket" != "$chaos_tool_bracket" ]; then
    echo "error: retried bracket '$retry_bracket' != fresh jsrtool bracket '$chaos_tool_bracket'" >&2
    exit 1
fi
cmp -s "$tmpdir/chr1.json" "$tmpdir/chretry.json" || {
    echo "error: retried bytes differ from the server's canonical response" >&2
    exit 1
}
# Heal the disk. The next certifications trigger the recovery probe
# (every -cache-probe), which re-promotes the persistent layer.
rm -f "$tmpdir/chaoscache/certs"
recovered=""
for i in 1 2 3 4 5; do
    sleep 0.2
    printf '{"version":1,"matrices":[[[0.3%s]]]}' "$i" > "$tmpdir/chheal.json"
    curl -sS -o /dev/null -H "X-Client-ID: heal$i" \
        -X POST --data @"$tmpdir/chheal.json" "$base/v1/certify"
    if curl -sS -o "$tmpdir/healthz.out" "$base/healthz" && grep -q '"cache_degraded":false' "$tmpdir/healthz.out"; then
        recovered=yes
        break
    fi
done
if [ -z "$recovered" ]; then
    echo "error: cache never recovered after the disk healed" >&2
    curl -sS "$base/healthz" >&2 || true
    exit 1
fi
curl -sS -o "$tmpdir/metrics.out" "$base/metrics" && grep -q '^adaserved_cache_recoveries_total [1-9]' "$tmpdir/metrics.out" || {
    echo "error: /metrics does not count the cache recovery" >&2
    exit 1
}
kill -TERM "$served_pid"
set +e
wait "$served_pid"
chaos_status=$?
set -e
served_pid=""
if [ "$chaos_status" -ne 0 ]; then
    echo "error: chaos adaserved exited $chaos_status on SIGTERM, want 0:" >&2
    cat "$tmpdir/chaos.out" >&2
    exit 1
fi

echo "== crash smoke: SIGKILL mid-load, restart serves acked certificates byte-identically"
# Small segments force rotations during the load, so the kill can land
# inside appends, rotations, and header writes alike; the restarted
# server must absorb whatever torn state is left and still serve every
# acknowledged certificate bit-for-bit.
start_served "$tmpdir/crash1.out" -cache-dir "$tmpdir/crashcache" -store-segment 4096
# Certify the paper example first: these bytes are acknowledged (the
# store fsyncs before the response) and must survive the kill.
curl -sS -o "$tmpdir/cr1.json" -X POST --data @"$tmpdir/req.json" "$base/v1/certify"
grep -q '"verdict":"stable"' "$tmpdir/cr1.json" || {
    echo "error: crash-smoke certify failed:" >&2
    cat "$tmpdir/cr1.json" >&2
    exit 1
}
# Background load: a stream of distinct tiny certifications keeps the
# log appending and rotating while the process is killed.
(
    i=0
    while :; do
        i=$((i+1))
        printf '{"version":1,"matrices":[[[0.%04d]]]}' "$i" > "$tmpdir/crload.json"
        curl -sS -o /dev/null -X POST --data @"$tmpdir/crload.json" "$base/v1/certify" 2>/dev/null || break
    done
) &
load_pid=$!
sleep 0.5
kill -9 "$served_pid" 2>/dev/null || true
set +e
wait "$served_pid" 2>/dev/null
wait "$load_pid" 2>/dev/null
set -e
# Restart over the same directory: startup must repair the torn tail,
# never refuse, and serve the acked certificate from disk unchanged.
start_served "$tmpdir/crash2.out" -cache-dir "$tmpdir/crashcache"
curl -sS -D "$tmpdir/crh2" -o "$tmpdir/cr2.json" \
    -X POST --data @"$tmpdir/req.json" "$base/v1/certify"
grep -qi '^X-Cache: hit' "$tmpdir/crh2" || {
    echo "error: acked certificate was not a cache hit after the crash:" >&2
    cat "$tmpdir/crh2" >&2
    exit 1
}
cmp -s "$tmpdir/cr1.json" "$tmpdir/cr2.json" || {
    echo "error: certificate served after the crash differs from the acked bytes" >&2
    exit 1
}
curl -sS -o "$tmpdir/healthz.out" "$base/healthz" && grep -q '"status":"ok"' "$tmpdir/healthz.out" || {
    echo "error: /healthz not ok after crash recovery" >&2
    exit 1
}
curl -sS -o "$tmpdir/metrics.out" "$base/metrics" && grep -q '^adaserved_store_appends_total{store="certs"}' "$tmpdir/metrics.out" || {
    echo "error: /metrics does not expose the store counters" >&2
    exit 1
}
kill -TERM "$served_pid"
set +e
wait "$served_pid"
crash2_status=$?
set -e
served_pid=""
if [ "$crash2_status" -ne 0 ]; then
    echo "error: restarted adaserved exited $crash2_status on SIGTERM, want 0:" >&2
    cat "$tmpdir/crash2.out" >&2
    exit 1
fi

echo "== overload smoke: a saturated queue sheds 503 with Retry-After"
# One worker, a one-slot queue, and long-grinding jobs: the lifted
# PMSM scenario (9×9 modes, certified as their 4- and 5-state
# invariant blocks) at a delta far below what the budget reaches runs
# for ~a second, and its brute-force work puts it on the async path. The third concurrent job has nowhere to go: 503, with a
# drain-rate Retry-After.
start_served "$tmpdir/overload.out" -workers 1 -queue 1 -timeout 2s
slow_req() {
    printf '{"version":1,"scenario":{"name":"pmsm"},"delta":%s,"depth":60,"max_nodes":90000000}' "$1"
}
slow_req 1e-12 > "$tmpdir/ov1.json"
slow_req 2e-12 > "$tmpdir/ov2.json"
slow_req 3e-12 > "$tmpdir/ov3.json"
curl -sS -o /dev/null -X POST --data @"$tmpdir/ov1.json" "$base/v1/certify"
# Wait until the single worker has actually picked the first job up, so
# the second one deterministically occupies the only queue slot.
running=""
for _ in $(seq 1 100); do
    if curl -sS -o "$tmpdir/healthz.out" "$base/healthz" && grep -q '"jobs_running":1' "$tmpdir/healthz.out"; then
        running=yes
        break
    fi
    sleep 0.05
done
if [ -z "$running" ]; then
    echo "error: first overload job never started running" >&2
    exit 1
fi
curl -sS -o /dev/null -X POST --data @"$tmpdir/ov2.json" "$base/v1/certify"
over_status="$(curl -sS -D "$tmpdir/ovh3" -o /dev/null -w '%{http_code}' \
    -X POST --data @"$tmpdir/ov3.json" "$base/v1/certify")"
if [ "$over_status" != 503 ]; then
    echo "error: overflow POST got $over_status, want 503" >&2
    exit 1
fi
grep -qi '^Retry-After: [0-9]' "$tmpdir/ovh3" || {
    echo "error: 503 shed does not carry a Retry-After header:" >&2
    cat "$tmpdir/ovh3" >&2
    exit 1
}
kill -TERM "$served_pid"
set +e
wait "$served_pid"
over_exit=$?
set -e
served_pid=""
if [ "$over_exit" -ne 0 ]; then
    echo "error: overload adaserved exited $over_exit on SIGTERM, want 0:" >&2
    cat "$tmpdir/overload.out" >&2
    exit 1
fi

echo "== async smoke: a brute-7 job takes the 202 path, ?watch=1 reaches done, and the bracket matches jsrtool"
# Four 2x2 matrices at brute depth 7: 4^7 = 16384 enumerated words is
# past the sync budget, so the request takes the async path. The set is
# the paper pair plus two lightly perturbed copies.
cat > "$tmpdir/aset.json" <<'EOF'
[ [[0.55, 0.55], [0, 0.55]],
  [[0.55, 0], [0.55, 0.55]],
  [[0.54, 0.55], [0, 0.56]],
  [[0.56, 0], [0.55, 0.54]] ]
EOF
cat > "$tmpdir/areq.json" <<'EOF'
{"version":1,"brute":7,"matrices":[[[0.55,0.55],[0,0.55]],[[0.55,0],[0.55,0.55]],[[0.54,0.55],[0,0.56]],[[0.56,0],[0.55,0.54]]]}
EOF
"$tmpdir/jsrtool" -brute 7 -in "$tmpdir/aset.json" > "$tmpdir/atool.out"
async_tool_bracket="$(sed -n 's/^JSR in \(\[[^]]*\]\).*/\1/p' "$tmpdir/atool.out")"

start_served "$tmpdir/async.out"
# Submit, long-poll the job via ?watch=1 to completion, then re-POST
# for the canonical cached bytes.
async_status="$(curl -sS -o "$tmpdir/ajob.json" -w '%{http_code}' \
    -X POST --data @"$tmpdir/areq.json" "$base/v1/certify")"
jid="$(sed -n 's/.*"job_id":"\([^"]*\)".*/\1/p' "$tmpdir/ajob.json")"
if [ "$async_status" != 202 ] || [ -z "$jid" ]; then
    echo "error: brute-7 request did not take the async path (HTTP $async_status):" >&2
    cat "$tmpdir/ajob.json" >&2
    exit 1
fi
astate=""
for _ in $(seq 1 120); do
    curl -sS -o "$tmpdir/ajobst.json" "$base/v1/jobs/$jid?watch=1"
    astate="$(sed -n 's/.*"state":"\([a-z]*\)".*/\1/p' "$tmpdir/ajobst.json")"
    case "$astate" in done|failed) break ;; esac
done
if [ "$astate" != done ]; then
    echo "error: async-smoke job ended in state '$astate':" >&2
    cat "$tmpdir/ajobst.json" >&2
    exit 1
fi
curl -sS -D "$tmpdir/ajobh" -o "$tmpdir/ares.json" -X POST --data @"$tmpdir/areq.json" "$base/v1/certify"
grep -qi '^X-Cache: hit' "$tmpdir/ajobh" || {
    echo "error: completed job was not served from the cache:" >&2
    cat "$tmpdir/ajobh" >&2
    exit 1
}
async_bracket="$(sed -n 's/.*"bracket":"\([^"]*\)".*/\1/p' "$tmpdir/ares.json")"
if [ -z "$async_tool_bracket" ] || [ "$async_bracket" != "$async_tool_bracket" ]; then
    echo "error: async bracket '$async_bracket' != jsrtool bracket '$async_tool_bracket'" >&2
    exit 1
fi
# SIGTERM: graceful drain and clean exit.
kill -TERM "$served_pid"
set +e
wait "$served_pid"
async_exit=$?
set -e
served_pid=""
if [ "$async_exit" -ne 0 ]; then
    echo "error: async adaserved exited $async_exit on SIGTERM, want 0:" >&2
    cat "$tmpdir/async.out" >&2
    exit 1
fi

echo "== benchmark smoke: served-path JSR estimate across worker counts"
go test -run '^$' -bench '^BenchmarkEstimatePMSM$' -benchtime 1x ./internal/jsr

echo "OK"
