#!/bin/sh
# Builds the certifier benchmark and runs it from the repository root:
#
#   bash bench/run.sh --workload cold_gripenberg --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, temporary files, the binaries, the
# per-run server directories and the trace files.
set -eu

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/bin"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly

go -C "$root/bench" build -o "$out/bin/bench" .
exec "$out/bin/bench" -root "$root" "$@"
