#!/usr/bin/env bash
# Builds `grca` and the benchmark from the checkout's sources into
# .bench_build/, then runs one benchmark workload. Run it from the root of
# the repository:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
#
# Every byte the build and the run write stays under .bench_build/: the
# Go build cache and temp files are pointed there too.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off

go build -o "$out/grca" ./cmd/grca
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -grca "$out/grca" -work "$out" "$@"
