#!/usr/bin/env bash
# Builds spinald and the benchmark from this checkout, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload daemon-paper --seed 1 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout, the Go build cache included, and no module is fetched.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go -C bench build -o "$out/spinald" spinal/cmd/spinald
go -C bench build -o "$out/bench" .
exec "$out/bench" -spinald "$out/spinald" -config "$root/BENCHMARK.json" "$@"
