#!/usr/bin/env sh
# Runs the core microbenchmarks and writes a machine-readable snapshot
# (BENCH_<date>.json) so successive changes can be compared against a
# recorded baseline. Each benchmark runs three times and the snapshot
# keeps the best (minimum) ns/op, B/op and allocs/op, which is what
# scripts/bench_check.sh compares against it: one sample taken in a slow
# phase of a shared machine would otherwise loosen the gate.
# Usage: scripts/bench.sh [benchtime]
set -eu

cd "$(dirname "$0")/.."
benchtime="${1:-2s}"
out="BENCH_$(date +%Y%m%d).json"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

go test -run '^$' \
    -bench 'BenchmarkDecode$|BenchmarkEncoder$|BenchmarkDecodeQuantized$|BenchmarkDecodeQuantized256$|BenchmarkDecodeFloat256$|BenchmarkDecodeLookahead$|BenchmarkDecodeNoisyPaper$|BenchmarkDecodeNoisySmall$|BenchmarkDecodeNoisyFetch$' \
    -benchtime "$benchtime" -benchmem -count 3 . >"$tmp"
go test -run '^$' -bench 'BenchmarkFinishWords$|BenchmarkChildrenPrefixes$|BenchmarkExpandScore$|BenchmarkFinishScore$' \
    -benchtime "$benchtime" -benchmem -count 3 ./internal/hashfn/ >>"$tmp"
go test -run '^$' -bench 'BenchmarkBuildDistTables$|BenchmarkSortKeys16$' \
    -benchtime "$benchtime" -benchmem -count 3 ./internal/hw/ >>"$tmp"
go test -run '^$' -bench 'BenchmarkLinkEngine$|BenchmarkLinkEnginePaper$' \
    -benchtime "$benchtime" -benchmem -count 3 ./internal/link/ >>"$tmp"
go test -run '^$' -bench 'BenchmarkFetchPipeline$|BenchmarkFetchDelayed$' \
    -benchtime "$benchtime" -benchmem -count 3 ./internal/transport/ >>"$tmp"
go test -run '^$' -bench 'BenchmarkDaemonSaturated$' \
    -benchtime "$benchtime" -benchmem -count 3 ./internal/daemon/ >>"$tmp"

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
BEGIN { n = 0 }
/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    b = ""; a = ""
    for (i = 4; i <= NF; i++) {
        if ($(i+1) == "B/op") b = $i
        if ($(i+1) == "allocs/op") a = $i
    }
    if (!(name in idx)) {
        idx[name] = n; names[n] = name; ns[n] = $3; iters[n] = $2
        bytes[n] = b; allocs[n] = a; n++
        next
    }
    k = idx[name]
    if ($3 + 0 < ns[k] + 0) { ns[k] = $3; iters[k] = $2 }
    if (b != "" && b + 0 < bytes[k] + 0) bytes[k] = b
    if (a != "" && a + 0 < allocs[k] + 0) allocs[k] = a
}
/^(goos|goarch|cpu):/ { meta[$1] = substr($0, index($0, " ") + 1) }
END {
    printf "{\n  \"date\": \"%s\",\n", date
    printf "  \"goos\": \"%s\",\n  \"goarch\": \"%s\",\n  \"cpu\": \"%s\",\n", \
        meta["goos:"], meta["goarch:"], meta["cpu:"]
    printf "  \"benchmarks\": [\n"
    for (i = 0; i < n; i++) {
        printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}%s\n", \
            names[i], iters[i], ns[i], \
            (bytes[i] == "" ? "null" : bytes[i]), \
            (allocs[i] == "" ? "null" : allocs[i]), \
            (i < n-1 ? "," : "")
    }
    printf "  ]\n}\n"
}' "$tmp" >"$out"

echo "wrote $out"
cat "$out"
