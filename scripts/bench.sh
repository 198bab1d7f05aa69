#!/usr/bin/env sh
# Runs the core microbenchmarks and writes a machine-readable snapshot
# (BENCH_<date>.json) so successive changes can be compared against a
# recorded baseline. Usage: scripts/bench.sh [benchtime]
set -eu

cd "$(dirname "$0")/.."
benchtime="${1:-2s}"
out="BENCH_$(date +%Y%m%d).json"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

go test -run '^$' \
    -bench 'BenchmarkDecode$|BenchmarkEncoder$|BenchmarkDecodeQuantized$|BenchmarkDecodeQuantized256$|BenchmarkDecodeFloat256$|BenchmarkDecodeLookahead$|BenchmarkDecodeNoisyPaper$|BenchmarkDecodeNoisySmall$|BenchmarkDecodeNoisyFetch$' \
    -benchtime "$benchtime" -benchmem . >"$tmp"
go test -run '^$' -bench 'BenchmarkFinishWords$|BenchmarkChildrenPrefixes$|BenchmarkExpandScore$|BenchmarkFinishScore$' \
    -benchtime "$benchtime" -benchmem ./internal/hashfn/ >>"$tmp"
go test -run '^$' -bench 'BenchmarkBuildDistTables$|BenchmarkSortKeys16$' \
    -benchtime "$benchtime" -benchmem ./internal/hw/ >>"$tmp"
go test -run '^$' -bench 'BenchmarkLinkEngine$|BenchmarkLinkEnginePaper$' \
    -benchtime "$benchtime" -benchmem ./internal/link/ >>"$tmp"
go test -run '^$' -bench 'BenchmarkFetchPipeline$|BenchmarkFetchDelayed$' \
    -benchtime "$benchtime" -benchmem ./internal/transport/ >>"$tmp"
go test -run '^$' -bench 'BenchmarkDaemonSaturated$' \
    -benchtime "$benchtime" -benchmem ./internal/daemon/ >>"$tmp"

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
BEGIN { n = 0 }
/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    ns[n] = $3; bytes[n] = ""; allocs[n] = ""
    for (i = 4; i <= NF; i++) {
        if ($(i+1) == "B/op") bytes[n] = $i
        if ($(i+1) == "allocs/op") allocs[n] = $i
    }
    names[n] = name; iters[n] = $2; n++
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
