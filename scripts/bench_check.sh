#!/usr/bin/env sh
# Bench-regression gate for CI: re-runs the guarded benchmarks
# (BenchmarkDecode, BenchmarkDecodeQuantized, the float path at D=1 and
# D=2, the noisy decodes at the benchmark workloads' three block shapes
# — daemon-paper's 528 bits at B=256, daemon-small's 144 bits at B=16
# and fetch-delay4's 1024 bits at B=16 — BenchmarkLinkEngine,
# BenchmarkLinkEnginePaper — one engine at B=256 with 16 flows and a
# two-way codec fan-out, the decoder's beam ladder —
# BenchmarkFetchDelayed, the delayed-ack fetch whose allocs/op would
# grow by a third if segments were resubmitted again, and
# BenchmarkDaemonSaturated, a 2-shard B=256 daemon over loopback, the
# only guarded run where one shard can stall another) and compares them
# against the newest checked-in BENCH_*.json snapshot (scripts/bench.sh
# writes it).
#
# BenchmarkDaemonSaturated's client runs in the daemon's process and
# shares its two Ps with the shards, so its flows/s mixes the Go
# scheduling of that client with the daemon's own cost. It guards
# against gross regressions only; bench/'s workloads, whose client is a
# separate process, are the daemon-only measure.
#
# Thresholds and their rationale:
#   - A benchmark fails when it exceeds its baseline by more than 20%.
#     That is deliberately loose: shared runners routinely jitter ±10%
#     run to run, and taking the best of three runs absorbs most of the
#     rest. Real regressions in these hot paths — an allocation sneaking
#     into the decode loop, a decoder cache silently rebuilt per call —
#     show up as 2x, not 1.2x. Tighten only with a dedicated runner.
#   - ns/op is only compared when the current CPU matches the CPU
#     recorded in the snapshot; across different hardware a wall-time
#     ratio measures the machines, not the code. On foreign hardware the
#     gate falls back to allocs/op, which is deterministic per code
#     version, and reports ns/op informationally.
#
# Usage: scripts/bench_check.sh [benchtime]   (default 1s)
set -eu
cd "$(dirname "$0")/.."
benchtime="${1:-1s}"

baseline="$(ls BENCH_*.json 2>/dev/null | sort | tail -1)"
if [ -z "$baseline" ]; then
    echo "bench_check: no BENCH_*.json baseline; run scripts/bench.sh first" >&2
    exit 1
fi
echo "bench_check: comparing against $baseline"

tmp="$(mktemp)"
best="$(mktemp)"
trap 'rm -f "$tmp" "$best"' EXIT

go test -run '^$' -bench 'BenchmarkDecode$|BenchmarkDecodeQuantized$|BenchmarkDecodeFloat256$|BenchmarkDecodeLookahead$|BenchmarkDecodeNoisyPaper$|BenchmarkDecodeNoisySmall$|BenchmarkDecodeNoisyFetch$' \
    -benchtime "$benchtime" -benchmem -count 3 . >"$tmp"
go test -run '^$' -bench 'BenchmarkLinkEngine$|BenchmarkLinkEnginePaper$' -benchtime "$benchtime" -benchmem -count 3 ./internal/link/ >>"$tmp"
go test -run '^$' -bench 'BenchmarkFetchDelayed$' -benchtime "$benchtime" -benchmem -count 3 ./internal/transport/ >>"$tmp"
go test -run '^$' -bench 'BenchmarkDaemonSaturated$' -benchtime "$benchtime" -benchmem -count 3 ./internal/daemon/ >>"$tmp"

base_cpu="$(sed -n 's/.*"cpu": "\([^"]*\)".*/\1/p' "$baseline" | head -1)"
now_cpu="$(awk '/^cpu:/ { print substr($0, 6); exit }' "$tmp" | sed 's/^ *//')"
gate=ns
if [ "$base_cpu" != "$now_cpu" ]; then
    gate=allocs
    echo "bench_check: baseline CPU ($base_cpu) != this machine ($now_cpu);" \
         "gating allocs/op only, ns/op is informational" >&2
fi

# Best (minimum) ns/op and allocs/op per benchmark across the runs.
awk '/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    ns = $3 + 0
    allocs = ""
    for (i = 4; i <= NF; i++) if ($(i+1) == "allocs/op") allocs = $i + 0
    if (!(name in minNs) || ns < minNs[name]) minNs[name] = ns
    if (allocs != "" && (!(name in minAl) || allocs < minAl[name])) minAl[name] = allocs
}
END { for (n in minNs) printf "%s %s %s\n", n, minNs[n], (n in minAl ? minAl[n] : -1) }' "$tmp" >"$best"

status=0
while read -r name ns allocs; do
    base_ns="$(sed -n 's/.*"name": "'"$name"'".*"ns_per_op": \([0-9.eE+]*\).*/\1/p' "$baseline" | head -1)"
    base_allocs="$(sed -n 's/.*"name": "'"$name"'".*"allocs_per_op": \([0-9]*\).*/\1/p' "$baseline" | head -1)"
    if [ -z "$base_ns" ]; then
        echo "bench_check: $name missing from $baseline — run scripts/bench.sh to refresh the baseline" >&2
        status=1
        continue
    fi
    if ! awk -v n="$name" -v now_ns="$ns" -v base_ns="$base_ns" \
             -v now_al="$allocs" -v base_al="${base_allocs:--1}" -v gate="$gate" 'BEGIN {
        ns_ratio = now_ns / base_ns
        printf "bench_check: %-22s ns/op %.0f -> %.0f (%.2fx)", n, base_ns, now_ns, ns_ratio
        if (base_al >= 0 && now_al >= 0)
            printf "  allocs/op %d -> %d", base_al, now_al
        printf "  [gate: %s]\n", gate
        if (gate == "ns") exit !(ns_ratio <= 1.20)
        if (base_al > 0 && now_al >= 0) exit !(now_al / base_al <= 1.20)
        if (base_al == 0 && now_al > 0) exit 1
        exit 0
    }'; then
        echo "bench_check: $name regressed beyond the 20% gate" >&2
        status=1
    fi
done <"$best"

# Zero-allocation gate for the quantized kernel at two operating points:
# BenchmarkDecodeQuantized (256-bit message, one puncturing pass, B=32)
# and BenchmarkDecodeNoisyFetch (1024-bit noisy block at B=16, whose
# steps are cut into two expansion blocks). Only the allocation half is
# absolute: zero steady-state allocs/op is deterministic on every
# machine. Latency is gated relatively — best-of-3 ns/op against the
# newest BENCH_*.json through the same 20% threshold as the loop above,
# CPU-matched runs only. (This replaces the old absolute "<1 ms" line,
# which measured the CI runner rather than the code and flaked on slow
# shared machines; on foreign CPUs the ratio below is informational.)
for zero in BenchmarkDecodeQuantized BenchmarkDecodeNoisyFetch; do
    if ! awk -v n="$zero" -v gate="$gate" '$1 == n {
        found = 1
        printf "bench_check: %-22s ns/op %.0f  allocs/op %d  [gate: 0 allocs absolute; ns relative (%s)]\n", $1, $2, $3, gate
        if ($3 + 0 != 0) exit 1
    }
    END { if (!found) exit 1 }' "$best"; then
        echo "bench_check: $zero missing or allocating on the hot path" >&2
        status=1
    fi
done
exit $status
