#!/usr/bin/env sh
# Paired in-process A/B of one package's benchmarks: the working tree
# against BASE (any git revision).
#
# Whole-process timings on a shared or frequency-scaling machine drift
# by more than the changes worth measuring, so a single "before" number
# compared with a single "after" number mostly measures the machine.
# This script builds both sides' test binaries once, then runs them in
# alternating order (base first on odd pairs, new first on even ones),
# so slow drift hits both sides alike, and judges the change by the
# per-pair ratio new/base rather than by the two absolute medians.
#
# Steps:
#   1. git archive BASE into a temporary directory;
#   2. go test -c the package on both sides (GOPROXY=off: the module has
#      no dependencies, nothing is downloaded);
#   3. run PAIRS pairs, each side with -count 1 at BENCHTIME, from its
#      own package directory (so testdata resolves);
#   4. print, per benchmark (its name keeps the -GOMAXPROCS suffix, the
#      same on both sides), each side's ns/op median and quartiles and
#      median allocs/op, the median and quartiles of the pair ratio
#      new/base, and how many pairs the new side won (lower ns/op).
#
# It reports; it does not gate. A ratio whose quartiles straddle 1.00,
# or a win count near PAIRS/2, is no measured change.
#
# Usage: scripts/bench_pair.sh BASE PKG REGEX [PAIRS]
#   BASE   git revision to compare against (e.g. HEAD, main, a SHA)
#   PKG    package directory, e.g. ./internal/link
#   REGEX  -bench regex, e.g. 'BenchmarkLinkEngine$'
#   PAIRS  number of alternating pairs (default 10)
# Environment: BENCHTIME (default 1s).
set -eu
if [ $# -lt 3 ]; then
    echo "usage: scripts/bench_pair.sh BASE PKG REGEX [PAIRS]" >&2
    exit 2
fi
base_rev=$1
pkg=${2#./}
regex=$3
pairs=${4:-10}
benchtime=${BENCHTIME:-1s}
cd "$(dirname "$0")/.."
root=$(pwd)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git archive "$base_rev" | tar -x -C "$tmp/base"

export GOPROXY=off
echo "bench_pair: building $pkg at $base_rev and in the working tree" >&2
(cd "$tmp/base" && go test -c -o "$tmp/base.test" "./$pkg")
go test -c -o "$tmp/new.test" "./$pkg"

# run SIDE PAIR: one -count 1 run, appending "name pair side ns allocs".
run() {
    if [ "$1" = base ]; then dir="$tmp/base/$pkg"; else dir="$root/$pkg"; fi
    (cd "$dir" && "$tmp/$1.test" -test.run '^$' -test.bench "$regex" \
        -test.benchtime "$benchtime" -test.benchmem -test.count 1 \
        -test.timeout 30m) |
        awk -v side="$1" -v pair="$2" '/^Benchmark/ {
            allocs = 0
            for (i = 4; i < NF; i++) if ($(i+1) == "allocs/op") allocs = $i
            print $1, pair, side, $3, allocs
        }' >>"$tmp/runs"
}

: >"$tmp/runs"
i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then run base "$i"; run new "$i"
    else run new "$i"; run base "$i"; fi
    echo "bench_pair: pair $i/$pairs done" >&2
    i=$((i + 1))
done

# quart FMT: median, first and third quartile (linear interpolation) of
# the numbers on stdin, each printed with the printf format FMT.
quart() {
    sort -g | awk -v f="$1" '{ v[NR] = $1 }
        function q(p,   h, lo) {
            h = (NR - 1) * p + 1; lo = int(h)
            return lo >= NR ? v[NR] : v[lo] + (h - lo) * (v[lo+1] - v[lo])
        }
        END { if (NR) printf f " " f " " f, q(0.5), q(0.25), q(0.75) }'
}

echo "bench_pair: $pkg '$regex', base $base_rev vs working tree," \
     "$pairs alternating pairs at $benchtime"
for name in $(awk '{ print $1 }' "$tmp/runs" | sort -u); do
    echo "$name"
    if ! awk -v n="$name" '$1 == n { s[$3] = 1 } END { exit !(("base" in s) && ("new" in s)) }' "$tmp/runs"; then
        echo "  runs on one side only (new or removed benchmark): no pair ratio"
        continue
    fi
    for side in base new; do
        set -- $(awk -v n="$name" -v s="$side" '$1 == n && $3 == s { print $4 }' "$tmp/runs" | quart %.0f)
        allocs=$(awk -v n="$name" -v s="$side" '$1 == n && $3 == s { print $5 }' "$tmp/runs" | quart %.0f | cut -d' ' -f1)
        printf "  %-5s ns/op median %s  [q1 %s, q3 %s]  allocs/op median %s\n" "$side" "$1" "$2" "$3" "$allocs"
    done
    awk -v n="$name" '$1 == n { ns[$2, $3] = $4; seen[$2] = 1 }
        END { for (p in seen) if ((p, "base") in ns && (p, "new") in ns) print ns[p, "new"] / ns[p, "base"] }' \
        "$tmp/runs" >"$tmp/ratios"
    wins=$(awk '$1 < 1 { w++ } END { print w + 0 }' "$tmp/ratios")
    total=$(wc -l <"$tmp/ratios" | tr -d ' ')
    set -- $(quart %.3f <"$tmp/ratios")
    printf "  ratio new/base median %s  [q1 %s, q3 %s]  new faster in %s/%s pairs\n" "$1" "$2" "$3" "$wins" "$total"
done
