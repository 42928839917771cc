#!/usr/bin/env bash
# Build (skipped when nothing changed), then run the benchmark.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run, as the harness calls it (BENCHMARK.json "command"); the last
#       line of standard output is the result object
#   benchmark/run.sh [--quick] [--seed N] [--seconds S] [--out DIR]
#       all five workloads, a fresh process each (so set-up time and peak
#       memory are per workload): the untraced pass, then a traced pass at a
#       quarter of its length; result files and traces land in DIR, and every
#       metric BENCHMARK.json names is checked to be there with its unit.
#       --quick runs at 1/20 of the size, to smoke-test a change.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
OUT="${CARGO_TARGET_DIR:-benchmark/target}"
bash benchmark/build.sh
export VIZBENCH_COMMIT="${VIZBENCH_COMMIT:-$(git rev-parse --short HEAD 2>/dev/null || echo unknown)}"

case " $* " in
*" --workload "*) exec "$OUT/vizbench" "$@" ;;
esac

seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)"
seed=20170529
dir="$OUT/out/run"
while [ $# -gt 0 ]; do
    case "$1" in
    --quick) seconds="$(awk "BEGIN { print $seconds / 20 }")" ;;
    --seed) seed="$2"; shift ;;
    --seconds) seconds="$2"; shift ;;
    --out) dir="$2"; shift ;;
    *) echo "run.sh: unknown option $1" >&2; exit 2 ;;
    esac
    shift
done

mkdir -p "$dir"
status=0
for workload in flight-smooth flight-erratic cluster-smooth warm-shared sim-policy; do
    "$OUT/vizbench" --workload "$workload" --seed "$seed" --seconds "$seconds" \
        --out "$dir/$workload.json" || status=1
done
"$OUT/vizbench" check "$dir" || status=1
echo "results: $dir  traces: $OUT/out/trace-<workload>.json"
exit "$status"
