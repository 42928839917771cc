#!/usr/bin/env bash
# Repeatability: N full passes of all five workloads, then every metric's
# median, quartiles, interquartile range and range over its median.
#
#   benchmark/repeat.sh N [DIR] [run.sh options]
#
# Pass k lands in DIR/run-k (default benchmark/target/out/repeat).
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
n="${1:?usage: repeat.sh N [DIR] [run.sh options]}"
dir="${2:-${CARGO_TARGET_DIR:-benchmark/target}/out/repeat}"
shift $(($# < 2 ? $# : 2))

for k in $(seq 1 "$n"); do
    bash benchmark/run.sh --out "$dir/run-$k" "$@"
done
"${CARGO_TARGET_DIR:-benchmark/target}/vizbench" spread "$dir"
