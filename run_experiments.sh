#!/bin/bash
# Regenerate every table and figure of the paper. Each bench bin,
# crates/bench/src/bin/NAME.rs, writes its table to results/NAME.txt and
# its progress lines to results/NAME.log; a new bin is picked up by
# itself. Exits non-zero, after running every bin, if any of them failed.
set -u
cd "$(dirname "$0")"
failed=""
for f in crates/bench/src/bin/*.rs; do
  b=$(basename "$f" .rs)
  echo "=== running $b ==="
  cargo run --release -q -p viz-bench --bin "$b" -- "$@" \
    > "results/$b.txt" 2> "results/$b.log" || failed="$failed $b"
done
if [ -n "$failed" ]; then
  echo "FAILED:$failed" >&2
  exit 1
fi
echo "all experiments done"
