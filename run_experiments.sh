#!/bin/bash
# Regenerate every table and figure of the paper. Outputs land in results/.
# Exits non-zero, after running every bin, if any of them failed.
set -u
cd "$(dirname "$0")"
BINS="table1 fig07 fig09 fig11 fig12 fig13 ablation futurework reuse"
failed=""
for b in $BINS; do
  echo "=== running $b ==="
  cargo run --release -q -p viz-bench --bin "$b" -- "$@" \
    > "results/$b.txt" 2> "results/$b.log" || failed="$failed $b"
done
if [ -n "$failed" ]; then
  echo "FAILED:$failed" >&2
  exit 1
fi
echo "all experiments done"
