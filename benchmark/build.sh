#!/usr/bin/env bash
# Offline build of `vizbench`: bare rustc, never cargo (no registry is
# reachable in the container this benchmark is written for).
#
#   1. the dependency shims under benchmark/shims/,
#   2. every workspace crate except viz-bench, in an order and with
#      `--extern` sets read from crates/*/Cargo.toml [dependencies]
#      (dev-dependencies are skipped), so a crate split or a dropped
#      dependency needs no edit here,
#   3. benchmark/src/main.rs -> $OUT/vizbench.
#
# All of it is skipped when the hash of every input is unchanged. A partial
# rebuild is never attempted: an rlib rebuilt alone leaves stale hashes in
# its dependents.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
OUT="${CARGO_TARGET_DIR:-benchmark/target}"
DEPS="$OUT/deps"
RUSTC_FLAGS=(--edition 2021 -C opt-level=3)
# The program's own lints are its business; the driver's are shown.
LIB_FLAGS=("${RUSTC_FLAGS[@]}" --cap-lints allow)
SHIMS=(serde_derive serde serde_json rand rayon parking_lot bytes crossbeam)

[ -d crates ] || { echo "build.sh: no crates/ directory beside benchmark/ - nothing to measure" >&2; exit 2; }

# ---- skip when nothing changed --------------------------------------------
inputs() {
    find crates -path crates/bench -prune -o \( -name '*.rs' -path '*/src/*' -o -name Cargo.toml \) -print
    find benchmark/shims benchmark/src -name '*.rs'
    echo benchmark/build.sh
}
stamp="$(
    {
        rustc --version
        echo "${RUSTC_FLAGS[*]}"
        inputs | LC_ALL=C sort | xargs sha256sum
    } | sha256sum | cut -d' ' -f1
)"
if [ -x "$OUT/vizbench" ] && [ "$(cat "$OUT/build.stamp" 2>/dev/null)" = "$stamp" ]; then
    exit 0
fi
rm -rf "$DEPS" "$OUT/vizbench" "$OUT/build.stamp"
mkdir -p "$DEPS" "$OUT/tmp"
# rustc and the linker keep their scratch files inside the checkout too.
case "$OUT" in
/*) export TMPDIR="$OUT/tmp" ;;
*) export TMPDIR="$PWD/$OUT/tmp" ;;
esac

# ---- shims ------------------------------------------------------------------
rustc "${LIB_FLAGS[@]}" --crate-type proc-macro --crate-name serde_derive \
    benchmark/shims/serde_derive.rs --out-dir "$DEPS"
rustc "${LIB_FLAGS[@]}" --crate-type rlib --crate-name serde benchmark/shims/serde.rs \
    --extern serde_derive="$DEPS/libserde_derive.so" --out-dir "$DEPS"
for shim in "${SHIMS[@]:2}"; do
    rustc "${LIB_FLAGS[@]}" --crate-type rlib --crate-name "$shim" "benchmark/shims/$shim.rs" \
        -L "$DEPS" --out-dir "$DEPS" &
done
wait_all() {
    local pid
    for pid in $(jobs -p); do
        wait "$pid" || { echo "build.sh: a rustc job failed" >&2; exit 1; }
    done
}
wait_all

# ---- workspace crates, from their manifests -------------------------------
# "dir name dep dep ..." per crate; names with `-` mapped to `_`.
manifest_line() {
    awk -v dir="$1" '
        /^\[/ { section = $0 }
        section == "[package]" && $1 == "name" { gsub(/[" ]/, "", $3); name = $3 }
        section == "[dependencies]" && /^[A-Za-z]/ { split($1, k, /[.=]/); deps = deps " " k[1] }
        END { gsub(/-/, "_", name); gsub(/-/, "_", deps); print dir, name deps }
    ' "$1/Cargo.toml"
}
pending=()
for dir in crates/*/; do
    dir="${dir%/}"
    [ "$dir" = crates/bench ] && continue
    pending+=("$(manifest_line "$dir")")
done

built=" ${SHIMS[*]} "
externs=()
while [ "${#pending[@]}" -gt 0 ]; do
    next=()
    level=()
    for line in "${pending[@]}"; do
        read -r dir name deps <<<"$line"
        ready=1
        for dep in $deps; do
            [[ "$built" == *" $dep "* ]] || ready=0
        done
        if [ "$ready" = 1 ]; then level+=("$line"); else next+=("$line"); fi
    done
    [ "${#level[@]}" -gt 0 ] || { echo "build.sh: dependency cycle or missing shim among: ${next[*]}" >&2; exit 1; }
    # Crates of one level do not depend on each other: build them together.
    for line in "${level[@]}"; do
        read -r dir name deps <<<"$line"
        ext=()
        for dep in $deps; do ext+=(--extern "$dep=$DEPS/lib$dep.rlib"); done
        rustc "${LIB_FLAGS[@]}" --crate-type rlib --crate-name "$name" "$dir/src/lib.rs" \
            -L "$DEPS" "${ext[@]}" --out-dir "$DEPS" &
    done
    wait_all
    for line in "${level[@]}"; do
        read -r dir name deps <<<"$line"
        built+="$name "
        externs+=(--extern "$name=$DEPS/lib$name.rlib")
    done
    pending=("${next[@]}")
done

# ---- the driver -------------------------------------------------------------
VIZBENCH_RUSTC="$(rustc --version)" \
VIZBENCH_FLAGS="${RUSTC_FLAGS[*]}" \
VIZBENCH_SHIMS="${SHIMS[*]}" \
    rustc "${RUSTC_FLAGS[@]}" --crate-name vizbench benchmark/src/main.rs \
    -L "$DEPS" "${externs[@]}" -o "$OUT/vizbench"
echo "$stamp" >"$OUT/build.stamp"
