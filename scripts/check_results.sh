#!/usr/bin/env bash
# Checks that the committed experiment outputs under `results/` still
# match what the bench binaries print: builds every binary that has a
# `results/<name>.txt`, runs it at full scale with the perf record
# disabled, and `diff -u`s its stdout against the committed file. Exits
# 1 naming every file that drifted. EXPERIMENTS.md's "Reproducing" loop
# regenerates the files.
#
# Usage: scripts/check_results.sh
set -euo pipefail

cd "$(dirname "$0")/.."

bins=()
for f in results/*.txt; do
    bins+=("$(basename "$f" .txt)")
done

bin_flags=()
for b in "${bins[@]}"; do
    bin_flags+=(--bin "$b")
done
cargo build -q --offline --release -p bicord-bench "${bin_flags[@]}"

target="${CARGO_TARGET_DIR:-target}/release"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT
drifted=()
for b in "${bins[@]}"; do
    BICORD_BENCH_JSON=0 "$target/$b" > "$tmp" 2>/dev/null
    if ! diff -u --label "results/$b.txt" --label "$b output" "results/$b.txt" "$tmp"; then
        drifted+=("$b")
    fi
done

if [ "${#drifted[@]}" -gt 0 ]; then
    echo "check_results: results/ drifted for: ${drifted[*]}" >&2
    exit 1
fi
echo "check_results: all ${#bins[@]} results/ files match" >&2
