#!/usr/bin/env bash
# Checks that the committed experiment outputs under `results/` still
# match what the bench binaries print, at every worker-thread count:
# builds every binary that has a `results/<name>.txt`, runs it at full
# scale with the perf record disabled, once with BICORD_THREADS=1 and
# once with BICORD_THREADS=8, and `diff -u`s each run's stdout against
# the committed file. Exits 1 naming every file and thread count that
# drifted. EXPERIMENTS.md's "Reproducing" loop regenerates the files.
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
    for threads in 1 8; do
        BICORD_THREADS="$threads" BICORD_BENCH_JSON=0 "$target/$b" > "$tmp" 2>/dev/null
        if ! diff -u --label "results/$b.txt" --label "$b output, $threads thread(s)" \
            "results/$b.txt" "$tmp"; then
            drifted+=("$b@$threads")
        fi
    done
done

if [ "${#drifted[@]}" -gt 0 ]; then
    echo "check_results: results/ drifted for: ${drifted[*]}" >&2
    exit 1
fi
echo "check_results: all ${#bins[@]} results/ files match at 1 and 8 threads" >&2
