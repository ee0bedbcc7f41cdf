#!/usr/bin/env bash
# Checks that the committed experiment outputs under `results/` still
# match what `bicord-bench` prints and exports, at every worker-thread
# count: builds the binary, runs every figure that has a
# `results/<figure>.txt` at full scale with the perf record disabled and
# CSV export on, once with BICORD_THREADS=1 and once with
# BICORD_THREADS=8, `diff -u`s each run's stdout against the committed
# file, and `diff -ru`s the exported CSVs against `results/csv/` (a CSV
# missing on either side is drift too). Exits 1 naming every file and
# thread count that drifted. EXPERIMENTS.md's "Reproducing" loop
# regenerates the files.
#
# Usage: scripts/check_results.sh
set -euo pipefail

cd "$(dirname "$0")/.."

cargo build -q --offline --release -p bicord-bench --bin bicord-bench
bench="${CARGO_TARGET_DIR:-target}/release/bicord-bench"

figures=()
for f in results/*.txt; do
    figures+=("$(basename "$f" .txt)")
done

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
drifted=()
for threads in 1 8; do
    csv="$tmp/csv-$threads"
    mkdir "$csv"
    for figure in "${figures[@]}"; do
        BICORD_THREADS="$threads" BICORD_BENCH_JSON=0 BICORD_CSV_DIR="$csv" \
            "$bench" "$figure" > "$tmp/out" 2>/dev/null
        if ! diff -u --label "results/$figure.txt" \
            --label "$figure output, $threads thread(s)" \
            "results/$figure.txt" "$tmp/out"; then
            drifted+=("$figure@$threads")
        fi
    done
    if ! diff -ru results/csv "$csv"; then
        drifted+=("csv@$threads")
    fi
done

if [ "${#drifted[@]}" -gt 0 ]; then
    echo "check_results: results/ drifted for: ${drifted[*]}" >&2
    exit 1
fi
echo "check_results: all ${#figures[@]} results/ files and every CSV match at 1 and 8 threads" >&2
