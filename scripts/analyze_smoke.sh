#!/usr/bin/env bash
# Analyzer smoke test: `bicord analyze` must keep consuming what the
# live trace sinks emit. Traces one quick `multi_node` run, summarizes
# the JSONL and fails unless the burst and utilization sections are
# non-empty (an empty section means the analyzer and the emitters
# drifted apart), then sanity-checks diff-trace: a trace must diff
# IDENTICAL (exit 0) against itself and DIFFER (exit exactly 1, one
# population changed) against a copy with one white space's NAV edited.
# A record the reader cannot parse fails the summarize step (exit 2)
# naming its line and field.
#
# Usage: scripts/analyze_smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
trace="$tmpdir/trace.jsonl"

echo "analyze_smoke: tracing multi_node --quick..."
BICORD_BENCH_JSON=0 \
    cargo run -q --offline --release -p bicord-bench --bin bicord-bench \
    -- multi_node --quick --trace "$trace" >/dev/null

echo "analyze_smoke: summarize with section asserts..."
cargo run -q --offline --release --bin bicord -- \
    analyze summarize "$trace" --assert events,bursts,utilization

echo "analyze_smoke: diff-trace self-identity..."
if ! cargo run -q --offline --release --bin bicord -- \
    analyze diff-trace "$trace" "$trace" >/dev/null; then
    echo "analyze_smoke: FAIL — a trace does not diff IDENTICAL to itself" >&2
    exit 1
fi

echo "analyze_smoke: diff-trace detects a payload edit..."
# A well-formed edit: the first white space's NAV gains a leading digit.
sed '0,/"nav_us":\([0-9]*\)/s//"nav_us":1\1/' "$trace" >"$tmpdir/tampered.jsonl"
code=0
cargo run -q --offline --release --bin bicord -- \
    analyze diff-trace "$trace" "$tmpdir/tampered.jsonl" >"$tmpdir/diff.txt" || code=$?
if [ "$code" -ne 1 ] || ! grep -q "^diff-trace: DIFFER — 1 population(s) changed" "$tmpdir/diff.txt"; then
    echo "analyze_smoke: FAIL — a NAV edit must DIFFER in one population with exit 1 (got exit $code)" >&2
    cat "$tmpdir/diff.txt" >&2
    exit 1
fi

echo "analyze_smoke: PASS"
