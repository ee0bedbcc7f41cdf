#!/usr/bin/env bash
# Analyzer smoke test: `bicord analyze` must keep consuming what the
# live trace sinks emit. Traces one quick `multi_node` run, summarizes
# the JSONL and fails unless the burst and utilization sections are
# non-empty (an empty section means the analyzer and the emitters
# drifted apart), then sanity-checks diff-trace: a trace must diff
# IDENTICAL (exit 0) against itself and DIFFER (exit 1) against a
# tampered copy. A TraceEvent kind unknown to bicord_analyze fails the
# summarize step with the kind's name.
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

echo "analyze_smoke: diff-trace detects a tampered copy..."
sed 's/"seed":\([0-9]*\)/"seed":0/; 0,/"ev":"burst_complete"/s//"ev":"csma_fallback"/' \
    "$trace" >"$tmpdir/tampered.jsonl"
if cargo run -q --offline --release --bin bicord -- \
    analyze diff-trace "$trace" "$tmpdir/tampered.jsonl" >/dev/null; then
    echo "analyze_smoke: FAIL — tampered trace diffed IDENTICAL" >&2
    exit 1
fi

echo "analyze_smoke: PASS"
