#!/usr/bin/env bash
# Pre-PR gate: formatting, lints, docs, the full workspace test suite,
# and the benchmark crate's own format/lint/test gate.
#
# Run this before every push; CI's `check` job runs the same five steps.
# The build is fully offline (vendored deps only), so no network access
# is needed.
#
# Usage: scripts/check.sh
set -euo pipefail

cd "$(dirname "$0")/.."

echo "check: cargo fmt --check"
cargo fmt --all --check

echo "check: cargo clippy --workspace --all-targets -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "check: cargo doc --workspace --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --quiet

echo "check: cargo test -q --workspace"
cargo test -q --offline --workspace

echo "check: benchmark/check.sh (the benchmark crate is its own workspace)"
benchmark/check.sh

echo "check: PASS"
