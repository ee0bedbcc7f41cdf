#!/usr/bin/env bash
# Builds the benchmark and runs it from the repository root.
#
#   benchmark/run.sh [--seed S] [--trace] [--sets N]     every workload, one process each
#   benchmark/run.sh --workload NAME [--seed S] [--seconds N] [--trace 0|1]
#
# Build output goes to stderr; stdout carries only the benchmark's lines.
# See benchmark/README.md for the metrics and the other flags.
set -euo pipefail
cd "$(dirname "$0")/.."
export BICORD_THREADS=1
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/bicord-benchmark" "$@"
