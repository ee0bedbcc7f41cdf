#!/usr/bin/env bash
# Format, lint and test the benchmark crate.
set -euo pipefail
cd "$(dirname "$0")"
cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline --release
