//! # bicord-analyze — trace analytics and budget diffs
//!
//! The offline analysis layer of the BiCord reproduction, surfaced as the
//! `bicord analyze` subcommand (see `docs/ANALYTICS.md`). Three modes:
//!
//! * **summarize** ([`summarize`]) — turn one `bicord-trace/1` JSONL
//!   timeline into per-burst latency waterfalls, a white-space
//!   utilization timeline, allocator-convergence stats and
//!   fault/fallback/guard tallies, as aligned text tables or one
//!   deterministic JSON document.
//! * **diff-trace** ([`diff`]) — structurally compare two traces of the
//!   same schema: which record populations appeared, vanished, or
//!   changed, keyed by kind and node.
//! * **diff-bench** ([`mod@bench`]) — compare two `BENCH_results.json` files
//!   under per-metric budget rules (PDR/utilization floors, plus
//!   relative limits and absolute ceilings from a rules file) with a pass/fail
//!   exit code; this is the CI `perf-budget-report` gate. Host time is
//!   judged by `scripts/ab.sh` instead.
//!
//! Traces are read with `bicord_sim::obs::TraceFile`, the reader that
//! sits beside the writer, into typed `TraceEvent`s. A record with a
//! missing, mistyped or unknown field, or of an unknown kind, is an
//! error naming its line, never a silent zero. `summarize` places each
//! record with one `match` over `TraceEvent` that has no wildcard arm,
//! so a new variant does not build until the report handles it. Other
//! files are read with the workspace codec, `bicord_sim::json`.
//!
//! Everything here is a pure function of its input files — no simulation
//! runs, no clocks, no randomness — so reports are byte-deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod cli;
pub mod diff;
pub mod summarize;
