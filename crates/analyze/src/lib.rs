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
//! Parsing is closed-world (`bicord_sim::obs::TraceEvent::KINDS`): a
//! record kind the analyzer does not know is a hard error naming the
//! kind, so the analytics can never silently rot as the trace schema
//! grows. The exhaustive round-trip test in `tests/record_kinds.rs`
//! enforces the same property at compile time against
//! `bicord_sim::obs::TraceEvent`. Every file is read with the workspace
//! codec, `bicord_sim::json`.
//!
//! Everything here is a pure function of its input files — no simulation
//! runs, no clocks, no randomness — so reports are byte-deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod cli;
pub mod diff;
pub mod summarize;
pub mod trace;
