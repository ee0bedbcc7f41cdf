//! A standalone benchmark of the BiCord simulator.
//!
//! Four workloads ([`workload::Workload`]) stress different layers of
//! the simulator. An untraced run reports end-to-end host time and the
//! simulated outcomes; a traced run attributes host time to layers by
//! timing the calls into them from this crate ([`clock`], [`replay`]).
//! Every run checks the simulated results against expected digests and
//! across passes ([`measure`]). See `README.md` for the metrics and how
//! to read them.

pub mod clock;
pub mod measure;
pub mod replay;
pub mod spec;
pub mod stats;
pub mod workload;
