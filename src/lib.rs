//! # BiCord — Bidirectional Coordination among Coexisting Wireless Devices
//!
//! A full reproduction of *BiCord* (Yu et al., IEEE ICDCS 2021): a
//! coordination scheme that lets resource-constrained ZigBee nodes
//! **request** channel time from Wi-Fi devices via cross-technology
//! signaling, and lets Wi-Fi devices **learn** how much white space each
//! ZigBee burst needs and reserve exactly that.
//!
//! The paper's evaluation ran on Intel 5300 NICs and TelosB motes; this
//! workspace substitutes a calibrated discrete-event simulation of the
//! 2.4 GHz band (see `DESIGN.md`) and reimplements every layer from
//! scratch:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`sim`] | deterministic discrete-event engine, virtual time, seeded RNG streams |
//! | [`phy`] | path loss, spectrum, airtime, SINR reception, CSI and interference models |
//! | [`mac`] | 802.11 DCF (with CTS-to-self), 802.15.4 CSMA/CA, the shared medium |
//! | [`core`] | **BiCord itself**: signaling detector, adaptive white-space allocator, CTI detection, coordinator/client state machines, energy model |
//! | [`ctc`] | the ECC baseline and packet-level CTC latency models |
//! | [`workloads`] | burst traffic, Wi-Fi priority schedules, mobility |
//! | [`metrics`] | utilization/delay/throughput/precision-recall and text tables |
//! | [`scenario`] | the Fig. 6 office wiring and one runner per table/figure |
//! | [`sweep`] | the sharded, resumable sweep contract and scenario registry (`bicord sweep`) |
//! | [`analyze`] | trace analytics, trace diffing and perf budgets (`bicord analyze`) |
//!
//! # Quickstart
//!
//! ```
//! use bicord::scenario::config::SimConfig;
//! use bicord::scenario::geometry::Location;
//! use bicord::scenario::sim::CoexistenceSim;
//! use bicord::sim::SimDuration;
//!
//! // Run BiCord for two simulated seconds at location A.
//! let config = SimConfig {
//!     duration: SimDuration::from_secs(2),
//!     ..SimConfig::bicord(Location::A, 42)
//! };
//! let results = CoexistenceSim::new(config).unwrap().run();
//!
//! assert!(results.zigbee.delivered > 0);
//! assert!(results.utilization > 0.5);
//! ```
//!
//! The [`prelude`] re-exports the same types for one-line imports:
//!
//! ```
//! use bicord::prelude::*;
//!
//! let config = SimConfig {
//!     duration: SimDuration::from_secs(2),
//!     ..SimConfig::bicord(Location::A, 0)
//! };
//! let mut sink = VecSink::new();
//! let results = CoexistenceSim::with_sink(config, &mut sink).unwrap().run();
//! assert_eq!(
//!     sink.of_kind("reservation").len() as u64,
//!     results.wifi.reservations
//! );
//! ```
//!
//! Run `cargo run -p bicord-bench --bin bicord-bench -- fig10_comparison`
//! (or any other name of its figure table) to regenerate a table or
//! figure of the paper; see `EXPERIMENTS.md` for the paper-vs-measured
//! record.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use bicord_analyze as analyze;
pub use bicord_core as core;
pub use bicord_ctc as ctc;
pub use bicord_mac as mac;
pub use bicord_metrics as metrics;
pub use bicord_phy as phy;
pub use bicord_scenario as scenario;
pub use bicord_sim as sim;
pub use bicord_sweep as sweep;
pub use bicord_workloads as workloads;

/// One-line import of everything a typical simulation script needs:
/// configuration (presets, errors), the runtime, event sinks,
/// and the few value types that appear in every config.
pub mod prelude {
    pub use bicord_metrics::registry::{CountingSink, MetricsRegistry};
    pub use bicord_phy::units::Dbm;
    pub use bicord_scenario::config::{ConfigError, ExtraNodeConfig, Mode, RunResults, SimConfig};
    pub use bicord_scenario::geometry::Location;
    pub use bicord_scenario::sim::CoexistenceSim;
    pub use bicord_sim::obs::{
        EventSink, JsonlSink, NoopSink, TraceEvent, TraceHeader, VecSink, TRACE_SCHEMA,
    };
    pub use bicord_sim::{FaultInjector, FaultProfile, SimDuration, SimTime};
    pub use bicord_workloads::traffic::{ArrivalProcess, BurstSpec};
}
