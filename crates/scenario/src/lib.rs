//! # bicord-scenario
//!
//! Full-system wiring of the BiCord evaluation: the office deployment of
//! Fig. 6, the discrete-event runtime connecting medium, MACs, CSI,
//! coordinator/client (or the ECC baseline), workloads, and metrics — and
//! one runner per experiment of Sec. VIII.
//!
//! * [`geometry`] — the E/F Wi-Fi pair and ZigBee locations A–D,
//! * [`config`] — scenario configuration and result structures,
//! * [`sim`] — [`sim::CoexistenceSim`], the event-driven runtime,
//! * [`experiments`] — parameter sweeps regenerating every table/figure.
//!
//! # Example
//!
//! ```
//! use bicord_scenario::config::SimConfig;
//! use bicord_scenario::geometry::Location;
//! use bicord_scenario::sim::CoexistenceSim;
//! use bicord_sim::SimDuration;
//!
//! let config = SimConfig {
//!     duration: SimDuration::from_secs(2),
//!     ..SimConfig::bicord(Location::A, 1)
//! };
//! let results = CoexistenceSim::new(config).unwrap().run();
//! assert!(results.zigbee.delivered > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod dense_city;
pub mod experiments;
pub mod geometry;
pub mod sim;
pub mod trace;

pub use config::{ConfigError, Mode, RunResults, SimConfig};
pub use geometry::Location;
pub use sim::CoexistenceSim;
