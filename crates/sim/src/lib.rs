//! # bicord-sim
//!
//! Deterministic discrete-event simulation engine underpinning the BiCord
//! reproduction.
//!
//! The engine is deliberately small and generic: it knows nothing about
//! radios. It provides
//!
//! * [`SimTime`] / [`SimDuration`] — microsecond-resolution virtual time,
//! * [`Engine`] — a run loop combining a clock with its pending events,
//!   kept in one sorted `Vec` (cheap when most new events are due soon,
//!   as in a protocol run),
//! * [`EventQueue`] — a stable heap of timestamped events, for workloads
//!   with thousands of far-spread pending events (the dense city),
//! * [`rng`] — reproducible per-component random-number streams,
//! * [`dist`] — the handful of distributions the models need (exponential,
//!   normal, Poisson) implemented without external dependencies,
//! * [`json`] — the workspace's one JSON codec (specs, artifacts, trace
//!   headers and records, bench results, budget rules),
//! * [`obs`] — structured observability: the [`obs::EventSink`] trait,
//!   the [`obs::TraceEvent`] taxonomy, and the JSONL timeline writer,
//! * [`fault`] — deterministic fault injection ([`fault::FaultProfile`] /
//!   [`fault::FaultInjector`]) for robustness studies,
//! * [`guard`] — runtime invariant guard ([`guard::SimGuard`] /
//!   [`guard::RuntimeGuard`]) catching stalls, liveness and conservation
//!   violations, zero-cost when disabled via [`guard::NoopGuard`],
//! * [`stdout`] — the binaries' one stdout writer, which survives a
//!   reader that closes early.
//!
//! # Example
//!
//! ```
//! use bicord_sim::{Engine, SimDuration, SimTime};
//!
//! let mut engine: Engine<&'static str> = Engine::new();
//! engine.schedule_in(SimDuration::from_millis(5), "hello");
//! engine.schedule_in(SimDuration::from_millis(1), "world");
//!
//! let (t1, e1) = engine.next_event().unwrap();
//! assert_eq!((t1, e1), (SimTime::from_millis(1), "world"));
//! let (t2, e2) = engine.next_event().unwrap();
//! assert_eq!((t2, e2), (SimTime::from_millis(5), "hello"));
//! assert!(engine.next_event().is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod engine;
pub mod event;
pub mod fault;
pub mod guard;
pub mod json;
pub mod obs;
pub mod par;
pub mod rng;
pub mod stdout;
pub mod time;

pub use engine::Engine;
pub use event::EventQueue;
pub use fault::{FaultInjector, FaultProfile};
pub use guard::{GuardConfig, GuardSummary, GuardViolation, NoopGuard, RuntimeGuard, SimGuard};
pub use obs::{EventSink, JsonlSink, NoopSink, TraceEvent, VecSink};
pub use rng::{derive_seed, stream_rng, SeedDomain};
pub use time::{SimDuration, SimTime};
