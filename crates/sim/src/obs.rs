//! Structured observability for the discrete-event simulation.
//!
//! Every layer of the runtime — the engine loop, the coordinator, the
//! clients, the CSI detector and the white-space allocator — emits
//! [`TraceEvent`] records into an [`EventSink`]. Sinks are monomorphized
//! into the hot path: the default [`NoopSink`] is a zero-sized type whose
//! `emit` is empty, so an uninstrumented run compiles to exactly the code
//! it ran before the observability layer existed.
//!
//! The taxonomy is deliberately flat and primitive-typed (times in
//! microseconds, node indices as `u32`) so that this module needs no
//! knowledge of radios and every record serializes deterministically.
//!
//! # Sinks
//!
//! * [`NoopSink`] — the default; discards everything at compile time.
//! * [`VecSink`] — collects records in memory (tests, ad-hoc analysis).
//! * [`JsonlSink`] — writes a schema-versioned JSONL timeline
//!   (`bicord --trace run.jsonl`, bench `--trace`).
//! * [`Tee`] — duplicates records into two sinks.
//!
//! Emitters may guard expensive record construction with
//! [`EventSink::enabled`]; for cheap records they simply call
//! [`EventSink::emit`] and rely on monomorphization to delete the call for
//! [`NoopSink`].
//!
//! See `docs/OBSERVABILITY.md` for the event taxonomy and the JSONL
//! schema.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::json;

/// The JSONL trace schema identifier written in every file header.
///
/// Bump the trailing number whenever a record's fields change meaning;
/// readers must check it via [`TraceHeader::parse`].
pub const TRACE_SCHEMA: &str = "bicord-trace/1";

/// One structured observability record.
///
/// All timestamps are virtual microseconds since the start of the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// The engine dispatched one DES event (`kind` is the scenario's
    /// event-type label). High volume: sinks typically aggregate these.
    Dequeue {
        /// Dispatch time.
        t_us: u64,
        /// Event-type label.
        kind: &'static str,
    },
    /// The CSI detector classified one sample against its threshold.
    CsiClassified {
        /// Sample time.
        t_us: u64,
        /// Amplitude deviation of the sample.
        deviation: f64,
        /// `true` = high fluctuation (contributes to the continuity rule).
        high: bool,
    },
    /// The continuity rule fired: the Wi-Fi side believes a ZigBee node
    /// requested the channel.
    Detection {
        /// When the rule fired.
        t_us: u64,
        /// Earliest contributing high-fluctuation sample.
        window_start_us: u64,
        /// High samples in the window at firing time.
        highs: u32,
    },
    /// A ZigBee node handed a signaling control packet to its MAC.
    ChannelRequest {
        /// Hand-off time.
        t_us: u64,
        /// Node index (0 = primary).
        node: u32,
    },
    /// The coordinator granted a white space (a CTS-to-self follows).
    Reservation {
        /// Grant time.
        t_us: u64,
        /// White-space length in microseconds.
        ws_us: u64,
    },
    /// A CTS-to-self finished on air; its NAV opens a white space.
    WhiteSpace {
        /// CTS end time (= white-space start).
        t_us: u64,
        /// NAV duration in microseconds.
        nav_us: u64,
    },
    /// The allocator counted one more signaling round for the current
    /// burst (`N_round` in Sec. VI).
    NRound {
        /// Request time.
        t_us: u64,
        /// Rounds granted to the burst so far.
        rounds: u32,
    },
    /// The allocator updated its burst-length estimate (`T_estimation`).
    Estimate {
        /// Burst-end time at which the estimator ran.
        t_us: u64,
        /// New estimate in microseconds.
        estimate_us: u64,
        /// Rounds the finished burst took.
        rounds: u32,
        /// `"learning"` or `"converged"` after the update.
        phase: &'static str,
    },
    /// The allocator fell back to the learning phase (or probed the
    /// estimate downwards).
    ReEstimate {
        /// Trigger time.
        t_us: u64,
        /// `"expiry"`, `"growth"`, or `"shrink-probe"`.
        reason: &'static str,
    },
    /// A ZigBee node finished one application burst.
    BurstComplete {
        /// Completion time.
        t_us: u64,
        /// Node index.
        node: u32,
        /// Packets delivered.
        delivered: u32,
        /// Packets abandoned.
        failed: u32,
    },
    /// One ZigBee data packet was acknowledged end-to-end.
    PacketDelivered {
        /// Delivery time.
        t_us: u64,
        /// Node index.
        node: u32,
        /// Application sequence number.
        seq: u32,
    },
    /// A Table I/II signaling trial resolved.
    TrialResolved {
        /// Resolution time.
        t_us: u64,
        /// 1-based trial index.
        index: u32,
        /// Whether the detector caught the trial.
        detected: bool,
    },
    /// A device move invalidated part of the medium's link-budget cache
    /// (emitted per mobility step; absent in static scenarios).
    MediumCacheInvalidated {
        /// Invalidation time.
        t_us: u64,
        /// Raw id of the device that moved.
        device: u32,
        /// Shadowing realisations discarded with the cached budgets.
        dropped: u32,
    },
    /// End-of-run snapshot of the medium's cache effectiveness (emitted
    /// by mobility runs, where invalidation pressure is the question).
    MediumCacheStats {
        /// Snapshot time (the end of the run).
        t_us: u64,
        /// Link-budget cache hits.
        link_hits: u64,
        /// Link-budget cache misses.
        link_misses: u64,
        /// Band-overlap memo hits.
        band_hits: u64,
        /// Band-overlap memo misses.
        band_misses: u64,
    },
    /// End-of-run snapshot of the spatial culling grid's effectiveness
    /// (emitted alongside [`TraceEvent::MediumCacheStats`] by mobility
    /// runs; absent in static scenarios).
    MediumGridStats {
        /// Snapshot time (the end of the run).
        t_us: u64,
        /// Grid-accelerated medium queries answered.
        queries: u64,
        /// Non-empty grid cells visited across all queries.
        cells: u64,
        /// Transmissions gathered as candidates and evaluated.
        visited: u64,
        /// Transmissions skipped without evaluation (outside the 3×3
        /// cell window around the observer).
        culled: u64,
        /// Candidates gathered but rejected by the exact hearing-radius
        /// check (cell-resolution false positives).
        out_of_range: u64,
    },
    /// Fault injection suppressed a control packet's CSI signature: the
    /// classifier never sees the continuity samples it should have
    /// produced (absent in fault-free runs).
    FaultControlLost {
        /// Suppression time (the control packet's hand-off to the MAC).
        t_us: u64,
        /// Signaling node index.
        node: u32,
    },
    /// Fault injection lost a CTS-to-self before it reached contending
    /// stations: the "reserved" white space still sees Wi-Fi contention.
    FaultCtsLost {
        /// CTS end time (= the unprotected white-space start).
        t_us: u64,
        /// NAV duration the contenders failed to honour, in microseconds.
        nav_us: u64,
    },
    /// Fault injection fabricated a ZigBee-like CSI disturbance on a
    /// quiet sample (a phantom channel request).
    FaultPhantomCsi {
        /// Sample time.
        t_us: u64,
    },
    /// Fault-driven device churn moved a device and invalidated its
    /// cached link budgets.
    FaultChurn {
        /// Churn-step time.
        t_us: u64,
        /// Raw id of the device that moved.
        device: u32,
        /// Shadowing realisations discarded with the cached budgets.
        dropped: u32,
    },
    /// A client exhausted one signaling round's control budget without an
    /// answer and backed off before re-signaling.
    SignalingBackoff {
        /// Back-off decision time.
        t_us: u64,
        /// Node index.
        node: u32,
        /// Consecutive unanswered rounds so far (including this one).
        failures: u32,
    },
    /// A client gave up on signaling after `k` consecutive unanswered
    /// rounds and fell back to plain CSMA for the rest of the burst.
    CsmaFallback {
        /// Fallback time.
        t_us: u64,
        /// Node index.
        node: u32,
        /// Consecutive unanswered rounds that triggered the fallback.
        failures: u32,
    },
    /// The allocator detected inconsistent `N_round` accounting, aborted
    /// the white-space schedule and re-entered the learning phase.
    LearningAbort {
        /// Abort time.
        t_us: u64,
        /// Rounds the suspicious burst had accumulated.
        rounds: u32,
    },
    /// The runtime guard detected a livelock: the run dequeued `dequeues`
    /// consecutive events without simulated time advancing. Fatal — the
    /// run aborts right after emitting this record.
    GuardStall {
        /// Virtual time the clock is stuck at.
        t_us: u64,
        /// Consecutive same-instant dequeues observed.
        dequeues: u64,
    },
    /// The runtime guard found a burst that exceeded its liveness bound
    /// without completing or aborting (reported once per burst).
    GuardLiveness {
        /// Time of the check.
        t_us: u64,
        /// Node whose burst is overdue.
        node: u32,
        /// When the overdue burst started.
        started_us: u64,
    },
    /// The runtime guard found a conservation invariant out of balance
    /// (transmission accounting vs. the medium slab, or airtime vs.
    /// window capacity).
    GuardConservation {
        /// Time of the check.
        t_us: u64,
        /// Which invariant broke (`"active_transmissions"`,
        /// `"airtime_accounting"`).
        invariant: &'static str,
        /// The value the invariant predicts.
        expected: u64,
        /// The value actually observed.
        actual: u64,
    },
}

impl TraceEvent {
    /// Every record kind, in taxonomy order (the table in
    /// `docs/OBSERVABILITY.md`): the one list trace readers check `ev`
    /// labels against. `every_kind_serializes_with_its_kind_label` fails
    /// if it and [`TraceEvent::kind`] diverge.
    pub const KINDS: &'static [&'static str] = &[
        "dequeue",
        "csi_classified",
        "detection",
        "channel_request",
        "reservation",
        "white_space",
        "n_round",
        "estimate",
        "re_estimate",
        "burst_complete",
        "packet_delivered",
        "trial_resolved",
        "medium_cache_invalidated",
        "medium_cache_stats",
        "medium_grid_stats",
        "fault_control_lost",
        "fault_cts_lost",
        "fault_phantom_csi",
        "fault_churn",
        "signaling_backoff",
        "csma_fallback",
        "learning_abort",
        "guard_stall",
        "guard_liveness",
        "guard_conservation",
    ];

    /// Stable short name of the record kind (used as the JSONL `ev` field
    /// and as the counter key in metric registries).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Dequeue { .. } => "dequeue",
            TraceEvent::CsiClassified { .. } => "csi_classified",
            TraceEvent::Detection { .. } => "detection",
            TraceEvent::ChannelRequest { .. } => "channel_request",
            TraceEvent::Reservation { .. } => "reservation",
            TraceEvent::WhiteSpace { .. } => "white_space",
            TraceEvent::NRound { .. } => "n_round",
            TraceEvent::Estimate { .. } => "estimate",
            TraceEvent::ReEstimate { .. } => "re_estimate",
            TraceEvent::BurstComplete { .. } => "burst_complete",
            TraceEvent::PacketDelivered { .. } => "packet_delivered",
            TraceEvent::TrialResolved { .. } => "trial_resolved",
            TraceEvent::MediumCacheInvalidated { .. } => "medium_cache_invalidated",
            TraceEvent::MediumCacheStats { .. } => "medium_cache_stats",
            TraceEvent::MediumGridStats { .. } => "medium_grid_stats",
            TraceEvent::FaultControlLost { .. } => "fault_control_lost",
            TraceEvent::FaultCtsLost { .. } => "fault_cts_lost",
            TraceEvent::FaultPhantomCsi { .. } => "fault_phantom_csi",
            TraceEvent::FaultChurn { .. } => "fault_churn",
            TraceEvent::SignalingBackoff { .. } => "signaling_backoff",
            TraceEvent::CsmaFallback { .. } => "csma_fallback",
            TraceEvent::LearningAbort { .. } => "learning_abort",
            TraceEvent::GuardStall { .. } => "guard_stall",
            TraceEvent::GuardLiveness { .. } => "guard_liveness",
            TraceEvent::GuardConservation { .. } => "guard_conservation",
        }
    }

    /// The record's virtual timestamp in microseconds.
    pub fn time_us(&self) -> u64 {
        match *self {
            TraceEvent::Dequeue { t_us, .. }
            | TraceEvent::CsiClassified { t_us, .. }
            | TraceEvent::Detection { t_us, .. }
            | TraceEvent::ChannelRequest { t_us, .. }
            | TraceEvent::Reservation { t_us, .. }
            | TraceEvent::WhiteSpace { t_us, .. }
            | TraceEvent::NRound { t_us, .. }
            | TraceEvent::Estimate { t_us, .. }
            | TraceEvent::ReEstimate { t_us, .. }
            | TraceEvent::BurstComplete { t_us, .. }
            | TraceEvent::PacketDelivered { t_us, .. }
            | TraceEvent::TrialResolved { t_us, .. }
            | TraceEvent::MediumCacheInvalidated { t_us, .. }
            | TraceEvent::MediumCacheStats { t_us, .. }
            | TraceEvent::MediumGridStats { t_us, .. }
            | TraceEvent::FaultControlLost { t_us, .. }
            | TraceEvent::FaultCtsLost { t_us, .. }
            | TraceEvent::FaultPhantomCsi { t_us }
            | TraceEvent::FaultChurn { t_us, .. }
            | TraceEvent::SignalingBackoff { t_us, .. }
            | TraceEvent::CsmaFallback { t_us, .. }
            | TraceEvent::LearningAbort { t_us, .. }
            | TraceEvent::GuardStall { t_us, .. }
            | TraceEvent::GuardLiveness { t_us, .. }
            | TraceEvent::GuardConservation { t_us, .. } => t_us,
        }
    }

    /// Serializes the record as one deterministic JSON line (no trailing
    /// newline). Field order is fixed; floats use Rust's shortest
    /// round-trip formatting.
    pub fn write_jsonl(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"t_us\":{},\"ev\":\"{}\"",
            self.time_us(),
            self.kind()
        );
        match *self {
            TraceEvent::Dequeue { kind, .. } => {
                let _ = write!(out, ",\"kind\":\"{kind}\"");
            }
            TraceEvent::CsiClassified {
                deviation, high, ..
            } => {
                let _ = write!(out, ",\"deviation\":{deviation},\"high\":{high}");
            }
            TraceEvent::Detection {
                window_start_us,
                highs,
                ..
            } => {
                let _ = write!(
                    out,
                    ",\"window_start_us\":{window_start_us},\"highs\":{highs}"
                );
            }
            TraceEvent::ChannelRequest { node, .. } => {
                let _ = write!(out, ",\"node\":{node}");
            }
            TraceEvent::Reservation { ws_us, .. } => {
                let _ = write!(out, ",\"ws_us\":{ws_us}");
            }
            TraceEvent::WhiteSpace { nav_us, .. } => {
                let _ = write!(out, ",\"nav_us\":{nav_us}");
            }
            TraceEvent::NRound { rounds, .. } => {
                let _ = write!(out, ",\"rounds\":{rounds}");
            }
            TraceEvent::Estimate {
                estimate_us,
                rounds,
                phase,
                ..
            } => {
                let _ = write!(
                    out,
                    ",\"estimate_us\":{estimate_us},\"rounds\":{rounds},\"phase\":\"{phase}\""
                );
            }
            TraceEvent::ReEstimate { reason, .. } => {
                let _ = write!(out, ",\"reason\":\"{reason}\"");
            }
            TraceEvent::BurstComplete {
                node,
                delivered,
                failed,
                ..
            } => {
                let _ = write!(
                    out,
                    ",\"node\":{node},\"delivered\":{delivered},\"failed\":{failed}"
                );
            }
            TraceEvent::PacketDelivered { node, seq, .. } => {
                let _ = write!(out, ",\"node\":{node},\"seq\":{seq}");
            }
            TraceEvent::TrialResolved {
                index, detected, ..
            } => {
                let _ = write!(out, ",\"index\":{index},\"detected\":{detected}");
            }
            TraceEvent::MediumCacheInvalidated {
                device, dropped, ..
            } => {
                let _ = write!(out, ",\"device\":{device},\"dropped\":{dropped}");
            }
            TraceEvent::MediumCacheStats {
                link_hits,
                link_misses,
                band_hits,
                band_misses,
                ..
            } => {
                let _ = write!(
                    out,
                    ",\"link_hits\":{link_hits},\"link_misses\":{link_misses},\
                     \"band_hits\":{band_hits},\"band_misses\":{band_misses}"
                );
            }
            TraceEvent::MediumGridStats {
                queries,
                cells,
                visited,
                culled,
                out_of_range,
                ..
            } => {
                let _ = write!(
                    out,
                    ",\"queries\":{queries},\"cells\":{cells},\"visited\":{visited},\
                     \"culled\":{culled},\"out_of_range\":{out_of_range}"
                );
            }
            TraceEvent::FaultControlLost { node, .. } => {
                let _ = write!(out, ",\"node\":{node}");
            }
            TraceEvent::FaultCtsLost { nav_us, .. } => {
                let _ = write!(out, ",\"nav_us\":{nav_us}");
            }
            TraceEvent::FaultPhantomCsi { .. } => {}
            TraceEvent::FaultChurn {
                device, dropped, ..
            } => {
                let _ = write!(out, ",\"device\":{device},\"dropped\":{dropped}");
            }
            TraceEvent::SignalingBackoff { node, failures, .. }
            | TraceEvent::CsmaFallback { node, failures, .. } => {
                let _ = write!(out, ",\"node\":{node},\"failures\":{failures}");
            }
            TraceEvent::LearningAbort { rounds, .. } => {
                let _ = write!(out, ",\"rounds\":{rounds}");
            }
            TraceEvent::GuardStall { dequeues, .. } => {
                let _ = write!(out, ",\"dequeues\":{dequeues}");
            }
            TraceEvent::GuardLiveness {
                node, started_us, ..
            } => {
                let _ = write!(out, ",\"node\":{node},\"started_us\":{started_us}");
            }
            TraceEvent::GuardConservation {
                invariant,
                expected,
                actual,
                ..
            } => {
                let _ = write!(
                    out,
                    ",\"invariant\":\"{invariant}\",\"expected\":{expected},\"actual\":{actual}"
                );
            }
        }
        out.push('}');
    }
}

/// A consumer of [`TraceEvent`] records.
///
/// Implementations are monomorphized into the simulation hot path; keep
/// `emit` cheap. Emitters constructing *expensive* records should guard
/// with [`EventSink::enabled`]; cheap records can be emitted
/// unconditionally and rely on the optimizer deleting the dead
/// construction for [`NoopSink`].
pub trait EventSink {
    /// `false` for sinks that discard everything — lets emitters skip
    /// record construction entirely.
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    /// Consumes one record.
    fn emit(&mut self, event: &TraceEvent);
}

impl<S: EventSink + ?Sized> EventSink for &mut S {
    #[inline]
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    #[inline]
    fn emit(&mut self, event: &TraceEvent) {
        (**self).emit(event)
    }
}

/// The default sink: a zero-sized type that discards everything. With
/// `NoopSink` the instrumentation compiles away entirely; every workload
/// of the benchmark under `benchmark/` runs it, so `scripts/ab.sh`
/// catches a regression of the uninstrumented path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopSink;

impl EventSink for NoopSink {
    #[inline]
    fn enabled(&self) -> bool {
        false
    }

    #[inline]
    fn emit(&mut self, _event: &TraceEvent) {}
}

/// Collects records in memory; useful in tests and for ad-hoc analysis.
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    /// The records received, in emission order.
    pub events: Vec<TraceEvent>,
}

impl VecSink {
    /// An empty sink.
    pub fn new() -> Self {
        VecSink::default()
    }

    /// Records of one kind, in order.
    pub fn of_kind(&self, kind: &str) -> Vec<TraceEvent> {
        self.events
            .iter()
            .filter(|e| e.kind() == kind)
            .copied()
            .collect()
    }
}

impl EventSink for VecSink {
    fn emit(&mut self, event: &TraceEvent) {
        self.events.push(*event);
    }
}

/// Duplicates every record into two sinks (e.g. a [`JsonlSink`] timeline
/// plus a counting registry).
#[derive(Debug, Default)]
pub struct Tee<A, B>(pub A, pub B);

impl<A: EventSink, B: EventSink> EventSink for Tee<A, B> {
    #[inline]
    fn enabled(&self) -> bool {
        self.0.enabled() || self.1.enabled()
    }

    #[inline]
    fn emit(&mut self, event: &TraceEvent) {
        if self.0.enabled() {
            self.0.emit(event);
        }
        if self.1.enabled() {
            self.1.emit(event);
        }
    }
}

/// The self-describing first line of a JSONL trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceHeader {
    /// Schema identifier (must equal [`TRACE_SCHEMA`] for this version).
    pub schema: String,
    /// Master seed of the run.
    pub seed: u64,
    /// Coordination-mode label (`"bicord"`, `"ecc"`, ...).
    pub mode: String,
    /// Virtual run length in microseconds.
    pub duration_us: u64,
}

impl TraceHeader {
    /// A version-1 header for a run.
    pub fn new(seed: u64, mode: &str, duration_us: u64) -> Self {
        TraceHeader {
            schema: TRACE_SCHEMA.to_string(),
            seed,
            mode: mode.to_string(),
            duration_us,
        }
    }

    /// Serializes the header as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"schema\":{},\"seed\":{},\"mode\":{},\"duration_us\":{}}}",
            json::escape(&self.schema),
            self.seed,
            json::escape(&self.mode),
            self.duration_us
        )
    }

    /// Parses a header line produced by [`TraceHeader::to_json`].
    ///
    /// Returns `None` for malformed lines or unknown schemas — callers
    /// must treat that as "do not interpret the rest of the file".
    pub fn parse(line: &str) -> Option<Self> {
        let doc = json::parse(line).ok()?;
        let schema = doc.get("schema")?.as_str()?;
        if schema != TRACE_SCHEMA {
            return None;
        }
        Some(TraceHeader {
            schema: schema.to_string(),
            seed: doc.get("seed")?.as_u64()?,
            mode: doc.get("mode")?.as_str()?.to_string(),
            duration_us: doc.get("duration_us")?.as_u64()?,
        })
    }
}

/// Writes a deterministic, schema-versioned JSONL timeline of one run.
///
/// Line 1 is the [`TraceHeader`]; every further line is one
/// [`TraceEvent`]. [`TraceEvent::Dequeue`] records are high-volume, so by
/// default they are *aggregated* into per-kind counts reported in the
/// summary trailer instead of being written individually; enable
/// [`JsonlSink::include_dequeues`] for the full stream. The final line is
/// a summary object (`{"summary":true,...}`).
///
/// Output depends only on the emitted records, which for a seeded run
/// depend only on the configuration — never on wall clock, thread count,
/// or environment.
#[derive(Debug)]
pub struct JsonlSink {
    path: PathBuf,
    out: io::BufWriter<std::fs::File>,
    line: String,
    include_dequeues: bool,
    events_written: u64,
    dequeue_counts: BTreeMap<&'static str, u64>,
    error: Option<io::Error>,
}

impl JsonlSink {
    /// Creates `path` (truncating) and writes the header line.
    pub fn create(path: impl AsRef<Path>, header: &TraceHeader) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = std::fs::File::create(&path)?;
        let mut out = io::BufWriter::new(file);
        out.write_all(header.to_json().as_bytes())?;
        out.write_all(b"\n")?;
        Ok(JsonlSink {
            path,
            out,
            line: String::with_capacity(128),
            include_dequeues: false,
            events_written: 0,
            dequeue_counts: BTreeMap::new(),
            error: None,
        })
    }

    /// Also writes every individual [`TraceEvent::Dequeue`] record
    /// (large files; off by default).
    pub fn include_dequeues(mut self, yes: bool) -> Self {
        self.include_dequeues = yes;
        self
    }

    /// The file being written.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records written so far (excluding header and summary).
    pub fn events_written(&self) -> u64 {
        self.events_written
    }

    /// Writes the summary trailer and flushes. Returns the total record
    /// count, or the first I/O error encountered at any point.
    pub fn finish(mut self) -> io::Result<u64> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        let mut trailer = String::from("{\"summary\":true");
        let _ = write!(trailer, ",\"events\":{}", self.events_written);
        trailer.push_str(",\"dequeues\":{");
        for (i, (kind, n)) in self.dequeue_counts.iter().enumerate() {
            if i > 0 {
                trailer.push(',');
            }
            let _ = write!(trailer, "\"{kind}\":{n}");
        }
        trailer.push_str("}}");
        self.out.write_all(trailer.as_bytes())?;
        self.out.write_all(b"\n")?;
        self.out.flush()?;
        Ok(self.events_written)
    }
}

impl EventSink for JsonlSink {
    fn emit(&mut self, event: &TraceEvent) {
        if self.error.is_some() {
            return;
        }
        if let TraceEvent::Dequeue { kind, .. } = event {
            *self.dequeue_counts.entry(kind).or_insert(0) += 1;
            if !self.include_dequeues {
                return;
            }
        }
        self.line.clear();
        event.write_jsonl(&mut self.line);
        self.line.push('\n');
        if let Err(e) = self.out.write_all(self.line.as_bytes()) {
            self.error = Some(e);
            return;
        }
        self.events_written += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_sink_is_zero_sized_and_disabled() {
        assert_eq!(std::mem::size_of::<NoopSink>(), 0);
        assert!(!NoopSink.enabled());
        // Emitting into it is a no-op (must not panic, must stay ZST).
        let mut s = NoopSink;
        s.emit(&TraceEvent::Reservation { t_us: 1, ws_us: 2 });
    }

    #[test]
    fn vec_sink_collects_in_order() {
        let mut s = VecSink::new();
        s.emit(&TraceEvent::NRound { t_us: 1, rounds: 1 });
        s.emit(&TraceEvent::Reservation {
            t_us: 2,
            ws_us: 30_000,
        });
        s.emit(&TraceEvent::NRound { t_us: 3, rounds: 2 });
        assert_eq!(s.events.len(), 3);
        assert_eq!(s.of_kind("n_round").len(), 2);
        assert_eq!(s.events[1].time_us(), 2);
    }

    #[test]
    fn mut_ref_is_a_sink() {
        fn takes_sink<S: EventSink>(sink: &mut S) {
            sink.emit(&TraceEvent::Dequeue { t_us: 0, kind: "x" });
        }
        let mut s = VecSink::new();
        takes_sink(&mut &mut s);
        assert_eq!(s.events.len(), 1);
    }

    #[test]
    fn tee_duplicates_and_respects_enabled() {
        let mut t = Tee(VecSink::new(), NoopSink);
        t.emit(&TraceEvent::Detection {
            t_us: 5,
            window_start_us: 1,
            highs: 2,
        });
        assert!(t.enabled());
        assert_eq!(t.0.events.len(), 1);
    }

    #[test]
    fn jsonl_serialization_is_stable() {
        let mut line = String::new();
        TraceEvent::Estimate {
            t_us: 1_500,
            estimate_us: 42_000,
            rounds: 3,
            phase: "learning",
        }
        .write_jsonl(&mut line);
        assert_eq!(
            line,
            "{\"t_us\":1500,\"ev\":\"estimate\",\"estimate_us\":42000,\
             \"rounds\":3,\"phase\":\"learning\"}"
        );
        line.clear();
        TraceEvent::CsiClassified {
            t_us: 7,
            deviation: 0.25,
            high: false,
        }
        .write_jsonl(&mut line);
        assert_eq!(
            line,
            "{\"t_us\":7,\"ev\":\"csi_classified\",\"deviation\":0.25,\"high\":false}"
        );
    }

    #[test]
    fn header_round_trips() {
        let h = TraceHeader::new(42, "bicord", 10_000_000);
        let parsed = TraceHeader::parse(&h.to_json()).expect("own output parses");
        assert_eq!(parsed, h);
    }

    #[test]
    fn header_round_trips_extreme_seed_and_escaped_mode() {
        let h = TraceHeader::new(u64::MAX, "a\"quoted\\mode", 1);
        let line = h.to_json();
        assert_eq!(
            line,
            "{\"schema\":\"bicord-trace/1\",\"seed\":18446744073709551615,\
             \"mode\":\"a\\\"quoted\\\\mode\",\"duration_us\":1}"
        );
        assert_eq!(TraceHeader::parse(&line), Some(h));
    }

    #[test]
    fn header_rejects_unknown_schema() {
        let line = "{\"schema\":\"bicord-trace/999\",\"seed\":1,\"mode\":\"x\",\"duration_us\":5}";
        assert!(TraceHeader::parse(line).is_none());
        assert!(TraceHeader::parse("not json").is_none());
    }

    #[test]
    fn jsonl_sink_writes_header_events_and_summary() {
        let dir = std::env::temp_dir().join(format!("bicord-obs-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        let header = TraceHeader::new(7, "bicord", 1_000_000);
        let mut sink = JsonlSink::create(&path, &header).unwrap();
        sink.emit(&TraceEvent::Dequeue {
            t_us: 1,
            kind: "Timer",
        });
        sink.emit(&TraceEvent::Dequeue {
            t_us: 2,
            kind: "Timer",
        });
        sink.emit(&TraceEvent::Reservation {
            t_us: 3,
            ws_us: 30_000,
        });
        let n = sink.finish().unwrap();
        assert_eq!(n, 1, "dequeues aggregate by default");
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(TraceHeader::parse(lines[0]).is_some());
        assert!(lines[1].contains("\"ev\":\"reservation\""));
        assert!(lines[2].contains("\"summary\":true"));
        assert!(lines[2].contains("\"Timer\":2"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn jsonl_sink_can_include_dequeues() {
        let dir = std::env::temp_dir().join(format!("bicord-obs-test2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        let mut sink = JsonlSink::create(&path, &TraceHeader::new(1, "x", 1))
            .unwrap()
            .include_dequeues(true);
        sink.emit(&TraceEvent::Dequeue {
            t_us: 1,
            kind: "Timer",
        });
        assert_eq!(sink.finish().unwrap(), 1);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"ev\":\"dequeue\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_kind_serializes_with_its_kind_label() {
        let events = [
            TraceEvent::Dequeue { t_us: 0, kind: "k" },
            TraceEvent::CsiClassified {
                t_us: 0,
                deviation: 0.5,
                high: true,
            },
            TraceEvent::Detection {
                t_us: 0,
                window_start_us: 0,
                highs: 2,
            },
            TraceEvent::ChannelRequest { t_us: 0, node: 0 },
            TraceEvent::Reservation { t_us: 0, ws_us: 1 },
            TraceEvent::WhiteSpace { t_us: 0, nav_us: 1 },
            TraceEvent::NRound { t_us: 0, rounds: 1 },
            TraceEvent::Estimate {
                t_us: 0,
                estimate_us: 1,
                rounds: 1,
                phase: "learning",
            },
            TraceEvent::ReEstimate {
                t_us: 0,
                reason: "expiry",
            },
            TraceEvent::BurstComplete {
                t_us: 0,
                node: 0,
                delivered: 1,
                failed: 0,
            },
            TraceEvent::PacketDelivered {
                t_us: 0,
                node: 0,
                seq: 9,
            },
            TraceEvent::TrialResolved {
                t_us: 0,
                index: 1,
                detected: true,
            },
            TraceEvent::MediumCacheInvalidated {
                t_us: 0,
                device: 2,
                dropped: 3,
            },
            TraceEvent::MediumCacheStats {
                t_us: 0,
                link_hits: 4,
                link_misses: 1,
                band_hits: 9,
                band_misses: 2,
            },
            TraceEvent::MediumGridStats {
                t_us: 0,
                queries: 7,
                cells: 21,
                visited: 12,
                culled: 30,
                out_of_range: 2,
            },
            TraceEvent::FaultControlLost { t_us: 0, node: 1 },
            TraceEvent::FaultCtsLost { t_us: 0, nav_us: 5 },
            TraceEvent::FaultPhantomCsi { t_us: 0 },
            TraceEvent::FaultChurn {
                t_us: 0,
                device: 2,
                dropped: 1,
            },
            TraceEvent::SignalingBackoff {
                t_us: 0,
                node: 0,
                failures: 1,
            },
            TraceEvent::CsmaFallback {
                t_us: 0,
                node: 0,
                failures: 3,
            },
            TraceEvent::LearningAbort {
                t_us: 0,
                rounds: 40,
            },
            TraceEvent::GuardStall {
                t_us: 0,
                dequeues: 1_000_000,
            },
            TraceEvent::GuardLiveness {
                t_us: 0,
                node: 2,
                started_us: 0,
            },
            TraceEvent::GuardConservation {
                t_us: 0,
                invariant: "active_transmissions",
                expected: 1,
                actual: 2,
            },
        ];
        for e in &events {
            let mut line = String::new();
            e.write_jsonl(&mut line);
            assert!(line.contains(&format!("\"ev\":\"{}\"", e.kind())), "{line}");
        }
        let kinds: Vec<&str> = events.iter().map(TraceEvent::kind).collect();
        assert_eq!(kinds, TraceEvent::KINDS, "TraceEvent::KINDS drifted");
    }
}
