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
//! # Reading
//!
//! [`TraceFile`] reads a JSONL timeline back into typed records with
//! [`TraceEvent::from_json`], the inverse of [`TraceEvent::write_jsonl`].
//! Both are generated from the one `trace_events!` table below, which
//! declares each record kind and its fields.
//!
//! See `docs/OBSERVABILITY.md` for the event taxonomy and the JSONL
//! schema.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::io::{self, Write};
use std::path::Path;

use crate::json::{self, Json};

/// The JSONL trace schema identifier written in every file header.
///
/// Bump the trailing number whenever a record's fields change meaning;
/// readers must check it via [`TraceHeader::parse`].
pub const TRACE_SCHEMA: &str = "bicord-trace/1";

/// A value type a [`TraceEvent`] field can hold: how it is written to a
/// JSONL line and read back from one.
trait TraceField: Sized {
    /// Appends the value's JSON text.
    fn write(&self, out: &mut String);
    /// Reads the value back, or says what was expected instead.
    fn read(value: &Json) -> Result<Self, String>;
}

macro_rules! integer_fields {
    ($($ty:ty),*) => {$(
        impl TraceField for $ty {
            fn write(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }

            fn read(value: &Json) -> Result<Self, String> {
                let max = <$ty>::MAX;
                (value.as_u64())
                    .and_then(|n| <$ty>::try_from(n).ok())
                    .ok_or_else(|| format!("expected an integer in 0..={max}, found {value}"))
            }
        }
    )*};
}

integer_fields!(u32, u64);

impl TraceField for f64 {
    fn write(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }

    fn read(value: &Json) -> Result<Self, String> {
        value
            .as_f64()
            .ok_or_else(|| format!("expected a number, found {value}"))
    }
}

impl TraceField for bool {
    fn write(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }

    fn read(value: &Json) -> Result<Self, String> {
        value
            .as_bool()
            .ok_or_else(|| format!("expected true or false, found {value}"))
    }
}

/// The trailer's per-label dequeue counts.
impl TraceField for BTreeMap<String, u64> {
    fn write(&self, out: &mut String) {
        out.push('{');
        for (i, (kind, n)) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json::escape(kind));
            out.push(':');
            n.write(out);
        }
        out.push('}');
    }

    fn read(value: &Json) -> Result<Self, String> {
        let counts = (value.as_object())
            .ok_or_else(|| format!("expected an object of counts, found {value}"))?;
        (counts.iter())
            .map(|(kind, n)| {
                let n = u64::read(n).map_err(|e| format!("count {}: {e}", json::escape(kind)))?;
                Ok((kind.clone(), n))
            })
            .collect()
    }
}

/// The header's schema and mode labels.
impl TraceField for String {
    fn write(&self, out: &mut String) {
        out.push_str(&json::escape(self));
    }

    fn read(value: &Json) -> Result<Self, String> {
        (value.as_str())
            .map(str::to_string)
            .ok_or_else(|| format!("expected a string, found {value}"))
    }
}

/// [`TraceEvent::Dequeue`]'s event-type label: written, never read,
/// because [`JsonlSink`] counts dequeues in its trailer instead of
/// writing them as lines.
impl TraceField for &'static str {
    fn write(&self, out: &mut String) {
        out.push('"');
        out.push_str(self);
        out.push('"');
    }

    fn read(_: &Json) -> Result<Self, String> {
        Err(
            "dequeue records are never written as lines; a trace holds them \
             only as the summary trailer's \"dequeues\" counts"
                .to_string(),
        )
    }
}

/// Declares the closed label sets that trace records carry as strings.
macro_rules! trace_labels {
    ($(
        $(#[doc = $doc:literal])*
        $name:ident {
            $($(#[doc = $value_doc:literal])* $value:ident = $label:literal,)*
        }
    )*) => {$(
        $(#[doc = $doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $name {
            $($(#[doc = $value_doc])* $value,)*
        }

        impl $name {
            /// Every value, in declaration order.
            pub const ALL: &'static [$name] = &[$($name::$value),*];

            /// The label a trace record carries.
            pub fn as_str(self) -> &'static str {
                match self {
                    $($name::$value => $label,)*
                }
            }
        }

        impl TraceField for $name {
            fn write(&self, out: &mut String) {
                out.push('"');
                out.push_str(self.as_str());
                out.push('"');
            }

            fn read(value: &Json) -> Result<Self, String> {
                let found = value.as_str();
                $name::ALL
                    .iter()
                    .copied()
                    .find(|v| Some(v.as_str()) == found)
                    .ok_or_else(|| {
                        let known: Vec<String> =
                            $name::ALL.iter().map(|v| json::escape(v.as_str())).collect();
                        format!("expected one of {}, found {value}", known.join(", "))
                    })
            }
        }
    )*};
}

trace_labels! {
    /// Which phase the white-space allocator is in
    /// ([`TraceEvent::Estimate`]'s `phase`).
    AllocationPhase {
        /// Still discovering the burst length.
        Learning = "learning",
        /// One round covers a burst; the estimate is stable.
        Converged = "converged",
    }

    /// Why the allocator re-estimated ([`TraceEvent::ReEstimate`]'s
    /// `reason`).
    ReEstimateReason {
        /// A converged estimate outlived its expiry deadline.
        Expiry = "expiry",
        /// Confirmed multi-round bursts re-opened learning.
        Growth = "growth",
        /// Clean bursts probed the estimate downwards.
        ShrinkProbe = "shrink-probe",
    }

    /// A conservation invariant the runtime guard checks
    /// ([`TraceEvent::GuardConservation`]'s `invariant`).
    Invariant {
        /// Transmissions begun minus ended equals the medium slab's count.
        ActiveTransmissions = "active_transmissions",
        /// Busy airtime fits in the window's capacity.
        AirtimeAccounting = "airtime_accounting",
    }
}

/// A record's fields, checked against the names its kind declares.
struct Fields<'a> {
    kind: &'a str,
    fields: &'a [(String, Json)],
}

impl<'a> Fields<'a> {
    /// Refuses any key outside `names` ([`json::parse`] already refuses
    /// a key given twice).
    fn check(kind: &'a str, doc: &'a Json, names: &[&str]) -> Result<Self, String> {
        let fields = doc.as_object().ok_or("not a JSON object")?;
        if let Some((name, _)) = fields
            .iter()
            .find(|(name, _)| !names.contains(&name.as_str()))
        {
            return Err(format!("{kind}: unknown field {}", json::escape(name)));
        }
        Ok(Fields { kind, fields })
    }

    /// Reads one declared field.
    fn get<T: TraceField>(&self, name: &str) -> Result<T, String> {
        let kind = self.kind;
        let (_, value) = (self.fields.iter())
            .find(|(key, _)| key == name)
            .ok_or_else(|| format!("{kind}: missing field \"{name}\""))?;
        T::read(value).map_err(|e| format!("{kind}: field \"{name}\": {e}"))
    }
}

/// `Some(value)` for a field named `node`, `None` for any other field.
macro_rules! node_field {
    (node, $value:ident) => {
        Some($value)
    };
    ($other:ident, $value:ident) => {{
        let _ = $value;
        None
    }};
}

/// Declares [`TraceEvent`] from one table: each variant's `ev` label and
/// its fields in write order, `t_us` first. The record kinds, labels,
/// timestamps, node attribution, writer and reader all come from it.
macro_rules! trace_events {
    ($(
        $(#[doc = $doc:literal])*
        $variant:ident = $label:literal {
            $(#[doc = $t_doc:literal])*
            t_us: u64,
            $($(#[doc = $field_doc:literal])* $field:ident: $ty:ty,)*
        }
    )*) => {
        /// One structured observability record.
        ///
        /// All timestamps are virtual microseconds since the start of the
        /// run.
        #[derive(Debug, Clone, Copy, PartialEq)]
        pub enum TraceEvent {
            $(
                $(#[doc = $doc])*
                $variant {
                    $(#[doc = $t_doc])*
                    t_us: u64,
                    $($(#[doc = $field_doc])* $field: $ty,)*
                },
            )*
        }

        impl TraceEvent {
            /// Every record kind, in taxonomy order (the table in
            /// `docs/OBSERVABILITY.md`).
            pub const KINDS: &'static [&'static str] = &[$($label),*];

            /// Stable short name of the record kind (used as the JSONL `ev`
            /// field and as the counter key in metric registries).
            pub fn kind(&self) -> &'static str {
                match self {
                    $(TraceEvent::$variant { .. } => $label,)*
                }
            }

            /// The record's virtual timestamp in microseconds.
            pub fn time_us(&self) -> u64 {
                match *self {
                    $(TraceEvent::$variant { t_us, .. } => t_us,)*
                }
            }

            /// The node index of a node-attributed record (one with a
            /// `node` field).
            pub fn node(&self) -> Option<u32> {
                match *self {
                    $(TraceEvent::$variant { $($field,)* .. } => {
                        None$(.or(node_field!($field, $field)))*
                    })*
                }
            }

            /// Serializes the record as one deterministic JSON line (no
            /// trailing newline): `t_us`, `ev`, then the fields in
            /// declaration order. Floats use Rust's shortest round-trip
            /// formatting.
            pub fn write_jsonl(&self, out: &mut String) {
                match self {
                    $(TraceEvent::$variant { t_us, $($field,)* } => {
                        out.push_str("{\"t_us\":");
                        t_us.write(out);
                        out.push_str(concat!(",\"ev\":\"", $label, "\""));
                        $(
                            out.push_str(concat!(",\"", stringify!($field), "\":"));
                            $field.write(out);
                        )*
                    })*
                }
                out.push('}');
            }

            /// Reads one record line back: the inverse of
            /// [`TraceEvent::write_jsonl`]. A missing, mistyped or unknown
            /// field, an integer out of its field's range, an unknown label
            /// value or an unknown `ev` kind is an error naming the kind
            /// and the field. So is a `dequeue` record, which
            /// [`JsonlSink`] never writes as a line.
            pub fn from_json(doc: &Json) -> Result<Self, String> {
                if doc.as_object().is_none() {
                    return Err("not a JSON object".to_string());
                }
                let Some(Json::Str(kind)) = doc.get("ev") else {
                    return Err("missing string \"ev\"".to_string());
                };
                match kind.as_str() {
                    $($label => {
                        let fields = Fields::check(
                            $label,
                            doc,
                            &["t_us", "ev", $(stringify!($field)),*],
                        )?;
                        Ok(TraceEvent::$variant {
                            t_us: fields.get("t_us")?,
                            $($field: fields.get(stringify!($field))?,)*
                        })
                    })*
                    other => Err(format!(
                        "unknown record kind {}: not in TraceEvent::KINDS (a trace \
                         from another schema revision?)",
                        json::escape(other)
                    )),
                }
            }

            /// One record of each kind, in [`TraceEvent::KINDS`] order,
            /// with every field drawn from `bits`.
            #[cfg(test)]
            fn arbitrary_each(bits: &mut impl Iterator<Item = u64>) -> Vec<TraceEvent> {
                let mut draw = || bits.next().unwrap_or(0);
                vec![$(TraceEvent::$variant {
                    t_us: draw(),
                    $($field: tests::Arbitrary::arbitrary(draw()),)*
                }),*]
            }
        }
    };
}

trace_events! {
    /// The engine dispatched one DES event (`kind` is the scenario's
    /// event-type label). High volume: sinks typically aggregate these.
    Dequeue = "dequeue" {
        /// Dispatch time.
        t_us: u64,
        /// Event-type label.
        kind: &'static str,
    }
    /// The CSI detector classified one sample against its threshold.
    CsiClassified = "csi_classified" {
        /// Sample time.
        t_us: u64,
        /// Amplitude deviation of the sample.
        deviation: f64,
        /// `true` = high fluctuation (contributes to the continuity rule).
        high: bool,
    }
    /// The continuity rule fired: the Wi-Fi side believes a ZigBee node
    /// requested the channel.
    Detection = "detection" {
        /// When the rule fired.
        t_us: u64,
        /// Earliest contributing high-fluctuation sample.
        window_start_us: u64,
        /// High samples in the window at firing time.
        highs: u32,
    }
    /// A ZigBee node handed a signaling control packet to its MAC.
    ChannelRequest = "channel_request" {
        /// Hand-off time.
        t_us: u64,
        /// Node index (0 = primary).
        node: u32,
    }
    /// The coordinator granted a white space (a CTS-to-self follows).
    Reservation = "reservation" {
        /// Grant time.
        t_us: u64,
        /// White-space length in microseconds.
        ws_us: u64,
    }
    /// A CTS-to-self finished on air; its NAV opens a white space.
    WhiteSpace = "white_space" {
        /// CTS end time (= white-space start).
        t_us: u64,
        /// NAV duration in microseconds.
        nav_us: u64,
    }
    /// The allocator counted one more signaling round for the current
    /// burst (`N_round` in Sec. VI).
    NRound = "n_round" {
        /// Request time.
        t_us: u64,
        /// Rounds granted to the burst so far.
        rounds: u32,
    }
    /// The allocator updated its burst-length estimate (`T_estimation`).
    Estimate = "estimate" {
        /// Burst-end time at which the estimator ran.
        t_us: u64,
        /// New estimate in microseconds.
        estimate_us: u64,
        /// Rounds the finished burst took.
        rounds: u32,
        /// The allocator's phase after the update.
        phase: AllocationPhase,
    }
    /// The allocator fell back to the learning phase (or probed the
    /// estimate downwards).
    ReEstimate = "re_estimate" {
        /// Trigger time.
        t_us: u64,
        /// What triggered it.
        reason: ReEstimateReason,
    }
    /// A ZigBee node finished one application burst.
    BurstComplete = "burst_complete" {
        /// Completion time.
        t_us: u64,
        /// Node index.
        node: u32,
        /// Packets delivered.
        delivered: u32,
        /// Packets abandoned.
        failed: u32,
    }
    /// One ZigBee data packet was acknowledged end-to-end.
    PacketDelivered = "packet_delivered" {
        /// Delivery time.
        t_us: u64,
        /// Node index.
        node: u32,
        /// Application sequence number.
        seq: u32,
    }
    /// A Table I/II signaling trial resolved.
    TrialResolved = "trial_resolved" {
        /// Resolution time.
        t_us: u64,
        /// 1-based trial index.
        index: u32,
        /// Whether the detector caught the trial.
        detected: bool,
    }
    /// A device move invalidated part of the medium's link-budget cache
    /// (emitted per mobility step; absent in static scenarios).
    MediumCacheInvalidated = "medium_cache_invalidated" {
        /// Invalidation time.
        t_us: u64,
        /// Raw id of the device that moved.
        device: u32,
        /// Shadowing realisations discarded with the cached budgets.
        dropped: u32,
    }
    /// End-of-run snapshot of the medium's cache effectiveness (emitted
    /// by mobility runs, where invalidation pressure is the question).
    MediumCacheStats = "medium_cache_stats" {
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
    }
    /// End-of-run snapshot of the spatial culling grid's effectiveness
    /// (emitted alongside [`TraceEvent::MediumCacheStats`] by mobility
    /// runs; absent in static scenarios).
    MediumGridStats = "medium_grid_stats" {
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
    }
    /// Fault injection suppressed a control packet's CSI signature: the
    /// classifier never sees the continuity samples it should have
    /// produced (absent in fault-free runs).
    FaultControlLost = "fault_control_lost" {
        /// Suppression time (the control packet's hand-off to the MAC).
        t_us: u64,
        /// Signaling node index.
        node: u32,
    }
    /// Fault injection lost a CTS-to-self before it reached contending
    /// stations: the "reserved" white space still sees Wi-Fi contention.
    FaultCtsLost = "fault_cts_lost" {
        /// CTS end time (= the unprotected white-space start).
        t_us: u64,
        /// NAV duration the contenders failed to honour, in microseconds.
        nav_us: u64,
    }
    /// Fault injection fabricated a ZigBee-like CSI disturbance on a
    /// quiet sample (a phantom channel request).
    FaultPhantomCsi = "fault_phantom_csi" {
        /// Sample time.
        t_us: u64,
    }
    /// Fault-driven device churn moved a device and invalidated its
    /// cached link budgets.
    FaultChurn = "fault_churn" {
        /// Churn-step time.
        t_us: u64,
        /// Raw id of the device that moved.
        device: u32,
        /// Shadowing realisations discarded with the cached budgets.
        dropped: u32,
    }
    /// A client exhausted one signaling round's control budget without an
    /// answer and backed off before re-signaling.
    SignalingBackoff = "signaling_backoff" {
        /// Back-off decision time.
        t_us: u64,
        /// Node index.
        node: u32,
        /// Consecutive unanswered rounds so far (including this one).
        failures: u32,
    }
    /// A client gave up on signaling after `k` consecutive unanswered
    /// rounds and fell back to plain CSMA for the rest of the burst.
    CsmaFallback = "csma_fallback" {
        /// Fallback time.
        t_us: u64,
        /// Node index.
        node: u32,
        /// Consecutive unanswered rounds that triggered the fallback.
        failures: u32,
    }
    /// The allocator detected inconsistent `N_round` accounting, aborted
    /// the white-space schedule and re-entered the learning phase.
    LearningAbort = "learning_abort" {
        /// Abort time.
        t_us: u64,
        /// Rounds the suspicious burst had accumulated.
        rounds: u32,
    }
    /// The runtime guard detected a livelock: the run dequeued `dequeues`
    /// consecutive events without simulated time advancing. Fatal — the
    /// run aborts right after emitting this record.
    GuardStall = "guard_stall" {
        /// Virtual time the clock is stuck at.
        t_us: u64,
        /// Consecutive same-instant dequeues observed.
        dequeues: u64,
    }
    /// The runtime guard found a burst that exceeded its liveness bound
    /// without completing or aborting (reported once per burst).
    GuardLiveness = "guard_liveness" {
        /// Time of the check.
        t_us: u64,
        /// Node whose burst is overdue.
        node: u32,
        /// When the overdue burst started.
        started_us: u64,
    }
    /// The runtime guard found a conservation invariant out of balance
    /// (transmission accounting vs. the medium slab, or airtime vs.
    /// window capacity).
    GuardConservation = "guard_conservation" {
        /// Time of the check.
        t_us: u64,
        /// Which invariant broke.
        invariant: Invariant,
        /// The value the invariant predicts.
        expected: u64,
        /// The value actually observed.
        actual: u64,
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

    /// Parses a header line produced by [`TraceHeader::to_json`]; every
    /// field is required and no other is allowed.
    ///
    /// An error (naming the field) for malformed lines or unknown
    /// schemas — callers must treat that as "do not interpret the rest
    /// of the file".
    pub fn parse(line: &str) -> Result<Self, String> {
        let doc = json::parse(line)?;
        let fields = Fields::check("header", &doc, &["schema", "seed", "mode", "duration_us"])?;
        let schema: String = fields.get("schema")?;
        if schema != TRACE_SCHEMA {
            return Err(format!(
                "header: schema {} is not {}",
                json::escape(&schema),
                json::escape(TRACE_SCHEMA)
            ));
        }
        Ok(TraceHeader {
            schema,
            seed: fields.get("seed")?,
            mode: fields.get("mode")?,
            duration_us: fields.get("duration_us")?,
        })
    }
}

/// Writes a deterministic, schema-versioned JSONL timeline of one run.
///
/// Line 1 is the [`TraceHeader`]; every further line is one
/// [`TraceEvent`], except [`TraceEvent::Dequeue`]: dequeues are
/// high-volume, so they are counted per event-type label instead and
/// the counts reported in the final line, the [`TraceSummary`] trailer
/// (`{"summary":true,...}`). [`TraceFile`] reads the file back.
///
/// Output depends only on the emitted records, which for a seeded run
/// depend only on the configuration — never on wall clock, thread count,
/// or environment.
#[derive(Debug)]
pub struct JsonlSink {
    out: io::BufWriter<std::fs::File>,
    line: String,
    events_written: u64,
    dequeue_counts: BTreeMap<&'static str, u64>,
    error: Option<io::Error>,
}

impl JsonlSink {
    /// Creates `path` (truncating) and writes the header line.
    pub fn create(path: impl AsRef<Path>, header: &TraceHeader) -> io::Result<Self> {
        let file = std::fs::File::create(path)?;
        let mut out = io::BufWriter::new(file);
        out.write_all(header.to_json().as_bytes())?;
        out.write_all(b"\n")?;
        Ok(JsonlSink {
            out,
            line: String::with_capacity(128),
            events_written: 0,
            dequeue_counts: BTreeMap::new(),
            error: None,
        })
    }

    /// Writes the summary trailer and flushes. Returns the total record
    /// count, or the first I/O error encountered at any point.
    pub fn finish(mut self) -> io::Result<u64> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        let summary = TraceSummary {
            events: self.events_written,
            dequeues: (self.dequeue_counts.iter())
                .map(|(kind, n)| (kind.to_string(), *n))
                .collect(),
        };
        self.out.write_all(summary.to_json().as_bytes())?;
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
            return;
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

/// The `{"summary":true,...}` trailer that ends a finished trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Records the sink wrote (excludes header and trailer).
    pub events: u64,
    /// Dispatched DES events per event-type label.
    pub dequeues: BTreeMap<String, u64>,
}

impl TraceSummary {
    /// Serializes the trailer as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"summary\":true,\"events\":");
        self.events.write(&mut out);
        out.push_str(",\"dequeues\":");
        self.dequeues.write(&mut out);
        out.push('}');
        out
    }

    /// Reads a trailer written by [`TraceSummary::to_json`]; every field
    /// is required and no other is allowed.
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        let fields = Fields::check("summary", doc, &["summary", "events", "dequeues"])?;
        if !fields.get::<bool>("summary")? {
            return Err("summary: field \"summary\" is not true".to_string());
        }
        Ok(TraceSummary {
            events: fields.get("events")?,
            dequeues: fields.get("dequeues")?,
        })
    }
}

/// A fully parsed `bicord-trace/1` file: the header, every record as a
/// typed [`TraceEvent`], and the trailer.
#[derive(Debug, Clone)]
pub struct TraceFile {
    /// The schema-versioned header line.
    pub header: TraceHeader,
    /// All records, in file (= virtual time) order.
    pub records: Vec<TraceEvent>,
    /// The summary trailer, if the run finished cleanly.
    pub summary: Option<TraceSummary>,
}

/// Why a trace file failed to parse.
#[derive(Debug)]
pub enum TraceError {
    /// The file could not be read.
    Io(io::Error),
    /// Line 1 is not a `bicord-trace/1` header, for the given reason.
    BadHeader(String),
    /// A record or trailer line does not read back as one.
    BadRecord {
        /// 1-based line number.
        line: usize,
        /// What went wrong, naming the kind and field.
        reason: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "cannot read trace: {e}"),
            TraceError::BadHeader(reason) => write!(
                f,
                "line 1 is not a {TRACE_SCHEMA} header: {reason} (is this a JSONL trace \
                 written by `bicord --trace` / a bench `--trace`?)"
            ),
            TraceError::BadRecord { line, reason } => {
                write!(f, "line {line}: malformed trace record: {reason}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

impl TraceFile {
    /// Reads and parses a trace file from disk.
    pub fn read(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        Self::parse(&std::fs::read_to_string(path)?)
    }

    /// Parses the full text of a trace file. Blank lines are skipped;
    /// any other line that is not a record, or that follows the trailer,
    /// is an error.
    pub fn parse(text: &str) -> Result<Self, TraceError> {
        let mut lines = text.lines().enumerate();
        let (_, first) = lines.next().unwrap_or((0, ""));
        let header = TraceHeader::parse(first).map_err(TraceError::BadHeader)?;
        let mut records = Vec::new();
        let mut summary = None;
        for (idx, line) in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let parsed = json::parse(line).and_then(|doc| {
                if summary.is_some() {
                    return Err("a line after the summary trailer".to_string());
                }
                if doc.get("summary").is_some() {
                    summary = Some(TraceSummary::from_json(&doc)?);
                } else {
                    records.push(TraceEvent::from_json(&doc)?);
                }
                Ok(())
            });
            parsed.map_err(|reason| TraceError::BadRecord {
                line: idx + 1,
                reason,
            })?;
        }
        Ok(TraceFile {
            header,
            records,
            summary,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A field value for property tests, derived from arbitrary bits.
    pub(super) trait Arbitrary {
        fn arbitrary(bits: u64) -> Self;
    }

    impl Arbitrary for u32 {
        fn arbitrary(bits: u64) -> Self {
            bits as u32
        }
    }

    impl Arbitrary for u64 {
        fn arbitrary(bits: u64) -> Self {
            bits
        }
    }

    /// Any finite float: every bit pattern but the NaNs and infinities.
    impl Arbitrary for f64 {
        fn arbitrary(bits: u64) -> Self {
            let x = f64::from_bits(bits);
            if x.is_finite() {
                x
            } else {
                bits as f64
            }
        }
    }

    impl Arbitrary for bool {
        fn arbitrary(bits: u64) -> Self {
            bits & 1 == 1
        }
    }

    impl Arbitrary for &'static str {
        fn arbitrary(_: u64) -> Self {
            "timer"
        }
    }

    macro_rules! arbitrary_labels {
        ($($name:ident),*) => {$(
            impl Arbitrary for $name {
                fn arbitrary(bits: u64) -> Self {
                    $name::ALL[bits as usize % $name::ALL.len()]
                }
            }
        )*};
    }

    arbitrary_labels!(AllocationPhase, ReEstimateReason, Invariant);

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
            phase: AllocationPhase::Learning,
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
    fn labels_keep_their_trace_strings() {
        let phases: Vec<&str> = AllocationPhase::ALL.iter().map(|v| v.as_str()).collect();
        assert_eq!(phases, ["learning", "converged"]);
        let reasons: Vec<&str> = ReEstimateReason::ALL.iter().map(|v| v.as_str()).collect();
        assert_eq!(reasons, ["expiry", "growth", "shrink-probe"]);
        let invariants: Vec<&str> = Invariant::ALL.iter().map(|v| v.as_str()).collect();
        assert_eq!(invariants, ["active_transmissions", "airtime_accounting"]);
    }

    #[test]
    fn node_is_the_node_field() {
        let delivered = TraceEvent::PacketDelivered {
            t_us: 1,
            node: 4,
            seq: 9,
        };
        assert_eq!(delivered.node(), Some(4));
        let churn = TraceEvent::FaultChurn {
            t_us: 1,
            device: 4,
            dropped: 9,
        };
        assert_eq!(churn.node(), None);
        assert_eq!(TraceEvent::FaultPhantomCsi { t_us: 1 }.node(), None);
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
        assert_eq!(TraceHeader::parse(&line), Ok(h.clone()));
        let file = TraceFile::parse(&format!("{line}\n")).unwrap();
        assert_eq!(file.header, h);
    }

    #[test]
    fn malformed_headers_are_errors_naming_the_field() {
        for (line, needle) in [
            (
                "{\"schema\":\"bicord-trace/999\",\"seed\":1,\"mode\":\"x\",\"duration_us\":5}",
                "schema \"bicord-trace/999\"",
            ),
            ("not json", "json parse error"),
            ("", "json parse error"),
            (
                "{\"schema\":\"bicord-trace/1\",\"seed\":1,\"mode\":\"x\",\"duration_us\":5,\"bogus\":1}",
                "header: unknown field \"bogus\"",
            ),
            (
                "{\"schema\":\"bicord-trace/1\",\"seed\":1,\"mode\":\"x\"}",
                "header: missing field \"duration_us\"",
            ),
            (
                "{\"schema\":\"bicord-trace/1\",\"seed\":\"1\",\"mode\":\"x\",\"duration_us\":5}",
                "header: field \"seed\"",
            ),
            (
                "{\"schema\":\"bicord-trace/1\",\"seed\":1,\"mode\":7,\"duration_us\":5}",
                "header: field \"mode\": expected a string",
            ),
        ] {
            let reason = TraceHeader::parse(line).unwrap_err();
            assert!(reason.contains(needle), "{line}: {reason}");
            match TraceFile::parse(&format!("{line}\n")) {
                Err(TraceError::BadHeader(why)) => assert_eq!(why, reason),
                other => panic!("{line}: {other:?}"),
            }
        }
    }

    #[test]
    fn jsonl_sink_writes_header_events_and_summary() {
        let dir = std::env::temp_dir().join(format!("bicord-obs-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        let header = TraceHeader::new(7, "bicord", 1_000_000);
        let mut sink = JsonlSink::create(&path, &header).unwrap();
        for (t_us, kind) in [(1, "timer"), (2, "timer"), (3, "tx_end")] {
            sink.emit(&TraceEvent::Dequeue { t_us, kind });
        }
        let reservation = TraceEvent::Reservation {
            t_us: 3,
            ws_us: 30_000,
        };
        sink.emit(&reservation);
        assert_eq!(sink.finish().unwrap(), 1, "dequeues are only counted");
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            text.lines().last(),
            Some("{\"summary\":true,\"events\":1,\"dequeues\":{\"timer\":2,\"tx_end\":1}}")
        );
        let file = TraceFile::read(&path).unwrap();
        assert_eq!(file.header, header);
        assert_eq!(file.records, [reservation]);
        let summary = file.summary.expect("trailer");
        assert_eq!(summary.events, 1);
        let dequeues: Vec<(&str, u64)> = (summary.dequeues.iter())
            .map(|(kind, n)| (kind.as_str(), *n))
            .collect();
        assert_eq!(dequeues, [("timer", 2), ("tx_end", 1)]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Parses `line` as line 2 of a trace and returns the error text.
    fn record_error(line: &str) -> String {
        let header = TraceHeader::new(1, "x", 1).to_json();
        match TraceFile::parse(&format!("{header}\n{line}\n")) {
            Ok(file) => panic!("{line} parsed as {:?}", file.records),
            Err(e) => e.to_string(),
        }
    }

    #[test]
    fn malformed_records_are_errors_naming_the_line_and_field() {
        for (line, needles) in [
            ("{\"t_us\":5,\"ev\":\"reservation\"", &["json parse error"][..]),
            ("[1,2]", &["not a JSON object"]),
            ("{\"ev\":\"reservation\",\"ws_us\":1}", &["missing field \"t_us\""]),
            ("{\"t_us\":-5,\"ev\":\"reservation\",\"ws_us\":1}", &["\"t_us\""]),
            ("{\"t_us\":5,\"ev\":7}", &["\"ev\""]),
            ("{\"t_us\":5,\"ev\":\"warp_drive\",\"x\":1}", &["\"warp_drive\"", "TraceEvent::KINDS"]),
            ("{\"t_us\":1000,\"ev\":\"white_space\"}", &["white_space", "missing field \"nav_us\""]),
            (
                "{\"t_us\":1,\"ev\":\"estimate\",\"estimate_us\":1,\"rounds\":\"x\",\"phase\":\"learning\"}",
                &["estimate", "field \"rounds\"", "found \"x\""],
            ),
            (
                "{\"t_us\":1,\"ev\":\"white_space\",\"nav_us\":1,\"extra\":0}",
                &["white_space", "unknown field \"extra\""],
            ),
            (
                "{\"t_us\":1,\"ev\":\"white_space\",\"nav_us\":1,\"nav_us\":2}",
                &["duplicate object key \"nav_us\""],
            ),
            ("{\"t_us\":1,\"ev\":\"n_round\",\"rounds\":4294967296}", &["n_round", "field \"rounds\"", "4294967296"]),
            ("{\"t_us\":1,\"ev\":\"n_round\",\"rounds\":1.5}", &["field \"rounds\""]),
            (
                "{\"t_us\":1,\"ev\":\"estimate\",\"estimate_us\":1,\"rounds\":1,\"phase\":\"frozen\"}",
                &["field \"phase\"", "\"frozen\"", "\"learning\", \"converged\""],
            ),
            ("{\"t_us\":1,\"ev\":\"re_estimate\",\"reason\":\"a\\\"b\"}", &["field \"reason\"", "\"a\\\"b\""]),
            (
                "{\"t_us\":1,\"ev\":\"guard_conservation\",\"invariant\":\"x\",\"expected\":1,\"actual\":2}",
                &["field \"invariant\"", "\"active_transmissions\""],
            ),
            ("{\"t_us\":1,\"ev\":\"csi_classified\",\"deviation\":0.5,\"high\":1}", &["field \"high\""]),
            ("{\"t_us\":1,\"ev\":\"dequeue\",\"kind\":\"timer\"}", &["dequeue", "summary trailer"]),
            ("{\"summary\":true,\"events\":\"x\",\"dequeues\":{}}", &["summary", "\"events\""]),
            ("{\"summary\":true,\"events\":1,\"dequeues\":{\"timer\":-1}}", &["field \"dequeues\"", "count \"timer\""]),
            ("{\"summary\":false,\"events\":1,\"dequeues\":{}}", &["not true"]),
            ("{\"summary\":true,\"events\":1}", &["missing field \"dequeues\""]),
            ("{\"summary\":true,\"events\":1,\"dequeues\":{},\"x\":1}", &["unknown field \"x\""]),
        ] {
            let msg = record_error(line);
            assert!(msg.contains("line 2"), "{line}: {msg}");
            for needle in needles {
                assert!(msg.contains(needle), "{line}: {msg} lacks {needle}");
            }
        }
        let after_trailer = record_error(
            "{\"summary\":true,\"events\":0,\"dequeues\":{}}\n\
             {\"t_us\":1,\"ev\":\"fault_phantom_csi\"}",
        );
        assert!(after_trailer.starts_with("line 3:"), "{after_trailer}");
        assert!(
            after_trailer.contains("after the summary trailer"),
            "{after_trailer}"
        );
    }

    /// Writes `event` as one line and parses it back.
    fn reparse(event: &TraceEvent) -> (String, Result<TraceEvent, String>) {
        let mut line = String::new();
        event.write_jsonl(&mut line);
        let parsed = json::parse(&line).and_then(|doc| TraceEvent::from_json(&doc));
        (line, parsed)
    }

    #[test]
    fn float_edge_values_round_trip() {
        for deviation in [0.0, -0.0, 1.0, 0.1, 5e-324, 1e300, -1e-7, f64::MAX] {
            let event = TraceEvent::CsiClassified {
                t_us: u64::MAX,
                deviation,
                high: true,
            };
            let (line, parsed) = reparse(&event);
            let parsed = parsed.unwrap();
            assert_eq!(reparse(&parsed).0, line);
        }
    }

    proptest! {
        /// One record of every kind with arbitrary integers, bools,
        /// finite floats and labels: writing, reading and writing again
        /// gives the same line. Dequeue lines are refused instead.
        #[test]
        fn every_kind_writes_reads_and_writes_the_same_line(
            bits in proptest::collection::vec(any::<u64>(), 128),
        ) {
            let events = TraceEvent::arbitrary_each(&mut bits.into_iter());
            let kinds: Vec<&str> = events.iter().map(TraceEvent::kind).collect();
            prop_assert_eq!(kinds, TraceEvent::KINDS);
            for event in &events {
                let (line, parsed) = reparse(event);
                if let TraceEvent::Dequeue { .. } = event {
                    prop_assert!(parsed.unwrap_err().contains("summary trailer"));
                    continue;
                }
                prop_assert!(parsed.is_ok(), "{}: {:?}", line, parsed);
                prop_assert_eq!(reparse(&parsed.unwrap()).0, line);
            }
        }

        /// Every label value of every record that carries one.
        #[test]
        fn every_label_value_round_trips(t_us in any::<u64>(), n in any::<u64>()) {
            let mut events = Vec::new();
            for &phase in AllocationPhase::ALL {
                events.push(TraceEvent::Estimate { t_us, estimate_us: n, rounds: n as u32, phase });
            }
            for &reason in ReEstimateReason::ALL {
                events.push(TraceEvent::ReEstimate { t_us, reason });
            }
            for &invariant in Invariant::ALL {
                events.push(TraceEvent::GuardConservation { t_us, invariant, expected: n, actual: !n });
            }
            for event in &events {
                prop_assert_eq!(reparse(event).1, Ok(*event));
            }
        }
    }
}
