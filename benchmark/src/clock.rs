//! Host-time attribution from the benchmark's side of the layer
//! boundaries: [`LayerClock`] for the protocol runtime (fed through the
//! public [`EventSink`] interface) and [`Lap`] for the dense-city replay.

use std::time::{Duration, Instant};

use bicord_phy::csi::CsiSample;
use bicord_sim::obs::{EventSink, TraceEvent};
use bicord_sim::SimTime;

/// Calls into one layer and the host time they took.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallStat {
    /// Calls made.
    pub calls: u64,
    /// Host nanoseconds attributed to them.
    pub ns: u64,
}

impl CallStat {
    /// Adds one call of `ns` nanoseconds.
    pub fn add(&mut self, ns: u64) {
        self.calls += 1;
        self.ns += ns;
    }

    /// Adds every call of `other`.
    pub fn merge(&mut self, other: CallStat) {
        self.calls += other.calls;
        self.ns += other.ns;
    }

    /// Mean nanoseconds per call; `NaN` without calls.
    pub fn ns_per_call(&self) -> f64 {
        self.ns as f64 / self.calls as f64
    }
}

/// Per-kind statistics keyed by a static label, in first-seen order.
pub type KindStats = Vec<(&'static str, CallStat)>;

/// The entry for `kind`, created on first use.
pub fn kind_entry<'a>(stats: &'a mut KindStats, kind: &'static str) -> &'a mut CallStat {
    let at = match stats.iter().position(|(k, _)| *k == kind) {
        Some(at) => at,
        None => {
            stats.push((kind, CallStat::default()));
            stats.len() - 1
        }
    };
    &mut stats[at].1
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A chained stopwatch: each [`Lap::split`] charges the time since the
/// previous split to one call. Consecutive calls share one clock read,
/// so nothing between them goes unattributed and the clock itself costs
/// one read per call.
#[derive(Debug, Clone, Copy)]
pub struct Lap(Instant);

impl Lap {
    /// Starts the stopwatch now.
    pub fn start() -> Self {
        Lap(Instant::now())
    }

    /// Charges the time since the last split to `stat`; returns it in ns.
    pub fn split(&mut self, stat: &mut CallStat) -> u64 {
        let now = Instant::now();
        let ns = nanos(now - self.0);
        self.0 = now;
        stat.add(ns);
        ns
    }
}

/// An [`EventSink`] that attributes host time to dispatched event kinds
/// and counts the protocol records the per-layer metrics need.
///
/// On every `dequeue` record it reads the clock and charges the interval
/// since the previous `dequeue` to the previous event's kind. That
/// interval covers the handler of that event, the guard checks, and the
/// engine's pop of the next event. [`LayerClock::finish`] closes the last
/// interval; it covers the last event and `finalize`.
#[derive(Debug, Clone, Default)]
pub struct LayerClock {
    last: Option<(Instant, &'static str)>,
    /// Host time per dispatched event kind.
    pub dispatch: KindStats,
    /// Every classified CSI sample, for the detector replay.
    pub csi: Vec<CsiSample>,
    /// `detection` records.
    pub detections: u64,
    /// `channel_request` records.
    pub channel_requests: u64,
    /// `reservation` records.
    pub reservations: u64,
    /// `csma_fallback` records.
    pub csma_fallbacks: u64,
    /// `n_round` records.
    pub n_rounds: u64,
    /// `burst_complete` records.
    pub bursts: u64,
    /// Link-budget cache invalidations (`medium_cache_invalidated` and
    /// `fault_churn` records).
    pub invalidations: u64,
    /// `(hits, misses)` of the end-of-run `medium_cache_stats` record,
    /// which only mobility runs emit.
    pub link_cache: Option<(u64, u64)>,
}

impl LayerClock {
    /// An empty clock.
    pub fn new() -> Self {
        LayerClock::default()
    }

    /// Closes the last interval at `end`. The last event counts as a
    /// call with no time of its own; the returned tail (last event plus
    /// `finalize`) is reported separately.
    pub fn finish(&mut self, end: Instant) -> Duration {
        match self.last.take() {
            Some((since, kind)) => {
                kind_entry(&mut self.dispatch, kind).add(0);
                end - since
            }
            None => Duration::ZERO,
        }
    }

    /// Dispatched events seen so far.
    pub fn calls(&self) -> u64 {
        self.dispatch.iter().map(|(_, s)| s.calls).sum()
    }
}

impl EventSink for LayerClock {
    fn emit(&mut self, event: &TraceEvent) {
        match *event {
            TraceEvent::Dequeue { kind, .. } => {
                let now = Instant::now();
                if let Some((since, prev)) = self.last.replace((now, kind)) {
                    kind_entry(&mut self.dispatch, prev).add(nanos(now - since));
                }
            }
            TraceEvent::CsiClassified {
                t_us, deviation, ..
            } => self.csi.push(CsiSample {
                time: SimTime::from_micros(t_us),
                deviation,
            }),
            TraceEvent::Detection { .. } => self.detections += 1,
            TraceEvent::ChannelRequest { .. } => self.channel_requests += 1,
            TraceEvent::Reservation { .. } => self.reservations += 1,
            TraceEvent::CsmaFallback { .. } => self.csma_fallbacks += 1,
            TraceEvent::NRound { .. } => self.n_rounds += 1,
            TraceEvent::BurstComplete { .. } => self.bursts += 1,
            TraceEvent::MediumCacheInvalidated { .. } | TraceEvent::FaultChurn { .. } => {
                self.invalidations += 1
            }
            TraceEvent::MediumCacheStats {
                link_hits,
                link_misses,
                ..
            } => self.link_cache = Some((link_hits, link_misses)),
            _ => {}
        }
    }
}
