//! Runtime invariant guard for simulation runs.
//!
//! A long sweep dies ugliest when one cell livelocks (events forever
//! re-scheduled at the same instant), leaks a burst that never
//! completes, or silently corrupts its transmission accounting. The
//! guard watches for exactly those failure classes *from inside* the
//! run loop and turns them into structured [`GuardViolation`]s instead
//! of infinite loops or wrong numbers:
//!
//! * **Stall** — no simulated-time progress across a budget of
//!   consecutive dequeues ([`Engine::same_time_streak`] feeds the
//!   check). Fatal: the run aborts with
//!   [`GuardViolation::StallDetected`].
//! * **Liveness** — a burst that started must complete (or abort)
//!   within a virtual-time bound. Non-fatal: surfaced as a
//!   `guard_liveness` trace record and counter, once per node.
//! * **Conservation** — the scenario's begin/end transmission counts
//!   must match the medium's active-transmission slab, and the accrued
//!   busy airtime must fit the physical capacity of the run window.
//!   Non-fatal: surfaced as `guard_conservation` trace records.
//!
//! # Zero cost when disabled
//!
//! The guard follows the [`EventSink`](crate::obs::EventSink) pattern:
//! scenarios are generic over a [`SimGuard`] implementation defaulting
//! to the zero-sized [`NoopGuard`], whose hooks are empty and whose
//! [`SimGuard::enabled`] is a compile-time `false`. An unguarded run
//! therefore compiles to exactly the pre-guard code — goldens, RNG
//! streams and results are bit-identical. [`RuntimeGuard`] draws no
//! randomness and emits nothing on a healthy run, so even an *enabled*
//! guard never perturbs results; it only observes.
//!
//! [`Engine::same_time_streak`]: crate::engine::Engine::same_time_streak

use crate::obs::Invariant;
use crate::time::{SimDuration, SimTime};

/// Tunable bounds of a [`RuntimeGuard`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardConfig {
    /// Consecutive dequeues without simulated-time progress that count
    /// as a livelock. Events legitimately share timestamps (a frame end
    /// fans out into several same-instant actions), so the budget is
    /// deliberately generous; a true livelock crosses any bound.
    pub stall_dequeue_budget: u64,
    /// Virtual-time bound between a burst starting and completing;
    /// `None` disables the liveness check.
    pub burst_timeout: Option<SimDuration>,
    /// Whether to check transmission-count and airtime conservation.
    pub conservation: bool,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig {
            stall_dequeue_budget: 1_000_000,
            burst_timeout: Some(SimDuration::from_secs(10)),
            conservation: true,
        }
    }
}

/// A violated runtime invariant, with enough context to debug it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GuardViolation {
    /// The run dequeued `dequeues` consecutive events without the
    /// virtual clock moving — a livelock. Fatal.
    StallDetected {
        /// Virtual time the clock is stuck at, in microseconds.
        t_us: u64,
        /// Consecutive same-instant dequeues observed.
        dequeues: u64,
    },
    /// A burst exceeded the liveness bound without completing.
    BurstOverdue {
        /// Time of the check, in microseconds.
        t_us: u64,
        /// Node whose burst is overdue.
        node: u32,
        /// When the burst started, in microseconds.
        started_us: u64,
    },
    /// A conservation invariant does not balance.
    ConservationBroken {
        /// Time of the check, in microseconds.
        t_us: u64,
        /// Which invariant broke.
        invariant: Invariant,
        /// The value the invariant predicts.
        expected: u64,
        /// The value actually observed.
        actual: u64,
    },
}

impl GuardViolation {
    /// Stable short label of the violation class (matches the trace
    /// kind it is reported under).
    pub fn kind(&self) -> &'static str {
        match self {
            GuardViolation::StallDetected { .. } => "guard_stall",
            GuardViolation::BurstOverdue { .. } => "guard_liveness",
            GuardViolation::ConservationBroken { .. } => "guard_conservation",
        }
    }
}

impl std::fmt::Display for GuardViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GuardViolation::StallDetected { t_us, dequeues } => write!(
                f,
                "no simulated-time progress across {dequeues} dequeues at t={t_us}us"
            ),
            GuardViolation::BurstOverdue {
                t_us,
                node,
                started_us,
            } => write!(
                f,
                "node {node} burst started at t={started_us}us still open at t={t_us}us"
            ),
            GuardViolation::ConservationBroken {
                t_us,
                invariant,
                expected,
                actual,
            } => write!(
                f,
                "{} conservation broken at t={t_us}us: expected {expected}, got {actual}",
                invariant.as_str()
            ),
        }
    }
}

impl std::error::Error for GuardViolation {}

/// Per-violation-class counts accumulated by a [`RuntimeGuard`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GuardSummary {
    /// Stalls detected (at most 1 — a stall aborts the run).
    pub stalls: u64,
    /// Overdue bursts reported.
    pub liveness: u64,
    /// Conservation mismatches reported.
    pub conservation: u64,
}

impl GuardSummary {
    /// Whether any invariant was violated.
    pub fn any(&self) -> bool {
        self.stalls + self.liveness + self.conservation > 0
    }
}

impl std::fmt::Display for GuardSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "stalls={} liveness={} conservation={}",
            self.stalls, self.liveness, self.conservation
        )
    }
}

/// The guard interface scenarios call from their run loop.
///
/// Hooks are monomorphized into the hot path; [`NoopGuard`]'s empty
/// bodies compile away entirely. Check methods return the violation so
/// the *scenario* decides how to surface it (trace record, counter,
/// abort) — the guard itself never panics and never emits.
pub trait SimGuard {
    /// `false` for guards that check nothing — lets the run loop skip
    /// the check calls (and their argument computation) entirely.
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    /// Called after each dequeue with the engine's current same-instant
    /// streak. Returns the (fatal) stall violation when the streak
    /// crosses the budget.
    fn check_stall(&mut self, now: SimTime, same_time_streak: u64) -> Option<GuardViolation>;

    /// Records that `node` started a burst at `now`.
    fn on_burst_start(&mut self, now: SimTime, node: u32);

    /// Records that `node`'s burst completed (or aborted).
    fn on_burst_end(&mut self, node: u32);

    /// Returns the first newly-overdue burst, if any. Each overdue
    /// burst is reported at most once.
    fn check_liveness(&mut self, now: SimTime) -> Option<GuardViolation>;

    /// Records that the scenario started one transmission on the
    /// medium.
    fn on_tx_begin(&mut self);

    /// Called at the start of end-of-transmission handling with the
    /// medium's current active-transmission count; checks the begin/end
    /// balance against it and accounts for the end.
    fn check_tx_end(&mut self, now: SimTime, medium_active: u64) -> Option<GuardViolation>;

    /// End-of-run check that the accrued busy airtime fits the
    /// physical capacity of the window (`capacity_us` = window length ×
    /// maximum concurrent transmitters).
    fn check_airtime(
        &mut self,
        end_us: u64,
        busy_us: u64,
        capacity_us: u64,
    ) -> Option<GuardViolation>;
}

impl<G: SimGuard + ?Sized> SimGuard for &mut G {
    #[inline]
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    #[inline]
    fn check_stall(&mut self, now: SimTime, same_time_streak: u64) -> Option<GuardViolation> {
        (**self).check_stall(now, same_time_streak)
    }

    #[inline]
    fn on_burst_start(&mut self, now: SimTime, node: u32) {
        (**self).on_burst_start(now, node)
    }

    #[inline]
    fn on_burst_end(&mut self, node: u32) {
        (**self).on_burst_end(node)
    }

    #[inline]
    fn check_liveness(&mut self, now: SimTime) -> Option<GuardViolation> {
        (**self).check_liveness(now)
    }

    #[inline]
    fn on_tx_begin(&mut self) {
        (**self).on_tx_begin()
    }

    #[inline]
    fn check_tx_end(&mut self, now: SimTime, medium_active: u64) -> Option<GuardViolation> {
        (**self).check_tx_end(now, medium_active)
    }

    #[inline]
    fn check_airtime(
        &mut self,
        end_us: u64,
        busy_us: u64,
        capacity_us: u64,
    ) -> Option<GuardViolation> {
        (**self).check_airtime(end_us, busy_us, capacity_us)
    }
}

/// The default guard: a zero-sized type that checks nothing. All hooks
/// compile away, so an unguarded run is bit-identical to a pre-guard
/// build.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopGuard;

impl SimGuard for NoopGuard {
    #[inline]
    fn enabled(&self) -> bool {
        false
    }

    #[inline]
    fn check_stall(&mut self, _now: SimTime, _same_time_streak: u64) -> Option<GuardViolation> {
        None
    }

    #[inline]
    fn on_burst_start(&mut self, _now: SimTime, _node: u32) {}

    #[inline]
    fn on_burst_end(&mut self, _node: u32) {}

    #[inline]
    fn check_liveness(&mut self, _now: SimTime) -> Option<GuardViolation> {
        None
    }

    #[inline]
    fn on_tx_begin(&mut self) {}

    #[inline]
    fn check_tx_end(&mut self, _now: SimTime, _medium_active: u64) -> Option<GuardViolation> {
        None
    }

    #[inline]
    fn check_airtime(
        &mut self,
        _end_us: u64,
        _busy_us: u64,
        _capacity_us: u64,
    ) -> Option<GuardViolation> {
        None
    }
}

/// One tracked burst: when it started and whether it was already
/// reported overdue (each burst is reported at most once).
#[derive(Debug, Clone, Copy)]
struct BurstWatch {
    started: SimTime,
    reported: bool,
}

/// The real guard: tracks per-node burst liveness and transmission
/// conservation against the bounds in its [`GuardConfig`].
///
/// Draws no randomness and mutates nothing outside itself, so enabling
/// it never changes simulation results — only whether violations are
/// *reported*.
#[derive(Debug, Clone, Default)]
pub struct RuntimeGuard {
    config: GuardConfig,
    bursts: Vec<Option<BurstWatch>>,
    tx_begun: u64,
    tx_ended: u64,
    summary: GuardSummary,
}

impl RuntimeGuard {
    /// A guard with the given bounds.
    pub fn new(config: GuardConfig) -> Self {
        RuntimeGuard {
            config,
            ..RuntimeGuard::default()
        }
    }

    /// The bounds this guard enforces.
    pub fn config(&self) -> &GuardConfig {
        &self.config
    }

    /// Violation counts accumulated so far.
    pub fn summary(&self) -> GuardSummary {
        self.summary
    }

    fn watch_mut(&mut self, node: u32) -> &mut Option<BurstWatch> {
        let index = node as usize;
        if self.bursts.len() <= index {
            self.bursts.resize(index + 1, None);
        }
        &mut self.bursts[index]
    }
}

impl SimGuard for RuntimeGuard {
    fn check_stall(&mut self, now: SimTime, same_time_streak: u64) -> Option<GuardViolation> {
        if same_time_streak < self.config.stall_dequeue_budget {
            return None;
        }
        self.summary.stalls += 1;
        Some(GuardViolation::StallDetected {
            t_us: now.as_micros(),
            dequeues: same_time_streak,
        })
    }

    fn on_burst_start(&mut self, now: SimTime, node: u32) {
        let watch = self.watch_mut(node);
        // A node's bursts are sequential: a fresh start while one is
        // tracked refreshes the deadline (the client merged the work).
        *watch = Some(BurstWatch {
            started: now,
            reported: false,
        });
    }

    fn on_burst_end(&mut self, node: u32) {
        *self.watch_mut(node) = None;
    }

    fn check_liveness(&mut self, now: SimTime) -> Option<GuardViolation> {
        let timeout = self.config.burst_timeout?;
        for (node, slot) in self.bursts.iter_mut().enumerate() {
            if let Some(watch) = slot {
                if !watch.reported && now.saturating_since(watch.started) > timeout {
                    watch.reported = true;
                    self.summary.liveness += 1;
                    return Some(GuardViolation::BurstOverdue {
                        t_us: now.as_micros(),
                        node: node as u32,
                        started_us: watch.started.as_micros(),
                    });
                }
            }
        }
        None
    }

    fn on_tx_begin(&mut self) {
        self.tx_begun += 1;
    }

    fn check_tx_end(&mut self, now: SimTime, medium_active: u64) -> Option<GuardViolation> {
        let expected = self.tx_begun.saturating_sub(self.tx_ended);
        self.tx_ended = (self.tx_ended + 1).min(self.tx_begun);
        if !self.config.conservation || expected == medium_active {
            return None;
        }
        self.summary.conservation += 1;
        // Re-sync with the slab so one mismatch does not cascade into a
        // report per subsequent frame. The transmission being ended is
        // already accounted above.
        self.tx_begun = self.tx_ended + medium_active.saturating_sub(1);
        Some(GuardViolation::ConservationBroken {
            t_us: now.as_micros(),
            invariant: Invariant::ActiveTransmissions,
            expected,
            actual: medium_active,
        })
    }

    fn check_airtime(
        &mut self,
        end_us: u64,
        busy_us: u64,
        capacity_us: u64,
    ) -> Option<GuardViolation> {
        if !self.config.conservation || busy_us <= capacity_us {
            return None;
        }
        self.summary.conservation += 1;
        Some(GuardViolation::ConservationBroken {
            t_us: end_us,
            invariant: Invariant::AirtimeAccounting,
            expected: capacity_us,
            actual: busy_us,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_guard_is_zero_sized_and_disabled() {
        assert_eq!(std::mem::size_of::<NoopGuard>(), 0);
        let mut g = NoopGuard;
        assert!(!g.enabled());
        assert!(g.check_stall(SimTime::ZERO, u64::MAX).is_none());
        g.on_burst_start(SimTime::ZERO, 0);
        assert!(g.check_liveness(SimTime::from_secs(1_000)).is_none());
        g.on_tx_begin();
        assert!(g.check_tx_end(SimTime::ZERO, 99).is_none());
        assert!(g.check_airtime(1, 2, 1).is_none());
    }

    #[test]
    fn stall_fires_exactly_at_the_budget() {
        let mut g = RuntimeGuard::new(GuardConfig {
            stall_dequeue_budget: 10,
            ..GuardConfig::default()
        });
        let t = SimTime::from_millis(3);
        assert!(g.check_stall(t, 9).is_none());
        let v = g.check_stall(t, 10).expect("budget crossed");
        assert_eq!(
            v,
            GuardViolation::StallDetected {
                t_us: 3_000,
                dequeues: 10
            }
        );
        assert_eq!(v.kind(), "guard_stall");
        assert_eq!(g.summary().stalls, 1);
    }

    #[test]
    fn liveness_reports_an_overdue_burst_once() {
        let mut g = RuntimeGuard::new(GuardConfig {
            burst_timeout: Some(SimDuration::from_millis(100)),
            ..GuardConfig::default()
        });
        g.on_burst_start(SimTime::from_millis(10), 1);
        assert!(g.check_liveness(SimTime::from_millis(50)).is_none());
        let v = g
            .check_liveness(SimTime::from_millis(200))
            .expect("overdue");
        assert_eq!(
            v,
            GuardViolation::BurstOverdue {
                t_us: 200_000,
                node: 1,
                started_us: 10_000
            }
        );
        // Reported once, not per check.
        assert!(g.check_liveness(SimTime::from_millis(300)).is_none());
        assert_eq!(g.summary().liveness, 1);
    }

    #[test]
    fn completed_bursts_are_not_overdue() {
        let mut g = RuntimeGuard::new(GuardConfig {
            burst_timeout: Some(SimDuration::from_millis(100)),
            ..GuardConfig::default()
        });
        g.on_burst_start(SimTime::ZERO, 0);
        g.on_burst_end(0);
        assert!(g.check_liveness(SimTime::from_secs(10)).is_none());
        assert!(!g.summary().any());
    }

    #[test]
    fn liveness_disabled_without_timeout() {
        let mut g = RuntimeGuard::new(GuardConfig {
            burst_timeout: None,
            ..GuardConfig::default()
        });
        g.on_burst_start(SimTime::ZERO, 0);
        assert!(g.check_liveness(SimTime::from_secs(1_000)).is_none());
    }

    #[test]
    fn tx_conservation_balances_and_reports_mismatch() {
        let mut g = RuntimeGuard::new(GuardConfig::default());
        g.on_tx_begin();
        g.on_tx_begin();
        // Two begun, none ended: the slab should hold 2.
        assert!(g.check_tx_end(SimTime::ZERO, 2).is_none());
        // One begun minus one ended: the slab should hold 1, claims 5.
        let v = g
            .check_tx_end(SimTime::from_micros(7), 5)
            .expect("mismatch");
        assert!(matches!(
            v,
            GuardViolation::ConservationBroken {
                invariant: Invariant::ActiveTransmissions,
                expected: 1,
                actual: 5,
                ..
            }
        ));
        assert_eq!(g.summary().conservation, 1);
        // Re-synced: the next end at the slab's new count is clean.
        assert!(g.check_tx_end(SimTime::from_micros(8), 4).is_none());
    }

    #[test]
    fn airtime_overflow_is_reported() {
        let mut g = RuntimeGuard::new(GuardConfig::default());
        assert!(g.check_airtime(1_000, 500, 1_000).is_none());
        let v = g.check_airtime(1_000, 2_000, 1_000).expect("overflow");
        assert_eq!(v.kind(), "guard_conservation");
        assert!(v.to_string().contains("airtime_accounting"), "{v}");
    }

    #[test]
    fn violations_display_their_context() {
        let v = GuardViolation::StallDetected {
            t_us: 42,
            dequeues: 7,
        };
        let text = v.to_string();
        assert!(text.contains("42"), "{text}");
        assert!(text.contains('7'), "{text}");
    }

    #[test]
    fn mut_ref_is_a_guard() {
        fn drive<G: SimGuard>(guard: &mut G) -> Option<GuardViolation> {
            guard.on_tx_begin();
            guard.check_stall(SimTime::ZERO, u64::MAX)
        }
        let mut g = RuntimeGuard::new(GuardConfig::default());
        assert!(drive(&mut &mut g).is_some());
        assert_eq!(g.summary().stalls, 1);
    }
}
