//! The simulation run loop: a clock plus a sorted list of pending events.

use crate::event::{pack, unpack_seq, unpack_time, EventHandle};
use crate::time::{SimDuration, SimTime};

/// A discrete-event simulation engine.
///
/// The engine owns the virtual clock and the pending events. Client
/// code (the scenario layer) drives it by scheduling events and repeatedly
/// calling [`Engine::next_event`], which advances the clock to each event's
/// timestamp. Events at the same instant are delivered in the order they
/// were scheduled.
///
/// Pending events are one `Vec` sorted latest first by the packed
/// `(time, seq)` key of [`EventQueue`](crate::EventQueue), so the next
/// event is the last entry and delivering it is a `pop`. A protocol run
/// schedules almost every event shortly ahead of the clock, so an insert
/// scans back from the earliest end past only the events due sooner, and
/// a cancel finds its (usually imminent) timer near that end and removes
/// it at once. Events scheduled before the first delivery (a run's
/// arrivals, mobility steps and other pre-computed schedules) are
/// appended and sorted once, at that delivery. A workload with thousands
/// of far-spread pending events wants [`EventQueue`](crate::EventQueue)'s
/// heap instead.
///
/// Time never moves backwards: scheduling an event in the past is a
/// programming error and panics (it would silently corrupt causality
/// otherwise).
///
/// # Example
///
/// ```
/// use bicord_sim::{Engine, SimDuration, SimTime};
///
/// #[derive(Debug, PartialEq)]
/// enum Ev { Ping, Pong }
///
/// let mut engine = Engine::new();
/// engine.schedule_in(SimDuration::from_micros(10), Ev::Ping);
/// while let Some((now, ev)) = engine.next_event() {
///     match ev {
///         Ev::Ping if now < SimTime::from_millis(1) => {
///             engine.schedule_in(SimDuration::from_micros(10), Ev::Pong);
///         }
///         _ => {}
///     }
/// }
/// assert!(engine.now() >= SimTime::from_micros(20));
/// ```
pub struct Engine<E> {
    now: SimTime,
    /// Pending events keyed by `pack(time, seq)`: in scheduling order
    /// until the first `next_event*` call sorts them, latest first from
    /// then on.
    pending: Vec<(u128, E)>,
    sorted: bool,
    next_seq: u64,
    processed: u64,
    same_time_streak: u64,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Creates an engine with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            pending: Vec::new(),
            sorted: false,
            next_seq: 0,
            processed: 0,
            same_time_streak: 0,
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events delivered so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Consecutive events delivered without the clock moving forward.
    ///
    /// Zero after an event that advanced the clock; otherwise the count
    /// of same-instant deliveries since. A livelock (events forever
    /// re-scheduled at the same instant) shows up as an unbounded
    /// streak, which the [`guard`](crate::guard) module's stall
    /// detector checks against a budget.
    pub fn same_time_streak(&self) -> u64 {
        self.same_time_streak
    }

    /// Schedules `event` at the absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current clock.
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventHandle {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < {now}",
            now = self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let key = pack(at, seq);
        let mut i = self.pending.len();
        if self.sorted {
            while i > 0 && self.pending[i - 1].0 < key {
                i -= 1;
            }
        }
        self.pending.insert(i, (key, event));
        EventHandle(seq)
    }

    /// Schedules `event` after `delay` from the current clock.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) -> EventHandle {
        self.schedule_at(self.now + delay, event)
    }

    /// Cancels a scheduled event. Returns `true` if it was still pending.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        let found = self
            .pending
            .iter()
            .rposition(|&(key, _)| unpack_seq(key) == handle.0);
        let Some(i) = found else {
            return false;
        };
        self.pending.remove(i);
        true
    }

    /// Sorts the events scheduled before the first delivery; a no-op
    /// from then on, since inserts keep the order.
    fn sort_pending(&mut self) {
        if !self.sorted {
            self.pending
                .sort_unstable_by_key(|&(key, _)| std::cmp::Reverse(key));
            self.sorted = true;
        }
    }

    /// Pops the next event, advancing the clock to its timestamp.
    ///
    /// Returns `None` when no event is pending.
    pub fn next_event(&mut self) -> Option<(SimTime, E)> {
        self.sort_pending();
        let (key, e) = self.pending.pop()?;
        let t = unpack_time(key);
        debug_assert!(t >= self.now, "engine yielded a past event");
        if t == self.now && self.processed > 0 {
            self.same_time_streak += 1;
        } else {
            self.same_time_streak = 0;
        }
        self.now = t;
        self.processed += 1;
        Some((t, e))
    }

    /// Pops the next event only if it occurs at or before `horizon`.
    ///
    /// If the next event lies beyond the horizon the clock advances to
    /// `horizon` and `None` is returned; the event stays queued. This is the
    /// primitive for "run for N seconds" loops.
    pub fn next_event_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        self.sort_pending();
        match self.pending.last() {
            Some(&(key, _)) if unpack_time(key) <= horizon => self.next_event(),
            _ => {
                if horizon > self.now {
                    self.now = horizon;
                    self.same_time_streak = 0;
                }
                None
            }
        }
    }
}

impl<E> std::fmt::Debug for Engine<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("pending", &self.pending.len())
            .field("processed", &self.processed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventQueue;
    use proptest::prelude::*;

    #[test]
    fn clock_advances_with_events() {
        let mut e = Engine::new();
        e.schedule_at(SimTime::from_millis(5), "late");
        e.schedule_at(SimTime::from_millis(1), "early");
        let (t, ev) = e.next_event().unwrap();
        assert_eq!((t, ev), (SimTime::from_millis(1), "early"));
        assert_eq!(e.now(), SimTime::from_millis(1));
        let (t, ev) = e.next_event().unwrap();
        assert_eq!((t, ev), (SimTime::from_millis(5), "late"));
        assert_eq!(e.events_processed(), 2);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_in_past_panics() {
        let mut e = Engine::new();
        e.schedule_at(SimTime::from_millis(10), ());
        e.next_event();
        e.schedule_at(SimTime::from_millis(3), ());
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut e = Engine::new();
        e.schedule_at(SimTime::from_millis(10), 1);
        e.next_event();
        e.schedule_in(SimDuration::from_millis(5), 2);
        let (t, _) = e.next_event().unwrap();
        assert_eq!(t, SimTime::from_millis(15));
    }

    #[test]
    fn horizon_stops_and_advances_clock() {
        let mut e = Engine::new();
        e.schedule_at(SimTime::from_millis(100), "far");
        assert!(e.next_event_before(SimTime::from_millis(50)).is_none());
        assert_eq!(e.now(), SimTime::from_millis(50));
        assert_eq!(e.pending(), 1);
        // The event is still deliverable later.
        let (t, ev) = e.next_event_before(SimTime::from_millis(200)).unwrap();
        assert_eq!((t, ev), (SimTime::from_millis(100), "far"));
    }

    #[test]
    fn horizon_with_empty_queue_advances_clock() {
        let mut e: Engine<()> = Engine::new();
        assert!(e.next_event_before(SimTime::from_secs(1)).is_none());
        assert_eq!(e.now(), SimTime::from_secs(1));
        // A later horizon keeps advancing; an earlier one does not rewind.
        assert!(e.next_event_before(SimTime::from_millis(1)).is_none());
        assert_eq!(e.now(), SimTime::from_secs(1));
    }

    #[test]
    fn same_time_streak_tracks_clock_progress() {
        let mut e = Engine::new();
        e.schedule_at(SimTime::from_millis(1), 0);
        e.schedule_at(SimTime::from_millis(1), 1);
        e.schedule_at(SimTime::from_millis(1), 2);
        e.schedule_at(SimTime::from_millis(2), 3);
        e.next_event();
        assert_eq!(e.same_time_streak(), 0, "first delivery at a new instant");
        e.next_event();
        assert_eq!(e.same_time_streak(), 1);
        e.next_event();
        assert_eq!(e.same_time_streak(), 2);
        e.next_event();
        assert_eq!(e.same_time_streak(), 0, "clock moved, streak resets");
        // Horizon-driven clock advance also resets the streak.
        e.schedule_at(SimTime::from_millis(2), 4);
        e.next_event();
        assert_eq!(e.same_time_streak(), 1);
        assert!(e.next_event_before(SimTime::from_millis(9)).is_none());
        assert_eq!(e.same_time_streak(), 0);
    }

    #[test]
    fn cancelled_events_are_skipped() {
        let mut e = Engine::new();
        let h = e.schedule_at(SimTime::from_millis(1), "gone");
        e.schedule_at(SimTime::from_millis(2), "kept");
        assert!(e.cancel(h));
        let (_, ev) = e.next_event().unwrap();
        assert_eq!(ev, "kept");
    }

    /// The run loop over [`EventQueue`]: the oracle for `Engine`'s
    /// sorted `Vec`.
    struct HeapEngine<E> {
        now: SimTime,
        queue: EventQueue<E>,
        processed: u64,
        same_time_streak: u64,
    }

    impl<E> HeapEngine<E> {
        fn new() -> Self {
            HeapEngine {
                now: SimTime::ZERO,
                queue: EventQueue::new(),
                processed: 0,
                same_time_streak: 0,
            }
        }

        fn next_event(&mut self) -> Option<(SimTime, E)> {
            let (t, e) = self.queue.pop()?;
            if t == self.now && self.processed > 0 {
                self.same_time_streak += 1;
            } else {
                self.same_time_streak = 0;
            }
            self.now = t;
            self.processed += 1;
            Some((t, e))
        }

        fn next_event_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
            match self.queue.peek_time() {
                Some(t) if t <= horizon => self.next_event(),
                _ => {
                    if horizon > self.now {
                        self.now = horizon;
                        self.same_time_streak = 0;
                    }
                    None
                }
            }
        }
    }

    /// One step of the model-based test below.
    #[derive(Debug, Clone)]
    enum Op {
        /// Schedules an event this many microseconds after the clock.
        Schedule(u64),
        /// Cancels the `n % issued`-th handle issued so far: live,
        /// delivered or already cancelled, depending on the history.
        Cancel(usize),
        /// Cancels the `n % pre_run`-th handle issued in the pre-run
        /// phase, before the one-time sort.
        CancelPreRun(usize),
        Next,
        /// Delivers the next event due at most this many microseconds
        /// after the clock.
        NextBefore(u64),
    }

    /// Before the first delivery: schedules over a wide span, so the
    /// one-time sort has work to do, and cancels.
    fn pre_run_op() -> impl Strategy<Value = Op> {
        (0u8..5, 0u64..1_000_000).prop_map(|(kind, n)| match kind {
            0..=3 => Op::Schedule(n % 64),
            _ => Op::Cancel(n as usize),
        })
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u8..12, 0u64..1_000_000).prop_map(|(kind, n)| match kind {
            // Few distinct delays, so equal-time ties are common.
            0..=2 => Op::Schedule(n % 8),
            3 => Op::Schedule(n % 200),
            4 | 5 => Op::Cancel(n as usize),
            6 => Op::CancelPreRun(n as usize),
            7 | 8 => Op::Next,
            _ => Op::NextBefore(n % 16),
        })
    }

    proptest! {
        #[test]
        fn matches_the_event_queue_run_loop(
            pre_run in proptest::collection::vec(pre_run_op(), 0..200),
            ops in proptest::collection::vec(op(), 1..1000),
        ) {
            let mut engine = Engine::new();
            let mut oracle = HeapEngine::new();
            let mut issued: Vec<EventHandle> = Vec::new();
            let mut pre_run_count = 0;
            let pre_run_steps = pre_run.len();
            for (step, op) in pre_run.into_iter().chain(ops).enumerate() {
                match op {
                    Op::Schedule(delay) => {
                        let at = engine.now() + SimDuration::from_micros(delay);
                        let event = issued.len();
                        let handle = engine.schedule_at(at, event);
                        prop_assert_eq!(handle, oracle.queue.push(at, event));
                        issued.push(handle);
                        if step < pre_run_steps {
                            pre_run_count = issued.len();
                        }
                    }
                    Op::Cancel(n) | Op::CancelPreRun(n) => {
                        let pool = match op {
                            Op::Cancel(_) => issued.len(),
                            _ => pre_run_count,
                        };
                        if pool == 0 {
                            continue;
                        }
                        let handle = issued[n % pool];
                        prop_assert_eq!(engine.cancel(handle), oracle.queue.cancel(handle));
                    }
                    Op::Next => {
                        prop_assert_eq!(engine.next_event(), oracle.next_event());
                    }
                    Op::NextBefore(ahead) => {
                        let horizon = engine.now() + SimDuration::from_micros(ahead);
                        prop_assert_eq!(
                            engine.next_event_before(horizon),
                            oracle.next_event_before(horizon)
                        );
                    }
                }
                prop_assert_eq!(engine.pending(), oracle.queue.len(), "step {}", step);
                prop_assert_eq!(engine.now(), oracle.now, "step {}", step);
                prop_assert_eq!(engine.events_processed(), oracle.processed, "step {}", step);
                prop_assert_eq!(
                    engine.same_time_streak(),
                    oracle.same_time_streak,
                    "step {}",
                    step
                );
            }
            // Drain: every remaining event comes out in the same order.
            loop {
                let next = engine.next_event();
                prop_assert_eq!(&next, &oracle.next_event());
                if next.is_none() {
                    break;
                }
            }
        }
    }
}
