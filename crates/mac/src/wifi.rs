//! IEEE 802.11 DCF transmitter (sans-IO state machine).
//!
//! Implements the paper's Wi-Fi-side MAC behaviour:
//!
//! * DIFS + binary-exponential-backoff channel access for (broadcast) data
//!   frames,
//! * **CTS-to-self** channel reservation — the primitive BiCord uses to
//!   open a white space for ZigBee (the CTS silences every 802.11 station
//!   including the sender itself for the announced NAV),
//! * NAV obedience when hearing someone else's CTS,
//! * carrier-sense freezing of the backoff counter.
//!
//! The machine never touches the medium or the event queue. It consumes
//! notifications (`on_channel_busy`, `on_channel_idle`, `on_timer`,
//! `on_tx_end`) and appends the [`WifiAction`]s that the scenario layer
//! executes to a caller-owned buffer, so a driver that reuses one buffer
//! allocates nothing per event.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::Rng;

use bicord_phy::airtime::{wifi_cts_airtime, wifi_frame_airtime, wifi_timing, WifiRate};
use bicord_sim::{stream_rng, SeedDomain, SimDuration, SimTime};

use crate::frames::{WifiFrameKind, WifiPriority};

/// Timers the Wi-Fi machine asks the scenario to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WifiTimer {
    /// End of the DIFS deference period.
    Difs,
    /// The drawn backoff expired (the machine freezes and recomputes the
    /// remaining slots if the channel turns busy mid-backoff).
    Slot,
    /// The NAV set by another station's CTS expired.
    NavEnd,
    /// The quiet period following our own CTS-to-self expired.
    QuietEnd,
}

/// Instructions emitted by the machine for the scenario to execute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WifiAction {
    /// Put a frame on the air for `airtime`; the scenario must call
    /// [`WifiMac::on_tx_end`] when it completes.
    StartTx {
        /// The frame to transmit.
        kind: WifiFrameKind,
        /// Its on-air duration.
        airtime: SimDuration,
    },
    /// (Re)arm a timer. At most one timer per [`WifiTimer`] kind is armed
    /// at any moment; re-arming replaces the previous one.
    SetTimer {
        /// Which timer.
        timer: WifiTimer,
        /// Absolute expiry instant.
        at: SimTime,
    },
    /// Disarm a timer (a no-op if it is not armed).
    CancelTimer(WifiTimer),
}

/// A queued data frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WifiFrameSpec {
    /// MPDU length in bytes.
    pub mpdu_bytes: usize,
    /// Priority class (Sec. VIII-G).
    pub priority: WifiPriority,
    /// When the frame entered the queue (delay accounting).
    pub enqueued_at: SimTime,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    /// Nothing to send.
    Idle,
    /// Have traffic but the channel (or NAV/quiet) blocks us; optionally a
    /// frozen backoff counter to resume.
    Blocked { frozen_slots: Option<u32> },
    /// Waiting out DIFS; then backoff starts (or resumes).
    Difs { resume_slots: Option<u32> },
    /// Counting down backoff; expires at `until`.
    Backoff { until: SimTime },
    /// A frame is on the air.
    Transmitting { kind: WifiFrameKind },
}

/// The DCF state machine.
///
/// # Example
///
/// Drive one saturated transmission by hand:
///
/// ```
/// use bicord_mac::frames::WifiPriority;
/// use bicord_mac::wifi::{WifiAction, WifiMac, WifiTimer};
/// use bicord_phy::airtime::WifiRate;
/// use bicord_sim::SimTime;
///
/// let mut mac = WifiMac::new(WifiRate::Dsss1, 42, 0);
/// mac.set_saturated(Some((100, WifiPriority::Low)));
/// let mut actions = Vec::new();
/// mac.on_channel_idle(SimTime::ZERO, &mut actions);
/// // The machine first defers for DIFS:
/// assert!(matches!(
///     actions.as_slice(),
///     [WifiAction::SetTimer { timer: WifiTimer::Difs, .. }]
/// ));
/// ```
pub struct WifiMac {
    rate: WifiRate,
    queue: VecDeque<WifiFrameSpec>,
    saturated: Option<(usize, WifiPriority)>,
    sensed_busy: bool,
    nav_until: SimTime,
    quiet_until: SimTime,
    pending_cts: Option<SimDuration>,
    phase: Phase,
    cw: u32,
    rng: StdRng,
    frames_sent: u64,
    cts_sent: u64,
}

impl WifiMac {
    /// Creates a machine transmitting at `rate`, with its backoff stream
    /// derived from `(master_seed, instance)`.
    pub fn new(rate: WifiRate, master_seed: u64, instance: u64) -> Self {
        WifiMac {
            rate,
            queue: VecDeque::new(),
            saturated: None,
            sensed_busy: false,
            nav_until: SimTime::ZERO,
            quiet_until: SimTime::ZERO,
            pending_cts: None,
            phase: Phase::Idle,
            cw: wifi_timing::CW_MIN,
            rng: stream_rng(master_seed, SeedDomain::WifiMac, instance),
            frames_sent: 0,
            cts_sent: 0,
        }
    }

    /// The PHY rate in use.
    pub fn rate(&self) -> WifiRate {
        self.rate
    }

    /// Total data frames put on the air.
    pub fn frames_sent(&self) -> u64 {
        self.frames_sent
    }

    /// Total CTS frames put on the air.
    pub fn cts_sent(&self) -> u64 {
        self.cts_sent
    }

    /// `true` while a frame is on the air.
    pub fn is_transmitting(&self) -> bool {
        matches!(self.phase, Phase::Transmitting { .. })
    }

    /// Number of queued data frames (excludes saturation synthesis).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Priority of the frame that would be sent next, if any.
    pub fn head_priority(&self) -> Option<WifiPriority> {
        self.queue
            .front()
            .map(|f| f.priority)
            .or(self.saturated.map(|(_, p)| p))
    }

    /// The instant until which the machine honours a quiet period from its
    /// own CTS-to-self.
    pub fn quiet_until(&self) -> SimTime {
        self.quiet_until
    }

    /// Switches saturated mode: `Some((mpdu_bytes, priority))` makes the
    /// machine synthesize an endless supply of data frames.
    pub fn set_saturated(&mut self, mode: Option<(usize, WifiPriority)>) {
        self.saturated = mode;
    }

    /// Enqueues a data frame and starts channel access if idle.
    pub fn enqueue(&mut self, now: SimTime, spec: WifiFrameSpec, actions: &mut Vec<WifiAction>) {
        self.queue.push_back(spec);
        self.try_advance(now, actions);
    }

    /// Requests a CTS-to-self reserving the channel for `nav` after the
    /// CTS frame — BiCord's white-space primitive. Takes priority over
    /// pending data. If a reservation is already pending, the longer NAV
    /// wins.
    pub fn reserve_channel(
        &mut self,
        now: SimTime,
        nav: SimDuration,
        actions: &mut Vec<WifiAction>,
    ) {
        self.pending_cts = Some(match self.pending_cts {
            Some(prev) => prev.max(nav),
            None => nav,
        });
        // A pending CTS preempts an armed DIFS/backoff so it goes out with
        // zero backoff; it cannot preempt an in-flight frame.
        match self.phase {
            Phase::Difs { .. } | Phase::Backoff { .. } => {
                self.cancel_access_timers(actions);
                self.phase = Phase::Blocked { frozen_slots: None };
            }
            _ => {}
        }
        self.try_advance(now, actions);
    }

    /// Notifies the machine that carrier sense turned busy.
    pub fn on_channel_busy(&mut self, now: SimTime, actions: &mut Vec<WifiAction>) {
        self.sensed_busy = true;
        match self.phase {
            Phase::Difs { resume_slots } => {
                actions.push(WifiAction::CancelTimer(WifiTimer::Difs));
                self.phase = Phase::Blocked {
                    frozen_slots: resume_slots,
                };
            }
            Phase::Backoff { until } => {
                actions.push(WifiAction::CancelTimer(WifiTimer::Slot));
                // Freeze the remaining whole slots.
                let remaining = until.saturating_since(now);
                let slots = remaining
                    .as_micros()
                    .div_ceil(wifi_timing::SLOT.as_micros());
                self.phase = Phase::Blocked {
                    frozen_slots: Some(slots.max(1) as u32),
                };
            }
            _ => {}
        }
    }

    /// Notifies the machine that carrier sense turned idle.
    pub fn on_channel_idle(&mut self, now: SimTime, actions: &mut Vec<WifiAction>) {
        self.sensed_busy = false;
        self.try_advance(now, actions);
    }

    /// Sets the NAV from a received CTS (another station's reservation).
    pub fn set_nav(&mut self, now: SimTime, until: SimTime, actions: &mut Vec<WifiAction>) {
        if until <= self.nav_until {
            return;
        }
        self.nav_until = until;
        match self.phase {
            Phase::Difs { resume_slots } => {
                actions.push(WifiAction::CancelTimer(WifiTimer::Difs));
                self.phase = Phase::Blocked {
                    frozen_slots: resume_slots,
                };
            }
            Phase::Backoff { until } => {
                actions.push(WifiAction::CancelTimer(WifiTimer::Slot));
                let remaining = until.saturating_since(now);
                let slots = remaining
                    .as_micros()
                    .div_ceil(wifi_timing::SLOT.as_micros());
                self.phase = Phase::Blocked {
                    frozen_slots: Some(slots.max(1) as u32),
                };
            }
            _ => {}
        }
        actions.push(WifiAction::CancelTimer(WifiTimer::NavEnd));
        actions.push(WifiAction::SetTimer {
            timer: WifiTimer::NavEnd,
            at: self.nav_until,
        });
    }

    /// Handles an expired timer.
    pub fn on_timer(&mut self, now: SimTime, timer: WifiTimer, actions: &mut Vec<WifiAction>) {
        match timer {
            WifiTimer::Difs => {
                if let Phase::Difs { resume_slots } = self.phase {
                    let slots = match resume_slots {
                        Some(s) => s,
                        None if self.pending_cts.is_some() => 0,
                        None => self.rng.gen_range(0..=self.cw),
                    };
                    if slots == 0 {
                        self.start_tx(now, actions);
                    } else {
                        let until = now + wifi_timing::SLOT * u64::from(slots);
                        self.phase = Phase::Backoff { until };
                        actions.push(WifiAction::SetTimer {
                            timer: WifiTimer::Slot,
                            at: until,
                        });
                    }
                }
            }
            WifiTimer::Slot => {
                if let Phase::Backoff { .. } = self.phase {
                    self.start_tx(now, actions);
                }
            }
            WifiTimer::NavEnd | WifiTimer::QuietEnd => {
                self.try_advance(now, actions);
            }
        }
    }

    /// Notifies the machine that its own transmission finished.
    ///
    /// Returns the frame kind that completed; follow-up actions go to
    /// `actions`.
    ///
    /// # Panics
    ///
    /// Panics if the machine was not transmitting (a scenario wiring bug).
    pub fn on_tx_end(&mut self, now: SimTime, actions: &mut Vec<WifiAction>) -> WifiFrameKind {
        let kind = match self.phase {
            Phase::Transmitting { kind } => kind,
            other => panic!("on_tx_end in phase {other:?}"),
        };
        self.phase = Phase::Idle;
        match kind {
            WifiFrameKind::Cts { nav } => {
                self.cts_sent += 1;
                self.quiet_until = now + nav;
                actions.push(WifiAction::SetTimer {
                    timer: WifiTimer::QuietEnd,
                    at: self.quiet_until,
                });
            }
            WifiFrameKind::Data { .. } => {
                self.frames_sent += 1;
            }
        }
        self.try_advance(now, actions);
        kind
    }

    fn has_traffic(&self) -> bool {
        self.pending_cts.is_some() || !self.queue.is_empty() || self.saturated.is_some()
    }

    fn cancel_access_timers(&mut self, actions: &mut Vec<WifiAction>) {
        match self.phase {
            Phase::Difs { .. } => actions.push(WifiAction::CancelTimer(WifiTimer::Difs)),
            Phase::Backoff { .. } => actions.push(WifiAction::CancelTimer(WifiTimer::Slot)),
            _ => {}
        }
    }

    /// Attempts to (re)start channel access. Invoked on every state change.
    fn try_advance(&mut self, now: SimTime, actions: &mut Vec<WifiAction>) {
        match self.phase {
            Phase::Idle | Phase::Blocked { .. } => {}
            _ => return,
        }
        if !self.has_traffic() {
            self.phase = Phase::Idle;
            return;
        }
        let frozen = match self.phase {
            Phase::Blocked { frozen_slots } => frozen_slots,
            _ => None,
        };
        // NAV / own quiet period: stay blocked, the corresponding timer is
        // already armed.
        if now < self.nav_until || now < self.quiet_until {
            self.phase = Phase::Blocked {
                frozen_slots: frozen,
            };
            return;
        }
        if self.sensed_busy {
            self.phase = Phase::Blocked {
                frozen_slots: frozen,
            };
            return;
        }
        self.phase = Phase::Difs {
            resume_slots: frozen,
        };
        actions.push(WifiAction::SetTimer {
            timer: WifiTimer::Difs,
            at: now + wifi_timing::DIFS,
        });
    }

    fn start_tx(&mut self, _now: SimTime, actions: &mut Vec<WifiAction>) {
        if let Some(nav) = self.pending_cts.take() {
            let kind = WifiFrameKind::Cts { nav };
            self.phase = Phase::Transmitting { kind };
            actions.push(WifiAction::StartTx {
                kind,
                airtime: wifi_cts_airtime(self.rate),
            });
            return;
        }
        let spec = self.queue.pop_front().or_else(|| {
            self.saturated.map(|(bytes, priority)| WifiFrameSpec {
                mpdu_bytes: bytes,
                priority,
                enqueued_at: _now,
            })
        });
        let Some(spec) = spec else {
            self.phase = Phase::Idle;
            return;
        };
        let kind = WifiFrameKind::Data {
            mpdu_bytes: spec.mpdu_bytes,
            priority: spec.priority,
        };
        self.phase = Phase::Transmitting { kind };
        actions.push(WifiAction::StartTx {
            kind,
            airtime: wifi_frame_airtime(self.rate, spec.mpdu_bytes),
        });
    }
}

impl std::fmt::Debug for WifiMac {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WifiMac")
            .field("phase", &self.phase)
            .field("queue", &self.queue.len())
            .field("saturated", &self.saturated.is_some())
            .field("frames_sent", &self.frames_sent)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mac() -> WifiMac {
        WifiMac::new(WifiRate::Dsss1, 7, 0)
    }

    /// The actions one handler call appends to a fresh buffer.
    fn collect<R>(f: impl FnOnce(&mut Vec<WifiAction>) -> R) -> Vec<WifiAction> {
        let mut actions = Vec::new();
        f(&mut actions);
        actions
    }

    fn assert_timer(actions: &[WifiAction], timer: WifiTimer) -> SimTime {
        for a in actions {
            if let WifiAction::SetTimer { timer: t, at } = a {
                if *t == timer {
                    return *at;
                }
            }
        }
        panic!("no SetTimer({timer:?}) in {actions:?}");
    }

    fn find_start_tx(actions: &[WifiAction]) -> Option<WifiFrameKind> {
        actions.iter().find_map(|a| match a {
            WifiAction::StartTx { kind, .. } => Some(*kind),
            _ => None,
        })
    }

    /// Drives the machine's timers until it starts transmitting; returns
    /// (tx start time, frame kind).
    fn drive_to_tx(
        mac: &mut WifiMac,
        mut actions: Vec<WifiAction>,
        start: SimTime,
    ) -> (SimTime, WifiFrameKind) {
        let mut now = start;
        for _ in 0..10_000 {
            if let Some(kind) = find_start_tx(&actions) {
                return (now, kind);
            }
            // Find the earliest armed timer among the emitted actions.
            let next = actions
                .iter()
                .filter_map(|a| match a {
                    WifiAction::SetTimer { timer, at } => Some((*at, *timer)),
                    _ => None,
                })
                .min_by_key(|(at, _)| *at)
                .expect("machine stalled with no timers");
            now = next.0;
            actions = collect(|a| mac.on_timer(now, next.1, a));
        }
        panic!("machine never transmitted");
    }

    #[test]
    fn idle_machine_does_nothing() {
        let mut m = mac();
        assert!(collect(|a| m.on_channel_idle(SimTime::ZERO, a)).is_empty());
        assert!(!m.is_transmitting());
        assert_eq!(m.queue_len(), 0);
        assert_eq!(m.head_priority(), None);
    }

    #[test]
    fn enqueue_starts_difs_then_backoff_then_tx() {
        let mut m = mac();
        let actions = collect(|a| {
            m.enqueue(
                SimTime::ZERO,
                WifiFrameSpec {
                    mpdu_bytes: 100,
                    priority: WifiPriority::Low,
                    enqueued_at: SimTime::ZERO,
                },
                a,
            )
        });
        let difs_at = assert_timer(&actions, WifiTimer::Difs);
        assert_eq!(difs_at, SimTime::from_micros(50));
        let (tx_at, kind) = drive_to_tx(&mut m, actions, SimTime::ZERO);
        assert!(tx_at >= difs_at);
        assert!(matches!(
            kind,
            WifiFrameKind::Data {
                mpdu_bytes: 100,
                ..
            }
        ));
        assert!(m.is_transmitting());
        // Completing the frame counts it.
        let done = m.on_tx_end(tx_at + SimDuration::from_micros(992), &mut Vec::new());
        assert_eq!(done, kind);
        assert_eq!(m.frames_sent(), 1);
    }

    #[test]
    fn saturated_mode_sends_back_to_back() {
        let mut m = mac();
        m.set_saturated(Some((100, WifiPriority::Low)));
        let actions = collect(|a| m.on_channel_idle(SimTime::ZERO, a));
        let (t1, _) = drive_to_tx(&mut m, actions, SimTime::ZERO);
        let actions = collect(|a| m.on_tx_end(t1 + SimDuration::from_micros(992), a));
        // Immediately re-arms DIFS for the next frame:
        let (t2, _) = drive_to_tx(&mut m, actions, t1 + SimDuration::from_micros(992));
        assert!(t2 > t1);
        let gap = t2 - (t1 + SimDuration::from_micros(992));
        // DIFS + up to CW_MIN slots.
        assert!(gap >= wifi_timing::DIFS);
        assert!(gap <= wifi_timing::DIFS + wifi_timing::SLOT * (wifi_timing::CW_MIN as u64));
    }

    #[test]
    fn busy_channel_freezes_backoff() {
        let mut m = mac();
        let actions = collect(|a| {
            m.enqueue(
                SimTime::ZERO,
                WifiFrameSpec {
                    mpdu_bytes: 100,
                    priority: WifiPriority::Low,
                    enqueued_at: SimTime::ZERO,
                },
                a,
            )
        });
        let difs_at = assert_timer(&actions, WifiTimer::Difs);
        // DIFS elapses; backoff begins (or tx if zero slots — retry seeds
        // until we get a nonzero backoff).
        let actions = collect(|a| m.on_timer(difs_at, WifiTimer::Difs, a));
        if find_start_tx(&actions).is_some() {
            // Zero backoff with this seed — acceptable; nothing to freeze.
            return;
        }
        let slot_at = assert_timer(&actions, WifiTimer::Slot);
        // Channel turns busy mid-backoff:
        let actions = collect(|a| m.on_channel_busy(slot_at - SimDuration::from_micros(5), a));
        assert!(actions.contains(&WifiAction::CancelTimer(WifiTimer::Slot)));
        // Stale slot timer firing anyway is ignored:
        assert!(collect(|a| m.on_timer(slot_at, WifiTimer::Slot, a)).is_empty());
        // Idle again: DIFS then resume remaining slots.
        let actions = collect(|a| m.on_channel_idle(SimTime::from_millis(2), a));
        assert_timer(&actions, WifiTimer::Difs);
        let (_, kind) = drive_to_tx(&mut m, actions, SimTime::from_millis(2));
        assert!(matches!(kind, WifiFrameKind::Data { .. }));
    }

    #[test]
    fn cts_reservation_preempts_data_and_quiets_sender() {
        let mut m = mac();
        m.set_saturated(Some((100, WifiPriority::Low)));
        let actions = collect(|a| m.on_channel_idle(SimTime::ZERO, a));
        // Before anything transmits, ask for a reservation:
        let nav = SimDuration::from_millis(30);
        let mut all = actions;
        all.extend(collect(|a| {
            m.reserve_channel(SimTime::from_micros(10), nav, a)
        }));
        let (tx_at, kind) = drive_to_tx(&mut m, all, SimTime::from_micros(10));
        assert_eq!(kind, WifiFrameKind::Cts { nav });
        let end = tx_at + wifi_cts_airtime(WifiRate::Dsss1);
        let actions = collect(|a| m.on_tx_end(end, a));
        assert_eq!(m.cts_sent(), 1);
        assert_eq!(m.quiet_until(), end + nav);
        // The machine must be silent until the quiet period expires:
        assert!(find_start_tx(&actions).is_none());
        let quiet_end = assert_timer(&actions, WifiTimer::QuietEnd);
        assert_eq!(quiet_end, end + nav);
        // After QuietEnd it resumes data:
        let actions = collect(|a| m.on_timer(quiet_end, WifiTimer::QuietEnd, a));
        let (_, kind) = drive_to_tx(&mut m, actions, quiet_end);
        assert!(matches!(kind, WifiFrameKind::Data { .. }));
    }

    #[test]
    fn nav_from_other_station_blocks_access() {
        let mut m = mac();
        m.set_saturated(Some((100, WifiPriority::Low)));
        let actions = collect(|a| m.on_channel_idle(SimTime::ZERO, a));
        let nav_until = SimTime::from_millis(20);
        let mut acts = actions;
        acts.extend(collect(|a| {
            m.set_nav(SimTime::from_micros(5), nav_until, a)
        }));
        // All access timers cancelled, NavEnd armed:
        assert!(acts
            .iter()
            .any(|a| matches!(a, WifiAction::SetTimer { timer: WifiTimer::NavEnd, at } if *at == nav_until)));
        // DIFS firing during NAV is stale and ignored:
        assert!(collect(|a| m.on_timer(SimTime::from_micros(50), WifiTimer::Difs, a)).is_empty());
        // At NAV end, access restarts:
        let actions = collect(|a| m.on_timer(nav_until, WifiTimer::NavEnd, a));
        assert_timer(&actions, WifiTimer::Difs);
    }

    #[test]
    fn shorter_nav_does_not_shrink_existing() {
        let mut m = mac();
        m.set_saturated(Some((100, WifiPriority::Low)));
        let _ = collect(|a| m.on_channel_idle(SimTime::ZERO, a));
        let _ = collect(|a| m.set_nav(SimTime::ZERO, SimTime::from_millis(20), a));
        let actions = collect(|a| m.set_nav(SimTime::from_millis(1), SimTime::from_millis(10), a));
        assert!(actions.is_empty(), "shorter NAV must be ignored");
    }

    #[test]
    fn reservation_while_transmitting_waits_for_tx_end() {
        let mut m = mac();
        m.set_saturated(Some((100, WifiPriority::Low)));
        let actions = collect(|a| m.on_channel_idle(SimTime::ZERO, a));
        let (tx_at, _) = drive_to_tx(&mut m, actions, SimTime::ZERO);
        let actions = collect(|a| {
            m.reserve_channel(
                tx_at + SimDuration::from_micros(100),
                SimDuration::from_millis(40),
                a,
            )
        });
        assert!(
            find_start_tx(&actions).is_none(),
            "cannot preempt in-flight frame"
        );
        let actions = collect(|a| m.on_tx_end(tx_at + SimDuration::from_micros(992), a));
        // Next transmission must be the CTS:
        let (_, kind) = drive_to_tx(&mut m, actions, tx_at + SimDuration::from_micros(992));
        assert!(matches!(kind, WifiFrameKind::Cts { .. }));
    }

    #[test]
    fn concurrent_reservations_keep_longest_nav() {
        let mut m = mac();
        let _ = collect(|a| m.reserve_channel(SimTime::ZERO, SimDuration::from_millis(30), a));
        let actions =
            collect(|a| m.reserve_channel(SimTime::ZERO, SimDuration::from_millis(20), a));
        let (_, kind) = drive_to_tx(&mut m, actions, SimTime::ZERO);
        assert_eq!(
            kind,
            WifiFrameKind::Cts {
                nav: SimDuration::from_millis(30)
            }
        );
    }

    #[test]
    fn head_priority_reports_queue_then_saturation() {
        let mut m = mac();
        assert_eq!(m.head_priority(), None);
        m.set_saturated(Some((100, WifiPriority::Low)));
        assert_eq!(m.head_priority(), Some(WifiPriority::Low));
        let _ = collect(|a| {
            m.enqueue(
                SimTime::ZERO,
                WifiFrameSpec {
                    mpdu_bytes: 500,
                    priority: WifiPriority::High,
                    enqueued_at: SimTime::ZERO,
                },
                a,
            )
        });
        assert_eq!(m.head_priority(), Some(WifiPriority::High));
    }

    #[test]
    #[should_panic(expected = "on_tx_end in phase")]
    fn tx_end_without_tx_panics() {
        let mut m = mac();
        m.on_tx_end(SimTime::ZERO, &mut Vec::new());
    }

    #[test]
    fn reservation_during_nav_waits_for_nav_end() {
        let mut m = mac();
        let nav_until = SimTime::from_millis(15);
        let _ = collect(|a| m.set_nav(SimTime::ZERO, nav_until, a));
        // A reservation request during someone else's NAV must not
        // transmit before the NAV expires.
        let actions = collect(|a| {
            m.reserve_channel(SimTime::from_millis(1), SimDuration::from_millis(30), a)
        });
        assert!(find_start_tx(&actions).is_none());
        // NAV expiry restarts access, and the CTS goes out with zero
        // backoff after DIFS.
        let actions = collect(|a| m.on_timer(nav_until, WifiTimer::NavEnd, a));
        let difs_at = assert_timer(&actions, WifiTimer::Difs);
        let actions = collect(|a| m.on_timer(difs_at, WifiTimer::Difs, a));
        assert!(matches!(
            find_start_tx(&actions),
            Some(WifiFrameKind::Cts { .. })
        ));
    }

    #[test]
    fn busy_during_own_quiet_does_not_double_block() {
        let mut m = mac();
        m.set_saturated(Some((100, WifiPriority::Low)));
        let actions = collect(|a| m.on_channel_idle(SimTime::ZERO, a));
        let mut all = actions;
        all.extend(collect(|a| {
            m.reserve_channel(SimTime::from_micros(10), SimDuration::from_millis(10), a)
        }));
        let (tx_at, _) = drive_to_tx(&mut m, all, SimTime::from_micros(10));
        let end = tx_at + wifi_cts_airtime(WifiRate::Dsss1);
        let actions = collect(|a| m.on_tx_end(end, a));
        let quiet_end = assert_timer(&actions, WifiTimer::QuietEnd);
        // A busy/idle flap during the quiet period (e.g. the ZigBee burst
        // it reserved for) must not resurrect data access early.
        let _ = collect(|a| m.on_channel_busy(end + SimDuration::from_millis(2), a));
        let actions = collect(|a| m.on_channel_idle(end + SimDuration::from_millis(4), a));
        assert!(
            find_start_tx(&actions).is_none()
                && !actions.iter().any(|a| matches!(
                    a,
                    WifiAction::SetTimer {
                        timer: WifiTimer::Difs,
                        ..
                    }
                )),
            "no channel access while the own quiet period runs: {actions:?}"
        );
        // After QuietEnd, access resumes.
        let actions = collect(|a| m.on_timer(quiet_end, WifiTimer::QuietEnd, a));
        assert_timer(&actions, WifiTimer::Difs);
    }

    #[test]
    fn enqueue_while_blocked_does_not_start_access() {
        let mut m = mac();
        let _ = collect(|a| m.on_channel_busy(SimTime::ZERO, a));
        let actions = collect(|a| {
            m.enqueue(
                SimTime::from_micros(10),
                WifiFrameSpec {
                    mpdu_bytes: 100,
                    priority: WifiPriority::Low,
                    enqueued_at: SimTime::from_micros(10),
                },
                a,
            )
        });
        assert!(
            actions.is_empty(),
            "busy channel blocks access: {actions:?}"
        );
        assert_eq!(m.queue_len(), 1);
        let actions = collect(|a| m.on_channel_idle(SimTime::from_millis(1), a));
        assert_timer(&actions, WifiTimer::Difs);
    }

    #[test]
    fn backoff_draws_are_deterministic_per_seed() {
        let run = |seed| {
            let mut m = WifiMac::new(WifiRate::Dsss1, seed, 0);
            m.set_saturated(Some((100, WifiPriority::Low)));
            let actions = collect(|a| m.on_channel_idle(SimTime::ZERO, a));
            let (t, _) = drive_to_tx(&mut m, actions, SimTime::ZERO);
            t
        };
        assert_eq!(run(3), run(3));
    }
}
