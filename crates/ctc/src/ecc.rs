//! The ECC baseline (Explicit Channel Coordination, MobiSys'18).
//!
//! In ECC the information flow is **one-way**: the Wi-Fi device has no idea
//! when ZigBee nodes have data or how much, so it reserves a white space of
//! a *fixed* length on a *fixed* period (the paper evaluates period 100 ms
//! with lengths 20/30/40 ms) and announces it to ZigBee via CTC. ZigBee
//! nodes may transmit only inside an announced white space, squeezing in as
//! many acknowledged packets as fit and deferring the rest of the burst to
//! the next period — the source of ECC's long tail delays and wasted
//! reservations that BiCord eliminates.

use std::collections::VecDeque;

use bicord_sim::{SimDuration, SimTime};

/// ECC parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EccConfig {
    /// Reservation period (paper: 100 ms).
    pub period: SimDuration,
    /// Fixed white-space length (paper: 20, 30 or 40 ms).
    pub white_space: SimDuration,
    /// Duration of one acknowledged data exchange (data + turnaround +
    /// ACK).
    pub exchange_time: SimDuration,
    /// Application packet interval within a burst.
    pub packet_interval: SimDuration,
    /// Guard time kept free at the end of a white space.
    pub guard: SimDuration,
    /// Probability that the one-way CTC announcement of a white space is
    /// lost (WEBee-style emulation is not perfectly reliable); a missed
    /// announcement wastes the whole reservation.
    pub notification_loss: f64,
}

impl EccConfig {
    /// The paper's setting with the given white-space length.
    pub fn with_white_space(white_space: SimDuration) -> Self {
        EccConfig {
            period: SimDuration::from_millis(100),
            white_space,
            exchange_time: SimDuration::from_micros(2_336),
            packet_interval: SimDuration::from_millis(2),
            guard: SimDuration::from_millis(1),
            notification_loss: 0.0,
        }
    }
}

impl Default for EccConfig {
    fn default() -> Self {
        EccConfig::with_white_space(SimDuration::from_millis(30))
    }
}

/// The Wi-Fi side of ECC: a strictly periodic reservation schedule.
///
/// # Example
///
/// ```
/// use bicord_ctc::ecc::{EccConfig, EccWifiScheduler};
/// use bicord_sim::{SimDuration, SimTime};
///
/// let mut sched = EccWifiScheduler::new(EccConfig::default(), SimTime::ZERO);
/// let (at, len) = sched.next_reservation();
/// assert_eq!(at, SimTime::from_millis(100));
/// assert_eq!(len, SimDuration::from_millis(30));
/// let (at, _) = sched.next_reservation();
/// assert_eq!(at, SimTime::from_millis(200));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EccWifiScheduler {
    config: EccConfig,
    next_at: SimTime,
    reservations: u64,
}

impl EccWifiScheduler {
    /// Creates a scheduler whose first reservation falls one period after
    /// `start`.
    pub fn new(config: EccConfig, start: SimTime) -> Self {
        EccWifiScheduler {
            config,
            next_at: start + config.period,
            reservations: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> EccConfig {
        self.config
    }

    /// Total reservations issued.
    pub fn reservations(&self) -> u64 {
        self.reservations
    }

    /// Returns the next reservation `(start, length)` and advances the
    /// schedule.
    pub fn next_reservation(&mut self) -> (SimTime, SimDuration) {
        let at = self.next_at;
        self.next_at = at + self.config.period;
        self.reservations += 1;
        (at, self.config.white_space)
    }
}

/// What the ECC ZigBee client wants to do next.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EccClientAction {
    /// Hand a data frame to the MAC now.
    SendData {
        /// Application sequence number.
        seq: u32,
        /// MPDU length in bytes.
        bytes: usize,
    },
    /// Nothing to do until the next white space.
    Wait,
}

/// The ZigBee side of ECC: transmit only inside announced white spaces.
///
/// The scenario notifies the client of each white space
/// ([`EccZigbeeClient::on_white_space`]) and of each MAC delivery
/// ([`EccZigbeeClient::on_delivered`]); the client paces packets so that a
/// full exchange never overruns the reservation.
#[derive(Debug, Clone)]
pub struct EccZigbeeClient {
    config: EccConfig,
    pending: VecDeque<(u32, usize, SimTime)>,
    next_seq: u32,
    ws_end: Option<SimTime>,
    delivered: u64,
    /// Head-of-line packet currently handed to the MAC. While set,
    /// [`EccZigbeeClient::next_action`] returns `Wait` so the same frame
    /// is never enqueued twice (the MAC keeps its own copy until it
    /// reports delivery or failure).
    in_flight: Option<u32>,
}

impl EccZigbeeClient {
    /// Creates a client.
    pub fn new(config: EccConfig) -> Self {
        EccZigbeeClient {
            config,
            pending: VecDeque::new(),
            next_seq: 0,
            ws_end: None,
            delivered: 0,
            in_flight: None,
        }
    }

    /// The client's configuration.
    pub fn config(&self) -> EccConfig {
        self.config
    }

    /// Packets waiting for a white space.
    pub fn backlog(&self) -> usize {
        self.pending.len()
    }

    /// Packets delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// `true` while a white space is active.
    pub fn in_white_space(&self, now: SimTime) -> bool {
        self.ws_end.map(|end| now < end).unwrap_or(false)
    }

    /// Queues a burst of `n_packets` data frames of `bytes` each,
    /// arriving at `now` (the arrival timestamp feeds delay metrics).
    pub fn on_burst(&mut self, now: SimTime, n_packets: u32, bytes: usize) {
        for _ in 0..n_packets {
            self.pending.push_back((self.next_seq, bytes, now));
            self.next_seq += 1;
        }
    }

    /// Notifies the client that a white space `[now, now + len)` opened.
    ///
    /// Returns the first action (send or wait).
    pub fn on_white_space(&mut self, now: SimTime, len: SimDuration) -> EccClientAction {
        self.ws_end = Some(now + len);
        self.next_action(now)
    }

    /// Notifies the client that the white space closed early (e.g. the
    /// Wi-Fi device resumed).
    pub fn on_white_space_end(&mut self) {
        self.ws_end = None;
    }

    /// Notifies the client that `seq` was delivered; returns the arrival
    /// timestamp of the packet (for delay accounting) and the next action.
    ///
    /// # Panics
    ///
    /// Panics if `seq` does not match the head-of-line packet (a scenario
    /// wiring bug).
    pub fn on_delivered(&mut self, now: SimTime, seq: u32) -> (SimTime, EccClientAction) {
        let (head_seq, _, arrived) = self
            .pending
            .pop_front()
            .unwrap_or_else(|| panic!("delivery {seq} with empty queue"));
        assert_eq!(head_seq, seq, "out-of-order delivery");
        self.delivered += 1;
        self.in_flight = None;
        let next = self.next_action(now + self.config.packet_interval);
        (arrived, next)
    }

    /// Notifies the client that the MAC gave up on `seq` (retries or
    /// channel-access failure). The packet stays at the head of the queue
    /// and becomes eligible for a retry at the next opportunity.
    pub fn on_failed(&mut self, seq: u32) {
        if self.in_flight == Some(seq) {
            self.in_flight = None;
        }
    }

    /// Records that the scenario handed `seq` to the MAC. Until
    /// [`EccZigbeeClient::on_delivered`] or [`EccZigbeeClient::on_failed`]
    /// reports the outcome, [`EccZigbeeClient::next_action`] returns
    /// `Wait` instead of re-offering the frame.
    pub fn mark_in_flight(&mut self, seq: u32) {
        self.in_flight = Some(seq);
    }

    /// Decides whether another packet fits in the current white space.
    pub fn next_action(&mut self, earliest_start: SimTime) -> EccClientAction {
        if self.in_flight.is_some() {
            // The head-of-line frame already sits at the MAC; offering it
            // again would duplicate it in the MAC queue.
            return EccClientAction::Wait;
        }
        let Some(end) = self.ws_end else {
            return EccClientAction::Wait;
        };
        let Some(&(seq, bytes, _)) = self.pending.front() else {
            return EccClientAction::Wait;
        };
        let finish = earliest_start + self.config.exchange_time + self.config.guard;
        if finish <= end {
            EccClientAction::SendData { seq, bytes }
        } else {
            // Does not fit: defer the rest of the burst to the next white
            // space.
            self.ws_end = None;
            EccClientAction::Wait
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> EccConfig {
        EccConfig::default()
    }

    #[test]
    fn scheduler_is_strictly_periodic() {
        let mut s = EccWifiScheduler::new(config(), SimTime::from_millis(50));
        let times: Vec<u64> = (0..5)
            .map(|_| s.next_reservation().0.as_micros() / 1_000)
            .collect();
        assert_eq!(times, vec![150, 250, 350, 450, 550]);
        assert_eq!(s.reservations(), 5);
    }

    #[test]
    fn scheduler_lengths_are_fixed() {
        for ms in [20u64, 30, 40] {
            let cfg = EccConfig::with_white_space(SimDuration::from_millis(ms));
            let mut s = EccWifiScheduler::new(cfg, SimTime::ZERO);
            for _ in 0..10 {
                assert_eq!(s.next_reservation().1, SimDuration::from_millis(ms));
            }
        }
    }

    #[test]
    fn client_waits_without_white_space() {
        let mut c = EccZigbeeClient::new(config());
        c.on_burst(SimTime::ZERO, 5, 50);
        assert_eq!(c.backlog(), 5);
        assert_eq!(
            c.next_action(SimTime::from_millis(1)),
            EccClientAction::Wait
        );
    }

    #[test]
    fn client_sends_within_white_space() {
        let mut c = EccZigbeeClient::new(config());
        c.on_burst(SimTime::ZERO, 5, 50);
        let action = c.on_white_space(SimTime::from_millis(100), SimDuration::from_millis(30));
        assert_eq!(action, EccClientAction::SendData { seq: 0, bytes: 50 });
        assert!(c.in_white_space(SimTime::from_millis(110)));
        assert!(!c.in_white_space(SimTime::from_millis(131)));
    }

    #[test]
    fn fixed_white_space_caps_packets_per_period() {
        // 30 ms white space, 2.336 ms exchange + 2 ms interval: the k-th
        // exchange must finish (with 1 ms guard) by t+30. Count how many
        // fit.
        let mut c = EccZigbeeClient::new(config());
        c.on_burst(SimTime::ZERO, 10, 50);
        let ws_start = SimTime::from_millis(100);
        let mut action = c.on_white_space(ws_start, SimDuration::from_millis(30));
        let mut sent = 0;
        let mut now = ws_start;
        while let EccClientAction::SendData { seq, .. } = action {
            sent += 1;
            now += c.config.exchange_time;
            action = c.on_delivered(now, seq).1;
            now += c.config.packet_interval;
        }
        assert!(
            (5..=8).contains(&sent),
            "expected ~6-7 packets in a 30 ms white space, sent {sent}"
        );
        assert_eq!(c.backlog(), 10 - sent as usize);
        // Remaining packets wait for the next period:
        assert_eq!(c.next_action(now), EccClientAction::Wait);
    }

    #[test]
    fn in_flight_frame_is_not_offered_twice() {
        let mut c = EccZigbeeClient::new(config());
        c.on_burst(SimTime::ZERO, 2, 50);
        let ws_start = SimTime::from_millis(100);
        let action = c.on_white_space(ws_start, SimDuration::from_millis(30));
        assert_eq!(action, EccClientAction::SendData { seq: 0, bytes: 50 });
        c.mark_in_flight(0);
        // A second poll (e.g. the next white-space announcement arriving
        // while the MAC still holds the frame) must not re-offer seq 0.
        assert_eq!(c.next_action(ws_start), EccClientAction::Wait);
        assert_eq!(
            c.on_white_space(
                ws_start + SimDuration::from_millis(100),
                SimDuration::from_millis(30)
            ),
            EccClientAction::Wait
        );
        // Delivery clears the mark and the next packet flows.
        let (_, next) = c.on_delivered(ws_start + SimDuration::from_millis(103), 0);
        assert_eq!(next, EccClientAction::SendData { seq: 1, bytes: 50 });
    }

    #[test]
    fn mac_failure_reoffers_the_same_frame() {
        let mut c = EccZigbeeClient::new(config());
        c.on_burst(SimTime::ZERO, 1, 50);
        let ws_start = SimTime::from_millis(100);
        assert_eq!(
            c.on_white_space(ws_start, SimDuration::from_millis(30)),
            EccClientAction::SendData { seq: 0, bytes: 50 }
        );
        c.mark_in_flight(0);
        assert_eq!(c.next_action(ws_start), EccClientAction::Wait);
        c.on_failed(0);
        // The packet stayed in the queue and is eligible again.
        assert_eq!(
            c.next_action(ws_start),
            EccClientAction::SendData { seq: 0, bytes: 50 }
        );
        assert_eq!(c.backlog(), 1);
    }

    #[test]
    fn delivery_returns_arrival_time_for_delay_accounting() {
        let mut c = EccZigbeeClient::new(config());
        let arrival = SimTime::from_millis(37);
        c.on_burst(arrival, 1, 50);
        let _ = c.on_white_space(SimTime::from_millis(100), SimDuration::from_millis(30));
        let (arrived, _) = c.on_delivered(SimTime::from_millis(103), 0);
        assert_eq!(arrived, arrival);
        assert_eq!(c.delivered(), 1);
    }

    #[test]
    fn early_white_space_end_stops_sending() {
        let mut c = EccZigbeeClient::new(config());
        c.on_burst(SimTime::ZERO, 3, 50);
        let _ = c.on_white_space(SimTime::from_millis(100), SimDuration::from_millis(30));
        c.on_white_space_end();
        assert_eq!(
            c.next_action(SimTime::from_millis(105)),
            EccClientAction::Wait
        );
    }

    #[test]
    fn empty_queue_in_white_space_waits() {
        // The wasteful ECC case: a reservation nobody uses.
        let mut c = EccZigbeeClient::new(config());
        let action = c.on_white_space(SimTime::from_millis(100), SimDuration::from_millis(30));
        assert_eq!(action, EccClientAction::Wait);
    }

    #[test]
    #[should_panic(expected = "out-of-order")]
    fn out_of_order_delivery_panics() {
        let mut c = EccZigbeeClient::new(config());
        c.on_burst(SimTime::ZERO, 2, 50);
        let _ = c.on_white_space(SimTime::from_millis(100), SimDuration::from_millis(30));
        let _ = c.on_delivered(SimTime::from_millis(103), 1);
    }

    #[test]
    fn bursts_accumulate_across_periods() {
        let mut c = EccZigbeeClient::new(config());
        c.on_burst(SimTime::ZERO, 2, 50);
        c.on_burst(SimTime::from_millis(10), 3, 50);
        assert_eq!(c.backlog(), 5);
    }
}
