//! The ZigBee-side BiCord client.
//!
//! Orchestrates one ZigBee node's life under cross-technology interference
//! (Fig. 2 of the paper):
//!
//! 1. **Send normally** — application bursts go through standard 802.15.4
//!    CSMA/CA with ACKs.
//! 2. **Diagnose failure** — a channel-access failure or exhausted retries
//!    triggers CTI detection: capture an RSSI trace, classify the
//!    technology, and (for Wi-Fi) identify the transmitter to pick the
//!    signaling power from the PowerMap.
//! 3. **Signal** — transmit 120 B control packets (bypassing CCA) until a
//!    white space opens or the attempt budget is exhausted.
//! 4. **Transmit in the white space** — resume the data burst; if the
//!    white space ends early, the next failure loops back to step 3 (a new
//!    learning round for the Wi-Fi side).
//!
//! The client is sans-IO like the MAC machines: the scenario routes its
//! actions to the `ZigbeeMac`, the medium, and the event queue.

use std::collections::VecDeque;

use bicord_mac::zigbee::{FailReason, ZigbeeNotification};
use bicord_phy::interferers::{InterfererKind, RssiTrace};
use bicord_phy::units::Dbm;
use bicord_sim::{SimDuration, SimTime};

use crate::cti::{classify, extract_features, KMeans, PowerMap};
use crate::signaling::SignalingPolicy;

/// Timers the client asks the scenario to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClientTimer {
    /// Application-level gap between data packets of a burst (`T_i`).
    NextPacket,
    /// Wait after a control packet for a white space to open.
    SignalGap,
    /// Back-off before retrying after a failed/ignored request or
    /// non-Wi-Fi interference.
    Retry,
}

/// Instructions emitted by the client.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClientAction {
    /// Hand a data frame to the ZigBee MAC (CSMA/CA + ACK).
    MacSendData {
        /// Application sequence number.
        seq: u32,
        /// MPDU length in bytes.
        bytes: usize,
    },
    /// Hand a control packet to the ZigBee MAC (no CCA, no ACK).
    MacSendControl {
        /// MPDU length in bytes.
        bytes: usize,
    },
    /// Change the radio's transmission power.
    SetTxPower(Dbm),
    /// Capture a fast RSSI trace and deliver it via
    /// [`BicordClient::on_trace`].
    CaptureTrace,
    /// (Re)arm a timer.
    SetTimer {
        /// Which timer.
        timer: ClientTimer,
        /// Absolute expiry instant.
        at: SimTime,
    },
    /// Disarm a timer.
    CancelTimer(ClientTimer),
    /// A data packet was delivered (metrics hook).
    PacketDelivered {
        /// Application sequence number.
        seq: u32,
        /// MAC attempts used.
        attempts: u32,
    },
    /// The whole burst finished (delivered + given-up packets).
    BurstComplete {
        /// Packets delivered.
        delivered: u32,
        /// Packets abandoned.
        failed: u32,
    },
    /// A signaling round went unanswered and the client is backing off
    /// before re-signaling (observability hook).
    SignalingBackoff {
        /// Consecutive unanswered rounds so far (including this one).
        failures: u32,
    },
    /// The client gave up on signaling for this burst after `k`
    /// consecutive unanswered rounds and fell back to plain CSMA
    /// (observability hook).
    FallbackToCsma {
        /// Consecutive unanswered rounds that triggered the fallback.
        failures: u32,
    },
}

/// Client configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientConfig {
    /// Signaling policy (control length, packet budget).
    pub policy: SignalingPolicy,
    /// Application-level packet interval `T_i` within a burst.
    pub packet_interval: SimDuration,
    /// Power used for data transmission.
    pub data_power: Dbm,
    /// Default signaling power for unknown Wi-Fi devices.
    pub default_signal_power: Dbm,
    /// How long to wait after each control packet before concluding no
    /// white space is coming.
    pub signal_gap: SimDuration,
    /// Back-off before retrying after an ignored request / non-Wi-Fi
    /// interference.
    pub retry_backoff: SimDuration,
    /// Busy threshold used when extracting trace features.
    pub busy_threshold_dbm: f64,
    /// Noise floor used when extracting trace features.
    pub noise_floor_dbm: f64,
    /// How long a Wi-Fi interference diagnosis stays valid. Within this
    /// window new bursts signal immediately (the PowerMap is known)
    /// instead of first burning a full CSMA channel-access failure.
    pub diagnosis_ttl: SimDuration,
    /// After this many *consecutive* unanswered signaling rounds the
    /// client stops re-signaling for the remainder of the burst and falls
    /// back to plain CSMA (graceful degradation when the Wi-Fi side never
    /// answers). Signaling resumes with the next burst. Must be ≥ 1.
    pub max_signaling_failures: u32,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            policy: SignalingPolicy::default(),
            packet_interval: SimDuration::from_millis(4),
            data_power: Dbm::new(0.0),
            default_signal_power: Dbm::new(0.0),
            signal_gap: SimDuration::from_millis(6),
            retry_backoff: SimDuration::from_millis(50),
            busy_threshold_dbm: -80.0,
            noise_floor_dbm: -95.0,
            diagnosis_ttl: SimDuration::from_secs(10),
            max_signaling_failures: 3,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// No burst pending.
    Idle,
    /// A data frame is with the MAC.
    Sending,
    /// Waiting for the inter-packet interval.
    BetweenPackets,
    /// Waiting for the RSSI trace after a failure.
    Classifying,
    /// A control packet is with the MAC / waiting for the white space.
    Signaling,
    /// Backing off before a retry.
    WaitingRetry,
}

#[derive(Debug, Clone)]
struct Burst {
    pending: VecDeque<(u32, usize)>,
    delivered: u32,
    failed: u32,
}

/// The ZigBee-side client state machine.
///
/// # Example
///
/// ```
/// use bicord_core::client::{BicordClient, ClientAction, ClientConfig};
/// use bicord_sim::SimTime;
///
/// let mut client = BicordClient::new(ClientConfig::default());
/// let mut actions = Vec::new();
/// client.on_burst(SimTime::ZERO, 5, 50, &mut actions);
/// // The first packet goes straight to the MAC:
/// assert!(matches!(
///     actions.as_slice(),
///     [ClientAction::MacSendData { seq: 0, bytes: 50 }]
/// ));
/// ```
#[derive(Debug, Clone)]
pub struct BicordClient {
    config: ClientConfig,
    power_map: PowerMap,
    fingerprinter: Option<KMeans>,
    state: State,
    burst: Option<Burst>,
    next_seq: u32,
    controls_this_request: u32,
    wifi_confirmed_at: Option<SimTime>,
    signal_power: Option<Dbm>,
    /// `true` between a sensed channel-clear (white space opened) and the
    /// next sensed Wi-Fi activity. Bursts arriving inside a white space
    /// are transmitted directly — signaling into a silent channel is
    /// useless (there are no Wi-Fi frames to disturb).
    channel_clear: bool,
    signaling_rounds: u64,
    bursts_completed: u64,
    /// Unanswered signaling rounds since the last answered one.
    consecutive_failures: u32,
    /// `true` once the current burst gave up on signaling entirely.
    csma_only_burst: bool,
    csma_fallbacks: u64,
}

impl BicordClient {
    /// Creates a client.
    pub fn new(config: ClientConfig) -> Self {
        let default_power = config.default_signal_power;
        BicordClient {
            config,
            power_map: PowerMap::new(default_power),
            fingerprinter: None,
            state: State::Idle,
            burst: None,
            next_seq: 0,
            controls_this_request: 0,
            wifi_confirmed_at: None,
            signal_power: None,
            channel_clear: false,
            signaling_rounds: 0,
            bursts_completed: 0,
            consecutive_failures: 0,
            csma_only_burst: false,
            csma_fallbacks: 0,
        }
    }

    /// `true` while a Wi-Fi interference diagnosis is still fresh.
    fn wifi_confirmed(&self, now: SimTime) -> bool {
        self.wifi_confirmed_at
            .map(|at| now.saturating_since(at) < self.config.diagnosis_ttl)
            .unwrap_or(false)
    }

    /// Installs a fitted fingerprinting model (device identification).
    pub fn set_fingerprinter(&mut self, model: KMeans) {
        self.fingerprinter = Some(model);
    }

    /// The PowerMap (mutable, for pre-negotiated entries).
    pub fn power_map_mut(&mut self) -> &mut PowerMap {
        &mut self.power_map
    }

    /// Total signaling rounds performed.
    pub fn signaling_rounds(&self) -> u64 {
        self.signaling_rounds
    }

    /// Total bursts completed (delivered or abandoned).
    pub fn bursts_completed(&self) -> u64 {
        self.bursts_completed
    }

    /// How many times the client abandoned signaling for a burst and fell
    /// back to plain CSMA.
    pub fn csma_fallbacks(&self) -> u64 {
        self.csma_fallbacks
    }

    /// `true` if no burst is in progress.
    pub fn is_idle(&self) -> bool {
        self.state == State::Idle && self.burst.is_none()
    }

    /// Starts a burst of `n_packets` data frames of `bytes` each.
    ///
    /// If a burst is still in progress, the new packets are appended to it.
    pub fn on_burst(
        &mut self,
        now: SimTime,
        n_packets: u32,
        bytes: usize,
        actions: &mut Vec<ClientAction>,
    ) {
        let burst = self.burst.get_or_insert_with(|| Burst {
            pending: VecDeque::new(),
            delivered: 0,
            failed: 0,
        });
        for _ in 0..n_packets {
            burst.pending.push_back((self.next_seq, bytes));
            self.next_seq += 1;
        }
        if self.state == State::Idle {
            if !self.channel_clear && self.wifi_confirmed(now) {
                // The interference is known and the PowerMap entry is warm:
                // request the channel right away instead of burning a CSMA
                // channel-access failure first (Sec. VII-B: "ZigBee nodes
                // only perform cross-technology signaling once").
                let power = self
                    .signal_power
                    .unwrap_or(self.config.default_signal_power);
                actions.push(ClientAction::SetTxPower(power));
                self.begin_signaling(now, actions);
            } else {
                self.send_next(now, actions);
            }
        }
    }

    /// Routes a MAC notification into the client.
    pub fn on_mac_notification(
        &mut self,
        now: SimTime,
        notification: ZigbeeNotification,
        actions: &mut Vec<ClientAction>,
    ) {
        match notification {
            ZigbeeNotification::Delivered { seq, attempts } => {
                actions.push(ClientAction::PacketDelivered { seq, attempts });
                if let Some(burst) = self.burst.as_mut() {
                    burst.delivered += 1;
                    // The MAC already popped its copy; drop ours.
                    burst.pending.pop_front();
                }
                if self.burst_finished() {
                    self.finish_burst(actions);
                } else {
                    self.state = State::BetweenPackets;
                    actions.push(ClientAction::SetTimer {
                        timer: ClientTimer::NextPacket,
                        at: now + self.config.packet_interval,
                    });
                }
            }
            ZigbeeNotification::Failed { seq: _, reason } => {
                // Keep the packet (the MAC dropped it; ours is still at the
                // front of `pending`) and diagnose the channel.
                match reason {
                    FailReason::ChannelAccessFailure | FailReason::ExceededRetries => {
                        if self.csma_only_burst {
                            // The burst already degraded to plain CSMA:
                            // back off and retry the data without any
                            // further cross-technology signaling.
                            self.state = State::WaitingRetry;
                            actions.push(ClientAction::SetTimer {
                                timer: ClientTimer::Retry,
                                at: now + self.config.retry_backoff,
                            });
                        } else if self.wifi_confirmed(now) {
                            // Skip classification; signal immediately (a
                            // later round of the same interference).
                            let power = self
                                .signal_power
                                .unwrap_or(self.config.default_signal_power);
                            actions.push(ClientAction::SetTxPower(power));
                            self.begin_signaling(now, actions);
                        } else {
                            self.state = State::Classifying;
                            actions.push(ClientAction::CaptureTrace);
                        }
                    }
                }
            }
            ZigbeeNotification::ControlSent => {
                if self.state == State::Signaling {
                    actions.push(ClientAction::SetTimer {
                        timer: ClientTimer::SignalGap,
                        at: now + self.config.signal_gap,
                    });
                }
            }
        }
    }

    /// Delivers the RSSI trace requested by [`ClientAction::CaptureTrace`].
    pub fn on_trace(&mut self, now: SimTime, trace: &RssiTrace, actions: &mut Vec<ClientAction>) {
        if self.state != State::Classifying {
            return;
        }
        let features = extract_features(
            trace,
            self.config.busy_threshold_dbm,
            self.config.noise_floor_dbm,
        );
        match classify(&features) {
            Some(InterfererKind::Wifi) => {
                self.wifi_confirmed_at = Some(now);
                // Identify the transmitter to pick the right power.
                let device = self
                    .fingerprinter
                    .as_ref()
                    .map(|m| m.assign(&features.fingerprint()));
                let power = match device {
                    Some(d) => self.power_map.power_for(d),
                    None => self.config.default_signal_power,
                };
                self.signal_power = Some(power);
                actions.push(ClientAction::SetTxPower(power));
                self.begin_signaling(now, actions);
            }
            _ => {
                // Not Wi-Fi (or idle): signaling is useless — back off and
                // retry plain CSMA later (recovery schemes are orthogonal,
                // Sec. VII-A).
                self.state = State::WaitingRetry;
                actions.push(ClientAction::SetTimer {
                    timer: ClientTimer::Retry,
                    at: now + self.config.retry_backoff,
                });
            }
        }
    }

    /// Notifies the client that the channel turned busy again (the Wi-Fi
    /// device resumed after a white space).
    ///
    /// If a burst is still in progress and the interference is already
    /// diagnosed, the client preempts the doomed CSMA attempt and signals
    /// immediately — flailing through `macMaxCSMABackoffs` busy CCAs first
    /// would let the Wi-Fi side's burst-end gap expire and split the burst
    /// into separate learning episodes.
    pub fn on_channel_busy(&mut self, now: SimTime, actions: &mut Vec<ClientAction>) {
        self.channel_clear = false;
        if self.state == State::BetweenPackets
            && !self.burst_finished()
            && !self.csma_only_burst
            && self.wifi_confirmed(now)
        {
            actions.push(ClientAction::CancelTimer(ClientTimer::NextPacket));
            let power = self
                .signal_power
                .unwrap_or(self.config.default_signal_power);
            actions.push(ClientAction::SetTxPower(power));
            self.begin_signaling(now, actions);
        }
    }

    /// Notifies the client that the channel went quiet (a white space
    /// opened). Resumes a signaling client's data; otherwise just records
    /// the channel state.
    pub fn on_channel_clear(&mut self, now: SimTime, actions: &mut Vec<ClientAction>) {
        self.channel_clear = true;
        if self.state != State::Signaling {
            return;
        }
        actions.push(ClientAction::CancelTimer(ClientTimer::SignalGap));
        actions.push(ClientAction::SetTxPower(self.config.data_power));
        self.controls_this_request = 0;
        // An answered request clears the degradation pressure.
        self.consecutive_failures = 0;
        self.send_next(now, actions);
    }

    /// Handles an expired timer.
    pub fn on_timer(&mut self, now: SimTime, timer: ClientTimer, actions: &mut Vec<ClientAction>) {
        match (timer, self.state) {
            (ClientTimer::NextPacket, State::BetweenPackets) => {
                self.send_next(now, actions);
            }
            (ClientTimer::SignalGap, State::Signaling) => {
                if self
                    .config
                    .policy
                    .should_continue(self.controls_this_request)
                {
                    self.controls_this_request += 1;
                    actions.push(ClientAction::MacSendControl {
                        bytes: self.config.policy.control_bytes,
                    });
                } else {
                    // Request ignored by Wi-Fi: back off, try plain CSMA
                    // later.
                    self.controls_this_request = 0;
                    self.consecutive_failures += 1;
                    actions.push(ClientAction::SignalingBackoff {
                        failures: self.consecutive_failures,
                    });
                    if self.consecutive_failures >= self.config.max_signaling_failures.max(1) {
                        // k consecutive unanswered rounds: stop signaling
                        // for this burst and degrade to plain CSMA.
                        self.csma_only_burst = true;
                        self.csma_fallbacks += 1;
                        actions.push(ClientAction::FallbackToCsma {
                            failures: self.consecutive_failures,
                        });
                        self.consecutive_failures = 0;
                        actions.push(ClientAction::SetTxPower(self.config.data_power));
                    }
                    self.state = State::WaitingRetry;
                    actions.push(ClientAction::SetTimer {
                        timer: ClientTimer::Retry,
                        at: now + self.config.retry_backoff,
                    });
                }
            }
            (ClientTimer::Retry, State::WaitingRetry) => {
                self.send_next(now, actions);
            }
            _ => {}
        }
    }

    fn begin_signaling(&mut self, _now: SimTime, actions: &mut Vec<ClientAction>) {
        self.state = State::Signaling;
        self.signaling_rounds += 1;
        self.controls_this_request = 1;
        actions.push(ClientAction::MacSendControl {
            bytes: self.config.policy.control_bytes,
        });
    }

    fn send_next(&mut self, _now: SimTime, actions: &mut Vec<ClientAction>) {
        let Some(burst) = self.burst.as_ref() else {
            self.state = State::Idle;
            return;
        };
        let Some(&(seq, bytes)) = burst.pending.front() else {
            self.finish_burst(actions);
            return;
        };
        self.state = State::Sending;
        actions.push(ClientAction::MacSendData { seq, bytes });
    }

    fn burst_finished(&self) -> bool {
        self.burst
            .as_ref()
            .map(|b| b.pending.is_empty())
            .unwrap_or(true)
    }

    fn finish_burst(&mut self, actions: &mut Vec<ClientAction>) {
        if let Some(burst) = self.burst.take() {
            actions.push(ClientAction::BurstComplete {
                delivered: burst.delivered,
                failed: burst.failed,
            });
            self.bursts_completed += 1;
        }
        self.state = State::Idle;
        // The Wi-Fi diagnosis outlives the burst (bounded by its TTL):
        // the next burst can signal immediately. A CSMA fallback does not —
        // every burst gets a fresh chance to coordinate.
        self.csma_only_burst = false;
        self.consecutive_failures = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bicord_phy::interferers::{generate_trace, TraceConfig, TRACE_DURATION};
    use bicord_sim::{stream_rng, SeedDomain};

    fn client() -> BicordClient {
        BicordClient::new(ClientConfig::default())
    }

    /// The actions one handler call appends to a fresh buffer.
    fn collect(f: impl FnOnce(&mut Vec<ClientAction>)) -> Vec<ClientAction> {
        let mut actions = Vec::new();
        f(&mut actions);
        actions
    }

    fn delivered(seq: u32) -> ZigbeeNotification {
        ZigbeeNotification::Delivered { seq, attempts: 1 }
    }

    fn failed_access(seq: u32) -> ZigbeeNotification {
        ZigbeeNotification::Failed {
            seq,
            reason: FailReason::ChannelAccessFailure,
        }
    }

    fn wifi_trace() -> RssiTrace {
        let mut rng = stream_rng(3, SeedDomain::Interferers, 30);
        generate_trace(&mut rng, &TraceConfig::wifi(-34.0), TRACE_DURATION)
    }

    fn bluetooth_trace() -> RssiTrace {
        // Dense under-floor undershoots guarantee the Bluetooth verdict
        // without depending on generator randomness.
        let mut samples = vec![-94.0; 100];
        for i in 0..30 {
            samples[i * 3] = -45.0;
            samples[i * 3 + 1] = -100.0;
        }
        RssiTrace {
            sample_period: bicord_phy::interferers::TRACE_SAMPLE_PERIOD,
            samples,
        }
    }

    #[test]
    fn clean_burst_flows_packet_by_packet() {
        let mut c = client();
        let actions = collect(|a| c.on_burst(SimTime::ZERO, 3, 50, a));
        assert_eq!(
            actions,
            vec![ClientAction::MacSendData { seq: 0, bytes: 50 }]
        );
        // Packet 0 delivered → inter-packet timer:
        let actions = collect(|a| c.on_mac_notification(SimTime::from_millis(3), delivered(0), a));
        assert!(actions.contains(&ClientAction::PacketDelivered {
            seq: 0,
            attempts: 1
        }));
        assert!(actions.iter().any(|a| matches!(
            a,
            ClientAction::SetTimer { timer: ClientTimer::NextPacket, at }
                if *at == SimTime::from_millis(7)
        )));
        // Timer fires → packet 1:
        let actions = collect(|a| c.on_timer(SimTime::from_millis(7), ClientTimer::NextPacket, a));
        assert_eq!(
            actions,
            vec![ClientAction::MacSendData { seq: 1, bytes: 50 }]
        );
        let _ = collect(|a| c.on_mac_notification(SimTime::from_millis(10), delivered(1), a));
        let actions = collect(|a| c.on_timer(SimTime::from_millis(14), ClientTimer::NextPacket, a));
        assert_eq!(
            actions,
            vec![ClientAction::MacSendData { seq: 2, bytes: 50 }]
        );
        // Last delivery completes the burst:
        let actions = collect(|a| c.on_mac_notification(SimTime::from_millis(17), delivered(2), a));
        assert!(actions.contains(&ClientAction::BurstComplete {
            delivered: 3,
            failed: 0
        }));
        assert!(c.is_idle());
        assert_eq!(c.bursts_completed(), 1);
    }

    #[test]
    fn failure_triggers_trace_capture_then_signaling() {
        let mut c = client();
        let _ = collect(|a| c.on_burst(SimTime::ZERO, 5, 50, a));
        let actions =
            collect(|a| c.on_mac_notification(SimTime::from_millis(20), failed_access(0), a));
        assert_eq!(actions, vec![ClientAction::CaptureTrace]);
        // Wi-Fi verdict → set power + first control packet:
        let actions = collect(|a| c.on_trace(SimTime::from_millis(21), &wifi_trace(), a));
        assert!(actions
            .iter()
            .any(|a| matches!(a, ClientAction::SetTxPower(_))));
        assert!(actions.contains(&ClientAction::MacSendControl { bytes: 120 }));
        assert_eq!(c.signaling_rounds(), 1);
    }

    #[test]
    fn white_space_resumes_data_at_data_power() {
        let mut c = client();
        let _ = collect(|a| c.on_burst(SimTime::ZERO, 2, 50, a));
        let _ = collect(|a| c.on_mac_notification(SimTime::from_millis(20), failed_access(0), a));
        let _ = collect(|a| c.on_trace(SimTime::from_millis(21), &wifi_trace(), a));
        let _ = collect(|a| {
            c.on_mac_notification(SimTime::from_millis(26), ZigbeeNotification::ControlSent, a)
        });
        // Channel clears (CTS white space):
        let actions = collect(|a| c.on_channel_clear(SimTime::from_millis(28), a));
        assert!(actions.contains(&ClientAction::SetTxPower(Dbm::new(0.0))));
        assert!(actions.contains(&ClientAction::MacSendData { seq: 0, bytes: 50 }));
        assert!(actions.contains(&ClientAction::CancelTimer(ClientTimer::SignalGap)));
    }

    #[test]
    fn signal_gap_without_white_space_sends_another_control() {
        let mut c = client();
        let _ = collect(|a| c.on_burst(SimTime::ZERO, 2, 50, a));
        let _ = collect(|a| c.on_mac_notification(SimTime::from_millis(20), failed_access(0), a));
        let _ = collect(|a| c.on_trace(SimTime::from_millis(21), &wifi_trace(), a));
        let _ = collect(|a| {
            c.on_mac_notification(SimTime::from_millis(26), ZigbeeNotification::ControlSent, a)
        });
        let actions = collect(|a| c.on_timer(SimTime::from_millis(32), ClientTimer::SignalGap, a));
        assert!(actions.contains(&ClientAction::MacSendControl { bytes: 120 }));
    }

    #[test]
    fn exhausted_control_budget_backs_off() {
        let cfg = ClientConfig {
            policy: SignalingPolicy {
                max_packets: 2,
                ..SignalingPolicy::default()
            },
            ..ClientConfig::default()
        };
        let mut c = BicordClient::new(cfg);
        let _ = collect(|a| c.on_burst(SimTime::ZERO, 1, 50, a));
        let _ = collect(|a| c.on_mac_notification(SimTime::from_millis(20), failed_access(0), a));
        let _ = collect(|a| c.on_trace(SimTime::from_millis(21), &wifi_trace(), a));
        // Control 1 sent; gap; control 2; gap; then give up:
        let _ = collect(|a| {
            c.on_mac_notification(SimTime::from_millis(26), ZigbeeNotification::ControlSent, a)
        });
        let actions = collect(|a| c.on_timer(SimTime::from_millis(32), ClientTimer::SignalGap, a));
        assert!(actions.contains(&ClientAction::MacSendControl { bytes: 120 }));
        let _ = collect(|a| {
            c.on_mac_notification(SimTime::from_millis(37), ZigbeeNotification::ControlSent, a)
        });
        let actions = collect(|a| c.on_timer(SimTime::from_millis(43), ClientTimer::SignalGap, a));
        assert!(actions.iter().any(|a| matches!(
            a,
            ClientAction::SetTimer {
                timer: ClientTimer::Retry,
                ..
            }
        )));
        // Retry timer restarts plain data:
        let actions = collect(|a| c.on_timer(SimTime::from_millis(93), ClientTimer::Retry, a));
        assert!(actions.contains(&ClientAction::MacSendData { seq: 0, bytes: 50 }));
    }

    /// Drives one full unanswered signaling round for a client built with
    /// `max_packets: 2`: both controls go out, both signal gaps expire,
    /// and the final timer's actions (the backoff decision) are returned.
    fn exhaust_round(c: &mut BicordClient, t0: SimTime) -> Vec<ClientAction> {
        let step = SimDuration::from_millis(6);
        let _ = collect(|a| c.on_mac_notification(t0, ZigbeeNotification::ControlSent, a));
        let _ = collect(|a| c.on_timer(t0 + step, ClientTimer::SignalGap, a));
        let _ =
            collect(|a| c.on_mac_notification(t0 + step * 2, ZigbeeNotification::ControlSent, a));
        collect(|a| c.on_timer(t0 + step * 3, ClientTimer::SignalGap, a))
    }

    fn small_budget_client(max_signaling_failures: u32) -> BicordClient {
        BicordClient::new(ClientConfig {
            policy: SignalingPolicy {
                max_packets: 2,
                ..SignalingPolicy::default()
            },
            max_signaling_failures,
            ..ClientConfig::default()
        })
    }

    #[test]
    fn unanswered_round_emits_backoff_transition() {
        let mut c = small_budget_client(3);
        let _ = collect(|a| c.on_burst(SimTime::ZERO, 1, 50, a));
        let _ = collect(|a| c.on_mac_notification(SimTime::from_millis(20), failed_access(0), a));
        let _ = collect(|a| c.on_trace(SimTime::from_millis(21), &wifi_trace(), a));
        let actions = exhaust_round(&mut c, SimTime::from_millis(26));
        assert!(actions.contains(&ClientAction::SignalingBackoff { failures: 1 }));
        assert!(
            !actions
                .iter()
                .any(|a| matches!(a, ClientAction::FallbackToCsma { .. })),
            "one failure must not trigger the fallback, got {actions:?}"
        );
        assert_eq!(c.csma_fallbacks(), 0);
    }

    #[test]
    fn k_consecutive_failures_fall_back_to_csma() {
        let mut c = small_budget_client(2);
        let _ = collect(|a| c.on_burst(SimTime::ZERO, 1, 50, a));
        let _ = collect(|a| c.on_mac_notification(SimTime::from_millis(20), failed_access(0), a));
        let _ = collect(|a| c.on_trace(SimTime::from_millis(21), &wifi_trace(), a));
        // Round 1 unanswered → backoff; Retry → data fails again → round 2.
        let _ = exhaust_round(&mut c, SimTime::from_millis(26));
        let _ = collect(|a| c.on_timer(SimTime::from_millis(100), ClientTimer::Retry, a));
        let _ = collect(|a| c.on_mac_notification(SimTime::from_millis(120), failed_access(0), a));
        let actions = exhaust_round(&mut c, SimTime::from_millis(121));
        assert!(actions.contains(&ClientAction::SignalingBackoff { failures: 2 }));
        assert!(actions.contains(&ClientAction::FallbackToCsma { failures: 2 }));
        assert!(
            actions.contains(&ClientAction::SetTxPower(Dbm::new(0.0))),
            "fallback must restore data power, got {actions:?}"
        );
        assert_eq!(c.csma_fallbacks(), 1);
        // From here the burst is CSMA-only: a further failure retries the
        // data after a backoff instead of signaling or re-classifying.
        let _ = collect(|a| c.on_timer(SimTime::from_millis(200), ClientTimer::Retry, a));
        let actions =
            collect(|a| c.on_mac_notification(SimTime::from_millis(220), failed_access(0), a));
        assert!(
            actions.iter().all(|a| matches!(
                a,
                ClientAction::SetTimer {
                    timer: ClientTimer::Retry,
                    ..
                }
            )),
            "CSMA-only burst must not signal, got {actions:?}"
        );
        assert_eq!(c.signaling_rounds(), 2);
    }

    #[test]
    fn answered_request_resets_the_failure_count() {
        let mut c = small_budget_client(2);
        let _ = collect(|a| c.on_burst(SimTime::ZERO, 2, 50, a));
        let _ = collect(|a| c.on_mac_notification(SimTime::from_millis(20), failed_access(0), a));
        let _ = collect(|a| c.on_trace(SimTime::from_millis(21), &wifi_trace(), a));
        // Round 1 unanswered.
        let _ = exhaust_round(&mut c, SimTime::from_millis(26));
        // Retry → data fails → round 2, but this one is answered.
        let _ = collect(|a| c.on_timer(SimTime::from_millis(100), ClientTimer::Retry, a));
        let _ = collect(|a| c.on_mac_notification(SimTime::from_millis(120), failed_access(0), a));
        let _ = collect(|a| {
            c.on_mac_notification(
                SimTime::from_millis(125),
                ZigbeeNotification::ControlSent,
                a,
            )
        });
        let _ = collect(|a| c.on_channel_clear(SimTime::from_millis(127), a));
        let _ = collect(|a| c.on_mac_notification(SimTime::from_millis(130), delivered(0), a));
        // White space over; the next packet fails and round 3 goes
        // unanswered: the count must restart at 1, not reach k = 2.
        let _ = collect(|a| c.on_channel_busy(SimTime::from_millis(140), a));
        let actions = exhaust_round(&mut c, SimTime::from_millis(141));
        assert!(actions.contains(&ClientAction::SignalingBackoff { failures: 1 }));
        assert!(!actions
            .iter()
            .any(|a| matches!(a, ClientAction::FallbackToCsma { .. })));
        assert_eq!(c.csma_fallbacks(), 0);
    }

    #[test]
    fn fallback_expires_with_the_burst() {
        let mut c = small_budget_client(1);
        let _ = collect(|a| c.on_burst(SimTime::ZERO, 1, 50, a));
        let _ = collect(|a| c.on_mac_notification(SimTime::from_millis(20), failed_access(0), a));
        let _ = collect(|a| c.on_trace(SimTime::from_millis(21), &wifi_trace(), a));
        // k = 1: the very first unanswered round falls back.
        let actions = exhaust_round(&mut c, SimTime::from_millis(26));
        assert!(actions
            .iter()
            .any(|a| matches!(a, ClientAction::FallbackToCsma { .. })));
        // The lone packet finally makes it through plain CSMA.
        let _ = collect(|a| c.on_timer(SimTime::from_millis(100), ClientTimer::Retry, a));
        let actions =
            collect(|a| c.on_mac_notification(SimTime::from_millis(120), delivered(0), a));
        assert!(actions.contains(&ClientAction::BurstComplete {
            delivered: 1,
            failed: 0
        }));
        // The next burst signals again (the diagnosis is still fresh):
        // degradation is per-burst, not sticky.
        let actions = collect(|a| c.on_burst(SimTime::from_millis(200), 1, 50, a));
        assert!(
            actions.contains(&ClientAction::MacSendControl { bytes: 120 }),
            "fallback must not outlive the burst, got {actions:?}"
        );
    }

    #[test]
    fn non_wifi_interference_skips_signaling() {
        let mut c = client();
        let _ = collect(|a| c.on_burst(SimTime::ZERO, 1, 50, a));
        let _ = collect(|a| c.on_mac_notification(SimTime::from_millis(20), failed_access(0), a));
        let actions = collect(|a| c.on_trace(SimTime::from_millis(21), &bluetooth_trace(), a));
        assert!(
            !actions
                .iter()
                .any(|a| matches!(a, ClientAction::MacSendControl { .. })),
            "must not signal at Bluetooth"
        );
        assert!(actions.iter().any(|a| matches!(
            a,
            ClientAction::SetTimer {
                timer: ClientTimer::Retry,
                ..
            }
        )));
    }

    #[test]
    fn second_failure_in_burst_skips_classification() {
        let mut c = client();
        let _ = collect(|a| c.on_burst(SimTime::ZERO, 5, 50, a));
        let _ = collect(|a| c.on_mac_notification(SimTime::from_millis(20), failed_access(0), a));
        let _ = collect(|a| c.on_trace(SimTime::from_millis(21), &wifi_trace(), a));
        let _ = collect(|a| {
            c.on_mac_notification(SimTime::from_millis(26), ZigbeeNotification::ControlSent, a)
        });
        let _ = collect(|a| c.on_channel_clear(SimTime::from_millis(28), a));
        let _ = collect(|a| c.on_mac_notification(SimTime::from_millis(31), delivered(0), a));
        let _ = collect(|a| c.on_timer(SimTime::from_millis(35), ClientTimer::NextPacket, a));
        // White space ended; next packet fails:
        let actions =
            collect(|a| c.on_mac_notification(SimTime::from_millis(60), failed_access(1), a));
        assert!(
            actions.contains(&ClientAction::MacSendControl { bytes: 120 }),
            "Wi-Fi already confirmed — go straight to signaling, got {actions:?}"
        );
        assert_eq!(c.signaling_rounds(), 2);
    }

    #[test]
    fn power_map_entry_used_for_known_device() {
        let mut c = client();
        // Train a trivial fingerprinter on two separated device signatures.
        let data = vec![vec![-26.0, 10.0, 2.0, 0.7], vec![-60.0, 10.0, 2.0, 0.7]];
        c.set_fingerprinter(KMeans::fit(
            &data,
            crate::cti::KMeansConfig {
                k: 2,
                iterations: 10,
                seed: 1,
                ..Default::default()
            },
        ));
        // Find which cluster a strong wifi trace maps to, and install a
        // distinctive power for it.
        let trace = wifi_trace();
        let f = extract_features(&trace, -80.0, -95.0);
        let model_clone = KMeans::fit(
            &data,
            crate::cti::KMeansConfig {
                k: 2,
                iterations: 10,
                seed: 1,
                ..Default::default()
            },
        );
        let cluster = model_clone.assign(&f.fingerprint());
        c.power_map_mut().insert(cluster, Dbm::new(-3.0));
        let _ = collect(|a| c.on_burst(SimTime::ZERO, 1, 50, a));
        let _ = collect(|a| c.on_mac_notification(SimTime::from_millis(20), failed_access(0), a));
        let actions = collect(|a| c.on_trace(SimTime::from_millis(21), &trace, a));
        assert!(
            actions.contains(&ClientAction::SetTxPower(Dbm::new(-3.0))),
            "negotiated power must be used, got {actions:?}"
        );
    }

    #[test]
    fn appending_burst_extends_pending() {
        let mut c = client();
        let _ = collect(|a| c.on_burst(SimTime::ZERO, 2, 50, a));
        let _ = collect(|a| c.on_mac_notification(SimTime::from_millis(3), delivered(0), a));
        // More data arrives mid-burst:
        let actions = collect(|a| c.on_burst(SimTime::from_millis(4), 2, 50, a));
        assert!(actions.is_empty(), "mid-burst arrival queues silently");
        let _ = collect(|a| c.on_timer(SimTime::from_millis(7), ClientTimer::NextPacket, a));
        let _ = collect(|a| c.on_mac_notification(SimTime::from_millis(10), delivered(1), a));
        let _ = collect(|a| c.on_timer(SimTime::from_millis(14), ClientTimer::NextPacket, a));
        let _ = collect(|a| c.on_mac_notification(SimTime::from_millis(17), delivered(2), a));
        let _ = collect(|a| c.on_timer(SimTime::from_millis(21), ClientTimer::NextPacket, a));
        let actions = collect(|a| c.on_mac_notification(SimTime::from_millis(24), delivered(3), a));
        assert!(actions.contains(&ClientAction::BurstComplete {
            delivered: 4,
            failed: 0
        }));
    }

    #[test]
    fn fresh_diagnosis_signals_immediately_on_next_burst() {
        let mut c = client();
        // Burst 1 establishes the Wi-Fi diagnosis the slow way.
        let _ = collect(|a| c.on_burst(SimTime::ZERO, 1, 50, a));
        let _ = collect(|a| c.on_mac_notification(SimTime::from_millis(20), failed_access(0), a));
        let _ = collect(|a| c.on_trace(SimTime::from_millis(21), &wifi_trace(), a));
        let _ = collect(|a| {
            c.on_mac_notification(SimTime::from_millis(26), ZigbeeNotification::ControlSent, a)
        });
        let _ = collect(|a| c.on_channel_clear(SimTime::from_millis(28), a));
        let _ = collect(|a| c.on_mac_notification(SimTime::from_millis(31), delivered(0), a));
        assert!(c.is_idle());
        // Wi-Fi resumes (white space over) before the next burst arrives.
        let _ = collect(|a| c.on_channel_busy(SimTime::from_millis(60), a));
        // Burst 2 within the diagnosis TTL: no CSMA attempt, no trace —
        // straight to signaling at the remembered power.
        let actions = collect(|a| c.on_burst(SimTime::from_millis(100), 1, 50, a));
        assert!(
            actions.contains(&ClientAction::MacSendControl { bytes: 120 }),
            "expected immediate signaling, got {actions:?}"
        );
        assert!(actions
            .iter()
            .any(|a| matches!(a, ClientAction::SetTxPower(_))));
        assert!(!actions.contains(&ClientAction::CaptureTrace));
    }

    #[test]
    fn diagnosis_expires_after_ttl() {
        let cfg = ClientConfig {
            diagnosis_ttl: SimDuration::from_millis(500),
            ..ClientConfig::default()
        };
        let mut c = BicordClient::new(cfg);
        let _ = collect(|a| c.on_burst(SimTime::ZERO, 1, 50, a));
        let _ = collect(|a| c.on_mac_notification(SimTime::from_millis(20), failed_access(0), a));
        let _ = collect(|a| c.on_trace(SimTime::from_millis(21), &wifi_trace(), a));
        let _ = collect(|a| {
            c.on_mac_notification(SimTime::from_millis(26), ZigbeeNotification::ControlSent, a)
        });
        let _ = collect(|a| c.on_channel_clear(SimTime::from_millis(28), a));
        let _ = collect(|a| c.on_mac_notification(SimTime::from_millis(31), delivered(0), a));
        let _ = collect(|a| c.on_channel_busy(SimTime::from_millis(60), a));
        // Next burst arrives a full second later — past the TTL: plain
        // data send first.
        let actions = collect(|a| c.on_burst(SimTime::from_millis(1_100), 1, 50, a));
        assert_eq!(
            actions,
            vec![ClientAction::MacSendData { seq: 1, bytes: 50 }]
        );
    }

    #[test]
    fn burst_arriving_inside_white_space_sends_directly() {
        let mut c = client();
        // Establish the diagnosis, then open a white space.
        let _ = collect(|a| c.on_burst(SimTime::ZERO, 1, 50, a));
        let _ = collect(|a| c.on_mac_notification(SimTime::from_millis(20), failed_access(0), a));
        let _ = collect(|a| c.on_trace(SimTime::from_millis(21), &wifi_trace(), a));
        let _ = collect(|a| {
            c.on_mac_notification(SimTime::from_millis(26), ZigbeeNotification::ControlSent, a)
        });
        let _ = collect(|a| c.on_channel_clear(SimTime::from_millis(28), a));
        let _ = collect(|a| c.on_mac_notification(SimTime::from_millis(31), delivered(0), a));
        // Channel still clear: a new burst must NOT signal into silence.
        let actions = collect(|a| c.on_burst(SimTime::from_millis(40), 1, 50, a));
        assert_eq!(
            actions,
            vec![ClientAction::MacSendData { seq: 1, bytes: 50 }],
            "bursts inside a white space transmit directly"
        );
    }

    #[test]
    fn wifi_resume_preempts_waiting_client() {
        let mut c = client();
        // Mid-burst with the diagnosis fresh, waiting between packets.
        let _ = collect(|a| c.on_burst(SimTime::ZERO, 3, 50, a));
        let _ = collect(|a| c.on_mac_notification(SimTime::from_millis(20), failed_access(0), a));
        let _ = collect(|a| c.on_trace(SimTime::from_millis(21), &wifi_trace(), a));
        let _ = collect(|a| {
            c.on_mac_notification(SimTime::from_millis(26), ZigbeeNotification::ControlSent, a)
        });
        let _ = collect(|a| c.on_channel_clear(SimTime::from_millis(28), a));
        let _ = collect(|a| c.on_mac_notification(SimTime::from_millis(31), delivered(0), a));
        // Now BetweenPackets; the white space ends:
        let actions = collect(|a| c.on_channel_busy(SimTime::from_millis(33), a));
        assert!(
            actions.contains(&ClientAction::MacSendControl { bytes: 120 }),
            "waiting client must preempt the doomed CSMA and re-signal, got {actions:?}"
        );
        assert!(actions.contains(&ClientAction::CancelTimer(ClientTimer::NextPacket)));
        assert_eq!(c.signaling_rounds(), 2);
    }

    #[test]
    fn stale_timers_are_ignored() {
        let mut c = client();
        assert!(collect(|a| c.on_timer(SimTime::ZERO, ClientTimer::NextPacket, a)).is_empty());
        assert!(collect(|a| c.on_timer(SimTime::ZERO, ClientTimer::SignalGap, a)).is_empty());
        assert!(collect(|a| c.on_timer(SimTime::ZERO, ClientTimer::Retry, a)).is_empty());
        assert!(collect(|a| c.on_channel_clear(SimTime::ZERO, a)).is_empty());
        assert!(collect(|a| c.on_trace(SimTime::ZERO, &wifi_trace(), a)).is_empty());
    }
}
