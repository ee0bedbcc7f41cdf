//! Scenario configuration and result structures.
//!
//! Construct a [`SimConfig`] from a preset ([`SimConfig::bicord`],
//! [`SimConfig::ecc`], [`SimConfig::unprotected`],
//! [`SimConfig::signaling_trial`]) and override its public fields;
//! [`crate::sim::CoexistenceSim::new`] validates it and rejects
//! inconsistent combinations with [`ConfigError`].

use std::error::Error;
use std::fmt;

use bicord_core::allocation::AllocatorConfig;
use bicord_core::client::ClientConfig;
use bicord_core::signaling::DetectorConfig;
use bicord_ctc::ecc::EccConfig;
use bicord_phy::airtime::zigbee_timing::MAX_MPDU_BYTES;
use bicord_phy::airtime::WifiRate;
use bicord_phy::geometry::Point;
use bicord_phy::noise::NoiseBurstProcess;
use bicord_phy::units::Dbm;
use bicord_sim::{FaultProfile, SimDuration, SimTime};
use bicord_workloads::mobility::{DeviceMobility, PersonMobility};
use bicord_workloads::priority::PrioritySchedule;

use crate::geometry::Location;
use crate::trace::ChannelTrace;

/// The traffic types of [`ZigbeeTrafficConfig`] and [`ExtraNodeConfig`],
/// so config builders need no direct `bicord-workloads` dependency.
pub use bicord_workloads::traffic::{ArrivalProcess, BurstSpec};

/// Which coordination scheme the scenario runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Mode {
    /// BiCord: bidirectional coordination (the paper's contribution).
    Bicord,
    /// ECC: blind periodic white spaces (the baseline).
    Ecc(EccConfig),
    /// No coordination: plain CSMA/CA under interference (motivation).
    Unprotected,
    /// The Table I/II detector experiment: fixed control-packet bursts,
    /// detection only, no reservations.
    SignalingTrial {
        /// Control packets per trial burst (3, 4 or 5 in the tables).
        control_packets: u32,
        /// Spacing between trial bursts.
        trial_period: SimDuration,
        /// Number of trials (600 in the paper).
        trials: u32,
    },
}

/// Wi-Fi traffic configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WifiTrafficConfig {
    /// PHY rate (the paper's workload is 1 Mb/s DSSS).
    pub rate: WifiRate,
    /// Frame MPDU length (100 B in the paper).
    pub mpdu_bytes: usize,
    /// `None` = saturated sender (back-to-back frames); `Some(interval)` =
    /// one frame enqueued per interval (used where Wi-Fi delay matters,
    /// Sec. VIII-G).
    pub enqueue_interval: Option<SimDuration>,
    /// Transmission power (20 dBm in the paper).
    pub tx_power: Dbm,
    /// Energy-detection threshold above which non-Wi-Fi energy defers the
    /// sender's CCA.
    pub ed_threshold: Dbm,
}

impl Default for WifiTrafficConfig {
    fn default() -> Self {
        WifiTrafficConfig {
            rate: WifiRate::Dsss1,
            mpdu_bytes: 100,
            enqueue_interval: None,
            tx_power: Dbm::new(20.0),
            ed_threshold: Dbm::new(-58.0),
        }
    }
}

/// ZigBee traffic and radio configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ZigbeeTrafficConfig {
    /// Burst shape.
    pub burst: BurstSpec,
    /// Burst arrival process.
    pub arrivals: ArrivalProcess,
    /// Data transmission power.
    pub data_power: Dbm,
    /// Signaling power override; `None` uses the location's paper power.
    pub signal_power: Option<Dbm>,
    /// Carrier-sense busy threshold (−82 dBm for ZigBee radios).
    pub busy_threshold: Dbm,
}

impl Default for ZigbeeTrafficConfig {
    fn default() -> Self {
        ZigbeeTrafficConfig {
            burst: BurstSpec::default(),
            arrivals: ArrivalProcess::Poisson(SimDuration::from_millis(200)),
            data_power: Dbm::new(0.0),
            signal_power: None,
            busy_threshold: Dbm::new(-82.0),
        }
    }
}

/// A second Wi-Fi station contending for the same channel. It runs its
/// own DCF instance, defers to the primary sender via carrier sense, and
/// honours the NAV of the primary's CTS-to-self — the mechanism that
/// actually protects BiCord's white spaces in a multi-station network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExtraWifiConfig {
    /// The station's position.
    pub position: Point,
    /// Frame MPDU length.
    pub mpdu_bytes: usize,
    /// Transmission power.
    pub tx_power: Dbm,
}

impl Default for ExtraWifiConfig {
    fn default() -> Self {
        ExtraWifiConfig {
            position: Point::new(1.5, -1.0),
            mpdu_bytes: 100,
            tx_power: Dbm::new(20.0),
        }
    }
}

/// An active Bluetooth (BR/EDR) interferer sharing the band — the
/// Sec. VII-A scenario where the ZigBee node must recognise that the
/// interference is *not* Wi-Fi and refrain from signaling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BluetoothConfig {
    /// The headset/speaker position.
    pub position: Point,
    /// Transmission power (class-2 devices: ~0-4 dBm).
    pub tx_power: Dbm,
    /// Probability that a hop lands in the ZigBee listening band (AFH
    /// keeps a reduced hop set; ~0.18 near the channel).
    pub in_band_prob: f64,
}

impl Default for BluetoothConfig {
    fn default() -> Self {
        BluetoothConfig {
            position: Point::new(2.0, 1.0),
            tx_power: Dbm::new(4.0),
            in_band_prob: 0.18,
        }
    }
}

/// Configuration of one additional ZigBee sender/receiver pair beyond the
/// primary one (Sec. VI: "multiple ZigBee nodes with different traffic
/// pattern coexisting in the surroundings").
#[derive(Debug, Clone, PartialEq)]
pub struct ExtraNodeConfig {
    /// The node's Fig. 6 location.
    pub location: Location,
    /// Burst shape.
    pub burst: BurstSpec,
    /// Burst arrival process.
    pub arrivals: ArrivalProcess,
    /// Data transmission power.
    pub data_power: Dbm,
    /// Signaling power override; `None` uses the location's paper power.
    pub signal_power: Option<Dbm>,
}

impl ExtraNodeConfig {
    /// A node at `location` with the paper's default traffic.
    pub fn at(location: Location) -> Self {
        ExtraNodeConfig {
            location,
            burst: BurstSpec::default(),
            arrivals: ArrivalProcess::Poisson(SimDuration::from_millis(200)),
            data_power: Dbm::new(0.0),
            signal_power: None,
        }
    }
}

/// Complete configuration of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Master seed; every stochastic component derives from it.
    pub seed: u64,
    /// Virtual run length.
    pub duration: SimDuration,
    /// Coordination scheme.
    pub mode: Mode,
    /// ZigBee sender location (Fig. 6).
    pub location: Location,
    /// Wi-Fi traffic.
    pub wifi: WifiTrafficConfig,
    /// ZigBee traffic of the primary node.
    pub zigbee: ZigbeeTrafficConfig,
    /// Additional ZigBee sender/receiver pairs sharing the channel.
    pub extra_nodes: Vec<ExtraNodeConfig>,
    /// A second contending Wi-Fi station; `None` = absent.
    pub extra_wifi: Option<ExtraWifiConfig>,
    /// An active Bluetooth interferer; `None` = absent.
    pub bluetooth: Option<BluetoothConfig>,
    /// Ambient noise-burst process.
    pub noise: NoiseBurstProcess,
    /// Walking-person disturbance timeline (Sec. VIII-F); `None` = static.
    pub person: Option<PersonMobility>,
    /// ZigBee-sender movement timeline (Sec. VIII-F); `None` = static.
    pub device_mobility: Option<DeviceMobility>,
    /// Wi-Fi priority schedule (Sec. VIII-G); `None` = always serve
    /// ZigBee requests.
    pub priority: Option<PrioritySchedule>,
    /// CSI detector rule.
    pub detector: DetectorConfig,
    /// White-space allocator parameters.
    pub allocator: AllocatorConfig,
    /// ZigBee client parameters.
    pub client: ClientConfig,
    /// Fault-injection profile; the default is fully inactive and leaves
    /// the run bit-identical to one without an injector.
    pub fault: FaultProfile,
    /// Record a [`ChannelTrace`] of every transmission and white space
    /// (returned in [`RunResults::trace`]).
    pub record_trace: bool,
    /// Wi-Fi channel (1-13). The paper uses 11 or 13.
    pub wifi_channel: u8,
    /// ZigBee channel (11-26). The paper uses 24 or 26, overlapping the
    /// Wi-Fi channel; a disjoint pair removes the interference entirely.
    pub zigbee_channel: u8,
}

impl SimConfig {
    /// A BiCord run with the paper's defaults at `location`.
    pub fn bicord(location: Location, seed: u64) -> Self {
        // The paper's effective per-packet spacing: a 50 B exchange plus
        // T_i lands at ≈ 6 ms per packet (five packets with ACK ≈ 30 ms).
        let client = ClientConfig {
            packet_interval: SimDuration::from_millis(2),
            ..ClientConfig::default()
        };
        SimConfig {
            seed,
            duration: SimDuration::from_secs(10),
            mode: Mode::Bicord,
            location,
            wifi: WifiTrafficConfig::default(),
            zigbee: ZigbeeTrafficConfig::default(),
            extra_nodes: Vec::new(),
            extra_wifi: None,
            bluetooth: None,
            noise: NoiseBurstProcess::office(),
            person: None,
            device_mobility: None,
            priority: None,
            detector: DetectorConfig::default(),
            allocator: AllocatorConfig::default(),
            client,
            fault: FaultProfile::default(),
            record_trace: false,
            wifi_channel: 11,
            zigbee_channel: 24,
        }
    }

    /// An ECC run with the given white-space length.
    pub fn ecc(location: Location, seed: u64, white_space: SimDuration) -> Self {
        SimConfig {
            mode: Mode::Ecc(EccConfig::with_white_space(white_space)),
            ..SimConfig::bicord(location, seed)
        }
    }

    /// An uncoordinated run (plain CSMA under interference).
    pub fn unprotected(location: Location, seed: u64) -> Self {
        SimConfig {
            mode: Mode::Unprotected,
            ..SimConfig::bicord(location, seed)
        }
    }

    /// A Table I/II signaling-trial run.
    pub fn signaling_trial(
        location: Location,
        seed: u64,
        control_packets: u32,
        trials: u32,
        signal_power: Dbm,
    ) -> Self {
        let trial_period = SimDuration::from_millis(100);
        let mut config = SimConfig::bicord(location, seed);
        config.mode = Mode::SignalingTrial {
            control_packets,
            trial_period,
            trials,
        };
        config.zigbee.signal_power = Some(signal_power);
        config.duration = trial_period * u64::from(trials) + SimDuration::from_millis(50);
        config
    }

    /// The effective signaling power for this run.
    pub fn effective_signal_power(&self) -> Dbm {
        self.zigbee
            .signal_power
            .unwrap_or_else(|| self.location.paper_signal_power())
    }

    /// Checks the configuration for inconsistent mode/traffic/geometry
    /// combinations. [`crate::sim::CoexistenceSim::new`] calls this.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(1..=13).contains(&self.wifi_channel) {
            return Err(ConfigError::InvalidWifiChannel(self.wifi_channel));
        }
        if !(11..=26).contains(&self.zigbee_channel) {
            return Err(ConfigError::InvalidZigbeeChannel(self.zigbee_channel));
        }
        if self.duration.is_zero() {
            return Err(ConfigError::ZeroDuration);
        }
        check_burst(0, &self.zigbee.burst)?;
        if self.zigbee.arrivals.mean_interval().is_zero() {
            return Err(ConfigError::NonPositiveInterval {
                what: "primary ZigBee burst arrivals",
            });
        }
        for (i, node) in self.extra_nodes.iter().enumerate() {
            check_burst(i + 1, &node.burst)?;
            if node.arrivals.mean_interval().is_zero() {
                return Err(ConfigError::NonPositiveInterval {
                    what: "extra-node burst arrivals",
                });
            }
        }
        // Node device ids are 2 + 2·n / 3 + 2·n and must stay clear of the
        // fixed ids (extra Wi-Fi station = 500); timer keys index nodes
        // with a u8.
        let node_count = 1 + self.extra_nodes.len();
        if node_count > MAX_ZIGBEE_NODES {
            return Err(ConfigError::TooManyNodes { count: node_count });
        }
        if let Some(interval) = self.wifi.enqueue_interval {
            if interval.is_zero() {
                return Err(ConfigError::NonPositiveInterval {
                    what: "Wi-Fi enqueue interval",
                });
            }
        }
        if let Some(field) = self.fault.invalid_field() {
            return Err(ConfigError::InvalidFaultProfile { field });
        }
        match &self.mode {
            Mode::SignalingTrial {
                control_packets,
                trial_period,
                trials,
            } => {
                if *trials == 0 || *control_packets == 0 {
                    return Err(ConfigError::TrialWithoutTrials {
                        trials: *trials,
                        control_packets: *control_packets,
                    });
                }
                if trial_period.is_zero() {
                    return Err(ConfigError::NonPositiveInterval {
                        what: "signaling-trial period",
                    });
                }
                if !self.extra_nodes.is_empty() {
                    return Err(ConfigError::TrialWithExtraNodes);
                }
            }
            Mode::Ecc(ecc) => {
                if ecc.white_space.is_zero() || ecc.period.is_zero() {
                    return Err(ConfigError::NonPositiveInterval {
                        what: "ECC period/white space",
                    });
                }
            }
            Mode::Bicord | Mode::Unprotected => {}
        }
        Ok(())
    }
}

/// Rejects node `node`'s burst if it is empty or its packets do not fit
/// in an 802.15.4 frame.
fn check_burst(node: usize, burst: &BurstSpec) -> Result<(), ConfigError> {
    if burst.n_packets == 0 || burst.mpdu_bytes == 0 {
        return Err(ConfigError::EmptyBurst { node });
    }
    if burst.mpdu_bytes > MAX_MPDU_BYTES {
        return Err(ConfigError::OversizedFrame {
            node,
            bytes: burst.mpdu_bytes,
        });
    }
    Ok(())
}

/// Maximum ZigBee sender/receiver pairs per run (primary + extras): node
/// device ids `2 + 2·n` must stay below the extra Wi-Fi station's fixed
/// id 500.
pub const MAX_ZIGBEE_NODES: usize = 248;

/// Why a [`SimConfig`] was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// Wi-Fi channel outside 1–13.
    InvalidWifiChannel(u8),
    /// ZigBee channel outside 11–26.
    InvalidZigbeeChannel(u8),
    /// The run would simulate no time at all.
    ZeroDuration,
    /// A ZigBee node's burst has zero packets or zero-byte packets.
    EmptyBurst {
        /// Node index (0 = the primary node).
        node: usize,
    },
    /// A ZigBee node's packets exceed the 802.15.4 frame limit
    /// ([`MAX_MPDU_BYTES`]).
    OversizedFrame {
        /// Node index (0 = the primary node).
        node: usize,
        /// The configured MPDU length.
        bytes: usize,
    },
    /// More ZigBee pairs than the device-id layout supports.
    TooManyNodes {
        /// Total node count (primary + extras).
        count: usize,
    },
    /// Signaling-trial mode measures the single primary link; extra nodes
    /// would corrupt the precision/recall ground truth.
    TrialWithExtraNodes,
    /// Signaling-trial mode with nothing to measure.
    TrialWithoutTrials {
        /// Configured trial count.
        trials: u32,
        /// Configured control packets per trial.
        control_packets: u32,
    },
    /// A period or interval that must be positive was zero.
    NonPositiveInterval {
        /// Which interval was rejected.
        what: &'static str,
    },
    /// The fault profile has an out-of-range knob.
    InvalidFaultProfile {
        /// Which [`FaultProfile`] field was rejected.
        field: &'static str,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::InvalidWifiChannel(n) => {
                write!(f, "Wi-Fi channel {n} outside the valid range 1-13")
            }
            ConfigError::InvalidZigbeeChannel(n) => {
                write!(f, "ZigBee channel {n} outside the valid range 11-26")
            }
            ConfigError::ZeroDuration => write!(f, "run duration must be positive"),
            ConfigError::EmptyBurst { node } => {
                write!(
                    f,
                    "ZigBee node {node} has an empty burst (no packets or 0 B packets)"
                )
            }
            ConfigError::OversizedFrame { node, bytes } => write!(
                f,
                "ZigBee node {node} sends {bytes} B packets; 802.15.4 frames carry at most \
                 {MAX_MPDU_BYTES} B"
            ),
            ConfigError::TooManyNodes { count } => write!(
                f,
                "{count} ZigBee nodes exceed the supported maximum of {MAX_ZIGBEE_NODES}"
            ),
            ConfigError::TrialWithExtraNodes => {
                write!(
                    f,
                    "signaling-trial mode does not support extra ZigBee nodes"
                )
            }
            ConfigError::TrialWithoutTrials {
                trials,
                control_packets,
            } => write!(
                f,
                "signaling-trial mode needs positive trials and control packets \
                 (got {trials} trials x {control_packets} packets)"
            ),
            ConfigError::NonPositiveInterval { what } => {
                write!(f, "{what} must be positive")
            }
            ConfigError::InvalidFaultProfile { field } => {
                write!(f, "fault profile field `{field}` is out of range")
            }
        }
    }
}

impl Error for ConfigError {}

/// ZigBee-side outcome counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ZigbeeResults {
    /// Packets handed to the stack.
    pub generated: u64,
    /// Data-frame transmissions on air (including retransmissions).
    pub transmissions: u64,
    /// Packets acknowledged end-to-end.
    pub delivered: u64,
    /// Packets never delivered by the end of the run.
    pub undelivered: u64,
    /// Mean packet delay (arrival → delivery) in ms; `None` if nothing
    /// was delivered.
    pub mean_delay_ms: Option<f64>,
    /// 95th-percentile delay in ms.
    pub p95_delay_ms: Option<f64>,
    /// Maximum delay in ms.
    pub max_delay_ms: Option<f64>,
    /// Delivered payload throughput, kb/s.
    pub throughput_kbps: f64,
    /// Signaling rounds performed.
    pub signaling_rounds: u64,
    /// Control packets transmitted.
    pub control_packets: u64,
    /// Times a node degraded to plain CSMA for the rest of a burst after
    /// consecutive unanswered signaling rounds.
    pub csma_fallbacks: u64,
}

/// Wi-Fi-side outcome counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WifiResults {
    /// Data frames transmitted, summed over every Wi-Fi station (the
    /// extra one too, when configured).
    pub frames_sent: u64,
    /// Data frames successfully received at F, from any station.
    pub frames_received: u64,
    /// CTS reservations issued.
    pub reservations: u64,
    /// Mean frame delay (enqueue → transmission start) in ms, when the
    /// run used enqueued (non-saturated) traffic.
    pub mean_delay_ms: Option<f64>,
    /// Requests ignored while serving high-priority traffic.
    pub ignored_requests: u64,
}

/// Detector quality (populated by signaling-trial runs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DetectionResults {
    /// True positives.
    pub tp: u64,
    /// False positives.
    pub fp: u64,
    /// False negatives (missed trials).
    pub fn_count: u64,
    /// `TP / (TP + FP)`.
    pub precision: f64,
    /// `TP / (TP + FN)`.
    pub recall: f64,
}

/// Allocation behaviour (Fig. 7–9).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AllocationResults {
    /// White-space length of every reservation, in order (ms).
    pub white_space_history_ms: Vec<f64>,
    /// Estimate updates performed before convergence.
    pub learning_iterations: u32,
    /// Final estimate (ms).
    pub final_estimate_ms: f64,
    /// Whether the allocator had converged by the end of the run.
    pub converged: bool,
    /// White-space aborts back into learning after inconsistent `N_round`
    /// accounting.
    pub learning_aborts: u64,
}

/// Per-node outcome (index 0 = the primary node).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeResults {
    /// Packets handed to this node's stack.
    pub generated: u64,
    /// Packets acknowledged end-to-end.
    pub delivered: u64,
    /// Signaling rounds this node performed.
    pub signaling_rounds: u64,
    /// Mean packet delay in ms; `None` if nothing was delivered.
    pub mean_delay_ms: Option<f64>,
}

/// Everything a run reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunResults {
    /// Total useful-channel utilization in `[0, 1]`.
    pub utilization: f64,
    /// ZigBee share of the window.
    pub zigbee_utilization: f64,
    /// Wi-Fi data share of the window.
    pub wifi_utilization: f64,
    /// CTS + control overhead share.
    pub overhead_fraction: f64,
    /// ZigBee-side counters (aggregated over all nodes).
    pub zigbee: ZigbeeResults,
    /// Per-node breakdown (index 0 = the primary node).
    pub per_node: Vec<NodeResults>,
    /// Wi-Fi-side counters.
    pub wifi: WifiResults,
    /// Detector quality (signaling-trial mode).
    pub detection: DetectionResults,
    /// Allocator behaviour (BiCord mode).
    pub allocation: AllocationResults,
    /// Virtual time simulated.
    pub simulated: SimDuration,
    /// Events processed (engine statistics).
    pub events: u64,
    /// The channel-activity trace, when recording was enabled.
    pub trace: Option<ChannelTrace>,
}

impl RunResults {
    /// ZigBee packet-delivery ratio.
    pub fn zigbee_pdr(&self) -> f64 {
        if self.zigbee.generated == 0 {
            0.0
        } else {
            self.zigbee.delivered as f64 / self.zigbee.generated as f64
        }
    }

    /// Per-transmission success rate (the paper's "packet reception rate":
    /// retransmissions count as separate attempts).
    pub fn zigbee_prr(&self) -> f64 {
        if self.zigbee.transmissions == 0 {
            0.0
        } else {
            self.zigbee.delivered as f64 / self.zigbee.transmissions as f64
        }
    }

    /// A multi-line human-readable summary of the run (used by the CLI
    /// and the examples).
    pub fn summary_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "utilization        {:.1}%  (Wi-Fi {:.1}%, ZigBee {:.1}%, overhead {:.1}%)\n",
            self.utilization * 100.0,
            self.wifi_utilization * 100.0,
            self.zigbee_utilization * 100.0,
            self.overhead_fraction * 100.0,
        ));
        out.push_str(&format!(
            "ZigBee             {}/{} delivered ({:.1}% PDR), throughput {:.1} kb/s\n",
            self.zigbee.delivered,
            self.zigbee.generated,
            self.zigbee_pdr() * 100.0,
            self.zigbee.throughput_kbps,
        ));
        if let Some(delay) = self.zigbee.mean_delay_ms {
            out.push_str(&format!(
                "delay              mean {delay:.1} ms, p95 {:.1} ms, max {:.1} ms\n",
                self.zigbee.p95_delay_ms.unwrap_or(f64::NAN),
                self.zigbee.max_delay_ms.unwrap_or(f64::NAN),
            ));
        }
        out.push_str(&format!(
            "coordination       {} signaling rounds, {} control packets, {} reservations\n",
            self.zigbee.signaling_rounds, self.zigbee.control_packets, self.wifi.reservations,
        ));
        if self.per_node.len() > 1 {
            for (i, node) in self.per_node.iter().enumerate() {
                out.push_str(&format!(
                    "  node {i}           {}/{} delivered, mean delay {}\n",
                    node.delivered,
                    node.generated,
                    node.mean_delay_ms
                        .map(|d| format!("{d:.1} ms"))
                        .unwrap_or_else(|| "-".to_string()),
                ));
            }
        }
        out
    }
}

/// The instant the observation window opens (skipping initial transients).
pub const WARMUP: SimTime = SimTime::ZERO;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bicord_defaults_match_paper() {
        let c = SimConfig::bicord(Location::A, 1);
        assert_eq!(c.wifi.mpdu_bytes, 100);
        assert_eq!(c.zigbee.burst.n_packets, 5);
        assert_eq!(c.zigbee.burst.mpdu_bytes, 50);
        assert_eq!(c.effective_signal_power(), Dbm::new(0.0));
        assert_eq!(c.mode, Mode::Bicord);
    }

    #[test]
    fn ecc_preset_carries_white_space() {
        let c = SimConfig::ecc(Location::A, 1, SimDuration::from_millis(20));
        match &c.mode {
            Mode::Ecc(e) => assert_eq!(e.white_space, SimDuration::from_millis(20)),
            other => panic!("unexpected mode {other:?}"),
        }
    }

    #[test]
    fn signal_power_override_wins() {
        let mut c = SimConfig::bicord(Location::D, 1);
        assert_eq!(c.effective_signal_power(), Dbm::new(-3.0));
        c.zigbee.signal_power = Some(Dbm::new(-7.0));
        assert_eq!(c.effective_signal_power(), Dbm::new(-7.0));
    }

    #[test]
    fn trial_config_sizes_duration() {
        let c = SimConfig::signaling_trial(Location::B, 2, 4, 600, Dbm::new(0.0));
        match c.mode {
            Mode::SignalingTrial {
                control_packets,
                trials,
                trial_period,
            } => {
                assert_eq!(control_packets, 4);
                assert_eq!(trials, 600);
                assert!(c.duration >= trial_period * 600);
            }
            ref other => panic!("unexpected mode {other:?}"),
        }
    }

    #[test]
    fn summary_text_is_complete() {
        let mut r = RunResults {
            utilization: 0.82,
            wifi_utilization: 0.65,
            zigbee_utilization: 0.17,
            ..RunResults::default()
        };
        r.zigbee.generated = 10;
        r.zigbee.delivered = 9;
        r.zigbee.mean_delay_ms = Some(25.0);
        r.zigbee.p95_delay_ms = Some(60.0);
        r.zigbee.max_delay_ms = Some(80.0);
        r.per_node = vec![NodeResults::default(), NodeResults::default()];
        let text = r.summary_text();
        assert!(text.contains("82.0%"));
        assert!(text.contains("9/10 delivered"));
        assert!(text.contains("mean 25.0 ms"));
        assert!(text.contains("node 0"));
        assert!(text.contains("node 1"));
        // Single-node runs omit the per-node breakdown.
        r.per_node.truncate(1);
        assert!(!r.summary_text().contains("node 0"));
    }

    #[test]
    fn pdr_handles_zero_generated() {
        let r = RunResults::default();
        assert_eq!(r.zigbee_pdr(), 0.0);
    }

    /// The BiCord preset at [`Location::A`], seed 0, with one change.
    fn bicord_with(change: impl FnOnce(&mut SimConfig)) -> SimConfig {
        let mut c = SimConfig::bicord(Location::A, 0);
        change(&mut c);
        c
    }

    #[test]
    fn validate_rejects_bad_channels() {
        assert_eq!(
            bicord_with(|c| c.wifi_channel = 0).validate().unwrap_err(),
            ConfigError::InvalidWifiChannel(0)
        );
        assert_eq!(
            bicord_with(|c| c.zigbee_channel = 27)
                .validate()
                .unwrap_err(),
            ConfigError::InvalidZigbeeChannel(27)
        );
    }

    #[test]
    fn validate_rejects_degenerate_runs() {
        assert_eq!(
            bicord_with(|c| c.duration = SimDuration::ZERO)
                .validate()
                .unwrap_err(),
            ConfigError::ZeroDuration
        );
        assert_eq!(
            bicord_with(|c| c.zigbee.burst.n_packets = 0)
                .validate()
                .unwrap_err(),
            ConfigError::EmptyBurst { node: 0 }
        );
        assert_eq!(
            bicord_with(|c| c.zigbee.arrivals = ArrivalProcess::Poisson(SimDuration::ZERO))
                .validate()
                .unwrap_err(),
            ConfigError::NonPositiveInterval {
                what: "primary ZigBee burst arrivals"
            }
        );
    }

    #[test]
    fn validate_rejects_inconsistent_trial_mode() {
        let mut c = SimConfig::signaling_trial(Location::A, 0, 4, 10, Dbm::new(0.0));
        c.extra_nodes.push(ExtraNodeConfig::at(Location::B));
        assert_eq!(c.validate().unwrap_err(), ConfigError::TrialWithExtraNodes);
        let c = SimConfig {
            duration: SimDuration::from_secs(1),
            mode: Mode::SignalingTrial {
                control_packets: 0,
                trial_period: SimDuration::from_millis(100),
                trials: 10,
            },
            ..SimConfig::signaling_trial(Location::A, 0, 4, 10, Dbm::new(0.0))
        };
        assert!(matches!(
            c.validate().unwrap_err(),
            ConfigError::TrialWithoutTrials { .. }
        ));
    }

    #[test]
    fn validate_rejects_out_of_range_fault_profile() {
        let err = bicord_with(|c| c.fault.control_loss = 2.0)
            .validate()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::InvalidFaultProfile {
                field: "control_loss"
            }
        );
        assert!(err.to_string().contains("control_loss"));
    }

    #[test]
    fn validate_rejects_extra_node_with_empty_burst() {
        let mut node = ExtraNodeConfig::at(Location::B);
        node.burst.n_packets = 0;
        assert_eq!(
            bicord_with(|c| c.extra_nodes.push(node))
                .validate()
                .unwrap_err(),
            ConfigError::EmptyBurst { node: 1 }
        );
    }

    #[test]
    fn validate_rejects_frames_longer_than_802_15_4_allows() {
        let oversized = |node, bytes| Err(ConfigError::OversizedFrame { node, bytes });
        let fits = bicord_with(|c| c.zigbee.burst.mpdu_bytes = MAX_MPDU_BYTES);
        assert_eq!(fits.validate(), Ok(()));
        let primary = bicord_with(|c| c.zigbee.burst.mpdu_bytes = 5000);
        assert_eq!(primary.validate(), oversized(0, 5000));
        let mut node = ExtraNodeConfig::at(Location::C);
        node.burst.mpdu_bytes = 128;
        let extra = bicord_with(|c| {
            c.extra_nodes
                .extend([ExtraNodeConfig::at(Location::B), node])
        });
        assert_eq!(extra.validate(), oversized(2, 128));
        let err = primary.validate().unwrap_err().to_string();
        assert!(err.contains("node 0 sends 5000 B"), "{err}");
    }

    #[test]
    fn config_error_messages_are_descriptive() {
        let msgs = [
            ConfigError::InvalidWifiChannel(0).to_string(),
            ConfigError::TooManyNodes { count: 300 }.to_string(),
            ConfigError::TrialWithoutTrials {
                trials: 0,
                control_packets: 4,
            }
            .to_string(),
        ];
        assert!(msgs[0].contains("1-13"));
        assert!(msgs[1].contains("248"));
        assert!(msgs[2].contains("0 trials"));
    }

    #[test]
    fn presets_all_validate() {
        SimConfig::bicord(Location::A, 1).validate().unwrap();
        SimConfig::ecc(Location::B, 1, SimDuration::from_millis(20))
            .validate()
            .unwrap();
        SimConfig::unprotected(Location::C, 1).validate().unwrap();
        SimConfig::signaling_trial(Location::D, 1, 4, 10, Dbm::new(0.0))
            .validate()
            .unwrap();
    }
}
