//! RSSI-trace generators for the CTI-detection experiments (Sec. VII-A).
//!
//! A ZigBee node classifies the *technology* behind observed channel
//! activity from a short, fast RSSI trace (the paper samples at 40 kHz for
//! 5 ms), then fingerprints the individual Wi-Fi transmitter. This module
//! generates traces with the physical-layer signatures those classifiers
//! exploit:
//!
//! * **Wi-Fi** — ≈ 1 ms frames separated by short DIFS/backoff gaps,
//!   moderate amplitude jitter;
//! * **ZigBee** — ≈ 1.8 ms frames (50 B) with very stable on-air amplitude;
//! * **Bluetooth** — 625 µs slot grid, mostly out-of-band due to hopping,
//!   with brief AGC undershoots below the noise floor after a hop leaves;
//! * **Microwave oven** — mains-cycle (20 ms) on/off envelope with a large
//!   amplitude ramp.

use rand::Rng;

use bicord_sim::dist::{bernoulli, normal};
use bicord_sim::SimDuration;

/// The RSSI sampling period used by the CTI detector: 40 kHz.
pub const TRACE_SAMPLE_PERIOD: SimDuration = SimDuration::from_micros(25);

/// The default trace length: 5 ms (200 samples at 40 kHz).
pub const TRACE_DURATION: SimDuration = SimDuration::from_millis(5);

/// A fast RSSI trace as recorded by a ZigBee radio.
#[derive(Debug, Clone, PartialEq)]
pub struct RssiTrace {
    /// Time between consecutive samples.
    pub sample_period: SimDuration,
    /// RSSI samples in dBm.
    pub samples: Vec<f64>,
}

impl RssiTrace {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` if the trace contains no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Total trace duration.
    pub fn duration(&self) -> SimDuration {
        self.sample_period * self.samples.len() as u64
    }
}

/// The interference technology behind a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InterfererKind {
    /// An IEEE 802.11 transmitter.
    Wifi,
    /// An IEEE 802.15.4 transmitter.
    Zigbee,
    /// A Bluetooth (BR/EDR) link, e.g. the paper's headset streaming music.
    Bluetooth,
    /// A microwave oven.
    Microwave,
}

/// Parameters of a trace generation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceConfig {
    /// Which technology to emulate.
    pub kind: InterfererKind,
    /// Mean received power while the interferer is on air, dBm.
    pub rx_power_dbm: f64,
    /// The receiver's noise floor, dBm.
    pub noise_floor_dbm: f64,
    /// Start-to-start frame interval for frame-based technologies
    /// (Wi-Fi / ZigBee). The paper uses 1 ms for Wi-Fi and 2 ms for ZigBee.
    pub frame_interval: SimDuration,
    /// On-air time per frame for frame-based technologies.
    pub frame_airtime: SimDuration,
}

impl TraceConfig {
    /// The paper's Wi-Fi workload: 100 B frames (992 µs at 1 Mb/s) every
    /// 1 ms, received at `rx_power_dbm`.
    pub fn wifi(rx_power_dbm: f64) -> Self {
        TraceConfig {
            kind: InterfererKind::Wifi,
            rx_power_dbm,
            noise_floor_dbm: -95.0,
            frame_interval: SimDuration::from_micros(1_350),
            frame_airtime: SimDuration::from_micros(992),
        }
    }

    /// The paper's ZigBee workload: 50 B frames (1.792 ms) every 2 ms.
    pub fn zigbee(rx_power_dbm: f64) -> Self {
        TraceConfig {
            kind: InterfererKind::Zigbee,
            rx_power_dbm,
            noise_floor_dbm: -95.0,
            frame_interval: SimDuration::from_micros(2_400),
            frame_airtime: SimDuration::from_micros(1_792),
        }
    }

    /// A Bluetooth BR/EDR link (625 µs slots, adaptive hopping).
    pub fn bluetooth(rx_power_dbm: f64) -> Self {
        TraceConfig {
            kind: InterfererKind::Bluetooth,
            rx_power_dbm,
            noise_floor_dbm: -95.0,
            frame_interval: SimDuration::from_micros(625),
            frame_airtime: SimDuration::from_micros(366),
        }
    }

    /// A microwave oven (20 ms mains cycle, ~50 % duty).
    pub fn microwave(rx_power_dbm: f64) -> Self {
        TraceConfig {
            kind: InterfererKind::Microwave,
            rx_power_dbm,
            noise_floor_dbm: -95.0,
            frame_interval: SimDuration::from_millis(20),
            frame_airtime: SimDuration::from_millis(10),
        }
    }
}

/// Generates one RSSI trace of `duration` under `config`.
///
/// # Example
///
/// ```
/// use bicord_phy::interferers::{generate_trace, TraceConfig, TRACE_DURATION};
/// use bicord_sim::{stream_rng, SeedDomain};
///
/// let mut rng = stream_rng(11, SeedDomain::Interferers, 0);
/// let trace = generate_trace(&mut rng, &TraceConfig::wifi(-45.0), TRACE_DURATION);
/// assert_eq!(trace.len(), 200); // 5 ms at 40 kHz
/// ```
pub fn generate_trace<R: Rng + ?Sized>(
    rng: &mut R,
    config: &TraceConfig,
    duration: SimDuration,
) -> RssiTrace {
    let n = (duration / TRACE_SAMPLE_PERIOD) as usize;
    let mut samples = Vec::with_capacity(n);
    // Random phase offset into the interferer's schedule so traces are not
    // aligned with frame boundaries.
    let period_us = config.frame_interval.as_micros().max(1);
    let phase = rng.gen_range(0..period_us);

    // Per-trace slow power wobble (fading over the capture). The spread is
    // what limits device-identification accuracy: Wi-Fi senders ~7 dB
    // apart in link budget overlap at the tails, reproducing the paper's
    // ≈ 90 % (not 100 %) identification rate.
    let trace_offset_db = normal(rng, 0.0, 2.8);

    // Bluetooth's per-slot on/off pattern, drawn once per slot index.
    let mut bt_slot_cache: Vec<bool> = Vec::new();

    for i in 0..n {
        let t_us = i as u64 * TRACE_SAMPLE_PERIOD.as_micros() + phase;
        let in_period = t_us % period_us;
        let (on_air, jitter_db, undershoot) = match config.kind {
            InterfererKind::Wifi => {
                // Small random gap extension models backoff variation.
                (in_period < config.frame_airtime.as_micros(), 2.5, false)
            }
            InterfererKind::Zigbee => (in_period < config.frame_airtime.as_micros(), 0.8, false),
            InterfererKind::Bluetooth => {
                let slot = (t_us / period_us) as usize;
                while bt_slot_cache.len() <= slot {
                    // ~18 % of slots land in the 2 MHz listening band
                    // (AFH-reduced hop set near the ZigBee channel).
                    bt_slot_cache.push(bernoulli(rng, 0.18));
                }
                let active = bt_slot_cache[slot] && in_period < config.frame_airtime.as_micros();
                // AGC undershoot right after the hop leaves the band.
                let after_hop = bt_slot_cache[slot]
                    && in_period >= config.frame_airtime.as_micros()
                    && in_period < config.frame_airtime.as_micros() + 50;
                (active, 1.8, after_hop)
            }
            InterfererKind::Microwave => {
                let on = in_period < config.frame_airtime.as_micros();
                (on, 5.0, false)
            }
        };
        let value = if on_air {
            let ramp = if config.kind == InterfererKind::Microwave {
                // Magnetron power ramps across the half-cycle.
                let f = in_period as f64 / config.frame_airtime.as_micros() as f64;
                -6.0 * (1.0 - (std::f64::consts::PI * f).sin())
            } else {
                0.0
            };
            config.rx_power_dbm + trace_offset_db + ramp + normal(rng, 0.0, jitter_db)
        } else if undershoot {
            config.noise_floor_dbm - 4.0 + normal(rng, 0.0, 0.5)
        } else {
            config.noise_floor_dbm + normal(rng, 0.0, 1.2).abs()
        };
        samples.push(value);
    }
    RssiTrace {
        sample_period: TRACE_SAMPLE_PERIOD,
        samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bicord_sim::{stream_rng, SeedDomain};

    fn rng(i: u64) -> rand::rngs::StdRng {
        stream_rng(2025, SeedDomain::Interferers, i)
    }

    fn occupancy(trace: &RssiTrace, threshold_dbm: f64) -> f64 {
        let busy = trace.samples.iter().filter(|&&s| s > threshold_dbm).count();
        busy as f64 / trace.len() as f64
    }

    #[test]
    fn traces_have_requested_length() {
        let mut r = rng(0);
        let t = generate_trace(&mut r, &TraceConfig::wifi(-40.0), TRACE_DURATION);
        assert_eq!(t.len(), 200);
        assert_eq!(t.duration(), TRACE_DURATION);
        assert!(!t.is_empty());
    }

    #[test]
    fn wifi_trace_has_high_occupancy() {
        let mut r = rng(1);
        let mut total = 0.0;
        for _ in 0..50 {
            let t = generate_trace(&mut r, &TraceConfig::wifi(-40.0), TRACE_DURATION);
            total += occupancy(&t, -80.0);
        }
        let mean = total / 50.0;
        assert!(
            (0.55..0.95).contains(&mean),
            "wifi occupancy {mean} out of range"
        );
    }

    #[test]
    fn zigbee_trace_has_longer_on_air_time_than_wifi() {
        // Feature 1 of ZiSense: average on-air time separates 1.8 ms ZigBee
        // frames from ~1 ms Wi-Fi frames.
        let mut r = rng(2);
        let mean_on_run = |cfg: &TraceConfig, r: &mut rand::rngs::StdRng| {
            let mut runs = Vec::new();
            for _ in 0..50 {
                let t = generate_trace(r, cfg, TRACE_DURATION);
                let mut run = 0usize;
                for &s in &t.samples {
                    if s > -80.0 {
                        run += 1;
                    } else if run > 0 {
                        runs.push(run);
                        run = 0;
                    }
                }
            }
            runs.iter().sum::<usize>() as f64 / runs.len().max(1) as f64
        };
        let wifi = mean_on_run(&TraceConfig::wifi(-40.0), &mut r);
        let zigbee = mean_on_run(&TraceConfig::zigbee(-50.0), &mut r);
        assert!(
            zigbee > wifi * 1.3,
            "zigbee on-run {zigbee} not longer than wifi {wifi}"
        );
    }

    #[test]
    fn bluetooth_trace_is_sparse() {
        let mut r = rng(3);
        let mut total = 0.0;
        for _ in 0..50 {
            let t = generate_trace(&mut r, &TraceConfig::bluetooth(-45.0), TRACE_DURATION);
            total += occupancy(&t, -80.0);
        }
        let mean = total / 50.0;
        assert!(mean < 0.35, "bluetooth occupancy {mean} too high");
    }

    #[test]
    fn bluetooth_trace_dips_under_noise_floor() {
        let mut r = rng(4);
        let mut dips = 0;
        for _ in 0..50 {
            let t = generate_trace(&mut r, &TraceConfig::bluetooth(-45.0), TRACE_DURATION);
            if t.samples.iter().any(|&s| s < -97.0) {
                dips += 1;
            }
        }
        assert!(dips > 20, "only {dips}/50 bluetooth traces show undershoot");
    }

    #[test]
    fn microwave_has_large_amplitude_spread() {
        let mut r = rng(5);
        let mut spreads = Vec::new();
        for _ in 0..50 {
            let t = generate_trace(&mut r, &TraceConfig::microwave(-35.0), TRACE_DURATION);
            let on: Vec<f64> = t.samples.iter().copied().filter(|&s| s > -80.0).collect();
            if on.len() > 10 {
                let max = on.iter().cloned().fold(f64::MIN, f64::max);
                let min = on.iter().cloned().fold(f64::MAX, f64::min);
                spreads.push(max - min);
            }
        }
        let mean_spread = spreads.iter().sum::<f64>() / spreads.len().max(1) as f64;
        assert!(
            mean_spread > 8.0,
            "microwave spread {mean_spread} dB too small"
        );
    }

    #[test]
    fn stronger_devices_produce_higher_levels() {
        // Fingerprinting relies on energy level separating devices at
        // 1 / 3 / 5 m.
        let mut r = rng(6);
        let level = |power, r: &mut rand::rngs::StdRng| {
            let t = generate_trace(&mut r.clone(), &TraceConfig::wifi(power), TRACE_DURATION);
            let on: Vec<f64> = t.samples.iter().copied().filter(|&s| s > -80.0).collect();
            on.iter().sum::<f64>() / on.len() as f64
        };
        let near = level(-40.0, &mut r);
        let far = level(-60.0, &mut r);
        assert!(near > far + 10.0);
    }

    #[test]
    fn traces_are_deterministic_per_seed() {
        let gen = |seed| {
            let mut r = stream_rng(seed, SeedDomain::Interferers, 42);
            generate_trace(&mut r, &TraceConfig::wifi(-45.0), TRACE_DURATION)
        };
        assert_eq!(gen(5), gen(5));
        assert_ne!(gen(5), gen(6));
    }
}
