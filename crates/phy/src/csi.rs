//! The channel-state-information (CSI) stream observed by a Wi-Fi receiver.
//!
//! The Intel 5300 CSI extractor reports one CSI reading per received Wi-Fi
//! frame (configured at 2 kHz in the paper). BiCord's signaling channel is
//! the *amplitude deviation* of consecutive readings: a ZigBee frame that
//! overlaps a Wi-Fi frame in time and frequency super-imposes energy on a
//! slice of subcarriers and shows up as a large deviation; ambient noise
//! bursts occasionally do the same; otherwise the deviation is small jitter.
//! This module reproduces that phenomenology (Fig. 3 of the paper) as a
//! calibrated stochastic model.

use rand::Rng;

use bicord_sim::dist::{bernoulli, normal};
use bicord_sim::{SimDuration, SimTime};

/// What, if anything, disturbs one CSI reading.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Disturbance {
    /// No co-channel activity overlaps the frame.
    None,
    /// A ZigBee transmission overlaps the frame; `sir_db` is the ZigBee
    /// power received at the Wi-Fi receiver relative to the Wi-Fi signal
    /// itself (typically −25…−5 dB).
    Zigbee {
        /// ZigBee-to-Wi-Fi received-power ratio at the Wi-Fi receiver, dB.
        sir_db: f64,
    },
    /// A wideband noise burst overlaps the frame, at `sir_db` relative to
    /// the Wi-Fi signal.
    NoiseBurst {
        /// Noise-to-signal ratio at the Wi-Fi receiver, dB.
        sir_db: f64,
    },
    /// A person moving through the environment perturbs the multipath
    /// profile; `severity` in `[0, 1]` scales the effect.
    Human {
        /// Normalised disturbance severity.
        severity: f64,
    },
}

/// One CSI reading, reduced to the detector's sufficient statistic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CsiSample {
    /// When the underlying Wi-Fi frame was received.
    pub time: SimTime,
    /// Normalised amplitude deviation from the sliding baseline.
    pub deviation: f64,
}

/// Classification of one CSI sample, per the paper's threshold rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CsiClass {
    /// Small jitter: baseline channel.
    SlightJitter,
    /// Large deviation: candidate ZigBee/noise disturbance.
    HighFluctuation,
}

/// The calibrated CSI observation model.
///
/// # Example
///
/// ```
/// use bicord_phy::csi::{CsiModel, Disturbance};
/// use bicord_sim::{stream_rng, SeedDomain};
///
/// let model = CsiModel::intel5300();
/// let mut rng = stream_rng(3, SeedDomain::Csi, 0);
/// // A strong ZigBee overlap produces high fluctuations far more often
/// // than the quiescent channel does:
/// let p_zigbee = model.high_fluctuation_prob(Disturbance::Zigbee { sir_db: -10.0 });
/// let p_idle = model.high_fluctuation_prob(Disturbance::None);
/// assert!(p_zigbee > 0.5 && p_idle < 0.01);
/// let s = model.deviation(&mut rng, Disturbance::None);
/// assert!(s.abs() < 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CsiModel {
    /// Std-dev of the quiescent amplitude jitter.
    baseline_sigma: f64,
    /// Mean of the deviation when a disturbance registers.
    high_mean: f64,
    /// Std-dev of the deviation when a disturbance registers.
    high_sigma: f64,
    /// SIR (dB) at which a ZigBee overlap registers 50 % of the time.
    zigbee_mid_sir_db: f64,
    /// Logistic width of the ZigBee registration curve, dB.
    zigbee_width_db: f64,
    /// SIR (dB) at which a noise burst registers 50 % of the time.
    noise_mid_sir_db: f64,
    /// Logistic width of the noise registration curve, dB.
    noise_width_db: f64,
    /// Per-sample registration probability of a walking person at
    /// severity 1.
    human_peak_prob: f64,
    /// Deviation threshold separating slight jitter from high fluctuation.
    classify_threshold: f64,
    /// Nominal sampling period (2 kHz in the paper).
    sample_period: SimDuration,
}

impl CsiModel {
    /// The model calibrated to the paper's Intel 5300 setup at 2 kHz.
    pub fn intel5300() -> Self {
        CsiModel {
            baseline_sigma: 0.055,
            high_mean: 0.6,
            high_sigma: 0.15,
            zigbee_mid_sir_db: -19.0,
            zigbee_width_db: 3.0,
            noise_mid_sir_db: -16.0,
            noise_width_db: 4.0,
            human_peak_prob: 0.035,
            classify_threshold: 0.25,
            sample_period: SimDuration::from_micros(500),
        }
    }

    /// The classification threshold between slight jitter and high
    /// fluctuation.
    pub fn classify_threshold(&self) -> f64 {
        self.classify_threshold
    }

    /// The nominal CSI sampling period (500 µs at 2 kHz).
    pub fn sample_period(&self) -> SimDuration {
        self.sample_period
    }

    /// Probability that one sample under `disturbance` registers as a high
    /// fluctuation.
    pub fn high_fluctuation_prob(&self, disturbance: Disturbance) -> f64 {
        let logistic = |x: f64| 1.0 / (1.0 + (-x).exp());
        match disturbance {
            Disturbance::None => {
                // Baseline jitter exceeding the threshold: ~4.5 sigma event.
                let z = self.classify_threshold / self.baseline_sigma;
                2.0 * (1.0 - standard_normal_cdf(z))
            }
            Disturbance::Zigbee { sir_db } => {
                logistic((sir_db - self.zigbee_mid_sir_db) / self.zigbee_width_db)
            }
            Disturbance::NoiseBurst { sir_db } => {
                logistic((sir_db - self.noise_mid_sir_db) / self.noise_width_db)
            }
            Disturbance::Human { severity } => self.human_peak_prob * severity.clamp(0.0, 1.0),
        }
    }

    /// Draws the amplitude deviation of one sample under `disturbance`.
    pub fn deviation<R: Rng + ?Sized>(&self, rng: &mut R, disturbance: Disturbance) -> f64 {
        let registered = match disturbance {
            Disturbance::None => false,
            d => bernoulli(rng, self.high_fluctuation_prob(d)),
        };
        if registered {
            normal(rng, self.high_mean, self.high_sigma).abs()
        } else {
            normal(rng, 0.0, self.baseline_sigma).abs()
        }
    }

    /// Draws a full sample (timestamp + deviation).
    pub fn sample<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        time: SimTime,
        disturbance: Disturbance,
    ) -> CsiSample {
        CsiSample {
            time,
            deviation: self.deviation(rng, disturbance),
        }
    }

    /// Classifies a sample against the amplitude threshold.
    pub fn classify(&self, sample: &CsiSample) -> CsiClass {
        if sample.deviation >= self.classify_threshold {
            CsiClass::HighFluctuation
        } else {
            CsiClass::SlightJitter
        }
    }

    /// Precomputes a sampler for `disturbance`.
    ///
    /// [`CsiModel::deviation`] re-evaluates the registration probability
    /// (a logistic or an erf) on every call; when thousands of samples
    /// share one disturbance, the sampler hoists that out of the loop.
    /// Draws are bit-identical to the per-call API.
    pub fn sampler(&self, disturbance: Disturbance) -> DeviationSampler {
        DeviationSampler {
            baseline_sigma: self.baseline_sigma,
            high_mean: self.high_mean,
            high_sigma: self.high_sigma,
            // None never registers and, matching `deviation`, must not
            // consume a Bernoulli draw.
            registration_prob: match disturbance {
                Disturbance::None => None,
                d => Some(self.high_fluctuation_prob(d)),
            },
        }
    }
}

/// A [`CsiModel`] specialised to one disturbance (see [`CsiModel::sampler`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviationSampler {
    baseline_sigma: f64,
    high_mean: f64,
    high_sigma: f64,
    /// `None` for [`Disturbance::None`] (no Bernoulli draw at all).
    registration_prob: Option<f64>,
}

impl DeviationSampler {
    /// Draws one amplitude deviation; identical to [`CsiModel::deviation`]
    /// with the sampler's disturbance.
    pub fn deviation<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let registered = match self.registration_prob {
            None => false,
            Some(p) => bernoulli(rng, p),
        };
        if registered {
            normal(rng, self.high_mean, self.high_sigma).abs()
        } else {
            normal(rng, 0.0, self.baseline_sigma).abs()
        }
    }

    /// Draws a full sample (timestamp + deviation).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, time: SimTime) -> CsiSample {
        CsiSample {
            time,
            deviation: self.deviation(rng),
        }
    }
}

impl Default for CsiModel {
    fn default() -> Self {
        CsiModel::intel5300()
    }
}

/// Φ(z): standard normal CDF via the complementary error function
/// (Abramowitz–Stegun 7.1.26 rational approximation, |ε| < 1.5e-7).
fn standard_normal_cdf(z: f64) -> f64 {
    let x = z / std::f64::consts::SQRT_2;
    0.5 * (1.0 + erf(x))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    sign * (1.0 - poly * (-x * x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bicord_sim::{stream_rng, SeedDomain};
    use proptest::prelude::*;

    fn rng(instance: u64) -> rand::rngs::StdRng {
        stream_rng(99, SeedDomain::Csi, instance)
    }

    #[test]
    fn baseline_rarely_exceeds_threshold() {
        let m = CsiModel::intel5300();
        let p = m.high_fluctuation_prob(Disturbance::None);
        assert!(p < 1e-4, "baseline false-fluctuation prob {p} too high");
    }

    #[test]
    fn zigbee_registration_increases_with_sir() {
        let m = CsiModel::intel5300();
        let p = |sir| m.high_fluctuation_prob(Disturbance::Zigbee { sir_db: sir });
        assert!(p(-25.0) < p(-19.0));
        assert!(p(-19.0) < p(-12.0));
        assert!((p(-19.0) - 0.5).abs() < 1e-9, "midpoint should be 50 %");
        assert!(p(-8.0) > 0.95);
    }

    #[test]
    fn strong_noise_burst_registers_like_zigbee() {
        // Fig. 3(a) vs (b): a strong burst is indistinguishable from a
        // single ZigBee packet at sample level.
        let m = CsiModel::intel5300();
        let p = m.high_fluctuation_prob(Disturbance::NoiseBurst { sir_db: -5.0 });
        assert!(p > 0.9);
    }

    #[test]
    fn human_severity_scales_probability() {
        let m = CsiModel::intel5300();
        let p0 = m.high_fluctuation_prob(Disturbance::Human { severity: 0.0 });
        let p1 = m.high_fluctuation_prob(Disturbance::Human { severity: 1.0 });
        let p_clamped = m.high_fluctuation_prob(Disturbance::Human { severity: 7.0 });
        assert_eq!(p0, 0.0);
        assert!(p1 > 0.0 && p1 < 0.2);
        assert_eq!(p1, p_clamped);
    }

    #[test]
    fn classify_threshold_splits_samples() {
        let m = CsiModel::intel5300();
        let low = CsiSample {
            time: SimTime::ZERO,
            deviation: 0.1,
        };
        let high = CsiSample {
            time: SimTime::ZERO,
            deviation: 0.5,
        };
        assert_eq!(m.classify(&low), CsiClass::SlightJitter);
        assert_eq!(m.classify(&high), CsiClass::HighFluctuation);
    }

    #[test]
    fn empirical_rates_match_probabilities() {
        let m = CsiModel::intel5300();
        let mut r = rng(0);
        let n = 30_000;
        let d = Disturbance::Zigbee { sir_db: -15.0 };
        let expected = m.high_fluctuation_prob(d);
        let hits = (0..n)
            .filter(|_| {
                let s = m.sample(&mut r, SimTime::ZERO, d);
                m.classify(&s) == CsiClass::HighFluctuation
            })
            .count();
        let rate = hits as f64 / n as f64;
        // A registered disturbance may still fall below the threshold
        // (low tail of the high distribution), so allow a small deficit.
        assert!(
            (rate - expected).abs() < 0.03,
            "rate {rate} vs expected {expected}"
        );
    }

    #[test]
    fn quiescent_deviations_are_small() {
        let m = CsiModel::intel5300();
        let mut r = rng(1);
        for _ in 0..5_000 {
            let s = m.sample(&mut r, SimTime::ZERO, Disturbance::None);
            assert!(s.deviation >= 0.0);
            assert!(s.deviation < 0.4, "outlier baseline deviation");
        }
    }

    #[test]
    fn sample_period_is_2khz() {
        assert_eq!(
            CsiModel::intel5300().sample_period(),
            SimDuration::from_micros(500)
        );
    }

    #[test]
    fn sampler_matches_per_call_api() {
        let m = CsiModel::intel5300();
        for d in [
            Disturbance::None,
            Disturbance::Zigbee { sir_db: -15.0 },
            Disturbance::NoiseBurst { sir_db: -10.0 },
            Disturbance::Human { severity: 0.6 },
        ] {
            let sampler = m.sampler(d);
            let mut r1 = rng(3);
            let mut r2 = rng(3);
            for i in 0..2_000u64 {
                let t = SimTime::from_micros(i * 500);
                assert_eq!(m.sample(&mut r1, t, d), sampler.sample(&mut r2, t));
            }
        }
    }

    #[test]
    fn normal_cdf_sanity() {
        assert!((standard_normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((standard_normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((standard_normal_cdf(-1.96) - 0.025).abs() < 1e-3);
    }

    proptest! {
        #[test]
        fn probabilities_are_probabilities(sir in -60.0f64..20.0, sev in -2.0f64..3.0) {
            let m = CsiModel::intel5300();
            for d in [
                Disturbance::None,
                Disturbance::Zigbee { sir_db: sir },
                Disturbance::NoiseBurst { sir_db: sir },
                Disturbance::Human { severity: sev },
            ] {
                let p = m.high_fluctuation_prob(d);
                prop_assert!((0.0..=1.0).contains(&p), "p={p} for {d:?}");
            }
        }

        #[test]
        fn deviations_are_nonnegative(seed in any::<u64>(), sir in -40.0f64..0.0) {
            let mut r = stream_rng(seed, SeedDomain::Csi, 7);
            let m = CsiModel::intel5300();
            let d = m.deviation(&mut r, Disturbance::Zigbee { sir_db: sir });
            prop_assert!(d >= 0.0 && d.is_finite());
        }
    }
}
