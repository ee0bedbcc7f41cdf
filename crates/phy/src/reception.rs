//! SINR-based packet-reception model.
//!
//! Whether a frame survives is decided by its signal-to-interference-plus-
//! noise ratio and its length: the per-reference-length success probability
//! follows a logistic curve in SINR, and longer frames expose more bits to
//! corruption. The curves are calibrated against the paper's anchor points:
//! a ZigBee frame under co-channel Wi-Fi interference (SINR ≪ 0 dB) is
//! lost over 95 % of the time, while a Wi-Fi frame disturbed by a ZigBee
//! overlap
//! (whose power couples through only 1/10 of the Wi-Fi band) loses only
//! 1–6 % packet-reception rate.

use rand::Rng;

use bicord_sim::dist::bernoulli;

/// A logistic packet-reception-rate model.
///
/// `PRR(sinr, len) = σ((sinr − midpoint)/width) ^ (len/ref_len)` — the
/// logistic factor is the success probability of a reference-length frame
/// and the exponent accounts for frame length.
///
/// # Example
///
/// ```
/// use bicord_phy::reception::PrrModel;
///
/// let zigbee = PrrModel::zigbee();
/// assert!(zigbee.prr(20.0, 50) > 0.99);   // clean channel
/// assert!(zigbee.prr(-10.0, 50) < 0.05);  // buried under Wi-Fi
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrrModel {
    midpoint_db: f64,
    width_db: f64,
    ref_len_bytes: f64,
}

impl PrrModel {
    /// Builds a model from explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `width_db` or `ref_len_bytes` are not positive.
    pub fn new(midpoint_db: f64, width_db: f64, ref_len_bytes: f64) -> Self {
        assert!(width_db > 0.0, "logistic width must be positive");
        assert!(ref_len_bytes > 0.0, "reference length must be positive");
        PrrModel {
            midpoint_db,
            width_db,
            ref_len_bytes,
        }
    }

    /// O-QPSK DSSS 802.15.4 receiver: 50 % PRR at ≈ 1 dB SINR for a 50 B
    /// frame, with a sharp waterfall (DSSS coding gain).
    pub fn zigbee() -> Self {
        PrrModel::new(1.0, 1.2, 50.0)
    }

    /// 802.11b DSSS receiver at 1–2 Mb/s: 50 % PRR at ≈ 4 dB SINR for a
    /// 100 B frame.
    pub fn wifi() -> Self {
        PrrModel::new(4.0, 1.5, 100.0)
    }

    /// Packet reception probability for a frame of `len_bytes` at
    /// `sinr_db`.
    ///
    /// The returned value is clamped to `[0, 1]`.
    pub fn prr(&self, sinr_db: f64, len_bytes: usize) -> f64 {
        let x = (sinr_db - self.midpoint_db) / self.width_db;
        let p_ref = 1.0 / (1.0 + (-x).exp());
        let exponent = len_bytes as f64 / self.ref_len_bytes;
        // Nearly every frame is reference length, and `pow(p, 1)` is `p`
        // exactly (the true result is representable), so skip the call.
        // A NaN still goes through `powf`, which may change its sign bit.
        let p = if exponent == 1.0 && !p_ref.is_nan() {
            p_ref
        } else {
            p_ref.powf(exponent)
        };
        p.clamp(0.0, 1.0)
    }

    /// Draws a reception outcome for one frame.
    pub fn receive<R: Rng + ?Sized>(&self, rng: &mut R, sinr_db: f64, len_bytes: usize) -> bool {
        bernoulli(rng, self.prr(sinr_db, len_bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bicord_sim::{stream_rng, SeedDomain};
    use proptest::prelude::*;

    #[test]
    fn zigbee_under_wifi_interference_loses_over_95_percent() {
        // Paper Sec. VIII-A: the ZigBee sender "suffers a packet loss of
        // over 95 % when the nearby Wi-Fi sender is transmitting data".
        // Co-channel Wi-Fi is tens of dB stronger, so SINR is deeply
        // negative.
        let m = PrrModel::zigbee();
        assert!(m.prr(-5.0, 50) < 0.05);
        assert!(m.prr(-20.0, 50) < 0.001);
    }

    #[test]
    fn zigbee_clean_channel_is_reliable() {
        let m = PrrModel::zigbee();
        assert!(m.prr(15.0, 50) > 0.999);
        assert!(m.prr(15.0, 120) > 0.99);
    }

    #[test]
    fn wifi_tolerates_zigbee_coupling() {
        // ZigBee couples through 1/10 of the Wi-Fi band; with typical link
        // budgets the Wi-Fi SINR stays >= ~15 dB and PRR stays >= 94 %
        // (paper: 1-6 % PRR decrease).
        let m = PrrModel::wifi();
        assert!(m.prr(15.0, 100) > 0.94);
        assert!(m.prr(25.0, 100) > 0.999);
    }

    #[test]
    fn longer_frames_are_more_fragile() {
        let m = PrrModel::zigbee();
        let at = |len| m.prr(3.0, len);
        assert!(at(25) > at(50));
        assert!(at(50) > at(100));
        assert!(at(100) > at(120));
    }

    #[test]
    fn midpoint_gives_half_for_reference_length() {
        let m = PrrModel::new(5.0, 2.0, 80.0);
        assert!((m.prr(5.0, 80) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn receive_rate_matches_prr() {
        let m = PrrModel::zigbee();
        let mut rng = stream_rng(5, SeedDomain::Reception, 0);
        let p = m.prr(2.0, 50);
        let n = 40_000;
        let hits = (0..n).filter(|_| m.receive(&mut rng, 2.0, 50)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - p).abs() < 0.01, "rate {rate} vs prr {p}");
    }

    #[test]
    #[should_panic(expected = "width")]
    fn zero_width_rejected() {
        let _ = PrrModel::new(0.0, 0.0, 50.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 4096, ..ProptestConfig::default() })]

        /// `prr` equals the unshortened formula bit for bit, on the
        /// reference-length fast path and off it.
        #[test]
        fn prr_is_the_formula_bit_for_bit(
            pick in 0u8..8,
            finite in -200.0f64..200.0,
            bits in any::<u64>(),
            len in 1usize..300,
            wifi in any::<bool>(),
        ) {
            // Mostly the SINRs a run meets; also the infinities, NaN and
            // any bit pattern at all.
            let sinr = match pick {
                0 => f64::INFINITY,
                1 => f64::NEG_INFINITY,
                2 => f64::NAN,
                3 => f64::from_bits(bits),
                _ => finite,
            };
            let m = if wifi { PrrModel::wifi() } else { PrrModel::zigbee() };
            let formula = |len_bytes: usize| {
                let x = (sinr - m.midpoint_db) / m.width_db;
                let p_ref = 1.0 / (1.0 + (-x).exp());
                // Opaque to the optimizer, so `powf` really runs.
                let exponent = std::hint::black_box(len_bytes as f64 / m.ref_len_bytes);
                p_ref.powf(exponent).clamp(0.0, 1.0)
            };
            let ref_len = m.ref_len_bytes as usize;
            prop_assert_eq!(m.prr(sinr, ref_len).to_bits(), formula(ref_len).to_bits());
            prop_assert_eq!(m.prr(sinr, len).to_bits(), formula(len).to_bits());
        }
    }

    proptest! {
        #[test]
        fn prr_is_probability(sinr in -60.0f64..60.0, len in 1usize..2000) {
            let m = PrrModel::zigbee();
            let p = m.prr(sinr, len);
            prop_assert!((0.0..=1.0).contains(&p));
        }

        #[test]
        fn prr_monotone_in_sinr(s1 in -40.0f64..40.0, delta in 0.0f64..20.0, len in 1usize..500) {
            let m = PrrModel::wifi();
            prop_assert!(m.prr(s1 + delta, len) >= m.prr(s1, len) - 1e-12);
        }

        #[test]
        fn prr_monotone_in_length(sinr in -10.0f64..20.0, l1 in 1usize..500, l2 in 1usize..500) {
            let m = PrrModel::zigbee();
            if l1 < l2 {
                prop_assert!(m.prr(sinr, l1) >= m.prr(sinr, l2) - 1e-12);
            }
        }
    }
}
