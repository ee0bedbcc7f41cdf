//! Dense city-block scenario: a grid of apartments, each with one Wi-Fi
//! AP and a ZigBee cluster, sized from a declarative block × density
//! parameterization.
//!
//! The full [`CoexistenceSim`](crate::sim::CoexistenceSim) runtime
//! models one coordinator cell in protocol detail; this scenario trades
//! protocol fidelity for *scale*. Every device runs a minimal
//! CCA-then-transmit loop against the shared [`Medium`], which is
//! exactly the workload the medium's spatial culling grid exists for:
//! thousands of co-located BSS/PAN clusters where only a local
//! neighbourhood matters per observer. The run loop is a pure function
//! of `(config, seed)` — byte-identical across thread counts and
//! platforms (asserted by `tests/parallel_determinism.rs`) — so it
//! doubles as a determinism fixture at world sizes the protocol runtime
//! cannot reach.
//!
//! # Example
//!
//! ```
//! use bicord_scenario::dense_city::DenseCityConfig;
//!
//! let config = DenseCityConfig::with_device_count(100, 7);
//! assert!(config.device_count() >= 100);
//! let results = config.run();
//! assert!(results.transmissions > 0);
//! ```

use bicord_mac::frames::{DeviceId, Payload};
use bicord_mac::medium::{
    ChannelConfig, CullingConfig, Medium, MediumCacheStats, MediumGridStats, TxId,
};
use bicord_phy::geometry::Point;
use bicord_phy::pathloss::PathLossModel;
use bicord_phy::spectrum::{Band, WifiChannel, ZigbeeChannel};
use bicord_phy::units::Dbm;
use bicord_sim::dist::exponential_duration;
use bicord_sim::event::EventQueue;
use bicord_sim::{stream_rng, SeedDomain, SimDuration, SimTime};
use rand::rngs::StdRng;

/// Wi-Fi channels assigned round-robin per apartment (the classic
/// non-overlapping 1/6/11 plan).
const WIFI_CHANNELS: [u8; 3] = [1, 6, 11];

/// ZigBee channels alternated per apartment: 17 (2415 MHz) sits inside
/// the Wi-Fi ch 1 passband and 22 (2460 MHz) inside ch 11 — so every
/// ZigBee node suffers cross-technology interference from some
/// apartments' APs while staying clear of others. Together with
/// [`WIFI_CHANNELS`] the scenario uses 5 distinct bands — 25
/// `(tx, listening)` pairs, comfortably inside the medium's
/// band-overlap memo capacity.
const ZIGBEE_CHANNELS: [u8; 2] = [17, 22];

/// Declarative description of one city block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DenseCityConfig {
    /// Apartments per row.
    pub apartments_x: u32,
    /// Apartments per column.
    pub apartments_y: u32,
    /// Apartment edge length, metres.
    pub apartment_m: f64,
    /// ZigBee nodes per apartment (each apartment also has one Wi-Fi AP).
    pub zigbee_per_apartment: u32,
    /// Master seed; every device derives its own RNG stream from it.
    pub seed: u64,
    /// Simulated duration.
    pub duration: SimDuration,
    /// Propagation. The residential default is lossier than the office
    /// calibration (walls between apartments), which is what makes
    /// aggressive culling radii physically honest.
    pub path_loss: PathLossModel,
    /// Per-transmission fading std-dev, dB.
    pub fading_sigma_db: f64,
    /// Spatial culling parameters (see [`CullingConfig`]).
    pub culling: CullingConfig,
    /// Wi-Fi AP transmit power.
    pub wifi_power: Dbm,
    /// ZigBee node transmit power.
    pub zigbee_power: Dbm,
    /// Wi-Fi energy-detection busy threshold.
    pub wifi_busy: Dbm,
    /// ZigBee CCA busy threshold.
    pub zigbee_busy: Dbm,
    /// Mean Wi-Fi inter-arrival time.
    pub wifi_mean_interval: SimDuration,
    /// Mean ZigBee inter-arrival time.
    pub zigbee_mean_interval: SimDuration,
}

impl DenseCityConfig {
    /// A residential block of `apartments_x × apartments_y` apartments
    /// with `zigbee_per_apartment` ZigBee nodes each.
    ///
    /// 10 m apartments, exponent-4 walls-included propagation (50 dB at
    /// 1 m), 15 dBm APs, −3 dBm ZigBee, and a culling floor of −75 dBm
    /// with an 8 dB shadowing/fading margin — hearing radii of ~15.8 m
    /// (Wi-Fi) and ~5.6 m (ZigBee), so queries see a couple of
    /// apartment rings, not the whole city, and per-query cost stays
    /// flat as the block grows. Culled links have a mean budget below
    /// `floor − margin` = −83 dBm, 6 dB under the most sensitive CCA
    /// busy threshold: links CCA could act on are never culled.
    pub fn residential(
        apartments_x: u32,
        apartments_y: u32,
        zigbee_per_apartment: u32,
        seed: u64,
    ) -> Self {
        DenseCityConfig {
            apartments_x,
            apartments_y,
            apartment_m: 10.0,
            zigbee_per_apartment,
            seed,
            duration: SimDuration::from_millis(50),
            path_loss: PathLossModel::new(50.0, 4.0, 1.0, 4.0, 0.1),
            fading_sigma_db: 3.0,
            culling: CullingConfig {
                max_tx_power: Dbm::new(15.0),
                floor: Dbm::new(-75.0),
                margin_db: 8.0,
            },
            wifi_power: Dbm::new(15.0),
            zigbee_power: Dbm::new(-3.0),
            wifi_busy: Dbm::new(-62.0),
            zigbee_busy: Dbm::new(-77.0),
            wifi_mean_interval: SimDuration::from_millis(4),
            zigbee_mean_interval: SimDuration::from_millis(12),
        }
    }

    /// The smallest near-square residential block with at least
    /// `devices` devices (3 ZigBee nodes + 1 AP per apartment).
    pub fn with_device_count(devices: u32, seed: u64) -> Self {
        let per_apartment = 4; // 1 AP + 3 ZigBee
        let apartments = devices.div_ceil(per_apartment);
        let side = (f64::from(apartments)).sqrt().ceil() as u32;
        let rows = apartments.div_ceil(side.max(1));
        DenseCityConfig::residential(side.max(1), rows.max(1), 3, seed)
    }

    /// Total device count (one AP plus the ZigBee cluster per apartment).
    pub fn device_count(&self) -> u32 {
        self.apartments_x * self.apartments_y * (1 + self.zigbee_per_apartment)
    }

    /// The generated device roster, in device-id order.
    pub fn devices(&self) -> Vec<CityDevice> {
        let mut out = Vec::with_capacity(self.device_count() as usize);
        let mut id = 0u32;
        for ay in 0..self.apartments_y {
            for ax in 0..self.apartments_x {
                let apartment = ay * self.apartments_x + ax;
                let ox = f64::from(ax) * self.apartment_m;
                let oy = f64::from(ay) * self.apartment_m;
                let center = Point::new(ox + self.apartment_m / 2.0, oy + self.apartment_m / 2.0);
                let wifi_ch = WIFI_CHANNELS[(apartment % 3) as usize];
                let zigbee_ch = ZIGBEE_CHANNELS[(apartment % 2) as usize];
                out.push(CityDevice {
                    id: DeviceId::new(id),
                    position: center,
                    band: WifiChannel::new(wifi_ch)
                        .expect("static channel plan is valid")
                        .band(),
                    power: self.wifi_power,
                    busy: self.wifi_busy,
                    mean_interval: self.wifi_mean_interval,
                    airtime: SimDuration::from_millis(1),
                    wifi: true,
                });
                id += 1;
                for k in 0..self.zigbee_per_apartment {
                    // Fixed fractional offsets inside the apartment: no
                    // RNG in geometry, so the layout is a pure function
                    // of the config.
                    let frac = f64::from(k + 1) / f64::from(self.zigbee_per_apartment + 1);
                    let dx = (frac - 0.5) * self.apartment_m * 0.8;
                    let dy = if k % 2 == 0 { 1.0 } else { -1.0 } * self.apartment_m * 0.25;
                    out.push(CityDevice {
                        id: DeviceId::new(id),
                        position: center.offset(dx, dy),
                        band: ZigbeeChannel::new(zigbee_ch)
                            .expect("static channel plan is valid")
                            .band(),
                        power: self.zigbee_power,
                        busy: self.zigbee_busy,
                        mean_interval: self.zigbee_mean_interval,
                        airtime: SimDuration::from_millis(4),
                        wifi: false,
                    });
                    id += 1;
                }
            }
        }
        out
    }

    /// A medium populated with every device of the block (no traffic).
    pub fn build_medium(&self) -> (Medium, Vec<CityDevice>) {
        let devices = self.devices();
        let mut medium = Medium::new(
            ChannelConfig {
                path_loss: self.path_loss,
                fading_sigma_db: self.fading_sigma_db,
                culling: self.culling,
            },
            self.seed,
        );
        for d in &devices {
            medium.add_device(d.id, d.position);
        }
        (medium, devices)
    }

    /// Runs the CCA-then-transmit loop over the whole block and returns
    /// aggregate results.
    ///
    /// # Panics
    ///
    /// Panics if the block is empty (zero apartments) or the duration is
    /// zero.
    pub fn run(&self) -> DenseCityResults {
        assert!(self.device_count() > 0, "dense_city block has no devices");
        assert!(
            self.duration > SimDuration::ZERO,
            "dense_city duration must be positive"
        );
        let (mut medium, devices) = self.build_medium();
        let end_at = SimTime::ZERO + self.duration;

        // One RNG stream per device, derived from the master seed: the
        // arrival/backoff draw order per device is independent of global
        // event interleaving, which is what makes the run a pure
        // function of (config, seed).
        let mut rngs: Vec<StdRng> = (0..devices.len())
            .map(|i| stream_rng(self.seed, SeedDomain::Aux, i as u64))
            .collect();

        let mut queue: EventQueue<CityEvent> = EventQueue::with_capacity(devices.len() * 2);
        for (i, d) in devices.iter().enumerate() {
            let at = SimTime::ZERO + exponential_duration(&mut rngs[i], d.mean_interval);
            queue.push(at, CityEvent::Arrival(i as u32));
        }

        let mut results = DenseCityResults {
            devices: devices.len() as u32,
            attempts: 0,
            deferrals: 0,
            transmissions: 0,
            mean_sensed_dbm: 0.0,
            grid: MediumGridStats::default(),
            cache: MediumCacheStats::default(),
            simulated: self.duration,
        };
        let mut sensed_sum_dbm = 0.0f64;

        while let Some((now, event)) = queue.pop() {
            match event {
                CityEvent::Arrival(idx) => {
                    // Events pop in time order, so every later event is
                    // past the horizon too; the transmission ends still
                    // queued change no counter.
                    if now >= end_at {
                        break;
                    }
                    let d = &devices[idx as usize];
                    results.attempts += 1;
                    let sensed = medium.sensed_power(d.id, &d.band, now, None).to_dbm();
                    sensed_sum_dbm += sensed.value();
                    if sensed >= d.busy {
                        // Busy: defer and re-attempt after a short
                        // exponential backoff.
                        results.deferrals += 1;
                        let backoff = exponential_duration(&mut rngs[idx as usize], d.airtime / 2);
                        queue.push(now + backoff, CityEvent::Arrival(idx));
                    } else {
                        let tx = medium.begin_transmission(
                            d.id,
                            d.power,
                            d.band,
                            now,
                            now + d.airtime,
                            Payload::Noise,
                        );
                        results.transmissions += 1;
                        queue.push(now + d.airtime, CityEvent::TxEnd(tx));
                        let next = exponential_duration(&mut rngs[idx as usize], d.mean_interval);
                        queue.push(now + d.airtime + next, CityEvent::Arrival(idx));
                    }
                }
                CityEvent::TxEnd(tx) => {
                    medium.end_transmission(tx);
                }
            }
        }

        results.mean_sensed_dbm = if results.attempts > 0 {
            sensed_sum_dbm / results.attempts as f64
        } else {
            0.0
        };
        results.grid = medium.grid_stats();
        results.cache = medium.cache_stats();
        results
    }
}

/// One generated device of the block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CityDevice {
    /// Medium identity.
    pub id: DeviceId,
    /// Static position.
    pub position: Point,
    /// Operating band.
    pub band: Band,
    /// Transmit power.
    pub power: Dbm,
    /// CCA busy threshold.
    pub busy: Dbm,
    /// Mean inter-arrival time of the device's traffic.
    pub mean_interval: SimDuration,
    /// Frame airtime.
    pub airtime: SimDuration,
    /// `true` for the Wi-Fi AP, `false` for ZigBee nodes.
    pub wifi: bool,
}

/// Discrete events of the run loop.
enum CityEvent {
    /// Device `i` wants to transmit (CCA first).
    Arrival(u32),
    /// A transmission ended.
    TxEnd(TxId),
}

/// Aggregate outcome of one dense-city run. `Debug`-format it for a
/// bitwise determinism fingerprint (every field is integer or exact
/// f64).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DenseCityResults {
    /// Devices simulated.
    pub devices: u32,
    /// CCA attempts (first tries plus post-backoff retries).
    pub attempts: u64,
    /// Attempts that found the channel busy.
    pub deferrals: u64,
    /// Transmissions placed on the medium.
    pub transmissions: u64,
    /// Mean sensed power across all CCA attempts, dBm.
    pub mean_sensed_dbm: f64,
    /// Spatial-culling effectiveness over the whole run.
    pub grid: MediumGridStats,
    /// Medium cache effectiveness over the whole run.
    pub cache: MediumCacheStats,
    /// Simulated duration.
    pub simulated: SimDuration,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_count_matches_roster() {
        let c = DenseCityConfig::residential(3, 2, 3, 1);
        assert_eq!(c.device_count(), 24);
        assert_eq!(c.devices().len(), 24);
    }

    #[test]
    fn with_device_count_reaches_the_target() {
        for n in [1, 4, 100, 1000, 10_000] {
            let c = DenseCityConfig::with_device_count(n, 9);
            assert!(c.device_count() >= n, "asked {n}, got {}", c.device_count());
        }
    }

    #[test]
    fn channel_plan_uses_five_bands() {
        let c = DenseCityConfig::residential(4, 4, 2, 1);
        let mut bands: Vec<Band> = c.devices().iter().map(|d| d.band).collect();
        bands.sort_by(|a, b| {
            (a.low_mhz, a.high_mhz)
                .partial_cmp(&(b.low_mhz, b.high_mhz))
                .unwrap()
        });
        bands.dedup();
        assert_eq!(bands.len(), 5);
    }

    #[test]
    fn run_is_deterministic_and_culls() {
        let c = DenseCityConfig::residential(5, 5, 3, 21);
        let a = c.run();
        let b = c.run();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert!(a.transmissions > 0);
        assert!(a.deferrals > 0, "a dense block must see busy channels");
        // A 50 m block spans four 15.8 m grid cells per axis, so corner
        // observers cull the far edge outright, and the ~5.6 m ZigBee
        // hearing radius rejects most gathered candidates by distance.
        assert!(a.grid.tx_culled > 0, "{:?}", a.grid);
        assert!(a.grid.tx_out_of_range > 0, "{:?}", a.grid);
    }

    /// The whole `Debug` fingerprint of a 100-device run, counters
    /// included, pinned exactly: a medium change that moves an RNG
    /// draw, reorders the f64 summation, or shifts a grid or cache
    /// counter fails here.
    #[test]
    fn residential_fingerprint_is_pinned() {
        let r = DenseCityConfig::residential(5, 5, 3, 21).run();
        assert_eq!(
            format!("{r:?}"),
            "DenseCityResults { devices: 100, attempts: 558, deferrals: 100, \
             transmissions: 458, mean_sensed_dbm: -134.111294589749, \
             grid: MediumGridStats { queries: 558, cells_visited: 2594, \
             tx_visited: 6132, tx_culled: 5375, tx_out_of_range: 2126 }, \
             cache: MediumCacheStats { link_hits: 255, link_misses: 185, \
             band_hits: 6106, band_misses: 25 }, simulated: SimDuration(50000) }"
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a = DenseCityConfig::residential(3, 3, 3, 1).run();
        let b = DenseCityConfig::residential(3, 3, 3, 2).run();
        assert_ne!(format!("{a:?}"), format!("{b:?}"));
    }
}
