//! Equivalence of the cached [`Medium`] query layer against an uncached
//! reference implementation.
//!
//! The medium memoizes link budgets and band-overlap fractions purely as
//! an optimisation: every observable value — received powers, sensed
//! energy, interference sums, overlap listings, and the *order* the lazy
//! shadowing/fading realisations are drawn in — must be bit-identical to
//! a medium that recomputes everything on every query. `ReferenceMedium`
//! below is that uncached implementation; proptest drives both through
//! random operation sequences and compares every result by exact bit
//! pattern.

use std::collections::HashMap;

use proptest::prelude::*;
use rand::rngs::StdRng;

use bicord_mac::frames::{DeviceId, Payload};
use bicord_mac::medium::{ChannelConfig, CullingConfig, Medium, Transmission, TxId};
use bicord_phy::geometry::Point;
use bicord_phy::spectrum::Band;
use bicord_phy::units::{Dbm, MilliWatt};
use bicord_sim::dist::normal;
use bicord_sim::{stream_rng, SeedDomain, SimTime};

/// Number of device slots exercised by the op sequences.
const SLOTS: u32 = 5;

fn device(slot: usize) -> DeviceId {
    DeviceId::new(slot as u32 % SLOTS)
}

/// A small palette of bands: Wi-Fi-wide, two ZigBee-narrow (one inside
/// the Wi-Fi band, one outside), and a Bluetooth-style sliver. Repeats
/// within a sequence exercise the overlap memo; the disjoint pair
/// exercises the zero-overlap early return (which must not consume RNG).
fn band(choice: usize) -> Band {
    match choice % 4 {
        0 => Band::centered(2462.0, 20.0),
        1 => Band::centered(2455.0, 2.0),
        2 => Band::centered(2405.0, 2.0),
        _ => Band::centered(2461.0, 1.0),
    }
}

/// An uncached mirror of [`Medium`]: identical channel semantics
/// (lazy shadowing/fading realisations, same arithmetic association),
/// but path loss and band overlap are recomputed from scratch on every
/// query. Transmissions are kept in begin order, which equals ascending
/// id order — the order the real medium evaluates in.
struct ReferenceMedium {
    config: ChannelConfig,
    devices: HashMap<DeviceId, Point>,
    active: Vec<RefTx>,
    next_tx: u64,
    shadowing: HashMap<(DeviceId, DeviceId), f64>,
    fading: HashMap<(u64, DeviceId), f64>,
    shadowing_rng: StdRng,
    fading_rng: StdRng,
}

#[derive(Debug, Clone, Copy)]
struct RefTx {
    id: u64,
    source: DeviceId,
    power: Dbm,
    band: Band,
    start: SimTime,
    end: SimTime,
}

impl ReferenceMedium {
    fn new(config: ChannelConfig, master_seed: u64) -> Self {
        ReferenceMedium {
            config,
            devices: HashMap::new(),
            active: Vec::new(),
            next_tx: 0,
            shadowing: HashMap::new(),
            fading: HashMap::new(),
            shadowing_rng: stream_rng(master_seed, SeedDomain::Shadowing, 0),
            fading_rng: stream_rng(master_seed, SeedDomain::Shadowing, 1),
        }
    }

    fn add_device(&mut self, id: DeviceId, position: Point) {
        self.devices.insert(id, position);
    }

    fn begin_transmission(
        &mut self,
        source: DeviceId,
        power: Dbm,
        band: Band,
        start: SimTime,
        end: SimTime,
    ) -> u64 {
        let id = self.next_tx;
        self.next_tx += 1;
        self.active.push(RefTx {
            id,
            source,
            power,
            band,
            start,
            end,
        });
        id
    }

    fn end_transmission(&mut self, id: u64) -> RefTx {
        let idx = self
            .active
            .iter()
            .position(|t| t.id == id)
            .expect("reference transmission not active");
        let tx = self.active.remove(idx);
        self.fading.retain(|(t, _), _| *t != id);
        tx
    }

    fn link_shadowing(&mut self, a: DeviceId, b: DeviceId) -> f64 {
        let key = if a <= b { (a, b) } else { (b, a) };
        let sigma = self.config.path_loss.shadowing_sigma_db();
        let rng = &mut self.shadowing_rng;
        *self
            .shadowing
            .entry(key)
            .or_insert_with(|| normal(rng, 0.0, sigma))
    }

    fn tx_fading(&mut self, tx: u64, observer: DeviceId) -> f64 {
        let sigma = self.config.fading_sigma_db;
        let rng = &mut self.fading_rng;
        *self
            .fading
            .entry((tx, observer))
            .or_insert_with(|| normal(rng, 0.0, sigma))
    }

    /// The cull cutoff, recomputed from scratch on every query (the real
    /// medium precomputes it at begin time; both must agree bit-for-bit
    /// because the radius is a pure function of power and config).
    fn hearing_radius_sq(&self, power: Dbm) -> f64 {
        let r = self
            .config
            .culling
            .hearing_radius_m(&self.config.path_loss, power);
        r * r
    }

    /// Same audibility expression as the real medium's grid layer.
    fn within_hearing(&self, a: DeviceId, b: DeviceId, radius_sq: f64) -> bool {
        let pa = self.devices[&a];
        let pb = self.devices[&b];
        let dx = pa.x - pb.x;
        let dy = pa.y - pb.y;
        dx * dx + dy * dy <= radius_sq
    }

    fn received_power_of(&mut self, t: RefTx, observer: DeviceId) -> Dbm {
        if t.source == observer {
            return Dbm::FLOOR;
        }
        if !self.within_hearing(t.source, observer, self.hearing_radius_sq(t.power)) {
            return Dbm::FLOOR;
        }
        let src = self.devices[&t.source];
        let obs = self.devices[&observer];
        let pl_db = self.config.path_loss.path_loss_db(src.distance_to(obs));
        let shadow = self.link_shadowing(t.source, observer);
        let fading = self.tx_fading(t.id, observer);
        (t.power - pl_db) + shadow + fading
    }

    fn in_band_power(&mut self, t: RefTx, observer: DeviceId, listening: &Band) -> MilliWatt {
        let overlap = t.band.overlap_fraction(listening);
        if overlap <= 0.0 {
            return MilliWatt::ZERO;
        }
        if t.source == observer {
            return Dbm::FLOOR.to_milliwatt().scale(overlap);
        }
        if !self.within_hearing(t.source, observer, self.hearing_radius_sq(t.power)) {
            // Out-of-range links couple exactly zero (and draw nothing):
            // this is the term the grid path drops from the sum.
            return MilliWatt::ZERO;
        }
        let src = self.devices[&t.source];
        let obs = self.devices[&observer];
        let pl_db = self.config.path_loss.path_loss_db(src.distance_to(obs));
        let shadow = self.link_shadowing(t.source, observer);
        let fading = self.tx_fading(t.id, observer);
        ((t.power - pl_db) + shadow + fading)
            .to_milliwatt()
            .scale(overlap)
    }

    fn received_power(&mut self, id: u64, observer: DeviceId) -> Dbm {
        let t = *self
            .active
            .iter()
            .find(|t| t.id == id)
            .expect("reference transmission not active");
        self.received_power_of(t, observer)
    }

    fn sensed_power(
        &mut self,
        observer: DeviceId,
        listening: &Band,
        now: SimTime,
        exclude_source: Option<DeviceId>,
    ) -> MilliWatt {
        let mut total = MilliWatt::ZERO;
        for i in 0..self.active.len() {
            let t = self.active[i];
            if t.start > now
                || t.end <= now
                || t.source == observer
                || Some(t.source) == exclude_source
            {
                continue;
            }
            total += self.in_band_power(t, observer, listening);
        }
        total
    }

    fn interference_against(
        &mut self,
        signal: u64,
        observer: DeviceId,
        listening: &Band,
    ) -> MilliWatt {
        let s = *self
            .active
            .iter()
            .find(|t| t.id == signal)
            .expect("reference transmission not active");
        let mut total = MilliWatt::ZERO;
        for i in 0..self.active.len() {
            let t = self.active[i];
            if t.id == signal || t.source == observer || !(t.start < s.end && t.end > s.start) {
                continue;
            }
            total += self.in_band_power(t, observer, listening);
        }
        total
    }

    fn overlapping(
        &self,
        observer: DeviceId,
        listening: &Band,
        from: SimTime,
        to: SimTime,
    ) -> Vec<RefTx> {
        let mut txs: Vec<RefTx> = self
            .active
            .iter()
            .filter(|t| t.source != observer)
            .filter(|t| t.start < to && t.end > from)
            .filter(|t| listening.overlap_fraction(&t.band) > 0.0)
            .filter(|t| self.within_hearing(t.source, observer, self.hearing_radius_sq(t.power)))
            .copied()
            .collect();
        txs.sort_by_key(|t| (t.start, t.id));
        txs
    }

    fn invalidate_shadowing(&mut self, dev: DeviceId) -> usize {
        let before = self.shadowing.len();
        self.shadowing.retain(|(a, b), _| *a != dev && *b != dev);
        before - self.shadowing.len()
    }

    fn fading_draw(&mut self, sigma_db: f64) -> f64 {
        normal(&mut self.fading_rng, 0.0, sigma_db)
    }
}

/// One step of the randomized op sequence.
#[derive(Debug, Clone)]
enum Op {
    MoveDevice {
        slot: usize,
        x: f64,
        y: f64,
    },
    ReRegister {
        slot: usize,
        x: f64,
        y: f64,
    },
    BeginTx {
        slot: usize,
        power: f64,
        band: usize,
        start: u64,
        dur: u64,
    },
    EndTx {
        pick: usize,
    },
    SensedPower {
        slot: usize,
        band: usize,
        now: u64,
        exclude: Option<usize>,
    },
    Interference {
        pick: usize,
        slot: usize,
        band: usize,
    },
    ReceivedPower {
        pick: usize,
        slot: usize,
    },
    Overlapping {
        slot: usize,
        band: usize,
        from: u64,
        dur: u64,
    },
    InvalidateShadowing {
        slot: usize,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    op_strategy_with(-20.0f64..20.0)
}

/// The aggressive culling configuration the grid proptest runs under:
/// ~17 m hearing radius at 0 dBm and a ~25 m grid cell under the office
/// model, so ±60 m topologies genuinely cull — while powers above the
/// configured 5 dBm maximum exercise the loud overflow list.
fn aggressive_config() -> ChannelConfig {
    ChannelConfig {
        culling: CullingConfig {
            max_tx_power: Dbm::new(5.0),
            floor: Dbm::new(-75.0),
            margin_db: 8.0,
        },
        ..ChannelConfig::default()
    }
}

/// Grid cell size under [`aggressive_config`]: the hearing radius at the
/// 5 dBm maximum, `10^((5 + 8 + 75 − 46) / 30)` ≈ 25.1 m.
fn aggressive_cell_m() -> f64 {
    aggressive_config()
        .culling
        .hearing_radius_m(&aggressive_config().path_loss, Dbm::new(5.0))
}

/// Coordinates for the grid proptest: wide uniform draws mixed with
/// exact cell-boundary multiples (devices precisely on a grid line are
/// the classic off-by-one bucket bug).
fn grid_coord() -> impl Strategy<Value = f64> + Clone {
    (0u8..5, -2i32..=2, -60.0f64..60.0).prop_map(|(pick, k, v)| {
        if pick == 0 {
            f64::from(k) * aggressive_cell_m()
        } else {
            v
        }
    })
}

/// Coordinates for the wrap proptest: near ones, near ones shifted by
/// whole multiples of four cells (which land on the same bucket of the
/// five devices' 4×4 cell table), and far ones out to ±10⁸ m, millions
/// of cells away.
fn wrapping_coord() -> impl Strategy<Value = f64> + Clone {
    (0u8..3, -3i32..=3, -60.0f64..60.0, -1e8f64..1e8).prop_map(|(pick, k, v, far)| match pick {
        0 => v + f64::from(k) * 4.0 * aggressive_cell_m(),
        1 => far,
        _ => v,
    })
}

fn op_strategy_with(
    coord: impl Strategy<Value = f64> + Clone + 'static,
) -> impl Strategy<Value = Op> {
    let slot = 0usize..SLOTS as usize;
    prop_oneof![
        (slot.clone(), coord.clone(), coord.clone()).prop_map(|(slot, x, y)| Op::MoveDevice {
            slot,
            x,
            y
        }),
        (slot.clone(), coord.clone(), coord.clone()).prop_map(|(slot, x, y)| Op::ReRegister {
            slot,
            x,
            y
        }),
        (
            slot.clone(),
            -10.0f64..25.0,
            0usize..4,
            0u64..2_000,
            1u64..1_500
        )
            .prop_map(|(slot, power, band, start, dur)| Op::BeginTx {
                slot,
                power,
                band,
                start,
                dur,
            }),
        any::<usize>().prop_map(|pick| Op::EndTx { pick }),
        (
            slot.clone(),
            0usize..4,
            0u64..3_000,
            proptest::option::of(0usize..SLOTS as usize)
        )
            .prop_map(|(slot, band, now, exclude)| Op::SensedPower {
                slot,
                band,
                now,
                exclude,
            }),
        (any::<usize>(), slot.clone(), 0usize..4)
            .prop_map(|(pick, slot, band)| { Op::Interference { pick, slot, band } }),
        (any::<usize>(), slot.clone()).prop_map(|(pick, slot)| Op::ReceivedPower { pick, slot }),
        (slot.clone(), 0usize..4, 0u64..3_000, 1u64..1_500).prop_map(|(slot, band, from, dur)| {
            Op::Overlapping {
                slot,
                band,
                from,
                dur,
            }
        }),
        slot.prop_map(|slot| Op::InvalidateShadowing { slot }),
    ]
}

fn assert_mw_eq(real: MilliWatt, reference: MilliWatt, context: &str) {
    assert_eq!(
        real.value().to_bits(),
        reference.value().to_bits(),
        "{context}: cached {} vs reference {}",
        real.value(),
        reference.value(),
    );
}

/// [`run_sequence_with`] under the default (conservative-culling)
/// channel configuration.
fn run_sequence(seed: u64, ops: &[Op]) -> (Medium, ReferenceMedium) {
    run_sequence_with(ChannelConfig::default(), seed, ops)
}

/// Runs one op sequence through both mediums, comparing every
/// observable bit-for-bit. Returns the pair for post-run probes.
fn run_sequence_with(config: ChannelConfig, seed: u64, ops: &[Op]) -> (Medium, ReferenceMedium) {
    let mut real = Medium::new(config, seed);
    let mut reference = ReferenceMedium::new(config, seed);
    for slot in 0..SLOTS {
        let pos = Point::new(f64::from(slot) * 3.0, f64::from(slot) * -2.0);
        real.add_device(DeviceId::new(slot), pos);
        reference.add_device(DeviceId::new(slot), pos);
    }

    // The k-th begun transmission holds slot k in both live lists.
    let mut live_real: Vec<TxId> = Vec::new();
    let mut live_ref: Vec<u64> = Vec::new();

    for op in ops {
        match *op {
            Op::MoveDevice { slot, x, y } => {
                real.set_position(device(slot), Point::new(x, y));
                reference.add_device(device(slot), Point::new(x, y));
            }
            Op::ReRegister { slot, x, y } => {
                real.add_device(device(slot), Point::new(x, y));
                reference.add_device(device(slot), Point::new(x, y));
            }
            Op::BeginTx {
                slot,
                power,
                band: b,
                start,
                dur,
            } => {
                let (s, e) = (
                    SimTime::from_micros(start),
                    SimTime::from_micros(start + dur),
                );
                let id = real.begin_transmission(
                    device(slot),
                    Dbm::new(power),
                    band(b),
                    s,
                    e,
                    Payload::Noise,
                );
                let rid =
                    reference.begin_transmission(device(slot), Dbm::new(power), band(b), s, e);
                live_real.push(id);
                live_ref.push(rid);
            }
            Op::EndTx { pick } => {
                if live_real.is_empty() {
                    continue;
                }
                let i = pick % live_real.len();
                let ended = real.end_transmission(live_real.remove(i));
                let ref_ended = reference.end_transmission(live_ref.remove(i));
                assert_eq!(ended.source, ref_ended.source);
                assert_eq!(ended.start, ref_ended.start);
                assert_eq!(ended.end, ref_ended.end);
            }
            Op::SensedPower {
                slot,
                band: b,
                now,
                exclude,
            } => {
                let t = SimTime::from_micros(now);
                let ex = exclude.map(device);
                let got = real.sensed_power(device(slot), &band(b), t, ex);
                let want = reference.sensed_power(device(slot), &band(b), t, ex);
                assert_mw_eq(got, want, "sensed_power");
            }
            Op::Interference {
                pick,
                slot,
                band: b,
            } => {
                if live_real.is_empty() {
                    continue;
                }
                let i = pick % live_real.len();
                let got = real.interference_against(live_real[i], device(slot), &band(b));
                let want = reference.interference_against(live_ref[i], device(slot), &band(b));
                assert_mw_eq(got, want, "interference_against");
            }
            Op::ReceivedPower { pick, slot } => {
                if live_real.is_empty() {
                    continue;
                }
                let i = pick % live_real.len();
                let got = real.received_power(live_real[i], device(slot));
                let want = reference.received_power(live_ref[i], device(slot));
                assert_eq!(
                    got.value().to_bits(),
                    want.value().to_bits(),
                    "received_power: cached {got} vs reference {want}",
                );
            }
            Op::Overlapping {
                slot,
                band: b,
                from,
                dur,
            } => {
                let (f, t) = (SimTime::from_micros(from), SimTime::from_micros(from + dur));
                let got: Vec<Transmission> = real.overlapping(device(slot), &band(b), f, t);
                let want = reference.overlapping(device(slot), &band(b), f, t);
                assert_eq!(got.len(), want.len(), "overlapping length");
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.source, w.source);
                    assert_eq!(g.power.value().to_bits(), w.power.value().to_bits());
                    assert_eq!(g.start, w.start);
                    assert_eq!(g.end, w.end);
                }
            }
            Op::InvalidateShadowing { slot } => {
                let got = real.invalidate_shadowing(device(slot));
                let want = reference.invalidate_shadowing(device(slot));
                assert_eq!(got, want, "invalidate_shadowing dropped count");
            }
        }
        assert_eq!(real.active_count(), live_real.len());
    }
    (real, reference)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Random op sequences: every query bit-identical, and the fading
    /// RNG stream position identical afterwards (a divergence in lazy
    /// draw order would desynchronize the probe draw).
    #[test]
    fn cached_medium_is_bit_identical_to_uncached_reference(
        seed in 0u64..1_000,
        ops in proptest::collection::vec(op_strategy(), 1..80),
    ) {
        let (mut real, mut reference) = run_sequence(seed, &ops);
        let probe = real.fading_draw(3.0);
        let ref_probe = reference.fading_draw(3.0);
        prop_assert_eq!(
            probe.to_bits(),
            ref_probe.to_bits(),
            "fading RNG streams diverged: {} vs {}",
            probe,
            ref_probe
        );
    }

    /// The same harness under aggressive culling radii and a wider
    /// topology (including devices exactly on grid-cell boundaries):
    /// the grid-accelerated queries must match the linear-scan
    /// reference bit-for-bit — results and RNG stream — even when real
    /// culling, the loud overflow list, and cross-cell moves are all in
    /// play.
    #[test]
    fn grid_equivalence(
        seed in 0u64..1_000,
        ops in proptest::collection::vec(op_strategy_with(grid_coord()), 1..80),
    ) {
        let (mut real, mut reference) = run_sequence_with(aggressive_config(), seed, &ops);
        let probe = real.fading_draw(3.0);
        let ref_probe = reference.fading_draw(3.0);
        prop_assert_eq!(
            probe.to_bits(),
            ref_probe.to_bits(),
            "fading RNG streams diverged under culling: {} vs {}",
            probe,
            ref_probe
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The grid harness with devices moved out to ±10⁸ m and onto cells
    /// that wrap onto one bucket of the cell table: entries of other
    /// cells sharing a bucket must be skipped, never heard or counted,
    /// so results and the RNG stream stay bit-identical to the
    /// reference.
    #[test]
    fn wrapped_grid_equivalence(
        seed in 0u64..1_000,
        ops in proptest::collection::vec(op_strategy_with(wrapping_coord()), 1..80),
    ) {
        let (mut real, mut reference) = run_sequence_with(aggressive_config(), seed, &ops);
        let probe = real.fading_draw(3.0);
        let ref_probe = reference.fading_draw(3.0);
        prop_assert_eq!(
            probe.to_bits(),
            ref_probe.to_bits(),
            "fading RNG streams diverged with wrapped cells: {} vs {}",
            probe,
            ref_probe
        );
    }
}

/// Deterministic smoke case touching every op kind, so a cache regression
/// fails here with a readable sequence even before proptest shrinks one.
#[test]
fn deterministic_mixed_sequence_matches_reference() {
    let ops = vec![
        Op::BeginTx {
            slot: 1,
            power: 15.0,
            band: 0,
            start: 0,
            dur: 900,
        },
        Op::BeginTx {
            slot: 2,
            power: 0.0,
            band: 1,
            start: 100,
            dur: 500,
        },
        Op::SensedPower {
            slot: 0,
            band: 0,
            now: 200,
            exclude: None,
        },
        Op::SensedPower {
            slot: 0,
            band: 0,
            now: 250,
            exclude: Some(2),
        },
        Op::Interference {
            pick: 0,
            slot: 3,
            band: 1,
        },
        Op::MoveDevice {
            slot: 1,
            x: 4.0,
            y: 4.0,
        },
        Op::SensedPower {
            slot: 0,
            band: 0,
            now: 300,
            exclude: None,
        },
        Op::InvalidateShadowing { slot: 1 },
        Op::SensedPower {
            slot: 0,
            band: 0,
            now: 400,
            exclude: None,
        },
        Op::ReceivedPower { pick: 1, slot: 4 },
        Op::Overlapping {
            slot: 0,
            band: 2,
            from: 0,
            dur: 1_000,
        },
        Op::EndTx { pick: 0 },
        Op::SensedPower {
            slot: 3,
            band: 3,
            now: 450,
            exclude: None,
        },
    ];
    let (mut real, mut reference) = run_sequence(7, &ops);
    assert_eq!(
        real.fading_draw(2.0).to_bits(),
        reference.fading_draw(2.0).to_bits()
    );
}

/// Churn regression for the grid layer: the fault-churn path
/// (re-register/move + `invalidate_shadowing`) must rebucket a source's
/// *live* transmissions atomically with the budget-cache drop. A stale
/// bucket would silently cull the moved transmitter out of (or into)
/// range; the reference has no grid, so any desync fails the
/// bit-compare or the RNG probe.
#[test]
fn churn_rebucket_composes_with_grid_culling() {
    let cell = aggressive_cell_m();
    let ops = vec![
        Op::BeginTx {
            slot: 1,
            power: 0.0,
            band: 0,
            start: 0,
            dur: 2_000,
        },
        Op::SensedPower {
            slot: 0,
            band: 0,
            now: 100,
            exclude: None,
        },
        // Churn step: jump the live transmitter several cells away
        // (exactly onto a cell boundary) and drop its realisations.
        Op::ReRegister {
            slot: 1,
            x: 3.0 * cell,
            y: 3.0 * cell,
        },
        Op::InvalidateShadowing { slot: 1 },
        Op::SensedPower {
            slot: 0,
            band: 0,
            now: 200,
            exclude: None,
        },
        // Move the *observer* next to the new location: audible again
        // only if the transmission really rebucketed.
        Op::MoveDevice {
            slot: 0,
            x: 3.0 * cell + 4.0,
            y: 3.0 * cell,
        },
        Op::SensedPower {
            slot: 0,
            band: 0,
            now: 300,
            exclude: None,
        },
        Op::Interference {
            pick: 0,
            slot: 0,
            band: 0,
        },
        Op::Overlapping {
            slot: 0,
            band: 0,
            from: 0,
            dur: 1_000,
        },
        // And churn back home.
        Op::ReRegister {
            slot: 1,
            x: 3.0,
            y: -2.0,
        },
        Op::InvalidateShadowing { slot: 1 },
        Op::SensedPower {
            slot: 0,
            band: 0,
            now: 400,
            exclude: None,
        },
        Op::EndTx { pick: 0 },
    ];
    let (mut real, mut reference) = run_sequence_with(aggressive_config(), 11, &ops);
    assert_eq!(
        real.fading_draw(2.0).to_bits(),
        reference.fading_draw(2.0).to_bits()
    );
}

/// Fading draws are stored per slab slot. Ending a transmission clears
/// its slot's draws and a later transmission reuses the slot: the
/// survivors keep their cached draws, and the newcomer draws afresh. A
/// draw left behind (or re-drawn) shows up as a changed received power
/// and a desynchronized fading stream.
#[test]
fn cached_fading_stays_with_its_transmission_across_slot_reuse() {
    let config = ChannelConfig::default();
    let mut real = Medium::new(config, 23);
    let mut reference = ReferenceMedium::new(config, 23);
    for slot in 0..SLOTS {
        let pos = Point::new(f64::from(slot) * 3.0, f64::from(slot) * -2.0);
        real.add_device(DeviceId::new(slot), pos);
        reference.add_device(DeviceId::new(slot), pos);
    }
    let observer = device(0);
    let (s, e) = (SimTime::ZERO, SimTime::from_millis(1));
    let mut live_real = Vec::new();
    let mut live_ref = Vec::new();
    for slot in 1..=3 {
        live_real.push(real.begin_transmission(
            device(slot),
            Dbm::new(10.0),
            band(0),
            s,
            e,
            Payload::Noise,
        ));
        live_ref.push(reference.begin_transmission(device(slot), Dbm::new(10.0), band(0), s, e));
    }
    let first: Vec<u64> = live_real
        .iter()
        .zip(&live_ref)
        .map(|(&id, &rid)| {
            let got = real.received_power(id, observer);
            let want = reference.received_power(rid, observer);
            assert_eq!(got.value().to_bits(), want.value().to_bits());
            got.value().to_bits()
        })
        .collect();

    // Ending A frees its slot; D takes it.
    real.end_transmission(live_real[0]);
    reference.end_transmission(live_ref[0]);
    let d = real.begin_transmission(device(4), Dbm::new(10.0), band(0), s, e, Payload::Noise);
    let d_ref = reference.begin_transmission(device(4), Dbm::new(10.0), band(0), s, e);

    let again = real.received_power(live_real[2], observer);
    assert_eq!(
        again.value().to_bits(),
        first[2],
        "C's cached fading must survive A's end"
    );
    assert_eq!(
        real.received_power(d, observer).value().to_bits(),
        reference.received_power(d_ref, observer).value().to_bits(),
        "D must draw afresh, not inherit A's draw"
    );
    assert_eq!(
        real.fading_draw(3.0).to_bits(),
        reference.fading_draw(3.0).to_bits(),
        "re-querying C must not draw a fresh fading realisation"
    );
}

/// Queries filter their candidates in grid-gather order and evaluate
/// only the audible ones, sorted by id. Here gather order disagrees with
/// id order: tx1 sits in the cell above the observers (visited last),
/// tx4 in the cell below (visited first), and ending tx0 has freed
/// slot 0. The candidates mix audible,
/// zero-overlap (tx3) and out-of-range (tx2) transmissions. Both queries
/// draw fresh fading realisations for two audible transmissions, so
/// evaluating in gather order would swap the draws.
#[test]
fn filtered_candidates_evaluate_in_id_order() {
    let config = aggressive_config();
    let mut real = Medium::new(config, 31);
    let mut reference = ReferenceMedium::new(config, 31);
    // Cells are ~25.1 m: devices 0, 4 and 5 share cell (0, 0).
    let positions = [
        (12.0, 12.0),  // 0: observer
        (12.0, 30.0),  // 1: cell (0, 1), 18 m away: audible at 5 dBm
        (12.0, -3.0),  // 2: cell (0, -1), 15 m away: audible at 5 dBm
        (-10.0, 12.0), // 3: cell (-1, 0), 22+ m away: past the ~17 m radius at 0 dBm
        (20.0, 12.0),  // 4: cell (0, 0), transmits on a disjoint band
        (13.0, 12.0),  // 5: second observer
    ];
    for (i, &(x, y)) in positions.iter().enumerate() {
        real.add_device(DeviceId::new(i as u32), Point::new(x, y));
        reference.add_device(DeviceId::new(i as u32), Point::new(x, y));
    }
    let (s, e) = (SimTime::ZERO, SimTime::from_millis(1));
    // (device, power dBm, band): tx0 ..= tx4.
    let plan = [
        (4, 0.0, 2),
        (1, 5.0, 0),
        (3, 0.0, 0),
        (4, 0.0, 2),
        (2, 5.0, 1),
    ];
    let mut live_real = Vec::new();
    let mut live_ref = Vec::new();
    for &(dev, power, b) in &plan {
        let source = DeviceId::new(dev);
        live_real.push(real.begin_transmission(
            source,
            Dbm::new(power),
            band(b),
            s,
            e,
            Payload::Noise,
        ));
        live_ref.push(reference.begin_transmission(source, Dbm::new(power), band(b), s, e));
    }
    // Ending tx0 frees slot 0.
    real.end_transmission(live_real[0]);
    reference.end_transmission(live_ref[0]);

    let now = SimTime::from_micros(500);
    let listening = band(0);
    let observer = DeviceId::new(0);
    // Gather order tx4, tx2, tx3, tx1; audible tx1 and tx4.
    assert_mw_eq(
        real.sensed_power(observer, &listening, now, None),
        reference.sensed_power(observer, &listening, now, None),
        "sensed_power",
    );
    // Against tx3: same gather order, tx3 itself excluded as the signal.
    let observer = DeviceId::new(5);
    assert_mw_eq(
        real.interference_against(live_real[3], observer, &listening),
        reference.interference_against(live_ref[3], observer, &listening),
        "interference_against",
    );
    assert_eq!(
        real.fading_draw(3.0).to_bits(),
        reference.fading_draw(3.0).to_bits(),
        "fading draws happened out of id order"
    );

    // The sensed query checks four bands (three new pairs, then tx1's
    // repeat) and rejects tx2 by radius; the interference query hits
    // the memo three times and rejects tx2 again. Both gathered all four.
    let cache = real.cache_stats();
    assert_eq!((cache.band_hits, cache.band_misses), (4, 3), "{cache:?}");
    let grid = real.grid_stats();
    assert_eq!(grid.tx_out_of_range, 2, "{grid:?}");
    assert_eq!(grid.tx_visited, 8, "{grid:?}");
}
