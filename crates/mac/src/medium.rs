//! The shared RF medium.
//!
//! [`Medium`] is the single source of truth for "what is on the air":
//! device positions, active transmissions, and the propagation model. It
//! answers the questions every other layer asks:
//!
//! * *What power does device R receive from transmission T?* — path loss
//!   with a static per-link shadowing realisation plus a per-(transmission,
//!   observer) fading draw. The fading draw is cached, so repeated queries
//!   about the same pair are consistent (the CCA check and the CSI model
//!   see the same channel).
//! * *How much in-band energy does device R sense right now?* — the linear
//!   sum of all overlapping transmissions, weighted by spectral overlap
//!   with R's listening band.
//! * *What is the SINR of transmission T at device R?* — signal versus the
//!   sum of everything else plus the thermal floor.
//!
//! # Query-layer caching
//!
//! The three queries above are the innermost loop of the simulation
//! (every CCA poll goes through [`Medium::sensed_power`]), so the medium
//! memoizes the deterministic parts of the link budget — see
//! `DESIGN.md` §6 "Medium caching & invalidation" for the cache keys,
//! the invalidation rules, and the bit-for-bit determinism argument.
//! [`Medium::cache_stats`] exposes hit/miss counters for observability.
//!
//! # Spatial interference culling
//!
//! Path loss makes distant transmitters physically irrelevant, so the
//! medium additionally maintains a uniform grid over device positions
//! and gives every transmission a deterministic **hearing radius**: the
//! distance at which its TX power plus a worst-case shadowing/fading
//! margin falls below the configured floor (see [`CullingConfig`]).
//! Queries visit only the 3×3 cell neighbourhood of the observer (plus
//! an overflow list of transmissions louder than one cell), which keeps
//! per-query cost near-constant as the world grows. The cutoff is part
//! of the channel-model *semantics* — a link beyond the radius couples
//! [`Dbm::FLOOR`] / zero power and draws **no** shadowing or fading
//! realisation — so grid-accelerated and brute-force evaluation agree
//! bit-for-bit, RNG stream included. The default configuration is
//! conservative (kilometre-scale radii): room-scale scenarios are
//! byte-identical with culling on. See `DESIGN.md` §10 "Spatial culling
//! & hearing radius"; [`Medium::grid_stats`] exposes cull counters.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use rand::rngs::StdRng;

use bicord_phy::geometry::Point;
use bicord_phy::pathloss::PathLossModel;
use bicord_phy::spectrum::Band;
use bicord_phy::units::{Dbm, MilliWatt};
use bicord_sim::dist::normal;
use bicord_sim::event::SeqHasher;
use bicord_sim::{stream_rng, SeedDomain, SimTime};

use crate::frames::{DeviceId, Payload};

/// The link-budget and shadowing maps use the sim's SplitMix-style
/// [`SeqHasher`]: keys are small dense integers (ids), never adversarial.
type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<SeqHasher>>;

/// Distinct `(tx band, listening band)` pairs per scenario are a small
/// constant (Wi-Fi/ZigBee/Bluetooth cross products); cap the memo so a
/// pathological caller cannot grow it without bound.
const BAND_MEMO_CAP: usize = 32;

/// Distinct transmit powers per scenario are a small constant (every
/// shipped config uses at most three); powers past the cap get their
/// hearing radius computed on every transmission.
const RADIUS_MEMO_CAP: usize = 4;

/// Small dense id of an interned [`Band`] (see [`BandTable`]).
type BandId = u8;

/// Most bands one medium interns — every Wi-Fi and ZigBee channel fits
/// twice over. Bands past the cap get [`UNINTERNED`].
const BAND_ID_CAP: usize = 64;

/// Id of a band that arrived after [`BAND_ID_CAP`] others: its overlap
/// fractions are computed on every use and counted as memo misses.
const UNINTERNED: BandId = BandId::MAX;

/// `Medium::devices` entry of a raw id that names no registered device.
const NO_SLOT: u32 = u32::MAX;

/// Low bits of a [`TxId`] holding the transmission's slab slot.
const SLOT_BITS: u32 = 24;

/// Identifies one transmission placed on the medium.
///
/// The high 40 bits hold the begin sequence and the low 24 the slab
/// slot, so ids sort in begin order and a by-id lookup is one index plus
/// an id check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxId(u64);

impl TxId {
    /// Marks a vacant slab slot. Never handed out: the sequence stops short
    /// of the all-ones value.
    const VACANT: TxId = TxId(u64::MAX);

    /// The slab slot of the transmission.
    fn slot(self) -> usize {
        (self.0 & ((1 << SLOT_BITS) - 1)) as usize
    }
}

/// One transmission occupying the medium for `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transmission {
    /// The transmission's identifier.
    pub id: TxId,
    /// The emitting device.
    pub source: DeviceId,
    /// Transmit power.
    pub power: Dbm,
    /// Occupied frequency band.
    pub band: Band,
    /// Start instant.
    pub start: SimTime,
    /// End instant (start + airtime).
    pub end: SimTime,
    /// What the transmission carries.
    pub payload: Payload,
}

impl Transmission {
    /// `true` if the transmission is on air during `[from, to)`.
    pub fn overlaps(&self, from: SimTime, to: SimTime) -> bool {
        self.start < to && self.end > from
    }
}

/// Spatial-culling parameters: when is a transmitter too far to matter?
///
/// A transmission at `p` dBm is audible out to the distance where
/// `p + margin_db − PL(d)` reaches `floor`; beyond that the medium
/// couples zero power and skips the link's lazy shadowing/fading draws
/// entirely. The cutoff is deterministic (positions and powers only), so
/// it is part of the channel model's semantics, not a lossy
/// approximation layered on top — a brute-force evaluation with the
/// same config produces bit-identical results.
///
/// The default is deliberately conservative: a −120 dBm floor with a
/// 36 dB margin (6σ of the office 3 dB shadowing + 3 dB fading) puts
/// radii at tens of kilometres, so room-scale scenarios never cull.
/// Dense large-world scenarios override the floor/margin to get real
/// culling (see `bicord-scenario`'s `dense_city`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CullingConfig {
    /// Largest TX power the scenario will place on the medium; sizes the
    /// grid cells so any compliant transmission fits one 3×3 query
    /// window. Louder transmissions still work — they go on a small
    /// always-visited overflow list.
    pub max_tx_power: Dbm,
    /// In-band power below this level (after the margin) is defined as
    /// inaudible.
    pub floor: Dbm,
    /// Headroom added on top of the mean link budget before comparing
    /// against `floor`, covering worst-case positive shadowing + fading
    /// excursions, dB.
    pub margin_db: f64,
}

impl CullingConfig {
    /// The hearing radius (metres) of a transmission at `tx_power` under
    /// `model`: the distance at which `tx_power + margin − PL(d)` drops
    /// to `floor`. Zero when the power is below the floor outright;
    /// infinite when the budget never runs out (e.g. an infinite floor).
    pub fn hearing_radius_m(&self, model: &PathLossModel, tx_power: Dbm) -> f64 {
        let budget_db = (tx_power.value() + self.margin_db) - self.floor.value();
        if budget_db <= 0.0 {
            return 0.0;
        }
        model.distance_for_path_loss_db(budget_db)
    }
}

impl Default for CullingConfig {
    fn default() -> Self {
        CullingConfig {
            max_tx_power: Dbm::new(30.0),
            floor: Dbm::new(-120.0),
            margin_db: 36.0,
        }
    }
}

/// Configuration of the medium's stochastic channel components.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelConfig {
    /// Propagation model.
    pub path_loss: PathLossModel,
    /// Std-dev of the per-transmission fading draw, dB. This is the
    /// fast-fading component that makes individual packets more or less
    /// visible to a given observer.
    pub fading_sigma_db: f64,
    /// Spatial interference culling (on by default with conservative
    /// radii; see [`CullingConfig`]).
    pub culling: CullingConfig,
}

impl Default for ChannelConfig {
    fn default() -> Self {
        ChannelConfig {
            path_loss: PathLossModel::office(),
            fading_sigma_db: 3.0,
            culling: CullingConfig::default(),
        }
    }
}

/// The shared RF medium.
///
/// # Example
///
/// ```
/// use bicord_mac::frames::{DeviceId, Payload};
/// use bicord_mac::medium::{ChannelConfig, Medium};
/// use bicord_phy::geometry::Point;
/// use bicord_phy::spectrum::WifiChannel;
/// use bicord_phy::units::Dbm;
/// use bicord_sim::SimTime;
///
/// let mut medium = Medium::new(ChannelConfig::default(), 42);
/// let tx = DeviceId::new(0);
/// let rx = DeviceId::new(1);
/// medium.add_device(tx, Point::new(0.0, 0.0));
/// medium.add_device(rx, Point::new(3.0, 0.0));
///
/// let band = WifiChannel::new(11)?.band();
/// let id = medium.begin_transmission(
///     tx, Dbm::new(20.0), band, SimTime::ZERO, SimTime::from_millis(1), Payload::Noise,
/// );
/// let sensed = medium.sensed_power(rx, &band, SimTime::from_micros(500), None);
/// assert!(sensed.to_dbm().value() > -70.0);
/// medium.end_transmission(id);
/// # Ok::<(), bicord_phy::spectrum::ChannelError>(())
/// ```
pub struct Medium {
    config: ChannelConfig,
    /// Slot in the position SoA per raw device id ([`NO_SLOT`] for ids
    /// never registered). Its length follows the largest raw id seen.
    devices: Vec<u32>,
    /// Live position per device slot (struct-of-arrays: the only
    /// per-device field the query hot loop touches).
    positions: Vec<Point>,
    /// Transmission slab. A slot keeps its place for the transmission's
    /// whole life; an ended one is marked [`TxId::VACANT`] and goes on
    /// `free`. Queries never iterate this directly — they sort their
    /// audible candidates by id, so evaluation order stays deterministic
    /// regardless of slot assignment.
    active: Vec<Transmission>,
    /// Per-slot fields of the by-id paths, parallel to `active`.
    meta: Vec<TxMeta>,
    /// Vacant slots of `active`, reused last-freed first.
    free: Vec<u32>,
    /// Number of live (non-vacant) slots.
    live: usize,
    /// Per-slot fading draws, parallel to `active`: the `(observer, dB)`
    /// realisations drawn so far for the slot's transmission, in
    /// first-query order. Cleared when the transmission ends; the next
    /// transmission in the slot reuses the list, so the steady state
    /// never allocates.
    fading: Vec<Vec<(DeviceId, f64)>>,
    /// Uniform grid over device positions: the transmissions whose
    /// hearing radius fits one cell, bucketed by cell.
    cells: CellTable,
    /// Transmissions louder than one grid cell — always visited.
    loud: Vec<Entry>,
    /// Hearing radius per transmit power seen so far, as `(dBm bits,
    /// metres)`, in the first `radii_len` slots.
    radii: [(u64, f64); RADIUS_MEMO_CAP],
    radii_len: usize,
    /// Reusable query scratch: the audible candidates of the current
    /// query as `(id, band overlap fraction)`, in its first slots.
    audible: Vec<(TxId, f64)>,
    grid_stats: MediumGridStats,
    /// Begin sequence of the next transmission.
    next_seq: u64,
    /// Static shadowing per unordered device pair, dB. The source of
    /// truth for realisations; `link_cache` only mirrors it.
    shadowing: FastMap<(DeviceId, DeviceId), f64>,
    /// Memoized `(path-loss dB, shadowing dB)` per directed
    /// `(source, observer)` pair at the devices' *current* positions.
    /// Invalidated whenever either endpoint moves.
    link_cache: FastMap<(DeviceId, DeviceId), (f64, f64)>,
    /// Interned bands and their memoized overlap fractions.
    bands: BandTable,
    stats: MediumCacheStats,
    shadowing_rng: StdRng,
    fading_rng: StdRng,
}

/// Cumulative hit/miss counters of the medium's memoization layers —
/// surfaced as `medium_cache_stats` trace records and through
/// `MetricsRegistry` in instrumented runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MediumCacheStats {
    /// Link-budget queries answered from the `(source, observer)` cache.
    pub link_hits: u64,
    /// Link-budget queries that recomputed path loss (and possibly drew
    /// a shadowing realisation).
    pub link_misses: u64,
    /// Band-overlap queries answered from the memo.
    pub band_hits: u64,
    /// Band-overlap queries that computed the fraction.
    pub band_misses: u64,
}

/// Cumulative spatial-culling counters — surfaced as `medium_grid_stats`
/// trace records and `medium_culled_*` metrics in instrumented runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MediumGridStats {
    /// Grid-accelerated queries served (`sensed_power` +
    /// `interference_against`; `overlapping_into` takes `&self` and is
    /// not counted).
    pub queries: u64,
    /// Non-empty grid cells visited across those queries (≤ 9 each).
    pub cells_visited: u64,
    /// Candidate transmissions gathered from the visited cells and the
    /// loud list. Each is filtered (time window, source, band overlap,
    /// hearing radius) before any is evaluated; only the audible rest
    /// reach the link budget.
    pub tx_visited: u64,
    /// Active transmissions skipped without even a look because their
    /// cell was outside the observer's 3×3 window.
    pub tx_culled: u64,
    /// Gathered candidates rejected by the exact per-link hearing-radius
    /// check (cell-adjacent but still out of range).
    pub tx_out_of_range: u64,
}

/// Per-slot fields of the by-id paths (`received_power`,
/// `received_power_in_band`, `end_transmission`, moves), parallel to
/// `Medium::active`. Queries read bucket [`Entry`]s instead.
#[derive(Debug, Clone, Copy)]
struct TxMeta {
    /// Interned id of the transmission's band.
    band: BandId,
    /// Slot of the source in the position SoA.
    source_slot: u32,
    /// Squared hearing radius, m²; links farther than this couple zero.
    radius_sq_m2: f64,
    /// Cell key the transmission is registered under, or `None` on the
    /// loud list. Stored so moves and removal find the *registered*
    /// bucket even if the source has since crossed a boundary.
    cell: Option<u64>,
}

/// One transmission in a grid bucket or on the loud list, carrying every
/// field the candidate filter reads, so a query never leaves the bucket
/// before it knows a candidate is audible.
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// The transmission (its low bits are the slab slot).
    id: TxId,
    start: SimTime,
    end: SimTime,
    source: DeviceId,
    /// Interned id of the transmission's band.
    band: BandId,
    /// Squared hearing radius, m².
    radius_sq_m2: f64,
    /// The source's current position, kept equal to its
    /// `Medium::positions` entry by every move.
    pos: Point,
    /// Full key of the registered cell; buckets hold every cell that
    /// wraps onto them, and queries skip the other cells' entries.
    cell: u64,
}

/// Grid coordinate of `v` under `cell_size` (saturating one step inside
/// `i32` so the ±1 neighbour offsets in queries cannot overflow). An
/// infinite cell size maps everything to coordinate 0.
fn cell_coord(v: f64, cell_size: f64) -> i32 {
    let q = (v / cell_size).floor();
    q.clamp(f64::from(i32::MIN + 1), f64::from(i32::MAX - 1)) as i32
}

/// Packs two grid coordinates into one cell key.
fn cell_key(cx: i32, cy: i32) -> u64 {
    (u64::from(cx as u32) << 32) | u64::from(cy as u32)
}

/// Whether a transmitter at `source` is within `radius_sq` of an
/// observer at `observer` — the exact per-link audibility cutoff.
fn in_range(source: Point, observer: Point, radius_sq: f64) -> bool {
    let dx = source.x - observer.x;
    let dy = source.y - observer.y;
    dx * dx + dy * dy <= radius_sq
}

/// The grid's buckets: a power-of-two torus of cells, at least 4 × 4
/// (so a 3×3 query window never meets the same bucket twice) and sized
/// from the device count, not from the area the devices span. Cell
/// `(cx, cy)` lives in bucket `(cx mod side, cy mod side)`; its entries
/// carry the full cell key, so cells that wrap onto one bucket stay
/// apart.
struct CellTable {
    buckets: Vec<Vec<Entry>>,
    /// `log2` of the torus side.
    bits: u32,
    /// Cell edge length, metres (infinite when the configured radii are
    /// unbounded, which degenerates to a single cell = no culling).
    cell_size_m: f64,
}

impl CellTable {
    /// Smallest `log2` side the torus takes.
    const MIN_BITS: u32 = 2;

    /// Devices per bucket the torus is sized for. Wherever culling
    /// matters a cell (one worst-case hearing radius across) holds
    /// several devices — about ten in `dense_city` — so this keeps
    /// roughly one bucket per occupied cell, and the table small: at
    /// 10k devices one bucket per device measured 0.5 MiB more peak RSS.
    const DEVICES_PER_BUCKET: usize = 16;

    fn new(cell_size_m: f64) -> Self {
        CellTable {
            buckets: vec![Vec::new(); 1 << (2 * Self::MIN_BITS)],
            bits: Self::MIN_BITS,
            cell_size_m,
        }
    }

    /// The key of the cell holding `p`.
    fn key_of(&self, p: Point) -> u64 {
        cell_key(
            cell_coord(p.x, self.cell_size_m),
            cell_coord(p.y, self.cell_size_m),
        )
    }

    /// The 3×3 cells around `p` as `(bucket index, cell key)`, in
    /// visiting order: rows of ascending x, by ascending y.
    fn window(&self, p: Point) -> [(usize, u64); 9] {
        let cx = cell_coord(p.x, self.cell_size_m);
        let cy = cell_coord(p.y, self.cell_size_m);
        std::array::from_fn(|k| {
            let (x, y) = (cx + k as i32 % 3 - 1, cy + k as i32 / 3 - 1);
            (self.index(x, y), cell_key(x, y))
        })
    }

    /// The bucket index of the cell at `(cx, cy)`.
    fn index(&self, cx: i32, cy: i32) -> usize {
        let mask = (1u32 << self.bits) - 1;
        (((cy as u32 & mask) << self.bits) | (cx as u32 & mask)) as usize
    }

    /// The bucket holding cell `key`.
    fn bucket_mut(&mut self, key: u64) -> &mut Vec<Entry> {
        let i = self.index((key >> 32) as u32 as i32, key as u32 as i32);
        &mut self.buckets[i]
    }

    /// Grows the torus until it has at least one bucket per
    /// [`Self::DEVICES_PER_BUCKET`] devices, moving every entry to its
    /// bucket in the larger table.
    fn fit(&mut self, devices: usize) {
        let mut bits = self.bits;
        while (1usize << (2 * bits)) < devices.div_ceil(Self::DEVICES_PER_BUCKET) {
            bits += 1;
        }
        if bits == self.bits {
            return;
        }
        let old = std::mem::replace(&mut self.buckets, vec![Vec::new(); 1 << (2 * bits)]);
        self.bits = bits;
        for entry in old.into_iter().flatten() {
            self.bucket_mut(entry.cell).push(entry);
        }
    }
}

/// Interned bands and the memoized spectral overlap fraction of every
/// `(tx band, listening band)` id pair.
///
/// A band is interned once — at `begin_transmission` for a transmitted
/// band, once per query for a listening band — by the exact bit patterns
/// of its edges, so only bit-identical bands share memoized fractions.
/// A query then reads a fraction with one indexed load instead of
/// matching band edges per candidate.
#[derive(Default)]
struct BandTable {
    /// Interned bands; a band's id is its index.
    bands: Vec<Band>,
    /// `fractions[tx * BAND_ID_CAP + listening]`, `None` until memoized.
    /// Grows by one row per interned band.
    fractions: Vec<Option<f64>>,
    /// Pairs memoized so far; never more than [`BAND_MEMO_CAP`].
    memoized: usize,
}

impl BandTable {
    /// The id of `band`, interning it on first sight.
    fn intern(&mut self, band: &Band) -> BandId {
        let (low, high) = (band.low_mhz.to_bits(), band.high_mhz.to_bits());
        if let Some(id) = self
            .bands
            .iter()
            .position(|b| b.low_mhz.to_bits() == low && b.high_mhz.to_bits() == high)
        {
            return id as BandId;
        }
        if self.bands.len() == BAND_ID_CAP {
            return UNINTERNED;
        }
        self.bands.push(*band);
        self.fractions.resize(self.bands.len() * BAND_ID_CAP, None);
        (self.bands.len() - 1) as BandId
    }

    /// The share of band `tx` that falls inside band `listen`, counting
    /// one memo hit or miss. The first [`BAND_MEMO_CAP`] distinct pairs
    /// are memoized; later pairs are computed (and missed) on every use.
    /// Queries check bands in grid-gather order, so when one query meets
    /// more new pairs than the memo has room for, which of them get in
    /// follows that order (the values returned never depend on it).
    /// `tx_band` and `listening` are the raw bands, read only when an id
    /// is [`UNINTERNED`].
    fn fraction(
        &mut self,
        tx: BandId,
        tx_band: impl FnOnce() -> Band,
        listen: BandId,
        listening: &Band,
        stats: &mut MediumCacheStats,
    ) -> f64 {
        if tx == UNINTERNED || listen == UNINTERNED {
            stats.band_misses += 1;
            return tx_band().overlap_fraction(listening);
        }
        let (tx, listen) = (usize::from(tx), usize::from(listen));
        let slot = &mut self.fractions[tx * BAND_ID_CAP + listen];
        if let Some(fraction) = *slot {
            stats.band_hits += 1;
            return fraction;
        }
        stats.band_misses += 1;
        let fraction = self.bands[tx].overlap_fraction(&self.bands[listen]);
        if self.memoized < BAND_MEMO_CAP {
            *slot = Some(fraction);
            self.memoized += 1;
        }
        fraction
    }
}

impl Medium {
    /// Creates an empty medium with the given channel configuration and
    /// master seed.
    pub fn new(config: ChannelConfig, master_seed: u64) -> Self {
        // One cell = the worst-case hearing radius, so a compliant
        // transmission audible at the observer is always within the 3×3
        // neighbourhood. Clamped away from degenerate tiny cells; an
        // unbounded radius collapses the grid to a single cell.
        let cell_size_m = config
            .culling
            .hearing_radius_m(&config.path_loss, config.culling.max_tx_power)
            .max(1.0);
        Medium {
            config,
            devices: Vec::with_capacity(64),
            positions: Vec::with_capacity(64),
            active: Vec::with_capacity(16),
            meta: Vec::with_capacity(16),
            free: Vec::with_capacity(16),
            live: 0,
            fading: Vec::with_capacity(16),
            cells: CellTable::new(cell_size_m),
            loud: Vec::new(),
            radii: [(0, 0.0); RADIUS_MEMO_CAP],
            radii_len: 0,
            audible: Vec::with_capacity(16),
            grid_stats: MediumGridStats::default(),
            next_seq: 0,
            shadowing: FastMap::default(),
            link_cache: FastMap::with_capacity_and_hasher(64, BuildHasherDefault::default()),
            bands: BandTable::default(),
            stats: MediumCacheStats::default(),
            shadowing_rng: stream_rng(master_seed, SeedDomain::Shadowing, 0),
            fading_rng: stream_rng(master_seed, SeedDomain::Shadowing, 1),
        }
    }

    /// Slot of a registered device in the position SoA, if registered.
    fn try_slot(&self, id: DeviceId) -> Option<u32> {
        self.devices
            .get(id.raw() as usize)
            .copied()
            .filter(|&slot| slot != NO_SLOT)
    }

    /// Slot of a registered device in the position SoA.
    ///
    /// # Panics
    ///
    /// Panics if the device is unknown.
    fn slot_of(&self, id: DeviceId) -> u32 {
        self.try_slot(id)
            .unwrap_or_else(|| panic!("unknown device {id}"))
    }

    /// Registers a device at `position`.
    ///
    /// Re-registering an existing device moves it (used by mobility).
    pub fn add_device(&mut self, id: DeviceId, position: Point) {
        if let Some(slot) = self.try_slot(id) {
            // A re-registration is a move: cached path losses involving
            // this device are stale (shadowing realisations persist until
            // `invalidate_shadowing`, exactly as before the cache), and
            // the device's live transmissions follow in the same step.
            self.move_device(slot, position);
            self.drop_link_cache(id);
        } else {
            let slot = u32::try_from(self.positions.len())
                .ok()
                .filter(|&slot| slot != NO_SLOT)
                .expect("device slots exhausted");
            let raw = id.raw() as usize;
            if raw >= self.devices.len() {
                self.devices.resize(raw + 1, NO_SLOT);
            }
            self.devices[raw] = slot;
            self.positions.push(position);
            self.cells.fit(self.positions.len());
        }
    }

    /// Moves a device.
    ///
    /// Cached link budgets touching the device are dropped (path loss is
    /// position-dependent) and the device's live transmissions follow it
    /// (new source position, new grid cell) in the same atomic step; its
    /// shadowing realisations persist until [`Medium::invalidate_shadowing`].
    ///
    /// # Panics
    ///
    /// Panics if the device is unknown.
    pub fn set_position(&mut self, id: DeviceId, position: Point) {
        let slot = self.slot_of(id);
        self.move_device(slot, position);
        self.drop_link_cache(id);
    }

    /// Updates a device slot's position, and the source position of each
    /// of its live transmissions, rebucketing those whose registered
    /// grid cell no longer matches.
    fn move_device(&mut self, slot: u32, position: Point) {
        self.positions[slot as usize] = position;
        let new_cell = self.cells.key_of(position);
        for s in 0..self.meta.len() {
            let id = self.active[s].id;
            let meta = self.meta[s];
            if meta.source_slot != slot || id == TxId::VACANT {
                continue;
            }
            let bucket = match meta.cell {
                None => &mut self.loud,
                Some(cell) => self.cells.bucket_mut(cell),
            };
            let at = bucket
                .iter()
                .position(|e| e.id == id)
                .expect("grid member desync");
            bucket[at].pos = position;
            if meta.cell.is_some_and(|cell| cell != new_cell) {
                let mut entry = bucket.swap_remove(at);
                entry.cell = new_cell;
                self.cells.bucket_mut(new_cell).push(entry);
                self.meta[s].cell = Some(new_cell);
            }
        }
    }

    /// Drops memoized link budgets for every pair touching `device`.
    fn drop_link_cache(&mut self, device: DeviceId) {
        self.link_cache
            .retain(|(a, b), _| *a != device && *b != device);
    }

    /// The device's current position.
    ///
    /// # Panics
    ///
    /// Panics if the device is unknown.
    pub fn position(&self, id: DeviceId) -> Point {
        self.positions[self.slot_of(id) as usize]
    }

    /// Places a transmission on the medium and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `end <= start`, the source device is unknown, or the
    /// medium has handed out every transmission id it can.
    pub fn begin_transmission(
        &mut self,
        source: DeviceId,
        power: Dbm,
        band: Band,
        start: SimTime,
        end: SimTime,
        payload: Payload,
    ) -> TxId {
        assert!(end > start, "transmission must have positive duration");
        let source_slot = self
            .try_slot(source)
            .unwrap_or_else(|| panic!("unknown source device {source}"));
        assert!(
            self.next_seq < u64::MAX >> SLOT_BITS,
            "transmission id sequence exhausted"
        );
        let slot = self.free.pop().unwrap_or_else(|| {
            let slot = self.active.len() as u32;
            assert!(slot < 1 << SLOT_BITS, "transmission slots exhausted");
            slot
        });
        let id = TxId((self.next_seq << SLOT_BITS) | u64::from(slot));
        self.next_seq += 1;
        self.live += 1;
        let radius = self.hearing_radius_m(power);
        let pos = self.positions[source_slot as usize];
        let cell = self.cells.key_of(pos);
        let band_id = self.bands.intern(&band);
        let entry = Entry {
            id,
            start,
            end,
            source,
            band: band_id,
            radius_sq_m2: radius * radius,
            pos,
            cell,
        };
        // Radius ≤ one cell ⇒ the 3×3 window around any in-range observer
        // covers this cell; louder transmissions go on the overflow list.
        // (Neither side is ever NaN: radii and cell sizes are `max`-ed
        // non-negative, possibly infinite.)
        let loud = radius > self.cells.cell_size_m;
        if loud {
            self.loud.push(entry);
        } else {
            self.cells.bucket_mut(cell).push(entry);
        }
        let tx = Transmission {
            id,
            source,
            power,
            band,
            start,
            end,
            payload,
        };
        let meta = TxMeta {
            band: band_id,
            source_slot,
            radius_sq_m2: entry.radius_sq_m2,
            cell: (!loud).then_some(cell),
        };
        if slot as usize == self.active.len() {
            self.active.push(tx);
            self.meta.push(meta);
            self.fading.push(Vec::new());
        } else {
            self.active[slot as usize] = tx;
            self.meta[slot as usize] = meta;
        }
        id
    }

    /// The hearing radius of a transmission at `power`, memoized per
    /// power: it is a pure function of the power and the configuration.
    fn hearing_radius_m(&mut self, power: Dbm) -> f64 {
        let key = power.value().to_bits();
        let memo = &self.radii[..self.radii_len];
        if let Some(&(_, radius)) = memo.iter().find(|&&(k, _)| k == key) {
            return radius;
        }
        let radius = (self.config.culling).hearing_radius_m(&self.config.path_loss, power);
        if self.radii_len < RADIUS_MEMO_CAP {
            self.radii[self.radii_len] = (key, radius);
            self.radii_len += 1;
        }
        radius
    }

    /// Slab slot of `id`, if active.
    fn slab_index(&self, id: TxId) -> Option<usize> {
        let slot = id.slot();
        (self.active.get(slot)?.id == id).then_some(slot)
    }

    /// Removes a finished transmission and returns it.
    ///
    /// # Panics
    ///
    /// Panics if the transmission is not active (double removal is a
    /// scenario bookkeeping bug worth failing loudly on).
    pub fn end_transmission(&mut self, id: TxId) -> Transmission {
        let slot = self
            .slab_index(id)
            .unwrap_or_else(|| panic!("transmission {id:?} not active"));
        let tx = self.active[slot];
        self.active[slot].id = TxId::VACANT;
        self.fading[slot].clear();
        self.free.push(slot as u32);
        self.live -= 1;
        // Unbucket (order within a bucket is irrelevant — queries sort
        // their audible candidates by id).
        let bucket = match self.meta[slot].cell {
            None => &mut self.loud,
            Some(cell) => self.cells.bucket_mut(cell),
        };
        let at = bucket
            .iter()
            .position(|e| e.id == id)
            .expect("grid member desync");
        bucket.swap_remove(at);
        tx
    }

    /// A transmission by id, if still active.
    pub fn transmission(&self, id: TxId) -> Option<&Transmission> {
        self.slab_index(id).map(|i| &self.active[i])
    }

    /// Iterates over all active transmissions in **arbitrary** slab
    /// order. Callers whose downstream work is order-sensitive (lazy RNG
    /// draws, f64 summation) must sort the snapshot by [`Transmission::id`]
    /// themselves.
    pub fn active_transmissions(&self) -> impl Iterator<Item = &Transmission> {
        self.active.iter().filter(|t| t.id != TxId::VACANT)
    }

    /// Number of active transmissions.
    pub fn active_count(&self) -> usize {
        self.live
    }

    /// The static shadowing offset (dB) of the link between two devices.
    fn link_shadowing(&mut self, a: DeviceId, b: DeviceId) -> f64 {
        let key = if a <= b { (a, b) } else { (b, a) };
        let sigma = self.config.path_loss.shadowing_sigma_db();
        let rng = &mut self.shadowing_rng;
        *self
            .shadowing
            .entry(key)
            .or_insert_with(|| normal(rng, 0.0, sigma))
    }

    /// The fading offset (dB) `observer` experiences for the
    /// transmission in slab slot `slot`; drawn on the first query of the
    /// pair and cached. A transmission has few observers, so a linear
    /// scan of its list beats hashing.
    fn tx_fading(&mut self, slot: usize, observer: DeviceId) -> f64 {
        let draws = &mut self.fading[slot];
        if let Some(&(_, fading)) = draws.iter().find(|(o, _)| *o == observer) {
            return fading;
        }
        let fading = normal(&mut self.fading_rng, 0.0, self.config.fading_sigma_db);
        draws.push((observer, fading));
        fading
    }

    /// The memoized `(path-loss dB, shadowing dB)` budget of the directed
    /// link `source -> observer` (in position slots `src_slot` and
    /// `obs_slot`) at the devices' current positions.
    ///
    /// A miss recomputes path loss from the live positions and reads (or
    /// lazily draws) the link's shadowing realisation — in exactly the
    /// order the uncached query used, so RNG consumption is unchanged.
    fn link_budget(
        &mut self,
        source: DeviceId,
        observer: DeviceId,
        src_slot: u32,
        obs_slot: u32,
    ) -> (f64, f64) {
        if let Some(&cached) = self.link_cache.get(&(source, observer)) {
            self.stats.link_hits += 1;
            return cached;
        }
        self.stats.link_misses += 1;
        let src_pos = self.positions[src_slot as usize];
        let obs_pos = self.positions[obs_slot as usize];
        let pl_db = self
            .config
            .path_loss
            .path_loss_db(src_pos.distance_to(obs_pos));
        let shadow = self.link_shadowing(source, observer);
        self.link_cache.insert((source, observer), (pl_db, shadow));
        (pl_db, shadow)
    }

    /// Cumulative cache hit/miss counters since construction.
    pub fn cache_stats(&self) -> MediumCacheStats {
        self.stats
    }

    /// Cumulative spatial-culling counters since construction.
    pub fn grid_stats(&self) -> MediumGridStats {
        self.grid_stats
    }

    /// The grid cell edge length, metres (the worst-case hearing radius
    /// under the configured culling parameters).
    pub fn cell_size_m(&self) -> f64 {
        self.cells.cell_size_m
    }

    /// The summed in-band power of the candidates `observer` (in
    /// `obs_slot`) can hear on `listening` — the shared core of
    /// [`Medium::sensed_power`] and [`Medium::interference_against`].
    ///
    /// Gathers the 3×3 cell neighbourhood plus the loud overflow list and
    /// filters the candidates *unsorted*, rejecting everything that
    /// couples exactly zero without touching an RNG stream: `keep` (time
    /// window, own or excluded source) first, then — only for the kept —
    /// the band overlap (one memo hit/miss each) and the hearing radius
    /// (counted in `tx_out_of_range` when the band overlaps). Every kept
    /// candidate is written to the scratch; only the audible ones advance
    /// its length, so the band and range outcomes never branch. The
    /// audible prefix is then sorted by [`TxId`] and evaluated, so lazy
    /// shadowing/fading draws and the f64 summation happen in the same
    /// ascending-id order a full-slab scan uses — the dropped candidates
    /// are exactly that scan's zero terms.
    fn audible_power(
        &mut self,
        observer: DeviceId,
        obs_slot: u32,
        listening: &Band,
        keep: impl Fn(&Entry) -> bool,
    ) -> MilliWatt {
        let Medium {
            active,
            cells,
            loud,
            positions,
            bands,
            stats,
            grid_stats,
            audible,
            live,
            ..
        } = self;
        let listen = bands.intern(listening);
        let obs = positions[obs_slot as usize];
        let window = cells.window(obs);
        // A bound on the candidates: the window's buckets plus the loud
        // list.
        let bound = loud.len()
            + window
                .iter()
                .map(|&(bucket, _)| cells.buckets[bucket].len())
                .sum::<usize>();
        if audible.len() < bound {
            audible.resize(bound, (TxId::VACANT, 0.0));
        }
        let mut heard_count = 0usize;
        let mut out_of_range = 0u64;
        let mut consider = |e: &Entry| {
            if !keep(e) {
                return;
            }
            let tx_band = || active[e.id.slot()].band;
            let overlap = bands.fraction(e.band, tx_band, listen, listening, stats);
            let near = in_range(e.pos, obs, e.radius_sq_m2);
            // A NaN overlap (a zero-width band) counts as heard, as
            // every other path's `overlap <= 0.0` rejection has it.
            let heard = (overlap > 0.0) | overlap.is_nan();
            audible[heard_count] = (e.id, overlap);
            heard_count += usize::from(heard & near);
            out_of_range += u64::from(heard & !near);
        };
        let mut visited = 0u64;
        let mut gathered = loud.len();
        for &(bucket, key) in &window {
            let mut here = 0;
            for e in cells.buckets[bucket].iter().filter(|e| e.cell == key) {
                here += 1;
                consider(e);
            }
            visited += u64::from(here > 0);
            gathered += here;
        }
        loud.iter().for_each(&mut consider);
        grid_stats.queries += 1;
        grid_stats.cells_visited += visited;
        grid_stats.tx_visited += gathered as u64;
        grid_stats.tx_culled += (*live - gathered) as u64;
        grid_stats.tx_out_of_range += out_of_range;

        audible[..heard_count].sort_unstable_by_key(|&(id, _)| id);
        let audible = std::mem::take(&mut self.audible);
        let mut total = MilliWatt::ZERO;
        for &(id, overlap) in &audible[..heard_count] {
            total += self
                .budget_power(id.slot(), observer, obs_slot)
                .to_milliwatt()
                .scale(overlap);
        }
        self.audible = audible;
        total
    }

    /// [`Medium::received_power`] for a transmission in slab slot `slot`
    /// observed from `obs_slot`.
    ///
    /// The arithmetic is kept in exactly the uncached form — `(power -
    /// path_loss) + shadow + fading`, in that association — so memoized
    /// and fresh budgets produce bit-identical `Dbm` values. A link past
    /// its hearing radius returns [`Dbm::FLOOR`] **before** touching the
    /// shadowing/fading streams: culling never shifts RNG draw order,
    /// it only removes draws both evaluation orders would skip.
    fn received_power_at(&mut self, slot: usize, observer: DeviceId, obs_slot: u32) -> Dbm {
        let m = self.meta[slot];
        if self.active[slot].source == observer {
            return Dbm::FLOOR;
        }
        let (src, obs) = (m.source_slot as usize, obs_slot as usize);
        if !in_range(self.positions[src], self.positions[obs], m.radius_sq_m2) {
            self.grid_stats.tx_out_of_range += 1;
            return Dbm::FLOOR;
        }
        self.budget_power(slot, observer, obs_slot)
    }

    /// The full stochastic link budget of an in-range, non-self link
    /// (callers perform both checks first).
    fn budget_power(&mut self, slot: usize, observer: DeviceId, obs_slot: u32) -> Dbm {
        let Transmission { source, power, .. } = self.active[slot];
        let src_slot = self.meta[slot].source_slot;
        let (pl_db, shadow) = self.link_budget(source, observer, src_slot, obs_slot);
        let fading = self.tx_fading(slot, observer);
        (power - pl_db) + shadow + fading
    }

    /// Power of transmission `tx` received by `observer`, before any
    /// spectral-overlap weighting.
    ///
    /// Includes path loss, static link shadowing, and the cached
    /// per-transmission fading draw. A device does not receive its own
    /// transmission, and a transmitter beyond its hearing radius is
    /// inaudible by definition ([`Dbm::FLOOR`] is returned either way).
    ///
    /// # Panics
    ///
    /// Panics if the transmission or observer is unknown.
    pub fn received_power(&mut self, tx: TxId, observer: DeviceId) -> Dbm {
        let slot = self
            .slab_index(tx)
            .unwrap_or_else(|| panic!("transmission {tx:?} not active"));
        let obs_slot = self.slot_of(observer);
        self.received_power_at(slot, observer, obs_slot)
    }

    /// Power of transmission `tx` coupled into `observer`'s `listening`
    /// band, as linear power.
    ///
    /// Under the flat-spectrum approximation the coupled fraction is the
    /// share of the *transmitter's* band that falls inside the listening
    /// band: a 2 MHz ZigBee frame lands entirely inside a 20 MHz Wi-Fi
    /// channel (full power reaches the Wi-Fi energy detector), while a
    /// 20 MHz Wi-Fi frame deposits only 1/10 of its power into a 2 MHz
    /// ZigBee receiver.
    pub fn received_power_in_band(
        &mut self,
        tx: TxId,
        observer: DeviceId,
        listening: &Band,
    ) -> MilliWatt {
        let slot = self
            .slab_index(tx)
            .unwrap_or_else(|| panic!("transmission {tx:?} not active"));
        let obs_slot = self.slot_of(observer);
        // Zero band overlap is checked first, as in the query loop. A
        // device's own transmission couples the floor power, scaled by
        // the overlap.
        let m = self.meta[slot];
        let listen = self.bands.intern(listening);
        let tx_band = || self.active[slot].band;
        let overlap = self
            .bands
            .fraction(m.band, tx_band, listen, listening, &mut self.stats);
        if overlap <= 0.0 {
            return MilliWatt::ZERO;
        }
        if self.active[slot].source == observer {
            return Dbm::FLOOR.to_milliwatt().scale(overlap);
        }
        let (src, obs) = (m.source_slot as usize, obs_slot as usize);
        if !in_range(self.positions[src], self.positions[obs], m.radius_sq_m2) {
            self.grid_stats.tx_out_of_range += 1;
            return MilliWatt::ZERO;
        }
        self.budget_power(slot, observer, obs_slot)
            .to_milliwatt()
            .scale(overlap)
    }

    /// Total in-band power `observer` senses at `now`, excluding
    /// transmissions from `exclude_source` (a device never senses itself,
    /// and a receiver evaluating a frame excludes that frame's source).
    ///
    /// Allocation-free in steady state. Candidates from the observer's
    /// 3×3 grid neighbourhood are filtered down to the audible ones,
    /// which are sorted by id, so lazy fading draws and the linear f64
    /// summation happen in the same ascending-`TxId` order a full-slab
    /// scan produces (every skipped contribution is exactly a zero term
    /// of that sum).
    pub fn sensed_power(
        &mut self,
        observer: DeviceId,
        listening: &Band,
        now: SimTime,
        exclude_source: Option<DeviceId>,
    ) -> MilliWatt {
        let obs_slot = self.slot_of(observer);
        self.audible_power(observer, obs_slot, listening, |e| {
            e.start <= now
                && e.end > now
                && e.source != observer
                && Some(e.source) != exclude_source
        })
    }

    /// Interference power against transmission `signal` at `observer`:
    /// the in-band sum of every *other* transmission overlapping `signal`'s
    /// airtime, evaluated over the whole frame (worst case: any overlap
    /// counts for its full coupled power).
    ///
    /// Allocation-free; same filtered, id-ordered evaluation as
    /// [`Medium::sensed_power`].
    pub fn interference_against(
        &mut self,
        signal: TxId,
        observer: DeviceId,
        listening: &Band,
    ) -> MilliWatt {
        let sidx = self
            .slab_index(signal)
            .unwrap_or_else(|| panic!("transmission {signal:?} not active"));
        let (s_start, s_end) = (self.active[sidx].start, self.active[sidx].end);
        let obs_slot = self.slot_of(observer);
        self.audible_power(observer, obs_slot, listening, |e| {
            e.id != signal && e.source != observer && e.start < s_end && e.end > s_start
        })
    }

    /// The SINR (dB) of transmission `signal` at `observer` listening on
    /// `listening`, against `noise_floor`.
    pub fn sinr_db(
        &mut self,
        signal: TxId,
        observer: DeviceId,
        listening: &Band,
        noise_floor: Dbm,
    ) -> f64 {
        let s = self.received_power(signal, observer);
        let i = self.interference_against(signal, observer, listening);
        bicord_phy::units::sinr_db(s, i, noise_floor)
    }

    /// Active transmissions (other than `observer`'s own) whose airtime
    /// overlaps `[from, to)` and whose band overlaps `listening`.
    pub fn overlapping(
        &self,
        observer: DeviceId,
        listening: &Band,
        from: SimTime,
        to: SimTime,
    ) -> Vec<Transmission> {
        let mut txs = Vec::new();
        self.overlapping_into(observer, listening, from, to, &mut txs);
        txs
    }

    /// [`Medium::overlapping`] into a caller-owned buffer (cleared
    /// first), so repeated queries reuse one allocation.
    ///
    /// Visits only the observer's 3×3 grid neighbourhood plus the loud
    /// overflow list; out-of-range transmissions are inaudible by the
    /// culling definition and excluded like band-disjoint ones. The
    /// final `(start, id)` sort makes gathering order irrelevant.
    pub fn overlapping_into(
        &self,
        observer: DeviceId,
        listening: &Band,
        from: SimTime,
        to: SimTime,
        out: &mut Vec<Transmission>,
    ) {
        out.clear();
        let obs = self.positions[self.slot_of(observer) as usize];
        let mut consider = |e: &Entry| {
            let t = &self.active[e.id.slot()];
            if t.source != observer
                && t.overlaps(from, to)
                && listening.overlap_fraction(&t.band) > 0.0
                && in_range(e.pos, obs, e.radius_sq_m2)
            {
                out.push(*t);
            }
        };
        for (bucket, key) in self.cells.window(obs) {
            self.cells.buckets[bucket]
                .iter()
                .filter(|e| e.cell == key)
                .for_each(&mut consider);
        }
        self.loud.iter().for_each(&mut consider);
        out.sort_by_key(|t| (t.start, t.id));
    }

    /// Draws a fresh random value from the medium's fading stream —
    /// used by scenario code that needs channel-correlated randomness
    /// without owning another RNG.
    pub fn fading_draw(&mut self, sigma_db: f64) -> f64 {
        normal(&mut self.fading_rng, 0.0, sigma_db)
    }

    /// Clears cached shadowing for links touching `device` — called when a
    /// device moves materially (the realisation is position-dependent).
    /// Memoized link budgets touching the device are dropped with it.
    ///
    /// Returns the number of shadowing realisations discarded.
    pub fn invalidate_shadowing(&mut self, device: DeviceId) -> usize {
        let before = self.shadowing.len();
        self.shadowing
            .retain(|(a, b), _| *a != device && *b != device);
        self.drop_link_cache(device);
        before - self.shadowing.len()
    }
}

impl std::fmt::Debug for Medium {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Medium")
            .field("devices", &self.positions.len())
            .field("active", &self.live)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frames::{WifiFrameKind, WifiPriority, ZigbeeFrameKind};
    use bicord_phy::spectrum::{WifiChannel, ZigbeeChannel};
    use bicord_sim::SimDuration;

    fn wifi_band() -> Band {
        WifiChannel::new(11).unwrap().band()
    }

    fn zigbee_band() -> Band {
        ZigbeeChannel::new(24).unwrap().band()
    }

    fn setup() -> Medium {
        let mut m = Medium::new(ChannelConfig::default(), 77);
        m.add_device(DeviceId::new(0), Point::new(0.0, 0.0)); // Wi-Fi TX (E)
        m.add_device(DeviceId::new(1), Point::new(3.0, 0.0)); // Wi-Fi RX (F)
        m.add_device(DeviceId::new(2), Point::new(4.2, 1.0)); // ZigBee at A
        m
    }

    fn wifi_data() -> Payload {
        Payload::Wifi(WifiFrameKind::Data {
            mpdu_bytes: 100,
            priority: WifiPriority::Low,
        })
    }

    /// Live fading realisations across all active transmissions.
    fn fading_entries(m: &Medium) -> usize {
        m.fading.iter().map(Vec::len).sum()
    }

    #[test]
    fn transmissions_lifecycle() {
        let mut m = setup();
        assert_eq!(m.active_count(), 0);
        let id = m.begin_transmission(
            DeviceId::new(0),
            Dbm::new(20.0),
            wifi_band(),
            SimTime::ZERO,
            SimTime::from_millis(1),
            wifi_data(),
        );
        assert_eq!(m.active_count(), 1);
        assert!(m.transmission(id).is_some());
        let t = m.end_transmission(id);
        assert_eq!(t.id, id);
        assert_eq!(m.active_count(), 0);
        assert!(m.transmission(id).is_none());
    }

    #[test]
    #[should_panic(expected = "not active")]
    fn double_end_panics() {
        let mut m = setup();
        let id = m.begin_transmission(
            DeviceId::new(0),
            Dbm::new(20.0),
            wifi_band(),
            SimTime::ZERO,
            SimTime::from_millis(1),
            wifi_data(),
        );
        m.end_transmission(id);
        m.end_transmission(id);
    }

    #[test]
    #[should_panic(expected = "positive duration")]
    fn zero_duration_rejected() {
        let mut m = setup();
        m.begin_transmission(
            DeviceId::new(0),
            Dbm::new(20.0),
            wifi_band(),
            SimTime::from_millis(1),
            SimTime::from_millis(1),
            wifi_data(),
        );
    }

    #[test]
    fn received_power_is_consistent_across_queries() {
        let mut m = setup();
        let id = m.begin_transmission(
            DeviceId::new(0),
            Dbm::new(20.0),
            wifi_band(),
            SimTime::ZERO,
            SimTime::from_millis(1),
            wifi_data(),
        );
        let p1 = m.received_power(id, DeviceId::new(1));
        let p2 = m.received_power(id, DeviceId::new(1));
        assert_eq!(p1, p2, "fading draw must be cached per (tx, observer)");
    }

    #[test]
    fn own_transmission_is_not_received() {
        let mut m = setup();
        let id = m.begin_transmission(
            DeviceId::new(0),
            Dbm::new(20.0),
            wifi_band(),
            SimTime::ZERO,
            SimTime::from_millis(1),
            wifi_data(),
        );
        assert_eq!(m.received_power(id, DeviceId::new(0)), Dbm::FLOOR);
    }

    #[test]
    fn received_power_reasonable_at_3m() {
        let mut m = setup();
        let id = m.begin_transmission(
            DeviceId::new(0),
            Dbm::new(20.0),
            wifi_band(),
            SimTime::ZERO,
            SimTime::from_millis(1),
            wifi_data(),
        );
        // Mean is 20 - (46 + 30 log10 3) = -40.3 dBm; shadowing+fading add
        // a few dB of spread.
        let p = m.received_power(id, DeviceId::new(1)).value();
        assert!((-60.0..-25.0).contains(&p), "rx power {p} dBm");
    }

    #[test]
    fn out_of_band_transmission_couples_nothing() {
        let mut m = setup();
        // ZigBee channel 11 (2405 MHz) vs Wi-Fi channel 11 (2452-2472):
        // disjoint.
        let far_band = ZigbeeChannel::new(11).unwrap().band();
        let id = m.begin_transmission(
            DeviceId::new(2),
            Dbm::new(0.0),
            far_band,
            SimTime::ZERO,
            SimTime::from_millis(1),
            Payload::Zigbee(ZigbeeFrameKind::Control { mpdu_bytes: 120 }),
        );
        let p = m.received_power_in_band(id, DeviceId::new(1), &wifi_band());
        assert_eq!(p, MilliWatt::ZERO);
    }

    #[test]
    fn coupling_direction_is_asymmetric() {
        let mut m = setup();
        // A narrowband ZigBee frame deposits its FULL power into a Wi-Fi
        // energy detector (its 2 MHz sit inside the 20 MHz channel):
        let id = m.begin_transmission(
            DeviceId::new(2),
            Dbm::new(0.0),
            zigbee_band(),
            SimTime::ZERO,
            SimTime::from_millis(1),
            Payload::Zigbee(ZigbeeFrameKind::Control { mpdu_bytes: 120 }),
        );
        let full = m.received_power(id, DeviceId::new(1)).to_milliwatt();
        let at_wifi = m.received_power_in_band(id, DeviceId::new(1), &wifi_band());
        assert!((at_wifi.value() - full.value()).abs() < 1e-15);
        m.end_transmission(id);
        // ... while a wideband Wi-Fi frame couples only 1/10 into a 2 MHz
        // ZigBee receiver:
        let id = m.begin_transmission(
            DeviceId::new(0),
            Dbm::new(20.0),
            wifi_band(),
            SimTime::ZERO,
            SimTime::from_millis(1),
            wifi_data(),
        );
        let full = m.received_power(id, DeviceId::new(2)).to_milliwatt();
        let at_zigbee = m.received_power_in_band(id, DeviceId::new(2), &zigbee_band());
        assert!((at_zigbee.value() / full.value() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn sensed_power_sums_concurrent_transmissions() {
        let mut m = setup();
        let now = SimTime::from_micros(500);
        let t1 = m.begin_transmission(
            DeviceId::new(0),
            Dbm::new(20.0),
            wifi_band(),
            SimTime::ZERO,
            SimTime::from_millis(1),
            wifi_data(),
        );
        let single = m.sensed_power(DeviceId::new(2), &zigbee_band(), now, None);
        let _t2 = m.begin_transmission(
            DeviceId::new(1),
            Dbm::new(20.0),
            wifi_band(),
            SimTime::ZERO,
            SimTime::from_millis(1),
            wifi_data(),
        );
        let both = m.sensed_power(DeviceId::new(2), &zigbee_band(), now, None);
        assert!(both.value() > single.value());
        // Excluding device 0 removes t1's contribution:
        let excl = m.sensed_power(
            DeviceId::new(2),
            &zigbee_band(),
            now,
            Some(DeviceId::new(0)),
        );
        assert!(excl.value() < both.value());
        let _ = t1;
    }

    #[test]
    fn sensed_power_respects_time_window() {
        let mut m = setup();
        m.begin_transmission(
            DeviceId::new(0),
            Dbm::new(20.0),
            wifi_band(),
            SimTime::from_millis(2),
            SimTime::from_millis(3),
            wifi_data(),
        );
        let before = m.sensed_power(
            DeviceId::new(2),
            &zigbee_band(),
            SimTime::from_millis(1),
            None,
        );
        let during = m.sensed_power(
            DeviceId::new(2),
            &zigbee_band(),
            SimTime::from_micros(2_500),
            None,
        );
        assert_eq!(before, MilliWatt::ZERO);
        assert!(during.value() > 0.0);
    }

    #[test]
    fn sinr_collapses_under_cochannel_interference() {
        let mut m = setup();
        // ZigBee signal from A to a receiver colocated with F.
        let sig = m.begin_transmission(
            DeviceId::new(2),
            Dbm::new(0.0),
            zigbee_band(),
            SimTime::ZERO,
            SimTime::from_millis(2),
            Payload::Zigbee(ZigbeeFrameKind::Data {
                mpdu_bytes: 50,
                seq: 0,
            }),
        );
        let clean = m.sinr_db(
            sig,
            DeviceId::new(1),
            &zigbee_band(),
            bicord_phy::noise::ZIGBEE_NOISE_FLOOR,
        );
        // Start the Wi-Fi sender on the overlapping channel:
        m.begin_transmission(
            DeviceId::new(0),
            Dbm::new(20.0),
            wifi_band(),
            SimTime::ZERO,
            SimTime::from_millis(2),
            wifi_data(),
        );
        let jammed = m.sinr_db(
            sig,
            DeviceId::new(1),
            &zigbee_band(),
            bicord_phy::noise::ZIGBEE_NOISE_FLOOR,
        );
        assert!(clean > 20.0, "clean SINR {clean}");
        assert!(jammed < 0.0, "jammed SINR {jammed}");
    }

    #[test]
    fn overlapping_filters_and_sorts() {
        let mut m = setup();
        let a = m.begin_transmission(
            DeviceId::new(0),
            Dbm::new(20.0),
            wifi_band(),
            SimTime::from_millis(1),
            SimTime::from_millis(2),
            wifi_data(),
        );
        let b = m.begin_transmission(
            DeviceId::new(1),
            Dbm::new(20.0),
            wifi_band(),
            SimTime::from_millis(3),
            SimTime::from_millis(4),
            wifi_data(),
        );
        let hits = m.overlapping(
            DeviceId::new(2),
            &zigbee_band(),
            SimTime::ZERO,
            SimTime::from_millis(10),
        );
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].id, a);
        assert_eq!(hits[1].id, b);
        // A window touching only the second:
        let hits = m.overlapping(
            DeviceId::new(2),
            &zigbee_band(),
            SimTime::from_micros(2_500),
            SimTime::from_millis(10),
        );
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, b);
        // The observer's own transmissions are excluded:
        let hits = m.overlapping(
            DeviceId::new(0),
            &zigbee_band(),
            SimTime::ZERO,
            SimTime::from_millis(10),
        );
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, b);
    }

    #[test]
    fn mobility_updates_position_and_shadowing() {
        let mut m = setup();
        let d = DeviceId::new(2);
        assert_eq!(m.position(d), Point::new(4.2, 1.0));
        m.set_position(d, Point::new(1.0, 1.0));
        assert_eq!(m.position(d), Point::new(1.0, 1.0));
        m.invalidate_shadowing(d);
        // Closer now: received power should be higher on average. Compare
        // mean over several transmissions to wash out fading.
        let mut totals = [0.0f64; 2];
        for (i, pos) in [Point::new(1.0, 0.5), Point::new(8.0, 8.0)]
            .iter()
            .enumerate()
        {
            m.set_position(d, *pos);
            m.invalidate_shadowing(d);
            for k in 0..40 {
                let id = m.begin_transmission(
                    DeviceId::new(0),
                    Dbm::new(20.0),
                    wifi_band(),
                    SimTime::from_millis(10 + k),
                    SimTime::from_millis(11 + k),
                    wifi_data(),
                );
                totals[i] += m.received_power(id, d).value();
                m.end_transmission(id);
            }
        }
        assert!(totals[0] / 40.0 > totals[1] / 40.0 + 10.0);
    }

    #[test]
    #[should_panic(expected = "unknown device")]
    fn unknown_device_position_panics() {
        let m = setup();
        let _ = m.position(DeviceId::new(99));
    }

    #[test]
    fn determinism_per_seed() {
        let run = |seed: u64| {
            let mut m = Medium::new(ChannelConfig::default(), seed);
            m.add_device(DeviceId::new(0), Point::new(0.0, 0.0));
            m.add_device(DeviceId::new(1), Point::new(3.0, 0.0));
            let id = m.begin_transmission(
                DeviceId::new(0),
                Dbm::new(20.0),
                WifiChannel::new(11).unwrap().band(),
                SimTime::ZERO,
                SimTime::from_millis(1),
                Payload::Noise,
            );
            m.received_power(id, DeviceId::new(1)).value()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// A random interleaving of begin/end operations keeps the medium
        /// bookkeeping consistent.
        #[derive(Debug, Clone)]
        enum Op {
            Begin {
                device: u8,
                start_ms: u64,
                len_ms: u64,
            },
            EndOldest,
            QueryPower {
                observer: u8,
            },
        }

        fn op_strategy() -> impl Strategy<Value = Op> {
            prop_oneof![
                (0u8..3, 0u64..100, 1u64..10).prop_map(|(device, start_ms, len_ms)| Op::Begin {
                    device,
                    start_ms,
                    len_ms
                }),
                Just(Op::EndOldest),
                (0u8..3).prop_map(|observer| Op::QueryPower { observer }),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

            #[test]
            fn random_op_sequences_stay_consistent(ops in proptest::collection::vec(op_strategy(), 1..80)) {
                let mut m = Medium::new(ChannelConfig::default(), 4242);
                for d in 0..3u32 {
                    m.add_device(DeviceId::new(d), Point::new(d as f64, 0.0));
                }
                let band = WifiChannel::new(11).unwrap().band();
                let mut live: Vec<TxId> = Vec::new();
                for op in ops {
                    match op {
                        Op::Begin { device, start_ms, len_ms } => {
                            let id = m.begin_transmission(
                                DeviceId::new(u32::from(device)),
                                Dbm::new(0.0),
                                band,
                                SimTime::from_millis(start_ms),
                                SimTime::from_millis(start_ms + len_ms),
                                Payload::Noise,
                            );
                            live.push(id);
                        }
                        Op::EndOldest => {
                            if !live.is_empty() {
                                let id = live.remove(0);
                                let tx = m.end_transmission(id);
                                prop_assert_eq!(tx.id, id);
                            }
                        }
                        Op::QueryPower { observer } => {
                            let obs = DeviceId::new(u32::from(observer));
                            for &id in &live {
                                let p1 = m.received_power(id, obs);
                                let p2 = m.received_power(id, obs);
                                prop_assert_eq!(p1, p2, "query must be idempotent");
                                let src = m.transmission(id).unwrap().source;
                                if src == obs {
                                    prop_assert_eq!(p1, Dbm::FLOOR);
                                } else {
                                    prop_assert!(p1.value().is_finite());
                                }
                            }
                        }
                    }
                    prop_assert_eq!(m.active_count(), live.len());
                }
            }

            #[test]
            fn sensed_power_monotone_in_transmissions(n in 1usize..6, seed in any::<u64>()) {
                let mut m = Medium::new(ChannelConfig::default(), seed);
                m.add_device(DeviceId::new(0), Point::new(0.0, 0.0));
                for d in 1..=n as u32 {
                    m.add_device(DeviceId::new(d), Point::new(1.0 + d as f64, 0.5));
                }
                let band = WifiChannel::new(11).unwrap().band();
                let now = SimTime::from_micros(500);
                let mut last = MilliWatt::ZERO;
                for d in 1..=n as u32 {
                    m.begin_transmission(
                        DeviceId::new(d),
                        Dbm::new(10.0),
                        band,
                        SimTime::ZERO,
                        SimTime::from_millis(1),
                        Payload::Noise,
                    );
                    let sensed = m.sensed_power(DeviceId::new(0), &band, now, None);
                    prop_assert!(sensed.value() >= last.value(),
                        "adding a transmission reduced sensed power");
                    last = sensed;
                }
            }
        }
    }

    #[test]
    fn moving_back_restores_the_exact_link_budget() {
        // set_position drops the memoized path loss but keeps the
        // shadowing realisation: moving a device away and back must
        // reproduce the original received power bit-for-bit.
        let mut m = setup();
        let id = m.begin_transmission(
            DeviceId::new(0),
            Dbm::new(20.0),
            wifi_band(),
            SimTime::ZERO,
            SimTime::from_millis(1),
            wifi_data(),
        );
        let home = m.position(DeviceId::new(1));
        let p_home = m.received_power(id, DeviceId::new(1));
        m.set_position(DeviceId::new(1), Point::new(9.0, 9.0));
        let p_away = m.received_power(id, DeviceId::new(1));
        assert_ne!(p_home, p_away, "path loss must follow the position");
        m.set_position(DeviceId::new(1), home);
        assert_eq!(
            m.received_power(id, DeviceId::new(1)),
            p_home,
            "same position + same shadowing + same fading must reproduce \
             the original budget exactly"
        );
    }

    #[test]
    fn re_registering_a_device_invalidates_its_link_cache() {
        let mut m = setup();
        let id = m.begin_transmission(
            DeviceId::new(0),
            Dbm::new(20.0),
            wifi_band(),
            SimTime::ZERO,
            SimTime::from_millis(1),
            wifi_data(),
        );
        let p1 = m.received_power(id, DeviceId::new(1));
        m.add_device(DeviceId::new(1), Point::new(12.0, 0.0));
        let p2 = m.received_power(id, DeviceId::new(1));
        assert!(p2 < p1, "moving away must reduce received power");
    }

    #[test]
    fn cache_stats_track_hits_and_misses() {
        let mut m = setup();
        assert_eq!(m.cache_stats(), MediumCacheStats::default());
        m.begin_transmission(
            DeviceId::new(0),
            Dbm::new(20.0),
            wifi_band(),
            SimTime::ZERO,
            SimTime::from_millis(1),
            wifi_data(),
        );
        let now = SimTime::from_micros(500);
        m.sensed_power(DeviceId::new(1), &wifi_band(), now, None);
        let cold = m.cache_stats();
        assert_eq!(cold.link_misses, 1);
        assert_eq!(cold.band_misses, 1);
        m.sensed_power(DeviceId::new(1), &wifi_band(), now, None);
        let warm = m.cache_stats();
        assert_eq!(warm.link_hits, cold.link_hits + 1);
        assert_eq!(warm.band_hits, cold.band_hits + 1);
        assert_eq!(warm.link_misses, cold.link_misses);
        assert_eq!(warm.band_misses, cold.band_misses);
    }

    /// An aggressive culling config with ~29 m hearing radius at 0 dBm
    /// under the office model (budget 0 + 10 + 80 = 90 dB).
    fn aggressive() -> ChannelConfig {
        ChannelConfig {
            culling: CullingConfig {
                max_tx_power: Dbm::new(0.0),
                floor: Dbm::new(-80.0),
                margin_db: 10.0,
            },
            ..ChannelConfig::default()
        }
    }

    #[test]
    fn default_culling_is_conservative() {
        let m = Medium::new(ChannelConfig::default(), 1);
        // 30 dBm + 36 dB margin against a -120 dBm floor: tens of km.
        assert!(m.cell_size_m() > 10_000.0, "cell {} m", m.cell_size_m());
    }

    #[test]
    fn culled_links_couple_nothing_and_draw_no_rng() {
        let mut m = Medium::new(aggressive(), 3);
        let tx = DeviceId::new(0);
        let far = DeviceId::new(1);
        let near = DeviceId::new(2);
        m.add_device(tx, Point::ORIGIN);
        m.add_device(far, Point::new(200.0, 0.0)); // ~7 cells away
        m.add_device(near, Point::new(5.0, 0.0));
        let id = m.begin_transmission(
            tx,
            Dbm::new(0.0),
            wifi_band(),
            SimTime::ZERO,
            SimTime::from_millis(1),
            wifi_data(),
        );
        let now = SimTime::from_micros(500);
        assert_eq!(
            m.sensed_power(far, &wifi_band(), now, None),
            MilliWatt::ZERO
        );
        assert_eq!(m.received_power(id, far), Dbm::FLOOR);
        assert!(
            fading_entries(&m) == 0 && m.shadowing.is_empty(),
            "culled links must not consume the lazy RNG streams"
        );
        let stats = m.grid_stats();
        assert!(stats.tx_culled > 0, "far observer must cull at grid level");
        // The near observer hears the transmission normally.
        assert!(m.sensed_power(near, &wifi_band(), now, None).value() > 0.0);
        assert_eq!(fading_entries(&m), 1);
    }

    #[test]
    fn adjacent_cell_but_out_of_range_is_rejected_by_radius() {
        let mut m = Medium::new(aggressive(), 4);
        let cell = m.cell_size_m();
        assert!((25.0..35.0).contains(&cell), "cell {cell} m");
        m.add_device(DeviceId::new(0), Point::ORIGIN);
        // Inside the neighbouring cell, but beyond the ~29 m radius.
        m.add_device(DeviceId::new(1), Point::new(cell * 1.5, 0.0));
        m.begin_transmission(
            DeviceId::new(0),
            Dbm::new(0.0),
            wifi_band(),
            SimTime::ZERO,
            SimTime::from_millis(1),
            wifi_data(),
        );
        let sensed = m.sensed_power(
            DeviceId::new(1),
            &wifi_band(),
            SimTime::from_micros(500),
            None,
        );
        assert_eq!(sensed, MilliWatt::ZERO);
        let stats = m.grid_stats();
        assert_eq!(stats.tx_out_of_range, 1);
        assert_eq!(stats.tx_visited, 1);
    }

    #[test]
    fn loud_transmission_is_heard_beyond_one_cell() {
        let mut m = Medium::new(aggressive(), 5);
        m.add_device(DeviceId::new(0), Point::ORIGIN);
        // 20 dBm exceeds the configured 0 dBm max: radius ~135 m > cell.
        m.add_device(DeviceId::new(1), Point::new(100.0, 0.0));
        m.begin_transmission(
            DeviceId::new(0),
            Dbm::new(20.0),
            wifi_band(),
            SimTime::ZERO,
            SimTime::from_millis(1),
            wifi_data(),
        );
        let sensed = m.sensed_power(
            DeviceId::new(1),
            &wifi_band(),
            SimTime::from_micros(500),
            None,
        );
        assert!(
            sensed.value() > 0.0,
            "over-budget transmitter must ride the loud overflow list"
        );
    }

    #[test]
    fn memoized_hearing_radius_equals_a_fresh_one() {
        // More distinct powers than the memo holds, each sent twice, so
        // both the memoized and the past-the-cap paths run. -95 dBm is
        // below the floor (radius 0); 20 and 30 dBm ride the loud list.
        let mut m = Medium::new(aggressive(), 7);
        m.add_device(DeviceId::new(0), Point::ORIGIN);
        let powers = [-95.0, 0.0, -0.0, 20.0, -3.0, 0.5, 30.0, -3.5];
        assert!(powers.len() > RADIUS_MEMO_CAP);
        for round in 0..2 {
            for (i, dbm) in powers.into_iter().enumerate() {
                let start = SimTime::from_millis(round * 100 + i as u64);
                let id = m.begin_transmission(
                    DeviceId::new(0),
                    Dbm::new(dbm),
                    wifi_band(),
                    start,
                    start + SimDuration::from_micros(10),
                    wifi_data(),
                );
                let fresh = (m.config.culling).hearing_radius_m(&m.config.path_loss, Dbm::new(dbm));
                let meta = m.meta[m.slab_index(id).unwrap()];
                assert_eq!(
                    meta.radius_sq_m2.to_bits(),
                    (fresh * fresh).to_bits(),
                    "{dbm} dBm, round {round}"
                );
                assert_eq!(meta.cell.is_none(), fresh > m.cell_size_m(), "{dbm} dBm");
                m.end_transmission(id);
            }
        }
        assert_eq!(m.radii_len, RADIUS_MEMO_CAP);
    }

    #[test]
    fn moving_a_source_rebuckets_its_live_transmissions() {
        let mut m = Medium::new(aggressive(), 6);
        let src = DeviceId::new(0);
        let obs = DeviceId::new(1);
        m.add_device(src, Point::ORIGIN);
        m.add_device(obs, Point::new(5.0, 0.0));
        let id = m.begin_transmission(
            src,
            Dbm::new(0.0),
            wifi_band(),
            SimTime::ZERO,
            SimTime::from_millis(1),
            wifi_data(),
        );
        let now = SimTime::from_micros(500);
        let here = m.sensed_power(obs, &wifi_band(), now, None);
        assert!(here.value() > 0.0);
        // Far away (several cells): the live transmission must follow.
        m.set_position(src, Point::new(300.0, 300.0));
        assert_eq!(
            m.sensed_power(obs, &wifi_band(), now, None),
            MilliWatt::ZERO
        );
        // And back: same position + persisted shadowing + cached fading
        // reproduce the original reading bit-for-bit.
        m.set_position(src, Point::ORIGIN);
        let back = m.sensed_power(obs, &wifi_band(), now, None);
        assert_eq!(back.value().to_bits(), here.value().to_bits());
        let _ = id;
    }

    #[test]
    fn grid_stats_count_queries_and_cells() {
        let mut m = setup();
        assert_eq!(m.grid_stats(), MediumGridStats::default());
        m.begin_transmission(
            DeviceId::new(0),
            Dbm::new(20.0),
            wifi_band(),
            SimTime::ZERO,
            SimTime::from_millis(1),
            wifi_data(),
        );
        let now = SimTime::from_micros(500);
        m.sensed_power(DeviceId::new(1), &wifi_band(), now, None);
        let s = m.grid_stats();
        assert_eq!(s.queries, 1);
        assert_eq!(s.tx_visited, 1);
        assert_eq!(s.tx_culled, 0);
        assert_eq!(s.cells_visited, 1, "one occupied cell under huge cells");
    }

    #[test]
    fn overlapping_into_matches_overlapping_and_reuses_the_buffer() {
        let mut m = setup();
        for s in 0..4u64 {
            m.begin_transmission(
                DeviceId::new(0),
                Dbm::new(20.0),
                wifi_band(),
                SimTime::from_millis(s),
                SimTime::from_millis(s + 2),
                wifi_data(),
            );
        }
        let mut buf = Vec::new();
        m.overlapping_into(
            DeviceId::new(2),
            &wifi_band(),
            SimTime::ZERO,
            SimTime::from_millis(10),
            &mut buf,
        );
        assert_eq!(
            buf,
            m.overlapping(
                DeviceId::new(2),
                &wifi_band(),
                SimTime::ZERO,
                SimTime::from_millis(10),
            )
        );
        let cap = buf.capacity();
        m.overlapping_into(
            DeviceId::new(2),
            &wifi_band(),
            SimTime::ZERO,
            SimTime::from_millis(10),
            &mut buf,
        );
        assert_eq!(buf.capacity(), cap, "repeat queries must reuse the buffer");
    }

    #[test]
    fn fading_cache_cleared_on_end() {
        let mut m = setup();
        let band = wifi_band();
        let mut live: Vec<TxId> = Vec::new();
        let mut peak = 0;
        // Concurrency cycles between 1 and 5 live transmissions; each new
        // one is queried from both non-source devices.
        for i in 0..1_000u64 {
            let source = (i % 3) as u32;
            live.push(m.begin_transmission(
                DeviceId::new(source),
                Dbm::new(20.0),
                band,
                SimTime::from_millis(i),
                SimTime::from_millis(i + 1),
                Payload::Noise,
            ));
            peak = peak.max(live.len());
            for observer in (0..3).filter(|&d| d != source) {
                let _ = m.received_power(*live.last().unwrap(), DeviceId::new(observer));
            }
            while live.len() > (i % 5) as usize {
                m.end_transmission(live.remove(0));
            }
        }
        for id in live.drain(..) {
            m.end_transmission(id);
        }
        assert_eq!(fading_entries(&m), 0, "fading cache leaks");
        assert!(
            m.fading.len() <= peak,
            "{} slots for a peak of {peak} concurrent transmissions",
            m.fading.len()
        );
    }

    #[test]
    fn a_reused_slot_gets_an_id_that_sorts_last() {
        let mut m = setup();
        let begin = |m: &mut Medium, source: u32| {
            m.begin_transmission(
                DeviceId::new(source),
                Dbm::new(20.0),
                wifi_band(),
                SimTime::ZERO,
                SimTime::from_millis(1),
                wifi_data(),
            )
        };
        let earlier: Vec<TxId> = (0..3).map(|s| begin(&mut m, s)).collect();
        m.end_transmission(earlier[0]);
        let reused = begin(&mut m, 1);
        assert_eq!(reused.slot(), earlier[0].slot(), "the freed slot is reused");
        assert!(
            earlier.iter().all(|&id| id < reused),
            "{earlier:?} vs {reused:?}"
        );
        assert!(m.transmission(earlier[0]).is_none(), "the old id is gone");
        assert_eq!(m.transmission(reused).map(|t| t.id), Some(reused));
        assert_eq!(m.active_count(), 3);
    }

    #[test]
    fn cells_that_wrap_onto_one_bucket_stay_apart() {
        let mut m = Medium::new(aggressive(), 8);
        let cell = m.cell_size_m();
        m.add_device(DeviceId::new(0), Point::new(cell * 0.5, cell * 0.5));
        // Four cells east on the 4×4 torus: the observer's own bucket.
        m.add_device(DeviceId::new(1), Point::new(cell * 4.5, cell * 0.5));
        m.begin_transmission(
            DeviceId::new(1),
            Dbm::new(0.0),
            wifi_band(),
            SimTime::ZERO,
            SimTime::from_millis(1),
            wifi_data(),
        );
        let now = SimTime::from_micros(500);
        assert_eq!(
            m.sensed_power(DeviceId::new(0), &wifi_band(), now, None),
            MilliWatt::ZERO
        );
        let s = m.grid_stats();
        assert_eq!(
            (s.cells_visited, s.tx_visited, s.tx_culled),
            (0, 0, 1),
            "{s:?}"
        );
        // Next to the transmitter it is heard again.
        m.set_position(DeviceId::new(0), Point::new(cell * 4.5 + 3.0, cell * 0.5));
        assert!(
            m.sensed_power(DeviceId::new(0), &wifi_band(), now, None)
                .value()
                > 0.0
        );
    }
}
