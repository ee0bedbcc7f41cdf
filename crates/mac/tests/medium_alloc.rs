//! Proof that the medium's hot queries are allocation-free in steady
//! state.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after a
//! warm-up pass has populated the link-budget cache, the fading lists,
//! and the band table, repeated `sensed_power` /
//! `interference_against` / `overlapping_into` calls — and whole
//! begin/query/end transmission cycles — must perform zero heap
//! allocations. The counter is thread-local (const-initialised, so
//! reading it never allocates): the libtest harness thread occasionally
//! allocates while a test runs, and a process-global counter would pick
//! that noise up as a spurious failure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bicord_mac::frames::{DeviceId, Payload};
use bicord_mac::medium::{ChannelConfig, CullingConfig, Medium, Transmission, TxId};
use bicord_phy::geometry::Point;
use bicord_phy::spectrum::Band;
use bicord_phy::units::Dbm;
use bicord_sim::SimTime;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes requested by those allocations (a realloc counts its new size).
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count_one(bytes: usize) {
    // `try_with` because the allocator can be entered during thread
    // teardown, after the TLS slot has been destroyed.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn allocated_bytes() -> u64 {
    BYTES.with(Cell::get)
}

/// The grid's memory follows the device count, not the area the devices
/// span: devices strewn along a diagonal out to ±10⁸ m, millions of
/// ~29 m cells apart, each with a live transmission in its own cell,
/// allocate a bounded number of bytes per device (a table sized to the
/// cells between them would need ~10¹³ cells for the first two alone).
#[test]
fn far_apart_devices_allocate_by_count_not_by_area() {
    let config = ChannelConfig {
        culling: CullingConfig {
            max_tx_power: Dbm::new(0.0),
            floor: Dbm::new(-80.0),
            margin_db: 10.0,
        },
        ..ChannelConfig::default()
    };
    let band = Band::centered(2462.0, 20.0);
    for devices in [2u32, 64, 1_024] {
        let before = allocated_bytes();
        let mut medium = Medium::new(config, 17);
        for i in 0..devices {
            let t = f64::from(i) / f64::from(devices - 1) * 2.0 - 1.0;
            let id = DeviceId::new(i);
            medium.add_device(id, Point::new(t * 1e8, t * 1e8));
            medium.begin_transmission(
                id,
                Dbm::new(0.0),
                band,
                SimTime::ZERO,
                SimTime::from_millis(1),
                Payload::Noise,
            );
        }
        let sensed = medium.sensed_power(DeviceId::new(0), &band, SimTime::from_micros(500), None);
        assert_eq!(sensed.value(), 0.0, "every other device is out of range");
        let bytes = allocated_bytes() - before;
        let bound = 64 * 1024 + 2 * 1024 * u64::from(devices);
        assert!(
            bytes <= bound,
            "{devices} devices allocated {bytes} bytes (bound {bound})"
        );
    }
}

#[test]
fn steady_state_queries_do_not_allocate() {
    let mut medium = Medium::new(ChannelConfig::default(), 99);
    let observer = DeviceId::new(0);
    medium.add_device(observer, Point::new(0.0, 0.0));
    for i in 1..=8u32 {
        medium.add_device(
            DeviceId::new(i),
            Point::new(f64::from(i), f64::from(i) * 0.5),
        );
    }

    let wifi = Band::centered(2462.0, 20.0);
    let zigbee = Band::centered(2455.0, 2.0);
    let mut ids: Vec<TxId> = Vec::new();
    for i in 1..=8u32 {
        let band = if i % 2 == 0 { wifi } else { zigbee };
        ids.push(medium.begin_transmission(
            DeviceId::new(i),
            Dbm::new(10.0),
            band,
            SimTime::ZERO,
            SimTime::from_millis(1),
            Payload::Noise,
        ));
    }
    let now = SimTime::from_micros(500);

    // Warm-up: populate the link cache, fading lists, and band memo for
    // every (transmission, observer, band) combination the loop below
    // touches, and grow the overlap scratch to its steady-state size.
    let mut scratch: Vec<Transmission> = Vec::new();
    for band in [&wifi, &zigbee] {
        medium.sensed_power(observer, band, now, None);
        medium.interference_against(ids[0], observer, band);
        medium.overlapping_into(
            observer,
            band,
            SimTime::ZERO,
            SimTime::from_millis(1),
            &mut scratch,
        );
    }

    let before = allocations();
    for _ in 0..100 {
        for band in [&wifi, &zigbee] {
            let sensed = medium.sensed_power(observer, band, now, None);
            assert!(sensed.value() > 0.0);
            let interference = medium.interference_against(ids[0], observer, band);
            assert!(interference.value() > 0.0);
            medium.overlapping_into(
                observer,
                band,
                SimTime::ZERO,
                SimTime::from_millis(1),
                &mut scratch,
            );
            assert!(!scratch.is_empty());
        }
    }
    let after = allocations();

    assert_eq!(
        after - before,
        0,
        "hot medium queries allocated {} times in steady state",
        after - before
    );

    // Second phase: same proof with *active* spatial culling — the
    // gather-filter-sort grid path (3×3 cell walk, loud overflow list,
    // band table, audible-survivor scratch) must be as allocation-free as
    // the linear scan. A third listening band, disjoint from both
    // transmitted bands, sends every candidate down the zero-overlap
    // path.
    let disjoint = Band::centered(2405.0, 2.0);
    let mut medium = Medium::new(
        ChannelConfig {
            culling: CullingConfig {
                max_tx_power: Dbm::new(5.0),
                floor: Dbm::new(-75.0),
                margin_db: 8.0,
            },
            ..ChannelConfig::default()
        },
        41,
    );
    let observer = DeviceId::new(0);
    medium.add_device(observer, Point::new(0.0, 0.0));
    // A mix of near transmitters (audible), far ones (grid-culled), and
    // one over-budget loud transmitter.
    for i in 1..=12u32 {
        let spread = if i % 3 == 0 { 120.0 } else { 3.0 };
        medium.add_device(
            DeviceId::new(i),
            Point::new(f64::from(i) * spread, f64::from(i % 4)),
        );
    }
    let mut ids: Vec<TxId> = Vec::new();
    for i in 1..=12u32 {
        let band = if i % 2 == 0 { wifi } else { zigbee };
        let power = if i == 4 {
            Dbm::new(20.0)
        } else {
            Dbm::new(0.0)
        };
        ids.push(medium.begin_transmission(
            DeviceId::new(i),
            power,
            band,
            SimTime::ZERO,
            SimTime::from_millis(1),
            Payload::Noise,
        ));
    }
    for band in [&wifi, &zigbee, &disjoint] {
        medium.sensed_power(observer, band, now, None);
        medium.interference_against(ids[0], observer, band);
        medium.overlapping_into(
            observer,
            band,
            SimTime::ZERO,
            SimTime::from_millis(1),
            &mut scratch,
        );
    }

    let culled_before = allocations();
    for _ in 0..100 {
        for band in [&wifi, &zigbee, &disjoint] {
            let audible = *band != disjoint;
            let sensed = medium.sensed_power(observer, band, now, None);
            assert_eq!(sensed.value() > 0.0, audible);
            medium.interference_against(ids[0], observer, band);
            medium.overlapping_into(
                observer,
                band,
                SimTime::ZERO,
                SimTime::from_millis(1),
                &mut scratch,
            );
            assert_eq!(!scratch.is_empty(), audible);
        }
    }
    let culled_after = allocations();
    let grid = medium.grid_stats();
    assert!(grid.tx_culled > 0, "fixture must exercise real culling");

    assert_eq!(
        culled_after - culled_before,
        0,
        "culled medium queries allocated {} times in steady state",
        culled_after - culled_before
    );

    // Third phase: the transmission lifecycle. Once warm, begin →
    // `sensed_power` → end cycles reuse the slab, grid buckets and
    // recycled per-transmission fading lists without allocating.
    let churn = |medium: &mut Medium, k: u64| {
        let id = medium.begin_transmission(
            DeviceId::new(1 + (k % 12) as u32),
            Dbm::new(0.0),
            wifi,
            SimTime::ZERO,
            SimTime::from_millis(1),
            Payload::Noise,
        );
        let sensed = medium.sensed_power(observer, &wifi, now, None);
        medium.end_transmission(id);
        sensed
    };
    for k in 0..24 {
        churn(&mut medium, k);
    }
    let cycle_before = allocations();
    for k in 0..1_000 {
        assert!(churn(&mut medium, k).value() > 0.0);
    }
    let cycle_after = allocations();
    assert_eq!(
        cycle_after - cycle_before,
        0,
        "begin/query/end cycles allocated {} times in steady state",
        cycle_after - cycle_before
    );
}
