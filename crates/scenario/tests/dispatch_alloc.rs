//! Proof that protocol dispatch is allocation-free in steady state.
//!
//! A counting `#[global_allocator]` wraps the system allocator. Each
//! configuration runs twice from the same seed, for 60 and for 120
//! simulated seconds; the first minute of both runs is the same event
//! stream, so the extra allocations of the long run divided by its extra
//! dispatched events is what one more event costs once every buffer,
//! table and cache has reached its working size. Setup work that grows
//! with the run length (traffic, noise and mobility schedules) adds a
//! handful of amortized growths, well below the bound.
//!
//! The counter is thread-local (const-initialised, so reading it never
//! allocates), as in `crates/mac/tests/medium_alloc.rs`: the libtest
//! harness thread occasionally allocates while a test runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bicord_scenario::config::{ExtraNodeConfig, SimConfig};
use bicord_scenario::geometry::Location;
use bicord_scenario::sim::CoexistenceSim;
use bicord_sim::{stream_rng, FaultProfile, SeedDomain, SimDuration};
use bicord_workloads::mobility::DeviceMobility;
use bicord_workloads::traffic::{ArrivalProcess, BurstSpec};

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` because the allocator can be entered during thread
    // teardown, after the TLS slot has been destroyed.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
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

/// Allocations per dispatched event past the first minute.
const BOUND: f64 = 0.05;

/// The benchmark's default master seed, so the 60 s runs are its cell 0.
const SEED: u64 = 20_210_705;

/// The benchmark's `office_bicord` configuration: BiCord at location A
/// with Poisson bursts at the first of the paper's intervals.
fn office_bicord(duration: SimDuration) -> SimConfig {
    let mut c = SimConfig::bicord(Location::A, SEED);
    c.duration = duration;
    c.zigbee.arrivals = ArrivalProcess::Poisson(ArrivalProcess::paper_intervals()[0]);
    c
}

/// The benchmark's `multi_node_ecc` configuration: ECC-30 with node A
/// sending 5-packet bursts every 300 ms, C 10-packet every 500 ms and D
/// 3-packet every 400 ms. Of the protocol workloads it holds the most
/// pending events.
fn multi_node_ecc(duration: SimDuration) -> SimConfig {
    let mut c = SimConfig::ecc(Location::A, SEED, SimDuration::from_millis(30));
    c.duration = duration;
    c.zigbee.arrivals = ArrivalProcess::Poisson(SimDuration::from_millis(300));
    for (location, n_packets, interval_ms) in [(Location::C, 10, 500), (Location::D, 3, 400)] {
        let mut node = ExtraNodeConfig::at(location);
        node.burst = BurstSpec {
            n_packets,
            mpdu_bytes: 50,
        };
        node.arrivals = ArrivalProcess::Poisson(SimDuration::from_millis(interval_ms));
        c.extra_nodes.push(node);
    }
    c
}

/// The benchmark's `mobile_faults` configuration: BiCord with 200 ms
/// bursts while the sender moves (1 m, 250 ms steps), with control and
/// CTS loss, phantom CSI and device churn.
fn mobile_faults(duration: SimDuration) -> SimConfig {
    let mut c = SimConfig::bicord(Location::A, SEED);
    c.duration = duration;
    c.zigbee.arrivals = ArrivalProcess::Poisson(SimDuration::from_millis(200));
    let mut rng = stream_rng(SEED, SeedDomain::Mobility, 2);
    c.device_mobility = Some(DeviceMobility::generate(
        Location::A.sender_position(),
        1.0,
        duration,
        SimDuration::from_millis(250),
        &mut rng,
    ));
    c.fault = FaultProfile {
        control_loss: 0.3,
        cts_loss: 0.1,
        csi_false_positive: 0.02,
        churn_period: Some(SimDuration::from_millis(200)),
        churn_range_m: 2.0,
    };
    c
}

/// `(allocations, dispatched events)` of one run, construction included.
fn measure(config: SimConfig) -> (u64, u64) {
    let before = allocations();
    let results = CoexistenceSim::new(config)
        .expect("valid configuration")
        .run();
    (allocations() - before, results.events)
}

fn allocations_per_extra_event(config: impl Fn(SimDuration) -> SimConfig) -> f64 {
    let (short_allocs, short_events) = measure(config(SimDuration::from_secs(60)));
    let (long_allocs, long_events) = measure(config(SimDuration::from_secs(120)));
    assert!(long_events > short_events, "the long run dispatched more");
    long_allocs.saturating_sub(short_allocs) as f64 / (long_events - short_events) as f64
}

#[test]
fn office_bicord_dispatch_does_not_allocate() {
    let per_event = allocations_per_extra_event(office_bicord);
    eprintln!("{per_event:.4} allocations per event");
    assert!(per_event <= BOUND, "{per_event:.4} allocations per event");
}

#[test]
fn mobile_faults_dispatch_does_not_allocate() {
    let per_event = allocations_per_extra_event(mobile_faults);
    eprintln!("{per_event:.4} allocations per event");
    assert!(per_event <= BOUND, "{per_event:.4} allocations per event");
}

#[test]
fn multi_node_ecc_dispatch_does_not_allocate() {
    let per_event = allocations_per_extra_event(multi_node_ecc);
    eprintln!("{per_event:.4} allocations per event");
    assert!(per_event <= BOUND, "{per_event:.4} allocations per event");
}
