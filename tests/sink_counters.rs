//! What an instrumented run reports through the metrics registry, and
//! that instrumenting a run never changes it. The config enables device
//! mobility so the medium-cache record kinds (`medium_cache_invalidated`
//! per step, `medium_cache_stats` and `medium_grid_stats` at finalize)
//! are part of the workload.
//!
//! The uninstrumented path's cost is judged where host time is measured
//! reliably: `scripts/ab.sh` runs every benchmark workload with
//! `NoopSink`.

use bicord::prelude::*;
use bicord::sim::{stream_rng, SeedDomain};
use bicord::workloads::mobility::DeviceMobility;

fn mobility_config() -> SimConfig {
    let duration = SimDuration::from_secs(2);
    let mut rng = stream_rng(11, SeedDomain::Mobility, 2);
    SimConfig {
        duration,
        device_mobility: Some(DeviceMobility::generate(
            Location::A.sender_position(),
            1.0,
            duration,
            SimDuration::from_millis(250),
            &mut rng,
        )),
        ..SimConfig::bicord(Location::A, 11)
    }
}

#[test]
fn counting_sink_sees_every_event_and_the_medium_counters() {
    let noop = CoexistenceSim::new(mobility_config()).unwrap().run();
    let mut sink = CountingSink::new();
    let counted = CoexistenceSim::with_sink(mobility_config(), &mut sink)
        .unwrap()
        .run();
    // The sink observes; it never perturbs the run.
    assert_eq!(counted, noop);
    // One `dequeue` record per dispatched event.
    assert!(noop.events > 0);
    assert_eq!(sink.registry.counter("dequeue"), noop.events);
    // The cache layer's records flow through the registry: mobility
    // steps invalidate, and the finalize snapshot carries the hit/miss
    // counters (a hot query layer should be hit-dominated).
    assert!(sink.registry.counter("medium_cache_invalidated") > 0);
    assert_eq!(sink.registry.counter("medium_cache_stats"), 1);
    assert!(
        sink.registry.counter("medium_link_hits") > sink.registry.counter("medium_link_misses")
    );
    // The spatial grid snapshot rides the same mobility gate; the
    // default conservative hearing radius visits everything (nothing
    // culled), which is exactly the golden-preserving contract.
    assert_eq!(sink.registry.counter("medium_grid_stats"), 1);
    assert!(sink.registry.counter("medium_grid_queries") > 0);
    assert_eq!(sink.registry.counter("medium_culled_grid"), 0);
    assert_eq!(sink.registry.counter("medium_culled_range"), 0);
}
