//! The per-layer instruments: the tail rule, the `LayerClock` sink, and
//! the dense-city replay.

use bicord_benchmark::replay::replay;
use bicord_benchmark::stats::{tail, TAIL_MIN_BEYOND};
use bicord_benchmark::workload::{run_traced, run_untraced, Cell, Workload};
use bicord_scenario::dense_city::DenseCityConfig;
use bicord_sim::SimDuration;

#[test]
fn tail_is_the_highest_percentile_with_ten_cells_beyond_it() {
    for (n, label) in [
        (100, "p90"),
        (40, "p75"),
        (200, "p95"),
        (1000, "p99"),
        (10_000, "p99.9"),
    ] {
        // Descending input: the rule must not depend on the order cells ran.
        let cells: Vec<f64> = (1..=n).rev().map(f64::from).collect();
        let t = tail(&cells);
        assert_eq!(t.label(), label, "{n} cells");
        let beyond = cells.iter().filter(|&&c| c > t.value).count();
        assert_eq!(beyond, TAIL_MIN_BEYOND, "{n} cells");
    }
    // Too few cells for any tail: the median, labelled as such.
    let t = tail(&[3.0, 1.0, 2.0]);
    assert_eq!((t.label().as_str(), t.value), ("p50", 2.0));
}

fn short(w: Workload) -> bicord_scenario::config::SimConfig {
    match w.cell(7, 0) {
        Cell::Protocol(mut config) => {
            config.duration = SimDuration::from_secs(5);
            *config
        }
        Cell::DenseCity(_) => unreachable!("protocol workload"),
    }
}

#[test]
fn layer_clock_counts_every_dispatched_event() {
    for w in [
        Workload::OfficeBicord,
        Workload::MultiNodeEcc,
        Workload::MobileFaults,
    ] {
        let config = short(w);
        let traced = run_traced(&config).expect("traced run");
        assert_eq!(traced.clock.calls(), traced.outcome.events, "{}", w.name());
        assert!(!traced.guard.any(), "{}: {}", w.name(), traced.guard);
        let (_, untraced) = run_untraced(&Cell::Protocol(Box::new(config))).expect("untraced run");
        assert_eq!(
            traced.outcome,
            untraced,
            "{}: tracing changed the results",
            w.name()
        );
        let kinds: Vec<&str> = traced.clock.dispatch.iter().map(|(k, _)| *k).collect();
        assert!(
            kinds.contains(&"tx_end") && kinds.contains(&"timer"),
            "{kinds:?}"
        );
    }
}

#[test]
fn dense_city_replay_equals_run() {
    for devices in [100, 1_600] {
        let config = DenseCityConfig::with_device_count(devices, 11);
        let (results, profile) = replay(&config);
        assert_eq!(results, config.run(), "{devices} devices");
        assert_eq!(profile.tx_end.calls, results.transmissions);
        assert_eq!(profile.begin_transmission.calls, results.transmissions);
        assert_eq!(profile.sensed_power.calls, results.attempts);
        // Every pop but the last (empty) one dispatches an event.
        assert_eq!(
            profile.pop.calls,
            profile.arrival.calls + profile.tx_end.calls + 1
        );
        assert!(profile.timed_ns() as f64 >= 0.9 * profile.wall_ns as f64);
    }
}
