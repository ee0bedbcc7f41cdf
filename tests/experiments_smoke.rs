//! Smoke tests for every experiment runner: tiny-scale versions of the
//! sweeps the bench binaries run at full scale, so a regression in any
//! runner is caught by `cargo test`.

use bicord::scenario::experiments::{
    ablation_allocator, ablation_detector, cti_accuracy, energy_cost, energy_cost_measured,
    fig10_comparison, fig10_replicated, fig11_parameters, fig12_mobility_replicated,
    fig13_priority, fig7_learning, fig8_fig9, table1_2, MobilityScenario, Scheme,
};
use bicord::sim::SimDuration;
use bicord::sweep::{run_cells, ScenarioRegistry, SweepSpec};

#[test]
fn table1_2_covers_the_full_grid() {
    let cells = table1_2(900, 10);
    assert_eq!(cells.len(), 4 * 3 * 3);
    for cell in &cells {
        assert!((0.0..=1.0).contains(&cell.precision));
        assert!((0.0..=1.0).contains(&cell.recall));
    }
}

#[test]
fn fig7_runs_and_converges() {
    let run = fig7_learning(901);
    assert!(!run.ws_history_ms.is_empty());
    assert!(run.burst_duration_ms > 40.0);
}

#[test]
fn fig8_fig9_grid_shape() {
    let rows = fig8_fig9(902, 2, SimDuration::from_secs(4));
    assert_eq!(rows.len(), 2 * 2 * 3);
    for row in &rows {
        assert!(row.mean_iterations >= 0.0);
        assert!(row.mean_final_ws_ms > 0.0);
    }
}

#[test]
fn fig10_grid_shape() {
    let rows = fig10_comparison(903, SimDuration::from_secs(2));
    assert_eq!(rows.len(), 5 * 4);
    let bicord_rows = rows.iter().filter(|r| r.scheme == Scheme::Bicord).count();
    assert_eq!(bicord_rows, 5);
    for row in &rows {
        assert!((0.0..=1.0).contains(&row.utilization));
        assert!(row.throughput_kbps >= 0.0);
    }
}

#[test]
fn fig10_replication_aggregates() {
    let cells = fig10_replicated(912, 2, SimDuration::from_secs(2));
    assert_eq!(cells.len(), 5 * 4);
    for cell in &cells {
        assert_eq!(cell.utilization.count(), 2);
        assert!(cell.utilization.ci95_halfwidth() >= 0.0);
    }
}

#[test]
fn fig11_dimensions_present() {
    let rows = fig11_parameters(904, SimDuration::from_secs(2));
    for dim in ["packet_length", "burst_size", "location"] {
        let n = rows.iter().filter(|r| r.dimension == dim).count();
        assert!(n >= 3, "dimension {dim} has only {n} rows");
    }
}

#[test]
fn fig12_replication_aggregates() {
    let cells = fig12_mobility_replicated(905, 2, SimDuration::from_secs(2));
    assert_eq!(cells.len(), 3 * 2);
    for cell in &cells {
        assert_eq!(cell.utilization.count(), 2);
    }
    assert!(cells
        .iter()
        .any(|c| c.scenario == MobilityScenario::PersonMobility));
}

#[test]
fn fig13_grid_shape() {
    let rows = fig13_priority(906, SimDuration::from_secs(2));
    assert_eq!(rows.len(), 5 * 3);
    // Ignored requests grow with the high-priority share for BiCord.
    let bicord: Vec<_> = rows.iter().filter(|r| r.scheme == Scheme::Bicord).collect();
    assert!(bicord.last().unwrap().ignored_requests >= bicord.first().unwrap().ignored_requests);
}

#[test]
fn cti_accuracy_smoke() {
    let acc = cti_accuracy(907, 30);
    assert!((0.0..=1.0).contains(&acc.wifi_detection_accuracy));
    assert!((0.0..=1.0).contains(&acc.device_id_accuracy));
}

#[test]
fn energy_runners_smoke() {
    assert_eq!(energy_cost().len(), 2);
    let measured = energy_cost_measured(908, SimDuration::from_secs(10));
    // Coordination costs something but stays in a sane band. (With an
    // unlucky arrival draw a burst may ride a false-positive white space
    // and skip signaling entirely, so controls_per_burst may be small.)
    assert!(measured.controls_per_burst >= 0.0);
    assert!(measured.bicord_mj >= measured.baseline_mj);
    // The listen window clamps at 15 ms, which caps the overhead near 0.7;
    // an unlucky seed can sit just above 0.6.
    assert!(
        (0.0..0.75).contains(&measured.overhead),
        "measured overhead {}",
        measured.overhead
    );
}

#[test]
fn multi_node_grid_shape() {
    // The `coexist` grid `bicord-bench multi_node` runs, at 2 s a cell.
    let spec = SweepSpec::parse(
        r#"{"scenario": "coexist", "seed": 909, "params": {"mode": ["bicord", "ecc-30"],
            "extra_nodes": ["", "C:10:500", "C:10:500,D:3:400"], "interval_ms": 300, "seconds": 2}}"#,
    );
    let registry = ScenarioRegistry::builtin();
    let spec = registry.resolve(&spec.unwrap()).unwrap();
    let rows = run_cells(&registry, &spec, spec.expand()).unwrap();
    assert_eq!(rows.len(), 2 * 3);
    for (i, row) in rows.iter().enumerate() {
        let per_node = row
            .metrics
            .iter()
            .filter(|(n, _)| n.starts_with("pdr_node_"));
        assert_eq!(per_node.count(), 1 + i / 2, "cell {i}");
    }
}

#[test]
fn ablation_runners_smoke() {
    let rows = ablation_detector(910, 10);
    assert_eq!(rows.len(), 9);
    let rows = ablation_allocator(911, SimDuration::from_secs(2));
    assert_eq!(rows.len(), 8);
}
