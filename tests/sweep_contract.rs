//! The sweep contract, end to end: expanding a spec, running it as `N`
//! independent shards, and merging the shard artifacts must produce a
//! results file **byte-identical** to running the whole sweep in one
//! process — for arbitrary specs and shard counts — and a killed shard
//! must be recoverable by re-running only that shard (`--resume`). A
//! cell that panics runs once, is quarantined and named by `merge`, and
//! `--resume` re-runs only it. Every test drives `run_shard`, the
//! runner `bicord sweep` ships.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use bicord::sweep::artifact::{quarantine_path, read_quarantine};
use bicord::sweep::registry::coexist_config;
use bicord::sweep::{
    merge, run_shard, ParamKind, ParamSpec, ParamValue, Scenario, ScenarioRegistry, Shard,
    SweepSpec,
};
use proptest::prelude::*;

/// A cheap, fully deterministic scenario: metrics are pure functions of
/// the cell. `counter` observes how many cells actually execute.
fn synthetic_registry(counter: Arc<AtomicUsize>) -> ScenarioRegistry {
    panicking_registry(counter, HashSet::new(), Arc::new(AtomicBool::new(true)))
}

/// The synthetic scenario, except that while `healthy` is false every
/// cell whose `n` is in `panics` panics. Metrics are unchanged either
/// way, so a healed and resumed sweep must be byte-identical to a
/// fault-free one.
fn panicking_registry(
    counter: Arc<AtomicUsize>,
    panics: HashSet<i64>,
    healthy: Arc<AtomicBool>,
) -> ScenarioRegistry {
    let mut registry = ScenarioRegistry::new();
    registry.register(Scenario::new(
        "synthetic",
        "pure function of (n, m, seed)",
        vec![
            ParamSpec {
                name: "n",
                kind: ParamKind::Int,
                default: Some(ParamValue::Int(0)),
                help: "any integer",
            },
            ParamSpec {
                name: "m",
                kind: ParamKind::Float,
                default: Some(ParamValue::Float(1.0)),
                help: "any float",
            },
        ],
        move |cell| {
            counter.fetch_add(1, Ordering::Relaxed);
            let n = cell.int("n")?;
            let m = cell.float("m")?;
            if !healthy.load(Ordering::SeqCst) && panics.contains(&n) {
                panic!("injected crash in cell n={n}");
            }
            Ok(vec![
                ("mix".to_string(), n as f64 * m + cell.seed as f64),
                ("replicate".to_string(), cell.replicate as f64),
            ])
        },
    ));
    registry
}

fn unique_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "bicord-sweep-contract-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `spec` once unsharded and once as `n_shards` shards + merge,
/// returning both merged files' bytes.
fn single_vs_sharded(
    registry: &ScenarioRegistry,
    spec: &SweepSpec,
    n_shards: u32,
) -> (Vec<u8>, Vec<u8>) {
    let single_dir = unique_dir("single");
    let outcome = run_shard(registry, spec, Shard::SINGLE, &single_dir, false).unwrap();
    let single =
        std::fs::read(outcome.merged.expect("single-shard runs write merged.json")).unwrap();

    let sharded_dir = unique_dir("sharded");
    for shard in Shard::all(n_shards) {
        run_shard(registry, spec, shard, &sharded_dir, false).unwrap();
    }
    let (merged_path, _) = merge(spec, &sharded_dir).unwrap();
    let sharded = std::fs::read(merged_path).unwrap();

    std::fs::remove_dir_all(&single_dir).ok();
    std::fs::remove_dir_all(&sharded_dir).ok();
    (single, sharded)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        max_shrink_iters: 0,
        ..ProptestConfig::default()
    })]

    /// expand → shard(K/N) → merge == unsharded, for random specs and
    /// shard counts (including N larger than the cell count, where some
    /// shards are legitimately empty).
    #[test]
    fn sharded_merge_is_byte_identical_for_random_specs(
        n_values in proptest::collection::vec(-100i64..100, 1..5),
        m_values in proptest::collection::vec(-2.0f64..2.0, 1..4),
        replicates in 1u32..4,
        n_shards in 1u32..7,
        seed in 0u64..1_000_000,
    ) {
        let registry = synthetic_registry(Arc::new(AtomicUsize::new(0)));
        let spec = registry
            .resolve(
                &SweepSpec::new("synthetic", seed, replicates)
                    .axis("n", n_values.iter().map(|&n| ParamValue::Int(n)).collect())
                    .axis("m", m_values.iter().map(|&m| ParamValue::Float(m)).collect()),
            )
            .unwrap();
        let (single, sharded) = single_vs_sharded(&registry, &spec, n_shards);
        prop_assert_eq!(single, sharded);
    }
}

/// The acceptance path on a real scenario: a `coexist` fault-rate spec
/// run as two shards plus merge matches the one-process run byte for
/// byte.
#[test]
fn real_scenario_sharded_merge_matches_single_process() {
    let spec = SweepSpec::parse(
        r#"{"scenario": "coexist", "seed": 7, "params": {"extra_wifi": true, "seconds": 1,
            "fault_profile": ["", "control-loss=0.5,cts-loss=0.25,csi-fp=0.05"]}}"#,
    );
    let registry = ScenarioRegistry::builtin();
    let spec = registry.resolve(&spec.unwrap()).unwrap();
    assert_eq!(spec.cell_count(), 2);
    let (single, sharded) = single_vs_sharded(&registry, &spec, 2);
    assert_eq!(single, sharded);
    assert!(!single.is_empty());
}

/// Kill-and-resume: after deleting one shard's artifact, `--resume`
/// re-runs exactly that shard's cells — the surviving artifact is reused
/// untouched — and the merge still reproduces the single-process bytes.
#[test]
fn resume_reruns_only_the_killed_shard() {
    let counter = Arc::new(AtomicUsize::new(0));
    let registry = synthetic_registry(counter.clone());
    let spec = registry
        .resolve(
            &SweepSpec::new("synthetic", 11, 1).axis("n", (0..6).map(ParamValue::Int).collect()),
        )
        .unwrap();
    let dir = unique_dir("resume");

    for shard in Shard::all(3) {
        run_shard(&registry, &spec, shard, &dir, false).unwrap();
    }
    assert_eq!(counter.swap(0, Ordering::Relaxed), 6);
    let (_, before) = merge(&spec, &dir).unwrap();

    // Simulate a killed worker: shard 2's artifact disappears.
    let killed = Shard::new(2, 3).unwrap();
    let killed_path = bicord::sweep::artifact::shard_path(&dir, &spec, killed);
    std::fs::remove_file(&killed_path).unwrap();

    for shard in Shard::all(3) {
        let outcome = run_shard(&registry, &spec, shard, &dir, true).unwrap();
        if shard == killed {
            assert_eq!(outcome.cells_run, 2, "killed shard re-runs its cells");
        } else {
            assert_eq!(outcome.cells_run, 0, "surviving shard {shard} is reused");
        }
    }
    assert_eq!(counter.swap(0, Ordering::Relaxed), 2);

    let (path, after) = merge(&spec, &dir).unwrap();
    let lines = |rows: &[bicord::sweep::ResultRow]| -> Vec<String> {
        rows.iter().map(|r| r.to_json_line()).collect()
    };
    assert_eq!(lines(&before), lines(&after));
    assert!(path.ends_with("merged.json"));
    std::fs::remove_dir_all(&dir).ok();
}

/// A corrupt artifact (truncated file) is detected and re-run on resume
/// rather than silently merged.
#[test]
fn corrupt_artifact_is_rerun_on_resume() {
    let counter = Arc::new(AtomicUsize::new(0));
    let registry = synthetic_registry(counter.clone());
    let spec = registry
        .resolve(
            &SweepSpec::new("synthetic", 3, 1).axis("n", (0..4).map(ParamValue::Int).collect()),
        )
        .unwrap();
    let dir = unique_dir("corrupt");
    let shard = Shard::SINGLE;
    run_shard(&registry, &spec, shard, &dir, false).unwrap();
    counter.swap(0, Ordering::Relaxed);

    let path = bicord::sweep::artifact::shard_path(&dir, &spec, shard);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();

    let outcome = run_shard(&registry, &spec, shard, &dir, true).unwrap();
    assert_eq!(outcome.cells_run, 4);
    assert_eq!(counter.swap(0, Ordering::Relaxed), 4);
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        max_shrink_iters: 0,
        ..ProptestConfig::default()
    })]

    /// The quarantine acceptance property: with panics injected into
    /// <= 20% of cells, every shard still completes, exactly the faulty
    /// cells are quarantined after one attempt each with their cause on
    /// record, `merge` names them along with `--resume`, and after
    /// healing + `--resume` re-runs only them, the merged results are
    /// byte-identical to a fault-free single-process run.
    #[test]
    fn injected_faults_are_quarantined_and_resume_restores_exact_bytes(
        n_cells in 10i64..15,
        fault_a in 0i64..15,
        fault_b in 0i64..15,
        n_shards in 1u32..4,
        seed in 0u64..1_000_000,
    ) {
        let panics = HashSet::from([fault_a % n_cells, fault_b % n_cells]);
        // Cell ids follow expansion order of the single `n` axis, so the
        // expected quarantine set is just the faulty values themselves.
        let expected: HashSet<u64> = panics.iter().map(|&n| n as u64).collect();
        prop_assert!(expected.len() as i64 * 5 <= n_cells, "fault budget is <= 20% of cells");

        let healthy = Arc::new(AtomicBool::new(true));
        let counter = Arc::new(AtomicUsize::new(0));
        let registry = panicking_registry(counter.clone(), panics, healthy.clone());
        let spec = registry
            .resolve(
                &SweepSpec::new("synthetic", seed, 1)
                    .axis("n", (0..n_cells).map(ParamValue::Int).collect()),
            )
            .unwrap();

        // Fault-free single-process reference.
        let reference_dir = unique_dir("chaos-ref");
        let outcome =
            run_shard(&registry, &spec, Shard::SINGLE, &reference_dir, false).unwrap();
        prop_assert!(outcome.quarantined.is_empty());
        let reference = std::fs::read(outcome.merged.unwrap()).unwrap();

        // Faulty sharded run: every shard completes, quarantining exactly
        // its faulty cells, and the merge names them instead of merging.
        healthy.store(false, Ordering::SeqCst);
        counter.store(0, Ordering::SeqCst);
        let dir = unique_dir("chaos");
        for shard in Shard::all(n_shards) {
            let outcome = run_shard(&registry, &spec, shard, &dir, false).unwrap();
            let got: HashSet<u64> = outcome.quarantined.iter().copied().collect();
            let want: HashSet<u64> = spec
                .expand()
                .iter()
                .filter(|c| shard.contains(c.id) && expected.contains(&c.id))
                .map(|c| c.id)
                .collect();
            prop_assert_eq!(got, want, "each shard quarantines exactly its faulty cells");
        }
        prop_assert_eq!(
            counter.load(Ordering::SeqCst),
            n_cells as usize,
            "a failed cell is not retried"
        );
        let err = merge(&spec, &dir).unwrap_err().to_string();
        for &cell in &expected {
            let named = format!("cell {cell} quarantined (panic: injected crash");
            prop_assert!(err.contains(&named), "merge names cell {}: {}", cell, err);
            let record = read_quarantine(&quarantine_path(&dir, &spec, cell), &spec).unwrap();
            prop_assert_eq!(record.cause, "panic");
        }
        prop_assert!(err.contains("--resume"), "merge points at the recovery path: {}", err);

        // Heal, resume every shard: only quarantined cells re-run, and the
        // merged bytes match the fault-free reference exactly.
        healthy.store(true, Ordering::SeqCst);
        counter.store(0, Ordering::SeqCst);
        for shard in Shard::all(n_shards) {
            run_shard(&registry, &spec, shard, &dir, true).unwrap();
        }
        prop_assert_eq!(
            counter.load(Ordering::SeqCst),
            expected.len(),
            "resume re-runs only the quarantined cells"
        );
        for &cell in &expected {
            prop_assert!(!quarantine_path(&dir, &spec, cell).exists(), "stale quarantine artifact");
        }
        let (merged_path, _) = merge(&spec, &dir).unwrap();
        let recovered = std::fs::read(merged_path).unwrap();
        prop_assert_eq!(recovered, reference, "recovered sweep is byte-identical");

        std::fs::remove_dir_all(&reference_dir).ok();
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Every committed spec parses and resolves against the built-in
/// registry, so none can keep naming a deleted scenario or parameter.
/// A `coexist` spec's string parameters are parsed only when a cell's
/// config is built, so every such cell's config is built too (no
/// simulation runs).
#[test]
fn every_committed_spec_resolves() {
    let registry = ScenarioRegistry::builtin();
    let specs = std::fs::read_dir(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("specs"));
    for path in specs.unwrap().map(|entry| entry.unwrap().path()) {
        let spec = bicord::sweep::load_spec(&path).unwrap();
        let resolved = registry.resolve(&spec);
        assert!(resolved.is_ok(), "{}", path.display());
        if spec.scenario == "coexist" {
            for cell in resolved.unwrap().expand() {
                let config = coexist_config(&cell);
                assert!(
                    config.is_ok(),
                    "{} cell {}: {config:?}",
                    path.display(),
                    cell.id
                );
            }
        }
    }
}

#[test]
fn resolve_coerces_int_into_float_axes() {
    let registry = synthetic_registry(Arc::new(AtomicUsize::new(0)));
    let spec = SweepSpec::new("synthetic", 1, 1)
        .axis("m", vec![ParamValue::Int(0), ParamValue::Float(0.5)]);
    let resolved = registry.resolve(&spec).unwrap();
    let (_, values) = resolved.axes.iter().find(|(n, _)| n == "m").unwrap();
    assert_eq!(
        values,
        &vec![ParamValue::Float(0.0), ParamValue::Float(0.5)]
    );
}
