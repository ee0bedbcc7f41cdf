//! The sweep contract, end to end: expanding a spec, running it as `N`
//! independent shards, and merging the shard artifacts must produce a
//! results file **byte-identical** to running the whole sweep in one
//! process — for arbitrary specs and shard counts — and a killed shard
//! must be recoverable by re-running only that shard (`--resume`).
//! Every test drives `run_shard`, the runner `bicord sweep` ships.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bicord::sweep::{
    merge, run_shard, ParamKind, ParamSpec, ParamValue, RunPolicy, Scenario, ScenarioRegistry,
    Shard, SweepSpec,
};
use proptest::prelude::*;

/// A cheap, fully deterministic scenario: metrics are pure functions of
/// the cell. `counter` observes how many cells actually execute.
fn synthetic_registry(counter: Arc<AtomicUsize>) -> Arc<ScenarioRegistry> {
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
            Ok(vec![
                ("mix".to_string(), n as f64 * m + cell.seed as f64),
                ("replicate".to_string(), cell.replicate as f64),
            ])
        },
    ));
    Arc::new(registry)
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
    registry: &Arc<ScenarioRegistry>,
    spec: &SweepSpec,
    n_shards: u32,
) -> (Vec<u8>, Vec<u8>) {
    let policy = RunPolicy::default();
    let single_dir = unique_dir("single");
    let outcome = run_shard(registry, spec, Shard::SINGLE, &single_dir, false, &policy).unwrap();
    let single =
        std::fs::read(outcome.merged.expect("single-shard runs write merged.json")).unwrap();

    let sharded_dir = unique_dir("sharded");
    for shard in Shard::all(n_shards) {
        run_shard(registry, spec, shard, &sharded_dir, false, &policy).unwrap();
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

/// The acceptance path on a real scenario: a robustness spec run as two
/// shards plus merge matches the one-process run byte for byte.
#[test]
fn real_scenario_sharded_merge_matches_single_process() {
    let spec_dir = unique_dir("spec");
    std::fs::create_dir_all(&spec_dir).unwrap();
    let spec_path = spec_dir.join("quick.json");
    std::fs::write(
        &spec_path,
        r#"{"scenario": "robustness", "seed": 7,
            "params": {"fault_rate": [0.0, 0.5], "duration_secs": 1}}"#,
    )
    .unwrap();

    let registry = Arc::new(ScenarioRegistry::builtin());
    let spec = registry
        .resolve(&bicord::sweep::load_spec(&spec_path).unwrap())
        .unwrap();
    assert_eq!(spec.cell_count(), 2);
    let (single, sharded) = single_vs_sharded(&registry, &spec, 2);
    assert_eq!(single, sharded);
    assert!(!single.is_empty());
    std::fs::remove_dir_all(&spec_dir).ok();
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
    let policy = RunPolicy::default();

    for shard in Shard::all(3) {
        run_shard(&registry, &spec, shard, &dir, false, &policy).unwrap();
    }
    assert_eq!(counter.swap(0, Ordering::Relaxed), 6);
    let (_, before) = merge(&spec, &dir).unwrap();

    // Simulate a killed worker: shard 2's artifact disappears.
    let killed = Shard::new(2, 3).unwrap();
    let killed_path = bicord::sweep::artifact::shard_path(&dir, &spec, killed);
    std::fs::remove_file(&killed_path).unwrap();

    for shard in Shard::all(3) {
        let outcome = run_shard(&registry, &spec, shard, &dir, true, &policy).unwrap();
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
    let policy = RunPolicy::default();
    run_shard(&registry, &spec, shard, &dir, false, &policy).unwrap();
    counter.swap(0, Ordering::Relaxed);

    let path = bicord::sweep::artifact::shard_path(&dir, &spec, shard);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();

    let outcome = run_shard(&registry, &spec, shard, &dir, true, &policy).unwrap();
    assert_eq!(outcome.cells_run, 4);
    assert_eq!(counter.swap(0, Ordering::Relaxed), 4);
    std::fs::remove_dir_all(&dir).ok();
}

/// Like [`synthetic_registry`], but while `healthy` is false the cells
/// whose `n` value is in `panics` panic and those in `hangs` sleep past
/// any reasonable cell timeout. Metrics are unchanged either way, so a
/// recovered sweep must be byte-identical to a fault-free one.
fn chaotic_registry(
    healthy: Arc<AtomicBool>,
    panics: Arc<HashSet<i64>>,
    hangs: Arc<HashSet<i64>>,
    counter: Arc<AtomicUsize>,
) -> ScenarioRegistry {
    let mut registry = ScenarioRegistry::new();
    registry.register(Scenario::new(
        "chaotic",
        "pure function of (n, seed) with injectable crash/hang faults",
        vec![ParamSpec {
            name: "n",
            kind: ParamKind::Int,
            default: Some(ParamValue::Int(0)),
            help: "any integer",
        }],
        move |cell| {
            counter.fetch_add(1, Ordering::Relaxed);
            let n = cell.int("n")?;
            if !healthy.load(Ordering::SeqCst) {
                if panics.contains(&n) {
                    panic!("injected crash in cell n={n}");
                }
                if hangs.contains(&n) {
                    std::thread::sleep(Duration::from_secs(2));
                }
            }
            Ok(vec![("mix".to_string(), n as f64 + cell.seed as f64)])
        },
    ));
    registry
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        max_shrink_iters: 0,
        ..ProptestConfig::default()
    })]

    /// The supervision acceptance property: with panics and hangs
    /// injected into <= 20% of cells, every shard still completes,
    /// exactly the faulty cells are quarantined with their cause on
    /// record, and after healing + `--resume` the merged results are
    /// byte-identical to a fault-free single-process run.
    #[test]
    fn injected_faults_are_quarantined_and_resume_restores_exact_bytes(
        n_cells in 10i64..15,
        fault_a in 0i64..15,
        fault_b in 0i64..15,
        a_hangs in any::<bool>(),
        b_hangs in any::<bool>(),
        n_shards in 1u32..4,
        seed in 0u64..1_000_000,
    ) {
        let fault_a = fault_a % n_cells;
        let fault_b = fault_b % n_cells;
        let mut panics = HashSet::new();
        let mut hangs = HashSet::new();
        for (n, is_hang) in [(fault_a, a_hangs), (fault_b, b_hangs)] {
            if is_hang { hangs.insert(n); } else { panics.insert(n); }
        }
        // Cell ids follow expansion order of the single `n` axis, so the
        // expected quarantine set is just the faulty values themselves.
        let expected: HashSet<u64> =
            panics.iter().chain(hangs.iter()).map(|&n| n as u64).collect();
        prop_assert!(expected.len() as i64 * 5 <= n_cells, "fault budget is <= 20% of cells");

        let healthy = Arc::new(AtomicBool::new(true));
        let counter = Arc::new(AtomicUsize::new(0));
        let registry = Arc::new(chaotic_registry(
            healthy.clone(),
            Arc::new(panics),
            Arc::new(hangs),
            counter.clone(),
        ));
        let spec = registry
            .resolve(
                &SweepSpec::new("chaotic", seed, 1)
                    .axis("n", (0..n_cells).map(ParamValue::Int).collect()),
            )
            .unwrap();
        let policy = RunPolicy {
            cell_timeout: Some(Duration::from_millis(100)),
            max_retries: 0,
            ..RunPolicy::default()
        };

        // Fault-free single-process reference.
        let reference_dir = unique_dir("chaos-ref");
        let outcome =
            run_shard(&registry, &spec, Shard::SINGLE, &reference_dir, false, &policy)
                .unwrap();
        prop_assert!(outcome.quarantined.is_empty());
        let reference = std::fs::read(outcome.merged.unwrap()).unwrap();

        // Faulty sharded run: every shard completes, quarantining exactly
        // its faulty cells, and the merge names them instead of merging.
        healthy.store(false, Ordering::SeqCst);
        counter.store(0, Ordering::SeqCst);
        let dir = unique_dir("chaos");
        for shard in Shard::all(n_shards) {
            let outcome =
                run_shard(&registry, &spec, shard, &dir, false, &policy).unwrap();
            let got: HashSet<u64> = outcome.quarantined.iter().copied().collect();
            let want: HashSet<u64> = spec
                .expand()
                .iter()
                .filter(|c| shard.contains(c.id) && expected.contains(&c.id))
                .map(|c| c.id)
                .collect();
            prop_assert_eq!(got, want, "each shard quarantines exactly its faulty cells");
        }
        let err = merge(&spec, &dir).unwrap_err().to_string();
        prop_assert!(err.contains("quarantined"), "merge refuses quarantined cells: {}", err);
        prop_assert!(err.contains("--resume"), "merge points at the recovery path: {}", err);

        // Heal, resume every shard: only quarantined cells re-run, and the
        // merged bytes match the fault-free reference exactly.
        healthy.store(true, Ordering::SeqCst);
        counter.store(0, Ordering::SeqCst);
        for shard in Shard::all(n_shards) {
            run_shard(&registry, &spec, shard, &dir, true, &policy).unwrap();
        }
        prop_assert_eq!(
            counter.load(Ordering::SeqCst),
            expected.len(),
            "resume re-runs only the quarantined cells"
        );
        let (merged_path, _) = merge(&spec, &dir).unwrap();
        let recovered = std::fs::read(merged_path).unwrap();
        prop_assert_eq!(recovered, reference, "recovered sweep is byte-identical");

        std::fs::remove_dir_all(&reference_dir).ok();
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Transient faults (first attempt panics, retry succeeds) are absorbed
/// by the retry budget inside a single run: nothing is quarantined and
/// the artifact is byte-identical to a fault-free run.
#[test]
fn transient_panics_are_retried_to_a_byte_identical_artifact() {
    use std::collections::HashMap;
    use std::sync::Mutex;

    fn transient_registry(attempts: Arc<Mutex<HashMap<i64, u32>>>) -> ScenarioRegistry {
        let mut registry = ScenarioRegistry::new();
        registry.register(Scenario::new(
            "transient",
            "odd cells panic on their first attempt only",
            vec![ParamSpec {
                name: "n",
                kind: ParamKind::Int,
                default: Some(ParamValue::Int(0)),
                help: "any integer",
            }],
            move |cell| {
                let n = cell.int("n")?;
                // Release the lock before panicking so the injected fault
                // doesn't poison the mutex for healthy cells.
                let first_attempt = {
                    let mut map = attempts.lock().unwrap();
                    let seen = map.entry(n).or_insert(0);
                    *seen += 1;
                    *seen == 1
                };
                if n % 2 == 1 && first_attempt {
                    panic!("transient fault in cell n={n}");
                }
                Ok(vec![("mix".to_string(), n as f64 * 3.0)])
            },
        ));
        registry
    }

    let policy = RunPolicy {
        max_retries: 1,
        ..RunPolicy::default()
    };
    let spec_for = |registry: &ScenarioRegistry| {
        registry
            .resolve(
                &SweepSpec::new("transient", 5, 1).axis("n", (0..8).map(ParamValue::Int).collect()),
            )
            .unwrap()
    };

    // Reference: every first attempt succeeds (pre-seed the attempt map).
    let pre_seeded: HashMap<i64, u32> = (0..8).map(|n| (n, 7)).collect();
    let reference_registry = Arc::new(transient_registry(Arc::new(Mutex::new(pre_seeded))));
    let reference_spec = spec_for(&reference_registry);
    let reference_dir = unique_dir("transient-ref");
    let outcome = run_shard(
        &reference_registry,
        &reference_spec,
        Shard::SINGLE,
        &reference_dir,
        false,
        &policy,
    )
    .unwrap();
    let reference = std::fs::read(outcome.merged.unwrap()).unwrap();

    // Faulty run: odd cells burn one attempt each, retries recover all.
    let attempts = Arc::new(Mutex::new(HashMap::new()));
    let registry = Arc::new(transient_registry(attempts.clone()));
    let spec = spec_for(&registry);
    let dir = unique_dir("transient");
    let outcome = run_shard(&registry, &spec, Shard::SINGLE, &dir, false, &policy).unwrap();
    assert!(
        outcome.quarantined.is_empty(),
        "retries absorb transient faults"
    );
    let recovered = std::fs::read(outcome.merged.unwrap()).unwrap();
    assert_eq!(
        recovered, reference,
        "retried cells reproduce the exact bytes"
    );
    let map = attempts.lock().unwrap();
    for n in 0..8 {
        assert_eq!(
            map[&n],
            if n % 2 == 1 { 2 } else { 1 },
            "attempt count for n={n}"
        );
    }

    std::fs::remove_dir_all(&reference_dir).ok();
    std::fs::remove_dir_all(&dir).ok();
}
