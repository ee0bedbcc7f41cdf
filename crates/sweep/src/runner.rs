//! Sweep execution: run a shard, resume, merge, and the single-process
//! path — all producing byte-identical merged results.
//!
//! The execution contract, end to end:
//!
//! 1. [`ScenarioRegistry::resolve`] normalizes the spec (sorted axes,
//!    defaults filled) — hashing and expansion only ever see resolved
//!    specs.
//! 2. [`run_shard`] expands the spec, keeps the cells its [`Shard`]
//!    owns, runs each of them once over
//!    `bicord_sim::par::parallel_map` (order preserved), and writes the
//!    shard artifact atomically. With `resume`, a present-and-valid
//!    clean artifact is left untouched and nothing re-runs; a valid one
//!    with quarantined cells re-runs only those; an invalid one is
//!    reported and re-run.
//! 3. [`merge`] reads all `N` shard artifacts back (fully validated),
//!    interleaves their rows into cell order, and writes `merged.json`.
//!    A single-process run ([`run_shard`] with [`Shard::SINGLE`])
//!    writes the identical bytes directly — the property the `sweep`
//!    CI job and `tests/sweep_contract.rs` enforce.
//!
//! # Failed cells
//!
//! A cell is a pure function of its seed, so it fails the same way on
//! every run and is run exactly once. It runs inline under
//! [`catch_unwind`]; a panic, or a scenario error starting with
//! [`GUARD_STALL_MARKER`] (the runtime guard aborting a stalled
//! simulation), is *quarantined*: the shard artifact lists the cell and
//! a [`QuarantineRecord`] artifact keeps the cause, so `merge` can name
//! it and `--resume` re-runs only it. Any other scenario error is a
//! spec mistake and stays fatal. There is no wall-clock watchdog: a
//! hang is a reproducible bug for the guard or the CI job timeout.
//!
//! [`run_cells`] is the fail-fast batch runner for in-process grids
//! (the figure table's registry cells): the first failing cell aborts
//! it, and it writes nothing.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use bicord_sim::par::parallel_map;

use crate::artifact::{
    merged_path, quarantine_path, read_quarantine, read_shard, render_merged, render_quarantine,
    render_shard, shard_path, write_atomic, ArtifactIssue, QuarantineRecord,
};
use crate::contract::{Cell, ResultRow, SweepSpec};
use crate::registry::ScenarioRegistry;
use crate::shard::Shard;
use crate::SweepError;

/// Message prefix by which a guard-aborted cell is recognized as a
/// stall (quarantined) rather than a deterministic scenario error
/// (fatal). Scenario closures that map
/// `bicord_sim::GuardViolation::StallDetected` into their error string
/// must start the message with this marker.
pub const GUARD_STALL_MARKER: &str = "guard stall:";

/// What [`run_shard`] did.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardOutcome {
    /// The artifact written (or found valid, when resumed).
    pub artifact: PathBuf,
    /// Cells executed in this invocation.
    pub cells_run: usize,
    /// Cells skipped because a valid artifact already covered them.
    pub cells_skipped: usize,
    /// The merged results file, written only by clean single-shard runs.
    pub merged: Option<PathBuf>,
    /// This shard's result rows, in cell order (run or resumed).
    pub rows: Vec<ResultRow>,
    /// Cells that failed and were quarantined, ascending.
    pub quarantined: Vec<u64>,
}

/// Runs `cells` of `spec`'s scenario in parallel, preserving cell order;
/// the first failing cell's error aborts the batch.
pub fn run_cells(
    registry: &ScenarioRegistry,
    spec: &SweepSpec,
    cells: Vec<Cell>,
) -> Result<Vec<ResultRow>, SweepError> {
    let results = parallel_map(cells, |cell| registry.run_cell(&spec.scenario, &cell));
    results.into_iter().collect()
}

/// Runs one shard of a **resolved** spec and writes its artifact under
/// `out_dir`. For a clean [`Shard::SINGLE`] run the merged results file
/// is written too, so an unsharded run needs no separate merge step.
///
/// Each cell runs once (see the module docs). A cell that panics or
/// stalls is *quarantined* instead of killing the shard: the artifact
/// records its id, a per-cell quarantine artifact records the cause,
/// and the shard's rows stay valid for every cell that did complete.
///
/// With `resume`:
/// * a valid artifact with **no** quarantined cells is kept untouched
///   (no cells run);
/// * a valid artifact **with** quarantined cells re-runs *only* those
///   cells, splices recovered rows into place, rewrites the artifact,
///   and deletes the quarantine artifacts of recovered cells — so a
///   fully recovered shard is byte-identical to one that never failed;
/// * a missing or invalid artifact re-runs the whole shard.
///
/// `merged.json` is written only by a clean single-shard run; a
/// quarantined sweep must be resumed to completion (or explicitly
/// merged) first.
pub fn run_shard(
    registry: &ScenarioRegistry,
    spec: &SweepSpec,
    shard: Shard,
    out_dir: &Path,
    resume: bool,
) -> Result<ShardOutcome, SweepError> {
    let cells: Vec<Cell> = spec
        .expand()
        .into_iter()
        .filter(|c| shard.contains(c.id))
        .collect();
    let expected: Vec<u64> = cells.iter().map(|c| c.id).collect();
    let path = shard_path(out_dir, spec, shard);

    let mut kept_rows: Vec<ResultRow> = Vec::new();
    let mut to_run = cells;
    if resume {
        match read_shard(&path, spec, shard, &expected) {
            Ok(contents) if contents.quarantined.is_empty() => {
                let merged = if shard.count == 1 {
                    Some(write_merged(out_dir, spec, &contents.rows)?)
                } else {
                    None
                };
                return Ok(ShardOutcome {
                    artifact: path,
                    cells_run: 0,
                    cells_skipped: contents.rows.len(),
                    merged,
                    rows: contents.rows,
                    quarantined: Vec::new(),
                });
            }
            Ok(contents) => {
                eprintln!(
                    "sweep: shard {shard} has {} quarantined cells; re-running only those",
                    contents.quarantined.len()
                );
                kept_rows = contents.rows;
                to_run.retain(|c| contents.quarantined.contains(&c.id));
            }
            Err(ArtifactIssue::Missing) => {}
            Err(issue) => {
                eprintln!(
                    "sweep: shard {shard} artifact invalid ({issue}); re-running {} cells",
                    to_run.len()
                );
            }
        }
    }

    let cells_run = to_run.len();
    let cells_skipped = kept_rows.len();
    let (rows, quarantined) = run_cells_once(registry, spec, to_run)?;

    // Splice recovered/new rows in with any rows kept from resume.
    let mut rows: Vec<ResultRow> = kept_rows.into_iter().chain(rows).collect();
    rows.sort_by_key(|r| r.cell);
    let quarantined_ids: Vec<u64> = quarantined.iter().map(|q| q.cell).collect();

    write_atomic(&path, &render_shard(spec, shard, &rows, &quarantined_ids))
        .map_err(|e| SweepError::Io(format!("writing {}: {e}", path.display())))?;
    persist_quarantine(out_dir, spec, &expected, &quarantined)?;

    let merged = if shard.count == 1 && quarantined_ids.is_empty() {
        Some(write_merged(out_dir, spec, &rows)?)
    } else {
        None
    };
    Ok(ShardOutcome {
        artifact: path,
        cells_run,
        cells_skipped,
        merged,
        rows,
        quarantined: quarantined_ids,
    })
}

/// Runs `cells` once each in parallel, preserving cell order. Panicked
/// and stalled cells become quarantine records; any other scenario
/// error aborts the batch.
fn run_cells_once(
    registry: &ScenarioRegistry,
    spec: &SweepSpec,
    cells: Vec<Cell>,
) -> Result<(Vec<ResultRow>, Vec<QuarantineRecord>), SweepError> {
    let outcomes = parallel_map(cells, |cell| run_cell_once(registry, &spec.scenario, &cell));
    let mut rows = Vec::new();
    let mut quarantined = Vec::new();
    for outcome in outcomes {
        match outcome? {
            Ok(row) => rows.push(row),
            Err(record) => {
                eprintln!(
                    "sweep: cell {} quarantined: {}: {}",
                    record.cell, record.cause, record.message
                );
                quarantined.push(record);
            }
        }
    }
    Ok((rows, quarantined))
}

/// Runs one cell inline under `catch_unwind` and classifies the result:
/// a row, a quarantine record (cause `panic` or `stall`), or a fatal
/// scenario error.
fn run_cell_once(
    registry: &ScenarioRegistry,
    scenario: &str,
    cell: &Cell,
) -> Result<Result<ResultRow, QuarantineRecord>, SweepError> {
    let caught = catch_unwind(AssertUnwindSafe(|| registry.run_cell(scenario, cell)));
    let (cause, message) = match caught {
        Ok(Ok(row)) => return Ok(Ok(row)),
        Ok(Err(SweepError::Cell { message, .. })) if message.starts_with(GUARD_STALL_MARKER) => {
            ("stall", message)
        }
        Ok(Err(fatal)) => return Err(fatal),
        Err(payload) => ("panic", panic_message(payload.as_ref())),
    };
    Ok(Err(QuarantineRecord {
        cell: cell.id,
        seed: cell.seed,
        replicate: cell.replicate,
        cause: cause.to_string(),
        message,
    }))
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Writes one quarantine artifact per failed cell and removes stale
/// quarantine artifacts of this shard's cells that are no longer
/// quarantined (recovered by resume).
fn persist_quarantine(
    out_dir: &Path,
    spec: &SweepSpec,
    shard_cells: &[u64],
    quarantined: &[QuarantineRecord],
) -> Result<(), SweepError> {
    for record in quarantined {
        let path = quarantine_path(out_dir, spec, record.cell);
        write_atomic(&path, &render_quarantine(spec, record))
            .map_err(|e| SweepError::Io(format!("writing {}: {e}", path.display())))?;
    }
    for &cell in shard_cells {
        if quarantined.iter().any(|q| q.cell == cell) {
            continue;
        }
        let stale = quarantine_path(out_dir, spec, cell);
        if stale.exists() {
            let _ = std::fs::remove_file(stale);
        }
    }
    Ok(())
}

fn write_merged(
    out_dir: &Path,
    spec: &SweepSpec,
    rows: &[ResultRow],
) -> Result<PathBuf, SweepError> {
    let path = merged_path(out_dir, spec);
    write_atomic(&path, &render_merged(spec, rows))
        .map_err(|e| SweepError::Io(format!("writing {}: {e}", path.display())))?;
    Ok(path)
}

/// Reduces the shard artifacts of a **resolved** spec into
/// `merged.json`, returning its path and the merged rows in cell order.
///
/// The shard count is discovered from the artifacts on disk (they are
/// content-addressed, so only artifacts of exactly this spec are ever
/// considered); every one of the `N` shards must be present and valid,
/// and together they must cover every cell exactly once. Missing or
/// invalid shards are reported per shard so the caller can re-run just
/// those (`--shard K/N --resume`).
pub fn merge(spec: &SweepSpec, out_dir: &Path) -> Result<(PathBuf, Vec<ResultRow>), SweepError> {
    let count = discover_shard_count(spec, out_dir)?;
    let all_cells = spec.expand();
    let mut slots: Vec<Option<ResultRow>> = vec![None; all_cells.len()];
    let mut problems = Vec::new();
    for shard in Shard::all(count) {
        let expected: Vec<u64> = all_cells
            .iter()
            .map(|c| c.id)
            .filter(|&id| shard.contains(id))
            .collect();
        let path = shard_path(out_dir, spec, shard);
        match read_shard(&path, spec, shard, &expected) {
            Ok(contents) => {
                for row in contents.rows {
                    let slot = row.cell as usize;
                    slots[slot] = Some(row);
                }
                for cell in contents.quarantined {
                    let cause = match read_quarantine(&quarantine_path(out_dir, spec, cell), spec) {
                        Ok(q) => format!("{}: {}", q.cause, q.message),
                        Err(issue) => format!("cause unavailable ({issue})"),
                    };
                    problems.push(format!(
                        "shard {shard}: cell {cell} quarantined ({cause}); \
                         re-run with --shard {shard} --resume"
                    ));
                }
            }
            Err(issue) => problems.push(format!("shard {shard}: {issue}")),
        }
    }
    if !problems.is_empty() {
        return Err(SweepError::IncompleteSweep { problems });
    }
    let rows: Vec<ResultRow> = slots
        .into_iter()
        .map(|slot| slot.expect("every cell is in exactly one validated shard"))
        .collect();
    let path = write_merged(out_dir, spec, &rows)?;
    Ok((path, rows))
}

/// Finds the shard count `N` from the artifacts present for this spec.
/// Artifacts carry `N` in their (content-addressed) names; mixed counts
/// in one sweep directory are ambiguous and rejected.
fn discover_shard_count(spec: &SweepSpec, out_dir: &Path) -> Result<u32, SweepError> {
    let dir = crate::artifact::sweep_dir(out_dir, spec);
    let entries = std::fs::read_dir(&dir).map_err(|e| {
        SweepError::Io(format!(
            "no artifacts for this spec under {} ({e}); run shards first",
            dir.display()
        ))
    })?;
    let mut counts: Vec<u32> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| SweepError::Io(e.to_string()))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        // shard-K-of-N-<key>.json
        let Some(rest) = name.strip_prefix("shard-") else {
            continue;
        };
        let mut pieces = rest.splitn(4, '-');
        let (_k, of, n) = (pieces.next(), pieces.next(), pieces.next());
        if of != Some("of") {
            continue;
        }
        if let Some(n) = n.and_then(|s| s.parse::<u32>().ok()) {
            if !counts.contains(&n) {
                counts.push(n);
            }
        }
    }
    match counts.as_slice() {
        [] => Err(SweepError::Io(format!(
            "no shard artifacts for this spec under {}",
            dir.display()
        ))),
        [n] => Ok(*n),
        many => {
            let mut many = many.to_vec();
            many.sort_unstable();
            Err(SweepError::Artifact(format!(
                "mixed shard counts {many:?} under {}; remove stale artifacts and re-merge",
                dir.display()
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::{ParamKind, ParamValue};
    use crate::registry::{ParamSpec, Scenario};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// A synthetic deterministic scenario: metrics are pure functions of
    /// the cell, and an external counter observes how many cells ran.
    fn counting_registry(counter: Arc<AtomicUsize>) -> ScenarioRegistry {
        let mut registry = ScenarioRegistry::new();
        registry.register(Scenario::new(
            "synthetic",
            "pure function of (n, seed)",
            vec![ParamSpec {
                name: "n",
                kind: ParamKind::Int,
                default: Some(ParamValue::Int(0)),
                help: "any integer",
            }],
            move |cell| {
                counter.fetch_add(1, Ordering::Relaxed);
                let n = cell.int("n")?;
                Ok(vec![
                    ("n_squared".to_string(), (n * n) as f64),
                    ("seeded".to_string(), (n as u64 ^ cell.seed) as f64),
                ])
            },
        ));
        registry
    }

    fn spec(values: &[i64], replicates: u32) -> SweepSpec {
        let mut s = SweepSpec::new("synthetic", 40, replicates)
            .axis("n", values.iter().map(|&n| ParamValue::Int(n)).collect());
        s.normalize_axes();
        s
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("bicord-sweep-runner-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn sharded_merge_is_byte_identical_to_single_process() {
        let counter = Arc::new(AtomicUsize::new(0));
        let registry = counting_registry(counter.clone());
        let spec = spec(&[1, 2, 3, 4, 5], 2);

        let single_dir = tmpdir("single");
        let outcome = run_shard(&registry, &spec, Shard::SINGLE, &single_dir, false).unwrap();
        assert_eq!(outcome.cells_run, 10);
        let single = std::fs::read(outcome.merged.unwrap()).unwrap();

        let sharded_dir = tmpdir("sharded");
        for shard in Shard::all(3) {
            run_shard(&registry, &spec, shard, &sharded_dir, false).unwrap();
        }
        let (merged, rows) = merge(&spec, &sharded_dir).unwrap();
        assert_eq!(rows.len(), 10);
        let sharded = std::fs::read(merged).unwrap();
        assert_eq!(single, sharded);

        std::fs::remove_dir_all(&single_dir).ok();
        std::fs::remove_dir_all(&sharded_dir).ok();
    }

    #[test]
    fn resume_skips_valid_and_reruns_invalid_shards() {
        let counter = Arc::new(AtomicUsize::new(0));
        let registry = counting_registry(counter.clone());
        let spec = spec(&[1, 2, 3, 4], 1);
        let dir = tmpdir("resume");

        for shard in Shard::all(2) {
            run_shard(&registry, &spec, shard, &dir, false).unwrap();
        }
        assert_eq!(counter.swap(0, Ordering::Relaxed), 4);

        // Resume with both artifacts valid: nothing runs.
        for shard in Shard::all(2) {
            let outcome = run_shard(&registry, &spec, shard, &dir, true).unwrap();
            assert_eq!(outcome.cells_run, 0);
            assert_eq!(outcome.cells_skipped, 2);
        }
        assert_eq!(counter.swap(0, Ordering::Relaxed), 0);

        // Kill one artifact; resume re-runs exactly its cells.
        let lost = shard_path(&dir, &spec, Shard::all(2).nth(1).unwrap());
        std::fs::remove_file(&lost).unwrap();
        for shard in Shard::all(2) {
            run_shard(&registry, &spec, shard, &dir, true).unwrap();
        }
        assert_eq!(counter.swap(0, Ordering::Relaxed), 2);
        assert!(merge(&spec, &dir).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A registry whose scenario panics on even `n` while `healthy` is
    /// false, and runs clean once it flips to true — the "transient
    /// infrastructure fault fixed before resume" shape.
    fn faulty_registry(
        healthy: Arc<std::sync::atomic::AtomicBool>,
        counter: Arc<AtomicUsize>,
    ) -> ScenarioRegistry {
        let mut registry = ScenarioRegistry::new();
        registry.register(Scenario::new(
            "synthetic",
            "panics on even n until healed",
            vec![ParamSpec {
                name: "n",
                kind: ParamKind::Int,
                default: Some(ParamValue::Int(0)),
                help: "any integer",
            }],
            move |cell| {
                counter.fetch_add(1, Ordering::Relaxed);
                let n = cell.int("n")?;
                assert!(
                    healthy.load(Ordering::Relaxed) || n % 2 != 0,
                    "injected fault for n={n}"
                );
                Ok(vec![
                    ("n_squared".to_string(), (n * n) as f64),
                    ("seeded".to_string(), (n as u64 ^ cell.seed) as f64),
                ])
            },
        ));
        registry
    }

    #[test]
    fn quarantined_cells_resume_to_a_byte_identical_clean_sweep() {
        use std::sync::atomic::AtomicBool;
        let healthy = Arc::new(AtomicBool::new(false));
        let counter = Arc::new(AtomicUsize::new(0));
        let registry = faulty_registry(healthy.clone(), counter.clone());
        let spec = spec(&[1, 2, 3, 4, 5], 1);

        // Reference: the fault-free single-process bytes.
        let ref_dir = tmpdir("q-reference");
        healthy.store(true, Ordering::Relaxed);
        let reference = run_shard(&registry, &spec, Shard::SINGLE, &ref_dir, false).unwrap();
        let ref_shard = std::fs::read(&reference.artifact).unwrap();
        let ref_merged = std::fs::read(reference.merged.as_ref().unwrap()).unwrap();
        healthy.store(false, Ordering::Relaxed);
        counter.store(0, Ordering::Relaxed);

        // Faulty run: cells with even n (ids 1 and 3) are quarantined
        // after one attempt each, the rest complete, and no merged.json
        // is written.
        let dir = tmpdir("q-faulty");
        let outcome = run_shard(&registry, &spec, Shard::SINGLE, &dir, false).unwrap();
        assert_eq!(counter.load(Ordering::Relaxed), 5, "every cell runs once");
        assert_eq!(outcome.quarantined, vec![1, 3]);
        assert_eq!(outcome.rows.len(), 3);
        assert!(outcome.merged.is_none());
        for &cell in &outcome.quarantined {
            let q = read_quarantine(&quarantine_path(&dir, &spec, cell), &spec).unwrap();
            assert_eq!(q.cause, "panic");
            assert!(q.message.contains("injected fault"), "{}", q.message);
        }
        // Merge names the quarantined cells and their recorded cause.
        let err = merge(&spec, &dir).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("cell 1 quarantined"), "{text}");
        assert!(text.contains("panic"), "{text}");
        assert!(text.contains("--resume"), "{text}");

        // Heal and resume: only the two quarantined cells re-run...
        healthy.store(true, Ordering::Relaxed);
        counter.store(0, Ordering::Relaxed);
        let resumed = run_shard(&registry, &spec, Shard::SINGLE, &dir, true).unwrap();
        assert_eq!(
            counter.load(Ordering::Relaxed),
            2,
            "only quarantined cells re-ran"
        );
        assert_eq!(resumed.cells_run, 2);
        assert_eq!(resumed.cells_skipped, 3);
        assert!(resumed.quarantined.is_empty());
        // ...the quarantine artifacts are gone...
        for cell in [1u64, 3] {
            assert!(!quarantine_path(&dir, &spec, cell).exists());
        }
        // ...and every byte matches the fault-free run.
        assert_eq!(std::fs::read(&resumed.artifact).unwrap(), ref_shard);
        assert_eq!(
            std::fs::read(resumed.merged.as_ref().unwrap()).unwrap(),
            ref_merged
        );
        let (_, merged_rows) = merge(&spec, &dir).unwrap();
        assert_eq!(merged_rows, reference.rows);

        std::fs::remove_dir_all(&ref_dir).ok();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn persistent_panic_is_quarantined_with_cause() {
        use std::sync::atomic::AtomicBool;
        let counter = Arc::new(AtomicUsize::new(0));
        let registry = faulty_registry(Arc::new(AtomicBool::new(false)), counter.clone());
        let spec = spec(&[1, 2, 3], 1);
        let (rows, quarantined) = run_cells_once(&registry, &spec, spec.expand()).unwrap();
        assert_eq!(counter.load(Ordering::Relaxed), 3, "one attempt per cell");
        assert_eq!(rows.len(), 2);
        assert_eq!(quarantined.len(), 1);
        let q = &quarantined[0];
        assert_eq!(q.cause, "panic");
        assert!(q.message.contains("injected fault"), "{}", q.message);
        assert_eq!(q.seed, 40, "cell identity preserved");
        assert_eq!(q.cell, 1, "n=2 is the second cell in expansion order");
    }

    #[test]
    fn guard_stall_errors_are_quarantinable() {
        let mut registry = ScenarioRegistry::new();
        registry.register(Scenario::new(
            "stalling",
            "always reports a guard stall",
            vec![],
            |_cell| Err(format!("{GUARD_STALL_MARKER} stuck at t=5us")),
        ));
        let mut spec = SweepSpec::new("stalling", 1, 1);
        spec.normalize_axes();
        let (rows, quarantined) = run_cells_once(&registry, &spec, spec.expand()).unwrap();
        assert!(rows.is_empty());
        assert_eq!(quarantined[0].cause, "stall");
        assert!(quarantined[0].message.contains("t=5us"));
    }

    #[test]
    fn deterministic_scenario_errors_stay_fatal() {
        let mut registry = ScenarioRegistry::new();
        registry.register(Scenario::new(
            "broken",
            "always returns a plain error",
            vec![],
            |_cell| Err("bad parameter combination".to_string()),
        ));
        let mut spec = SweepSpec::new("broken", 1, 1);
        spec.normalize_axes();
        let err = run_cells_once(&registry, &spec, spec.expand()).unwrap_err();
        assert!(matches!(err, SweepError::Cell { .. }), "{err}");
    }

    #[test]
    fn merge_reports_missing_shards_by_name() {
        let counter = Arc::new(AtomicUsize::new(0));
        let registry = counting_registry(counter);
        let spec = spec(&[1, 2, 3], 1);
        let dir = tmpdir("missing");
        let first = Shard::all(2).next().unwrap();
        run_shard(&registry, &spec, first, &dir, false).unwrap();
        let err = merge(&spec, &dir).unwrap_err();
        assert!(err.to_string().contains("shard 2/2"), "{err}");
        assert!(err.to_string().contains("missing"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merge_without_artifacts_is_a_clear_error() {
        let _registry = counting_registry(Arc::new(AtomicUsize::new(0)));
        let spec = spec(&[1], 1);
        let dir = tmpdir("empty");
        let err = merge(&spec, &dir).unwrap_err();
        assert!(err.to_string().contains("no artifacts"), "{err}");
    }
}
