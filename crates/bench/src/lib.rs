//! # bicord-bench
//!
//! The regeneration harness: one binary per table/figure of the paper
//! (under `src/bin/`). Host-time measurement lives in the benchmark
//! under `benchmark/` and `scripts/ab.sh`, not here.
//!
//! Every binary accepts `--quick` to run a shortened sweep (useful for
//! smoke-testing the harness itself); without it, the full paper-scale
//! parameters are used.
//!
//! | Binary | Regenerates |
//! |---|---|
//! | `table1_2` | Tables I & II (signaling precision/recall) |
//! | `fig3_csi` | Fig. 3 (CSI traces under noise / ZigBee packets) |
//! | `fig7_learning` | Fig. 7 (white-space staircase) |
//! | `fig8_iterations` | Fig. 8 (iterations to converge) |
//! | `fig9_whitespace` | Fig. 9 (converged white space + over-provision) |
//! | `fig10_comparison` | Fig. 10a/b/c (utilization, delay, throughput) |
//! | `fig11_parameters` | Fig. 11a–d (parameter study) |
//! | `fig12_mobility` | Fig. 12 (mobile scenarios) |
//! | `fig13_priority` | Fig. 13 (Wi-Fi traffic prioritisation) |
//! | `cti_accuracy` | Sec. VII-A accuracy numbers |
//! | `energy_cost` | Sec. VII-B energy overhead (analytic + measured) |
//! | `motivation_ctc` | Sec. III-A folding analysis + Sec. III-B CTC latency |
//! | `multi_node` | the Sec. VI multi-node extension (beyond the paper) |
//! | `ablations` | detector-rule and allocator-stabiliser ablations |
//! | `robustness_sweep` | fault-rate sweep (beyond the paper): PDR/delay/fallbacks under injected control-packet loss, CTS loss, and phantom CSI |
//!
//! Set `BICORD_CSV_DIR=<dir>` to additionally export the main tables as
//! CSV for plotting.
//!
//! Every binary also appends a machine-readable performance record to
//! `BENCH_results.json` (override the path with `BICORD_BENCH_JSON`, or
//! set it to `0`/`off` to disable): wall-clock time, worker threads used,
//! cells run, and the experiment's key metric values — see
//! [`PerfRecorder`]. `bicord analyze diff-bench` compares the
//! deterministic metrics of those records (PDR/utilization floors, the
//! quarantined-cell ceiling) against `scripts/bench_baseline.json`
//! (docs/ANALYTICS.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;

pub use cli::BenchCli;

use std::time::Instant;

use bicord_metrics::TextTable;
use bicord_sim::json::Json;
use bicord_sim::{json, SimDuration};

/// `true` when the binary was invoked with `--quick`.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Picks the full or quick variant of a run length.
pub fn run_duration(full_secs: u64, quick_secs: u64) -> SimDuration {
    if quick_mode() {
        SimDuration::from_secs(quick_secs)
    } else {
        SimDuration::from_secs(full_secs)
    }
}

/// Picks the full or quick variant of a repetition/trial count.
pub fn run_count(full: u32, quick: u32) -> u32 {
    if quick_mode() {
        quick
    } else {
        full
    }
}

/// The master seed shared by the regeneration binaries.
pub const BENCH_SEED: u64 = 20_210_705;

/// The `--spec` path of a sweepable binary: drives the scenario
/// registry for the given spec file, prints the generic rows table,
/// records a (shard-tagged) perf entry, and returns `true` when it
/// handled the invocation. Binaries call this first and fall through to
/// their built-in grid when no `--spec` was given.
///
/// The spec must name `expected_scenario` — each binary owns exactly one
/// registry entry; `bicord sweep` is the driver for arbitrary specs.
pub fn run_spec_mode(cli: &BenchCli, expected_scenario: &str) -> bool {
    use bicord_sweep::{rows_table, run_shard_supervised, ScenarioRegistry};
    let Some(spec_path) = &cli.spec else {
        return false;
    };
    let shard = cli.sweep_shard();
    let policy = cli.run_policy();
    let run = || -> Result<usize, bicord_sweep::SweepError> {
        let registry = std::sync::Arc::new(ScenarioRegistry::builtin());
        let spec = bicord_sweep::load_spec(spec_path)?;
        if spec.scenario != expected_scenario {
            return Err(bicord_sweep::SweepError::Param(format!(
                "this binary runs the \"{expected_scenario}\" scenario, but the spec \
                 names \"{}\"; use `bicord sweep` for arbitrary specs",
                spec.scenario
            )));
        }
        let spec = registry.resolve(&spec)?;
        let mut perf = PerfRecorder::start(expected_scenario);
        if cli.shard.is_some() {
            perf.shard(shard);
        }
        eprintln!(
            "{expected_scenario}: spec {} shard {shard} ({} of {} cells)...",
            spec.content_hash(),
            shard.contains_count(spec.cell_count()),
            spec.cell_count(),
        );
        let outcome = run_shard_supervised(
            &registry,
            &spec,
            shard,
            std::path::Path::new("sweep_out"),
            false,
            &policy,
        )?;
        perf.cells(outcome.cells_run + outcome.cells_skipped);
        // Budget-gated by `bicord analyze diff-bench` (ceiling 0): a
        // quarantined cell in a recorded run is a budget breach, not
        // just a console warning.
        perf.metric("quarantined_cells", outcome.quarantined.len() as f64);
        perf.finish();
        println!(
            "{}",
            rows_table(
                &format!(
                    "{expected_scenario} — spec {} shard {shard}",
                    spec.content_hash()
                ),
                &outcome.rows,
            )
        );
        eprintln!("shard artifact: {}", outcome.artifact.display());
        if !outcome.quarantined.is_empty() {
            eprintln!(
                "{} cells QUARANTINED {:?}; see quarantine-cell-*.json under sweep_out/",
                outcome.quarantined.len(),
                outcome.quarantined
            );
        }
        if let Some(merged) = &outcome.merged {
            eprintln!("merged results: {}", merged.display());
        }
        Ok(outcome.quarantined.len())
    };
    match run() {
        Ok(0) => {}
        // The shard survived, but quarantined cells need a re-run before
        // the sweep is usable; signal that distinctly from hard errors.
        Ok(_) => std::process::exit(3),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
    true
}

/// If the `BICORD_CSV_DIR` environment variable is set, writes `table` as
/// `<dir>/<name>.csv` (for plotting); errors are reported on stderr but
/// never fail the bench.
pub fn maybe_write_csv(name: &str, table: &TextTable) {
    let Ok(dir) = std::env::var("BICORD_CSV_DIR") else {
        return;
    };
    let path = std::path::Path::new(&dir).join(format!("{name}.csv"));
    if let Err(e) = std::fs::write(&path, table.to_csv()) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        eprintln!("wrote {}", path.display());
    }
}

/// Collects one experiment's performance record and appends it to
/// `BENCH_results.json` on [`PerfRecorder::finish`].
///
/// The file is a JSON array with one single-line object per experiment:
/// `experiment`, `quick`, optionally `shard` (for `--spec --shard K/N`
/// runs; see [`PerfRecorder::shard`]), `threads`, `cells`, `wall_ms`,
/// and a `metrics` map of key result values. Re-running an experiment
/// replaces its entry (matched by name + quick flag + shard), so the
/// file accumulates the latest record per experiment — and per shard —
/// across bench invocations.
///
/// # Example
///
/// ```no_run
/// let mut perf = bicord_bench::PerfRecorder::start("fig10_replicated");
/// // ... run the experiment ...
/// perf.cells(40);
/// perf.metric("bicord_mean_utilization", 0.91);
/// perf.finish();
/// ```
#[derive(Debug)]
pub struct PerfRecorder {
    experiment: String,
    started: Instant,
    cells: usize,
    shard: Option<bicord_sweep::Shard>,
    metrics: Vec<(String, f64)>,
}

impl PerfRecorder {
    /// Starts timing `experiment`.
    pub fn start(experiment: &str) -> Self {
        PerfRecorder {
            experiment: experiment.to_string(),
            started: Instant::now(),
            cells: 0,
            shard: None,
            metrics: Vec::new(),
        }
    }

    /// Tags the record with the sweep shard this invocation ran, so the
    /// records of `--shard 1/2` and `--shard 2/2` coexist in the results
    /// file instead of replacing each other.
    pub fn shard(&mut self, shard: bicord_sweep::Shard) {
        self.shard = Some(shard);
    }

    /// Records how many independent `(seed, config)` cells the experiment
    /// ran.
    pub fn cells(&mut self, n: usize) {
        self.cells = n;
    }

    /// Records one key metric value. Non-finite values serialize as
    /// `null`.
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    /// Stops the clock and appends the record to the results file.
    ///
    /// I/O errors are reported on stderr but never fail the bench.
    pub fn finish(self) {
        let path = match std::env::var("BICORD_BENCH_JSON") {
            Ok(p) if p == "0" || p.eq_ignore_ascii_case("off") => return,
            Ok(p) => std::path::PathBuf::from(p),
            Err(_) => std::path::PathBuf::from("BENCH_results.json"),
        };
        let wall_ms = self.started.elapsed().as_secs_f64() * 1e3;
        let record = self.to_json(wall_ms, quick_mode(), bicord_sim::par::num_threads());
        if let Err(e) = merge_record(&path, record) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            eprintln!("recorded perf entry in {}", path.display());
        }
    }

    fn to_json(&self, wall_ms: f64, quick: bool, threads: usize) -> Json {
        let mut fields = vec![
            ("experiment".to_string(), Json::Str(self.experiment.clone())),
            ("quick".to_string(), Json::Bool(quick)),
        ];
        if let Some(shard) = self.shard {
            fields.push(("shard".to_string(), Json::Str(shard.to_string())));
        }
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value)| (name.clone(), Json::Float(*value)))
            .collect();
        fields.extend([
            ("threads".to_string(), Json::Int(threads as i64)),
            ("cells".to_string(), Json::Int(self.cells as i64)),
            ("wall_ms".to_string(), Json::Float(wall_ms)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ]);
        Json::Obj(fields)
    }
}

/// The `(experiment, quick, shard)` identity of a results-file record;
/// an unsharded record never matches a sharded one for the same
/// experiment, and vice versa.
fn record_key(record: &Json) -> [Option<&Json>; 3] {
    ["experiment", "quick", "shard"].map(|name| record.get(name))
}

/// Rewrites the results array, replacing any existing entry with the
/// same `(experiment, quick, shard)` as `record`. A file that exists but
/// does not parse as a JSON array is left untouched and reported as an
/// error, so a corrupt results file is never silently truncated.
fn merge_record(path: &std::path::Path, record: Json) -> std::io::Result<()> {
    let mut entries = match std::fs::read_to_string(path) {
        Ok(text) => match json::parse(&text) {
            Ok(Json::Arr(entries)) => entries,
            Ok(other) => return Err(refuse(&format!("it holds a {}", other.kind_name()))),
            Err(e) => return Err(refuse(&e)),
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    entries.retain(|e| record_key(e) != record_key(&record));
    entries.push(record);
    let lines: Vec<String> = entries.iter().map(Json::to_string).collect();
    std::fs::write(path, format!("[\n{}\n]\n", lines.join(",\n")))
}

fn refuse(reason: &str) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("refusing to overwrite a results file that is not a JSON array: {reason}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_counts_without_flag() {
        // The test harness does not pass --quick.
        assert_eq!(run_count(600, 60), 600);
        assert_eq!(run_duration(60, 5), SimDuration::from_secs(60));
    }

    #[test]
    fn record_serializes_to_one_line() {
        let mut p = PerfRecorder::start("demo");
        p.cells(12);
        p.metric("utilization", 0.91);
        p.metric("broken", f64::NAN);
        let line = p.to_json(3.25, true, 4).to_string();
        assert!(!line.contains('\n'));
        assert_eq!(
            line,
            "{\"experiment\": \"demo\", \"quick\": true, \"threads\": 4, \
             \"cells\": 12, \"wall_ms\": 3.25, \"metrics\": \
             {\"utilization\": 0.91, \"broken\": null}}"
        );
    }

    #[test]
    fn sharded_record_carries_the_shard_tag() {
        let mut p = PerfRecorder::start("demo");
        p.cells(6);
        p.shard(bicord_sweep::Shard::parse("2/4").unwrap());
        let line = p.to_json(1.5, false, 2).to_string();
        assert_eq!(
            line,
            "{\"experiment\": \"demo\", \"quick\": false, \"shard\": \"2/4\", \
             \"threads\": 2, \"cells\": 6, \"wall_ms\": 1.5, \"metrics\": {}}"
        );
    }

    #[test]
    fn merge_replaces_same_experiment_and_keeps_others() {
        let dir = std::env::temp_dir().join(format!("bicord-bench-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_results.json");
        let rec = |name: &str, wall: f64| {
            let mut p = PerfRecorder::start(name);
            p.cells(1);
            p.to_json(wall, false, 1)
        };
        merge_record(&path, rec("a", 1.0)).unwrap();
        merge_record(&path, rec("b", 2.0)).unwrap();
        merge_record(&path, rec("a", 9.0)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("[\n") && text.ends_with("\n]\n"), "{text}");
        assert_eq!(text.matches("\"experiment\": \"a\"").count(), 1);
        assert_eq!(text.matches("\"experiment\": \"b\"").count(), 1);
        assert!(text.contains("\"wall_ms\": 9"), "{text}");
        assert!(!text.contains("\"wall_ms\": 1,"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_and_unsharded_records_never_replace_each_other() {
        let dir =
            std::env::temp_dir().join(format!("bicord-bench-shard-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_results.json");
        let shard = |s: &str| bicord_sweep::Shard::parse(s).unwrap();
        let rec = |sh: Option<&str>, wall: f64| {
            let mut p = PerfRecorder::start("a");
            p.cells(1);
            if let Some(s) = sh {
                p.shard(shard(s));
            }
            p.to_json(wall, false, 1)
        };
        merge_record(&path, rec(None, 1.0)).unwrap();
        merge_record(&path, rec(Some("1/2"), 2.0)).unwrap();
        merge_record(&path, rec(Some("2/2"), 3.0)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.matches("\"experiment\": \"a\"").count(), 3, "{text}");
        // Re-running shard 1/2 replaces only that entry.
        merge_record(&path, rec(Some("1/2"), 8.0)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.matches("\"experiment\": \"a\"").count(), 3, "{text}");
        assert!(text.contains("\"wall_ms\": 8"), "{text}");
        assert!(!text.contains("\"wall_ms\": 2,"), "{text}");
        assert!(text.contains("\"wall_ms\": 1,"), "{text}");
        assert!(text.contains("\"wall_ms\": 3,"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merge_refuses_a_results_file_it_cannot_parse() {
        let dir =
            std::env::temp_dir().join(format!("bicord-bench-corrupt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_results.json");
        let rec = PerfRecorder::start("a").to_json(1.0, false, 1);
        for corrupt in ["[\n{\"experiment\": \"b\", \"quick\": fa", "{}", ""] {
            std::fs::write(&path, corrupt).unwrap();
            let err = merge_record(&path, rec.clone()).unwrap_err();
            assert!(err.to_string().contains("refusing to overwrite"), "{err}");
            assert_eq!(std::fs::read_to_string(&path).unwrap(), corrupt);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merge_preserves_existing_records_byte_for_byte() {
        let dir =
            std::env::temp_dir().join(format!("bicord-bench-bytes-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_results.json");
        let existing = "[\n{\"experiment\": \"x\", \"quick\": true, \"threads\": 1, \
                        \"cells\": 5, \"wall_ms\": 169.98138600000001, \"metrics\": \
                        {\"run_ms\": 0.8135319999999999, \"gone\": null}}\n]\n";
        std::fs::write(&path, existing).unwrap();
        merge_record(&path, PerfRecorder::start("y").to_json(2.0, false, 1)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with(&existing[..existing.len() - 3]), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
