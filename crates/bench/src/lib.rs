//! # bicord-bench
//!
//! The regeneration harness: one `bicord-bench <figure>` binary runs a
//! named entry of [`figures::FIGURES`] and prints what the paper's table
//! or figure shows. Every figure with a checked output has a committed
//! `results/<figure>.txt`, and `scripts/check_results.sh` diffs each one
//! against a fresh run. Host-time measurement lives in the benchmark
//! under `benchmark/` and `scripts/ab.sh`, not here; the one host-timed
//! binary that stays here is `dense_city_scaling` (per-query medium cost
//! against world size).
//!
//! Every figure accepts `--quick` to run a shortened sweep (useful for
//! smoke-testing the harness itself); without it, the full paper-scale
//! parameters are used. See [`cli`] for the flags.
//!
//! | Figure | Regenerates |
//! |---|---|
//! | `table1_2` | Tables I & II (signaling precision/recall) |
//! | `fig3_csi` | Fig. 3 (CSI traces under noise / ZigBee packets) |
//! | `fig7_learning` | Fig. 7 (white-space staircase) |
//! | `fig8_iterations` | Fig. 8 (iterations to converge) |
//! | `fig9_whitespace` | Fig. 9 (converged white space + over-provision) |
//! | `fig10_comparison` | Fig. 10a/b/c (utilization, delay, throughput) |
//! | `fig10_replicated` | Fig. 10a/b over several seeds, mean ± 95 % CI |
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
//! Every run also appends a machine-readable performance record to
//! `BENCH_results.json` (override the path with `BICORD_BENCH_JSON`, or
//! set it to `0`/`off` to disable): wall-clock time, worker threads used,
//! cells run, and the experiment's key metric values — see
//! [`PerfRecorder`]. `bicord analyze diff-bench` compares the
//! deterministic metrics of those records (PDR/utilization floors)
//! against `scripts/bench_baseline.json` (docs/ANALYTICS.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod figures;

pub use cli::BenchCli;

use std::time::Instant;

use bicord_metrics::TextTable;
use bicord_sim::json::Json;
use bicord_sim::{json, SimDuration};

/// The master seed shared by the regeneration binaries.
pub const BENCH_SEED: u64 = 20_210_705;

/// How large a sweep to run: the paper's scale, or the `--quick`
/// smoke-test scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// Paper-scale parameters (the default).
    #[default]
    Full,
    /// Shortened sweep.
    Quick,
}

impl Scale {
    /// Picks the full or quick variant of a parameter.
    pub fn pick<T>(self, full: T, quick: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Quick => quick,
        }
    }

    /// Picks the full or quick variant of a run length, in seconds.
    pub fn secs(self, full: u64, quick: u64) -> SimDuration {
        SimDuration::from_secs(self.pick(full, quick))
    }
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
/// `experiment`, `quick`, `threads`, `cells`, `wall_ms`, and a `metrics`
/// map of key result values. Re-running an experiment replaces its entry
/// (matched by name + quick flag), so the file accumulates the latest
/// record per experiment across bench invocations.
///
/// # Example
///
/// ```no_run
/// use bicord_bench::{PerfRecorder, Scale};
///
/// let mut perf = PerfRecorder::start("fig10_replicated", Scale::Full);
/// // ... run the experiment ...
/// perf.cells(40);
/// perf.metric("bicord_mean_utilization", 0.91);
/// perf.finish();
/// ```
#[derive(Debug)]
pub struct PerfRecorder {
    experiment: String,
    quick: bool,
    started: Instant,
    cells: usize,
    metrics: Vec<(String, f64)>,
}

impl PerfRecorder {
    /// Starts timing `experiment`, run at `scale`.
    pub fn start(experiment: &str, scale: Scale) -> Self {
        PerfRecorder {
            experiment: experiment.to_string(),
            quick: scale == Scale::Quick,
            started: Instant::now(),
            cells: 0,
            metrics: Vec::new(),
        }
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
        let record = self.to_json(wall_ms, bicord_sim::par::num_threads());
        if let Err(e) = merge_record(&path, record) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            eprintln!("recorded perf entry in {}", path.display());
        }
    }

    fn to_json(&self, wall_ms: f64, threads: usize) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value)| (name.clone(), Json::Float(*value)))
            .collect();
        Json::Obj(vec![
            ("experiment".to_string(), Json::Str(self.experiment.clone())),
            ("quick".to_string(), Json::Bool(self.quick)),
            ("threads".to_string(), Json::Int(threads as i64)),
            ("cells".to_string(), Json::Int(self.cells as i64)),
            ("wall_ms".to_string(), Json::Float(wall_ms)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ])
    }
}

/// The `(experiment, quick)` identity of a results-file record.
fn record_key(record: &Json) -> [Option<&Json>; 2] {
    ["experiment", "quick"].map(|name| record.get(name))
}

/// Rewrites the results array, replacing any existing entry with the
/// same `(experiment, quick)` as `record`. A file that exists but does
/// not parse as a JSON array is left untouched and reported as an
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
    fn record_serializes_to_one_line() {
        let mut p = PerfRecorder::start("demo", Scale::Quick);
        p.cells(12);
        p.metric("utilization", 0.91);
        p.metric("broken", f64::NAN);
        let line = p.to_json(3.25, 4).to_string();
        assert!(!line.contains('\n'));
        assert_eq!(
            line,
            "{\"experiment\": \"demo\", \"quick\": true, \"threads\": 4, \
             \"cells\": 12, \"wall_ms\": 3.25, \"metrics\": \
             {\"utilization\": 0.91, \"broken\": null}}"
        );
    }

    #[test]
    fn merge_replaces_same_experiment_and_keeps_others() {
        let dir = std::env::temp_dir().join(format!("bicord-bench-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_results.json");
        let rec = |name: &str, wall: f64| {
            let mut p = PerfRecorder::start(name, Scale::Full);
            p.cells(1);
            p.to_json(wall, 1)
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
    fn merge_refuses_a_results_file_it_cannot_parse() {
        let dir =
            std::env::temp_dir().join(format!("bicord-bench-corrupt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_results.json");
        let rec = PerfRecorder::start("a", Scale::Full).to_json(1.0, 1);
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
        merge_record(&path, PerfRecorder::start("y", Scale::Full).to_json(2.0, 1)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with(&existing[..existing.len() - 3]), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
