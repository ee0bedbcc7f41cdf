//! The files the benchmark reads: `BENCHMARK.json` (which metrics a run
//! reports in its result line, with their units and bounds) and `digests.json` (the
//! expected results at the default seed).

use std::path::{Path, PathBuf};

use bicord_sweep::json::{self, Json};

/// `BENCHMARK.json` at the repository root.
pub fn benchmark_json() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

/// `digests.json` next to this crate's manifest.
pub fn digests_json() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("digests.json")
}

fn read(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One metric `BENCHMARK.json` lists.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `"higher"` or `"lower"`.
    pub better: String,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark uses.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSpec {
    /// Workload names.
    pub workloads: Vec<String>,
    /// Metrics of untraced runs.
    pub end_to_end: Vec<MetricSpec>,
    /// Metrics of traced runs.
    pub per_layer: Vec<MetricSpec>,
}

impl BenchSpec {
    /// Reads and checks `path`.
    pub fn load(path: &Path) -> Result<BenchSpec, String> {
        let doc = read(path)?;
        let list = |key: &str| -> Result<&[Json], String> {
            doc.get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("BENCHMARK.json: `{key}` must be an array"))
        };
        let text = |item: &Json, key: &str| -> Result<String, String> {
            item.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: an entry lacks the string `{key}`"))
        };
        let metrics = |key: &str, bounded: bool| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let bound = if bounded {
                        let b = m.get("bound").and_then(Json::as_f64).ok_or_else(|| {
                            format!("BENCHMARK.json: `{key}` entries need a numeric `bound`")
                        })?;
                        Some(b)
                    } else {
                        None
                    };
                    Ok(MetricSpec {
                        name: text(m, "name")?,
                        unit: text(m, "unit")?,
                        better: text(m, "better")?,
                        bound,
                    })
                })
                .collect()
        };
        Ok(BenchSpec {
            workloads: list("workloads")?
                .iter()
                .map(|w| text(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end", true)?,
            per_layer: metrics("per_layer", false)?,
        })
    }

    /// The metrics a run with `trace` set (or not) reports in its result
    /// line.
    pub fn recorded(&self, trace: bool) -> &[MetricSpec] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// Expected result digests of one workload at the default seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// Digest of cell 0.
    pub first_cell: u64,
    /// Digest over every cell's digest, in order, for the default cell
    /// count.
    pub all_cells: u64,
}

/// Reads `workload`'s entry of a digests file.
pub fn load_expected(path: &Path, workload: &str) -> Result<Expected, String> {
    let doc = read(path)?;
    let entry = doc
        .get(workload)
        .ok_or_else(|| format!("{}: no entry for `{workload}`", path.display()))?;
    let hex = |key: &str| {
        entry
            .get(key)
            .and_then(Json::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or_else(|| {
                format!(
                    "{}: `{workload}.{key}` must be a hex string",
                    path.display()
                )
            })
    };
    Ok(Expected {
        first_cell: hex("first_cell")?,
        all_cells: hex("all_cells")?,
    })
}
