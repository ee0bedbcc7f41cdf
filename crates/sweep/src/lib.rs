//! # bicord-sweep
//!
//! The sharded, resumable sweep contract and the declarative scenario
//! registry.
//!
//! Reproducing the paper's evaluation — and the dense-city and
//! robustness studies beyond it — is sweep-shaped work: a grid of
//! independent `(parameters, seed)` cells. This crate turns that shape
//! into a serializable contract so a sweep can fan out beyond one
//! process and restart cheaply after failures:
//!
//! * [`SweepSpec`] — scenario name + parameter grid + seed +
//!   replicates, loadable from a JSON file; deterministically expands
//!   into ordered [`Cell`]s ([`contract`]).
//! * [`ScenarioRegistry`] — each scenario registers a name, a typed
//!   parameter schema, and a `run(cell) -> metrics` closure
//!   ([`registry`]). `coexist` (the `bicord` flags as axes),
//!   `dense_city` and `cti_accuracy` are built in.
//! * [`Shard`] — round-robin partition of cells into independent work
//!   units ([`shard`]); `bicord sweep --spec FILE --shard K/N` runs one.
//! * [`artifact`] — per-shard JSON artifacts under content-addressed
//!   keys (FNV-1a of spec + shard), self-validating for resume.
//! * [`runner`] — [`run_shard`], the one shard runner (`bicord sweep`
//!   calls it): each cell runs once under `catch_unwind`, a panicked or
//!   guard-stalled cell is quarantined while the shard completes,
//!   resume re-runs only missing, corrupt or quarantined cells, and the
//!   `merge` reduce's output is **byte-identical** to a single-process
//!   run of the same cells; plus the fail-fast [`run_cells`] for
//!   in-process grids.
//!
//! # Example
//!
//! ```
//! use bicord_sweep::{ParamKind, ParamSpec, ParamValue, Scenario,
//!                    ScenarioRegistry, Shard, SweepSpec};
//!
//! let mut registry = ScenarioRegistry::new();
//! registry.register(Scenario::new(
//!     "square",
//!     "squares its input",
//!     vec![ParamSpec {
//!         name: "x",
//!         kind: ParamKind::Int,
//!         default: None,
//!         help: "the number to square",
//!     }],
//!     |cell| {
//!         let x = cell.int("x")?;
//!         Ok(vec![("square".to_string(), (x * x) as f64)])
//!     },
//! ));
//!
//! let spec = registry
//!     .resolve(&SweepSpec::new("square", 7, 1).axis(
//!         "x",
//!         vec![ParamValue::Int(2), ParamValue::Int(3)],
//!     ))
//!     .unwrap();
//! let cells = spec.expand();
//! assert_eq!(cells.len(), 2);
//! let shard = Shard::parse("2/2").unwrap();
//! assert!(cells.iter().any(|c| shard.contains(c.id)));
//! let row = registry.run_cell("square", &cells[1]).unwrap();
//! assert_eq!(row.metric("square"), Some(9.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod contract;
pub mod registry;
pub mod runner;
pub mod shard;

/// The JSON codec, re-exported from its home in `bicord_sim`.
pub use bicord_sim::json;

pub use artifact::{QuarantineRecord, ShardContents};
pub use contract::{Cell, ParamKind, ParamValue, ResultRow, SweepSpec};
pub use registry::{ParamSpec, Scenario, ScenarioRegistry};
pub use runner::{merge, run_cells, run_shard, ShardOutcome};
pub use shard::{shard_index, Shard};

use bicord_metrics::TextTable;

/// Everything that can go wrong driving a sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// Reading/writing a spec or artifact failed.
    Io(String),
    /// A spec or artifact document did not parse.
    Parse(String),
    /// The spec names a scenario the registry does not have.
    UnknownScenario {
        /// The requested name.
        name: String,
        /// The names that are registered.
        known: Vec<String>,
    },
    /// A parameter failed schema validation.
    Param(String),
    /// One cell's run closure reported an error.
    Cell {
        /// The failing cell id.
        cell: u64,
        /// The scenario's error message.
        message: String,
    },
    /// An artifact exists but is unusable.
    Artifact(String),
    /// A merge found shards missing or invalid.
    IncompleteSweep {
        /// One line per problem shard.
        problems: Vec<String>,
    },
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Io(e) => write!(f, "io: {e}"),
            SweepError::Parse(e) => write!(f, "parse: {e}"),
            SweepError::UnknownScenario { name, known } => write!(
                f,
                "unknown scenario \"{name}\" (registered: {})",
                known.join(", ")
            ),
            SweepError::Param(e) => write!(f, "parameter: {e}"),
            SweepError::Cell { cell, message } => write!(f, "cell {cell}: {message}"),
            SweepError::Artifact(e) => write!(f, "artifact: {e}"),
            SweepError::IncompleteSweep { problems } => {
                write!(f, "sweep incomplete: {}", problems.join("; "))
            }
        }
    }
}

impl std::error::Error for SweepError {}

/// Loads and parses a spec file.
pub fn load_spec(path: &std::path::Path) -> Result<SweepSpec, SweepError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| SweepError::Io(format!("reading {}: {e}", path.display())))?;
    SweepSpec::parse(&text).map_err(SweepError::Parse)
}

/// Renders result rows as a text table: one column per parameter, then
/// one per metric, in first-appearance order; cells a row lacks show
/// `-`. NaN metrics (e.g. "no packets delivered") also show `-`.
pub fn rows_table(title: &str, rows: &[ResultRow]) -> TextTable {
    let mut columns: Vec<String> = vec!["cell".to_string(), "seed".to_string()];
    for row in rows {
        for (name, _) in &row.params {
            if !columns.contains(name) {
                columns.push(name.clone());
            }
        }
    }
    let first_metric = columns.len();
    for row in rows {
        for (name, _) in &row.metrics {
            if !columns.contains(name) {
                columns.push(name.clone());
            }
        }
    }
    let mut table = TextTable::new(columns.iter().map(String::as_str).collect());
    table.title(title);
    for row in rows {
        let mut cells = vec![row.cell.to_string(), row.seed.to_string()];
        for name in &columns[2..first_metric] {
            let value = row
                .params
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v.to_string())
                .unwrap_or_else(|| "-".to_string());
            cells.push(value);
        }
        for name in &columns[first_metric..] {
            let value = match row.metric(name) {
                Some(v) if v.is_finite() => format_metric(v),
                _ => "-".to_string(),
            };
            cells.push(value);
        }
        table.row(cells);
    }
    table
}

/// Human-oriented metric formatting: integers print bare, small
/// fractions keep enough precision to be useful.
fn format_metric(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_useful_messages() {
        let e = SweepError::UnknownScenario {
            name: "warp".to_string(),
            known: vec!["coexist".to_string()],
        };
        assert!(e.to_string().contains("warp"));
        assert!(e.to_string().contains("coexist"));
        let e = SweepError::IncompleteSweep {
            problems: vec!["shard 1/2: missing".to_string()],
        };
        assert!(e.to_string().contains("shard 1/2"));
    }

    #[test]
    fn rows_table_unions_columns() {
        let rows = vec![
            ResultRow {
                cell: 0,
                seed: 1,
                replicate: 0,
                params: vec![("n".to_string(), ParamValue::Int(1))],
                metrics: vec![("pdr".to_string(), 0.5), ("pdr_node_0".to_string(), 1.0)],
            },
            ResultRow {
                cell: 1,
                seed: 1,
                replicate: 0,
                params: vec![("n".to_string(), ParamValue::Int(2))],
                metrics: vec![("pdr".to_string(), f64::NAN)],
            },
        ];
        let rendered = rows_table("demo", &rows).to_string();
        assert!(rendered.contains("pdr_node_0"), "{rendered}");
        assert!(rendered.contains('-'), "{rendered}");
    }

    #[test]
    fn metric_formatting_is_reasonable() {
        assert_eq!(format_metric(3.0), "3");
        assert_eq!(format_metric(0.9951), "0.9951");
        assert_eq!(format_metric(123.456), "123.5");
    }
}
