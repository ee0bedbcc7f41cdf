//! The correctness gate: a wrong expected digest fails the whole
//! workload, a metric without a value makes the result incorrect, and
//! set-up errors exit without a result line.

use std::process::Command;

use bicord_benchmark::measure::{self, Metric, Options, Report};
use bicord_benchmark::spec::{benchmark_json, digests_json, load_expected, BenchSpec, Expected};
use bicord_benchmark::workload::Workload;
use bicord_sweep::json::{self, Json};

fn spec() -> BenchSpec {
    BenchSpec::load(&benchmark_json()).expect("BENCHMARK.json loads")
}

fn result_of(line: &str) -> Json {
    json::parse(line).expect("JSON result")
}

#[test]
fn a_corrupted_digest_fails_every_cell_and_the_result() {
    let w = Workload::OfficeBicord;
    let good = load_expected(&digests_json(), w.name()).expect("committed digests");
    let corrupted = Expected {
        first_cell: !good.first_cell,
        ..good
    };
    let mut opts = Options::new(w, corrupted);
    opts.cells = 3;
    opts.rounds = 1;
    let report = measure::run(&opts);
    assert_eq!((report.attempted, report.failed), (3, 3));
    let fail_ratio = report.metrics.iter().find(|m| m.name == "fail_ratio");
    assert_eq!(fail_ratio.and_then(|m| m.value), Some(1.0));
    let spec = spec();
    assert!(!report.correct(spec.recorded(false)));
    let line = report.json_line(spec.recorded(false));
    assert!(line.contains("\"correct\": false"), "{line}");
    let result = result_of(&line);
    assert_eq!(result.get("attempted").and_then(Json::as_i64), Some(3));
    assert_eq!(result.get("failed").and_then(Json::as_i64), Some(3));
}

#[test]
fn a_metric_without_a_value_is_null_and_the_result_incorrect() {
    let spec = spec();
    let recorded = spec.recorded(true);
    // Every cell of a traced run failed: no dispatch was measured, and
    // the overhead is 0/0.
    let report = Report {
        workload: Workload::OfficeBicord,
        metrics: vec![Metric {
            name: "trace.overhead_pct".to_string(),
            value: Some(f64::NAN),
            unit: "%",
        }],
        notes: Vec::new(),
        attempted: 10,
        failed: 10,
    };
    assert_eq!(report.unrecorded(recorded).len(), recorded.len());
    assert!(!report.correct(recorded));
    let result = result_of(&report.json_line(recorded));
    assert_eq!(result.get("correct"), Some(&Json::Bool(false)));
    assert_eq!(result.get("failed").and_then(Json::as_i64), Some(10));
    let metrics = result
        .get("metrics")
        .and_then(Json::as_object)
        .expect("metrics object");
    assert_eq!(metrics.len(), recorded.len());
    for (name, metric) in metrics {
        assert_eq!(metric.get("value"), Some(&Json::Null), "{name}");
    }
}

#[test]
fn set_up_errors_exit_without_a_result() {
    for args in [
        vec!["--workload", "no_such_workload"],
        vec!["--seconds", "soon"],
        vec!["--rounds", "0"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_bicord-benchmark"))
            .args(&args)
            .output()
            .expect("benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
