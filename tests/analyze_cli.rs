//! CLI-level contract of `bicord analyze` (the acceptance surface the
//! CI gates call): exit codes, breach naming, bless round-trip.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bicord(args: &[&str], cwd: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bicord"))
        .arg("analyze")
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("spawn bicord analyze")
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bicord-analyze-cli-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// A `--rules` file gating the `_ns` latency columns at +25% (`nocull`
/// contrast columns exempt) ahead of the default floors. The default
/// rules gate no host timing, so `max_regression_pct` is exercised here.
const LATENCY_RULES: &str = r#"[
{"experiment": "dense_city_scaling", "metric": "_ns", "exclude": "nocull", "rule": "max_regression_pct", "limit": 25},
{"metric": "pdr", "rule": "max_drop_pct", "limit": 5},
{"metric": "quarantined_cells", "rule": "max_value", "limit": 0}
]
"#;

const BASELINE: &str = r#"[
{"experiment": "dense_city_scaling", "quick": true, "threads": 1, "cells": 3, "wall_ms": 150.0, "metrics": {"sensed_ns_100": 200.0, "sensed_nocull_ns_100": 400.0, "interference_ns_100": 180.0}},
{"experiment": "multi_node", "quick": true, "threads": 1, "cells": 6, "wall_ms": 16.0, "metrics": {"mean_aggregate_pdr": 0.92}}
]
"#;

/// The acceptance scenario: a synthetically-regressed results file must
/// make `bicord analyze diff-bench` exit non-zero and NAME the breached
/// metric.
#[test]
fn synthetic_regression_fails_naming_the_metric() {
    let dir = tmpdir("regressed");
    std::fs::write(dir.join("baseline.json"), BASELINE).unwrap();
    std::fs::write(dir.join("rules.json"), LATENCY_RULES).unwrap();
    // sensed_ns_100 regresses 2x; the exempt nocull column also moves.
    std::fs::write(
        dir.join("current.json"),
        BASELINE
            .replace("\"sensed_ns_100\": 200.0", "\"sensed_ns_100\": 400.0")
            .replace(
                "\"sensed_nocull_ns_100\": 400.0",
                "\"sensed_nocull_ns_100\": 4000.0",
            ),
    )
    .unwrap();
    let out = bicord(
        &[
            "diff-bench",
            "current.json",
            "--baseline",
            "baseline.json",
            "--rules",
            "rules.json",
        ],
        &dir,
    );
    assert_eq!(out.status.code(), Some(1), "regression must exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("FAIL"), "{stdout}");
    assert!(stdout.contains("sensed_ns_100"), "breach unnamed: {stdout}");
    assert!(
        !stdout.contains("sensed_nocull_ns_100: "),
        "exempt nocull metric wrongly gated: {stdout}"
    );
}

#[test]
fn within_budget_passes_and_writes_the_markdown_report() {
    let dir = tmpdir("pass");
    std::fs::write(dir.join("baseline.json"), BASELINE).unwrap();
    std::fs::write(dir.join("rules.json"), LATENCY_RULES).unwrap();
    // 10% regression: inside the +25% budget.
    std::fs::write(
        dir.join("current.json"),
        BASELINE.replace("\"sensed_ns_100\": 200.0", "\"sensed_ns_100\": 220.0"),
    )
    .unwrap();
    let out = bicord(
        &[
            "diff-bench",
            "current.json",
            "--baseline",
            "baseline.json",
            "--rules",
            "rules.json",
            "--out",
            "report.md",
        ],
        &dir,
    );
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let report = std::fs::read_to_string(dir.join("report.md")).expect("markdown report");
    assert!(report.contains("**PASS**"), "{report}");
    assert!(report.contains("| entry | metric |"), "{report}");
}

/// The default PDR floor plus a `max_value` ceiling, which only a
/// `--rules` file can supply.
const CEILING_RULES: &str = r#"[
{"metric": "pdr", "rule": "max_drop_pct", "limit": 5},
{"metric": "quarantined_cells", "rule": "max_value", "limit": 0}
]
"#;

#[test]
fn pdr_drop_and_quarantine_ceiling_breach() {
    let dir = tmpdir("floors");
    std::fs::write(dir.join("baseline.json"), BASELINE).unwrap();
    std::fs::write(dir.join("rules.json"), CEILING_RULES).unwrap();
    std::fs::write(
        dir.join("current.json"),
        BASELINE
            .replace(
                "\"mean_aggregate_pdr\": 0.92",
                "\"mean_aggregate_pdr\": 0.80",
            )
            .replace(
                "\"sensed_ns_100\": 200.0",
                "\"quarantined_cells\": 2, \"sensed_ns_100\": 200.0",
            ),
    )
    .unwrap();
    let out = bicord(
        &[
            "diff-bench",
            "current.json",
            "--baseline",
            "baseline.json",
            "--rules",
            "rules.json",
        ],
        &dir,
    );
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("mean_aggregate_pdr"), "{stdout}");
    assert!(stdout.contains("quarantined_cells"), "{stdout}");
}

#[test]
fn bless_round_trips_to_a_green_gate() {
    let dir = tmpdir("bless");
    // 2x regression vs. the old baseline...
    let current = BASELINE.replace("\"sensed_ns_100\": 200.0", "\"sensed_ns_100\": 400.0");
    std::fs::write(dir.join("baseline.json"), BASELINE).unwrap();
    std::fs::write(dir.join("current.json"), &current).unwrap();
    std::fs::write(dir.join("rules.json"), LATENCY_RULES).unwrap();
    let gate = [
        "diff-bench",
        "current.json",
        "--baseline",
        "baseline.json",
        "--rules",
        "rules.json",
    ];
    assert_eq!(bicord(&gate, &dir).status.code(), Some(1));
    let mut bless = gate.to_vec();
    bless.push("--bless");
    let out = bicord(&bless, &dir);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    // ...is green after blessing: the baseline now holds the current values.
    let out = bicord(&gate, &dir);
    assert_eq!(
        out.status.code(),
        Some(0),
        "blessed gate still red: {out:?}"
    );
}

#[test]
fn summarize_and_diff_trace_on_a_golden_trace() {
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/trace_seed1.jsonl");
    let golden = golden.to_str().unwrap();
    let dir = tmpdir("golden");

    // The committed golden trace must summarize with the CI-smoke
    // sections non-empty and exit 0.
    let out = bicord(
        &["summarize", golden, "--assert", "events,bursts,utilization"],
        &dir,
    );
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("event populations"), "{stdout}");

    // Identical files: exit 0. Tampered copy: exit 1.
    let out = bicord(&["diff-trace", golden, golden], &dir);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let tampered = dir.join("tampered.jsonl");
    std::fs::write(
        &tampered,
        std::fs::read_to_string(golden)
            .unwrap()
            .replace("\"seed\":1", "\"seed\":9"),
    )
    .unwrap();
    let out = bicord(&["diff-trace", golden, tampered.to_str().unwrap()], &dir);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("seed differs"), "{stdout}");

    // Usage errors are exit 2.
    let out = bicord(&["summarize", "no-such-file.jsonl"], &dir);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let out = bicord(&["frobnicate"], &dir);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

/// A record the reader cannot map onto its `TraceEvent` variant field
/// for field fails `summarize` with exit 2, naming the line and the
/// field or kind, instead of summarizing as zeros.
#[test]
fn malformed_records_are_errors_naming_the_line_and_field() {
    let dir = tmpdir("strict");
    let header = r#"{"schema":"bicord-trace/1","seed":1,"mode":"bicord","duration_us":800000}"#;
    for (record, needles) in [
        (
            r#"{"t_us":1000,"ev":"white_space"}"#,
            &["white_space", "missing field \"nav_us\""][..],
        ),
        (
            r#"{"t_us":1,"ev":"estimate","estimate_us":1,"rounds":"x","phase":"learning"}"#,
            &["estimate", "field \"rounds\"", "found \"x\""],
        ),
        (
            r#"{"t_us":1,"ev":"n_round","rounds":2,"note":"x"}"#,
            &["n_round", "unknown field \"note\""],
        ),
        (
            r#"{"t_us":1,"ev":"burst_complete","node":4294967296,"delivered":1,"failed":0}"#,
            &["burst_complete", "field \"node\"", "4294967296"],
        ),
        (
            r#"{"t_us":1,"ev":"estimate","estimate_us":1,"rounds":1,"phase":"frozen"}"#,
            &["field \"phase\"", "\"frozen\""],
        ),
        (
            r#"{"t_us":1,"ev":"re_estimate","reason":"boredom"}"#,
            &["field \"reason\"", "\"boredom\""],
        ),
        (
            r#"{"t_us":1,"ev":"guard_conservation","invariant":"x","expected":1,"actual":2}"#,
            &["field \"invariant\"", "\"x\""],
        ),
        (
            r#"{"t_us":1,"ev":"dequeue","kind":"timer"}"#,
            &["dequeue", "summary trailer"],
        ),
    ] {
        let trace = dir.join("bad.jsonl");
        std::fs::write(&trace, format!("{header}\n{record}\n")).unwrap();
        let out = bicord(&["summarize", trace.to_str().unwrap()], &dir);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{record}: {stderr}");
        assert!(stderr.contains("line 2"), "{record}: {stderr}");
        for needle in needles {
            assert!(stderr.contains(needle), "{record}: {stderr} lacks {needle}");
        }
    }
}

/// A header with an unknown, missing or mistyped key fails `summarize`
/// with exit 2, naming the key, instead of summarizing the records.
#[test]
fn malformed_headers_are_errors_naming_the_key() {
    let dir = tmpdir("strict-header");
    let record = r#"{"t_us":1,"ev":"reservation","ws_us":30000}"#;
    for (header, needle) in [
        (
            r#"{"schema":"bicord-trace/1","seed":1,"mode":"x","duration_us":5,"bogus":1}"#,
            "unknown field \"bogus\"",
        ),
        (
            r#"{"schema":"bicord-trace/1","mode":"x","duration_us":5}"#,
            "missing field \"seed\"",
        ),
        (
            r#"{"schema":"bicord-trace/1","seed":1,"mode":"x","duration_us":-5}"#,
            "field \"duration_us\"",
        ),
    ] {
        let trace = dir.join("bad-header.jsonl");
        std::fs::write(&trace, format!("{header}\n{record}\n")).unwrap();
        let out = bicord(&["summarize", trace.to_str().unwrap()], &dir);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{header}: {stderr}");
        assert!(stderr.contains("line 1"), "{header}: {stderr}");
        assert!(stderr.contains(needle), "{header}: {stderr} lacks {needle}");
    }
}

/// A truncated baseline must fail the gate as an unreadable file (exit
/// 2, naming it), not pass on the entries that survived the cut.
#[test]
fn truncated_baseline_is_an_error_not_a_pass() {
    let dir = tmpdir("truncated");
    let repo = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let baseline = std::fs::read_to_string(repo.join("scripts/bench_baseline.json")).unwrap();
    let current = baseline.replace(
        "\"mean_aggregate_pdr\": 0.9242801095565918",
        "\"mean_aggregate_pdr\": 0.5",
    );
    assert_ne!(current, baseline, "the PDR edit must apply");
    std::fs::write(dir.join("current.json"), &current).unwrap();
    std::fs::write(dir.join("baseline.json"), &baseline).unwrap();
    std::fs::write(dir.join("cut.json"), &baseline[..baseline.len() / 2]).unwrap();

    let out = bicord(
        &["diff-bench", "current.json", "--baseline", "baseline.json"],
        &dir,
    );
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("mean_aggregate_pdr"));

    let out = bicord(
        &["diff-bench", "current.json", "--baseline", "cut.json"],
        &dir,
    );
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cut.json"), "{stderr}");
    assert!(stderr.contains("json parse error"), "{stderr}");
    assert!(!String::from_utf8_lossy(&out.stdout).contains("PASS"));

    // The same holds for a truncated CURRENT file.
    std::fs::write(dir.join("cut_current.json"), &current[..current.len() / 2]).unwrap();
    let out = bicord(
        &[
            "diff-bench",
            "cut_current.json",
            "--baseline",
            "baseline.json",
        ],
        &dir,
    );
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("cut_current.json"));
}

/// A gated baseline metric that the current file lacks — renamed, or its
/// whole experiment no longer recorded — fails the gate naming the entry
/// and the metric instead of silently dropping the floor.
#[test]
fn missing_gated_metric_or_entry_is_a_breach() {
    let dir = tmpdir("missing");
    let repo = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let baseline = std::fs::read_to_string(repo.join("scripts/bench_baseline.json")).unwrap();
    std::fs::write(dir.join("baseline.json"), &baseline).unwrap();
    let diff = |current: &str| {
        std::fs::write(dir.join("current.json"), current).unwrap();
        bicord(
            &["diff-bench", "current.json", "--baseline", "baseline.json"],
            &dir,
        )
    };
    assert_eq!(diff(&baseline).status.code(), Some(0), "self-diff is green");

    let renamed = baseline.replace("\"worst_rate_pdr\"", "\"worst_pdr\"");
    assert_ne!(renamed, baseline, "the rename must apply");
    let out = diff(&renamed);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("robustness_sweep:quick/worst_rate_pdr: 0.9 -> missing"),
        "{stdout}"
    );

    let lines: Vec<&str> = baseline.lines().collect();
    let multi_node = lines
        .iter()
        .find(|l| l.contains("\"multi_node\""))
        .expect("baseline gates multi_node");
    let out = diff(&format!("[\n{}\n]\n", multi_node.trim_end_matches(',')));
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for metric in ["baseline_pdr", "worst_rate_pdr", "worst_rate_utilization"] {
        assert!(
            stdout.contains(&format!("robustness_sweep:quick/{metric}: ")),
            "{metric} unnamed: {stdout}"
        );
    }
}

/// A rules file must be one valid JSON array: a stray fragment is an
/// error naming the file rather than a partially applied rule set.
#[test]
fn malformed_rules_file_is_an_error() {
    let dir = tmpdir("rules");
    std::fs::write(dir.join("baseline.json"), BASELINE).unwrap();
    std::fs::write(
        dir.join("rules.json"),
        r#"[{"metric": "_ns", "rule": "max_regression_pct", "limit": 25}"#,
    )
    .unwrap();
    let out = bicord(
        &[
            "diff-bench",
            "baseline.json",
            "--baseline",
            "baseline.json",
            "--rules",
            "rules.json",
        ],
        &dir,
    );
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("rules.json"));
}
