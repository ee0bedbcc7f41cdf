//! Tiny-mode runs of every workload through the binary, and the shape of
//! `BENCHMARK.json` itself.

use std::process::Command;

use bicord_benchmark::spec::{benchmark_json, BenchSpec};
use bicord_benchmark::workload::Workload;
use bicord_sweep::json::{self, Json};

/// The end-to-end metrics every untraced run prints, whether or not
/// `BENCHMARK.json` lists them.
const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("cell_ms_p50", "ms"),
    ("cell_ms_tail", "ms"),
    ("events_per_s", "1/s"),
    ("sim_speedup", "s/s"),
    ("peak_rss_mb", "MiB"),
    ("fail_ratio", "ratio"),
    ("utilization", "ratio"),
    ("zigbee_delay_ms", "ms"),
    ("zigbee_pdr", "ratio"),
];

fn tiny_run(w: Workload, trace: bool) -> String {
    let trace = if trace { "1" } else { "0" };
    let out = Command::new(env!("CARGO_BIN_EXE_bicord-benchmark"))
        .args(["--workload", w.name(), "--cells", "3", "--rounds", "1"])
        .args(["--trace", trace])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{} --trace {trace} failed:\n{stdout}",
        w.name()
    );
    stdout
}

/// The fields of the one `workload metric value unit` line naming `metric`.
fn metric_fields<'a>(stdout: &'a str, w: Workload, metric: &str) -> Vec<&'a str> {
    let lines: Vec<&str> = stdout
        .lines()
        .filter(|l| l.split_whitespace().nth(1) == Some(metric))
        .collect();
    assert_eq!(
        lines.len(),
        1,
        "{} prints `{metric}` {} times:\n{stdout}",
        w.name(),
        lines.len()
    );
    let fields: Vec<&str> = lines[0].split_whitespace().collect();
    assert_eq!(fields.len(), 4, "{}", lines[0]);
    assert_eq!(fields[0], w.name());
    fields
}

#[test]
fn every_recorded_metric_is_printed_once_with_its_unit() {
    let spec = BenchSpec::load(&benchmark_json()).expect("BENCHMARK.json loads");
    for w in Workload::ALL {
        for trace in [false, true] {
            let stdout = tiny_run(w, trace);
            for m in spec.recorded(trace) {
                let fields = metric_fields(&stdout, w, &m.name);
                assert_eq!(fields[3], m.unit, "{} `{}`", w.name(), m.name);
                assert!(fields[2].parse::<f64>().is_ok(), "{}", fields[2]);
            }
            if !trace {
                for (name, unit) in END_TO_END {
                    assert_eq!(metric_fields(&stdout, w, name)[3], unit);
                }
            }
            let result = json::parse(stdout.lines().last().expect("output")).expect("JSON result");
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(result.get("attempted").and_then(Json::as_i64), Some(3));
            assert_eq!(result.get("failed").and_then(Json::as_i64), Some(0));
            let recorded: Vec<&str> = result
                .get("metrics")
                .and_then(Json::as_object)
                .expect("metrics object")
                .iter()
                .map(|(name, _)| name.as_str())
                .collect();
            let expected: Vec<&str> = spec
                .recorded(trace)
                .iter()
                .map(|m| m.name.as_str())
                .collect();
            assert_eq!(recorded, expected);
        }
    }
}

#[test]
fn benchmark_json_stays_within_its_limits() {
    let spec = BenchSpec::load(&benchmark_json()).expect("BENCHMARK.json loads");
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(spec.workloads, names);
    let valid = |s: &str, extra: &str| {
        !s.is_empty()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c) || extra.contains(c))
    };
    let mut seen = Vec::new();
    for m in spec.end_to_end.iter().chain(&spec.per_layer) {
        assert!(valid(&m.name, "") && m.name.len() <= 64, "{}", m.name);
        assert!(valid(&m.unit, "/%") && m.unit.len() <= 16, "{}", m.unit);
        assert!(m.better == "higher" || m.better == "lower", "{}", m.name);
        assert!(!seen.contains(&&m.name), "{} listed twice", m.name);
        seen.push(&m.name);
    }
    let bounds: Vec<f64> = spec.end_to_end.iter().filter_map(|m| m.bound).collect();
    assert_eq!(bounds.len(), spec.end_to_end.len());
    assert!(bounds.iter().all(|b| (0.0..=0.25).contains(b)));
    let setup = spec
        .end_to_end
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
    assert!(bounds.iter().all(|b| *b <= setup.bound.unwrap()));
}
