//! End-to-end: a live traced simulation (real scenario wiring, real
//! `JsonlSink`) must flow through parse → analytics → render without a
//! synthetic fixture in between, and byte-identical traces must diff
//! clean.

use bicord_analyze::diff::diff_traces;
use bicord_analyze::summarize::{Analytics, SummarizeOptions};
use bicord_scenario::config::SimConfig;
use bicord_scenario::geometry::Location;
use bicord_scenario::sim::CoexistenceSim;
use bicord_sim::obs::{JsonlSink, TraceFile, TraceHeader};
use bicord_sim::SimDuration;

/// Runs one short traced simulation and parses the trace back.
fn traced_run(seed: u64, tag: &str) -> TraceFile {
    let dir = std::env::temp_dir().join(format!("bicord-analyze-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("seed{seed}-{tag}.jsonl"));
    let config = SimConfig {
        duration: SimDuration::from_millis(800),
        ..SimConfig::bicord(Location::A, seed)
    };
    let header = TraceHeader::new(config.seed, "bicord", config.duration.as_micros());
    let mut sink = JsonlSink::create(&path, &header).expect("create trace");
    CoexistenceSim::with_sink(config, &mut sink)
        .expect("valid config")
        .run();
    sink.finish().expect("finish trace");
    let trace = TraceFile::read(&path).expect("the analyzer must consume a live trace");
    std::fs::remove_file(&path).ok();
    trace
}

#[test]
fn live_trace_summarizes_with_content() {
    let trace = traced_run(42, "summarize");
    assert!(trace.summary.is_some(), "sink wrote no summary trailer");
    let analytics = Analytics::compute(&trace, &SummarizeOptions::default());
    // The smoke-gate sections CI asserts on must be non-empty for a
    // plain traced run.
    for section in ["events", "bursts", "utilization"] {
        assert_eq!(
            analytics.section_nonempty(section),
            Some(true),
            "section {section} empty for a live run"
        );
    }
    let text = analytics.render_text(&trace);
    assert!(text.contains("event populations"), "{text}");
    // Deterministic render: computing twice gives identical bytes.
    assert_eq!(
        analytics.render_json(&trace),
        Analytics::compute(&trace, &SummarizeOptions::default()).render_json(&trace)
    );
}

#[test]
fn equal_seeds_diff_identical_and_unequal_seeds_differ() {
    let a = traced_run(42, "diff-a");
    let b = traced_run(42, "diff-b");
    let diff = diff_traces(&a, &b);
    assert!(
        diff.identical(),
        "seeds-equal runs must diff IDENTICAL:\n{}",
        diff.render_text("a", "b")
    );
    let c = traced_run(43, "diff-c");
    assert!(!diff_traces(&a, &c).identical(), "seed change went unseen");
}
