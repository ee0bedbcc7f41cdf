//! The JSONL trace contract (docs/OBSERVABILITY.md): schema-versioned
//! header, deterministic body, summary trailer — byte-identical across
//! seeds-equal runs, worker-thread counts, and sessions (golden files) —
//! and read back by `TraceFile` into records that write the same bytes.
//!
//! Regenerate the golden files after an intentional simulation change
//! with `BICORD_BLESS=1 cargo test --test trace_schema`.

use std::path::PathBuf;

use bicord::prelude::*;
use bicord::sim::json;
use bicord::sim::obs::TraceFile;
use bicord::sim::par::parallel_map_threads;
use bicord::sweep::registry::coexist_config;
use bicord::sweep::{ScenarioRegistry, SweepSpec};

const GOLDEN_SEEDS: [u64; 2] = [1, 2];

fn golden_path(seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("trace_seed{seed}.jsonl"))
}

fn short_config(seed: u64) -> SimConfig {
    SimConfig {
        duration: SimDuration::from_millis(800),
        ..SimConfig::bicord(Location::A, seed)
    }
}

/// Runs one traced simulation and returns the trace file's bytes.
fn trace_bytes(seed: u64, tag: &str) -> Vec<u8> {
    let dir = std::env::temp_dir().join(format!("bicord-trace-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("seed{seed}-{tag}.jsonl"));
    let config = short_config(seed);
    let header = TraceHeader::new(config.seed, "bicord", config.duration.as_micros());
    let mut sink = JsonlSink::create(&path, &header).expect("create trace");
    CoexistenceSim::with_sink(config, &mut sink)
        .expect("valid config")
        .run();
    sink.finish().expect("finish trace");
    let bytes = std::fs::read(&path).expect("read trace back");
    std::fs::remove_file(&path).ok();
    bytes
}

#[test]
fn traces_match_golden_files() {
    let bless = std::env::var("BICORD_BLESS").is_ok();
    for seed in GOLDEN_SEEDS {
        let bytes = trace_bytes(seed, "golden");
        let golden = golden_path(seed);
        if bless {
            std::fs::create_dir_all(golden.parent().unwrap()).unwrap();
            std::fs::write(&golden, &bytes).unwrap();
            continue;
        }
        let expected = std::fs::read(&golden).unwrap_or_else(|e| {
            panic!(
                "missing golden file {} ({e}); regenerate with BICORD_BLESS=1",
                golden.display()
            )
        });
        assert_eq!(
            bytes,
            expected,
            "seed {seed} trace drifted from {} — if the simulation change \
             is intentional, re-bless with BICORD_BLESS=1",
            golden.display()
        );
    }
}

#[test]
fn traces_are_identical_across_worker_thread_counts() {
    // The traced run itself is one serial simulation, but it must produce
    // the same bytes no matter how wide the surrounding parallel harness
    // runs (the paper figures are regenerated under BICORD_THREADS=N).
    let serial = parallel_map_threads(1, vec![7u64], |seed| trace_bytes(seed, "t1"));
    let wide = parallel_map_threads(4, vec![7u64], |seed| trace_bytes(seed, "t4"));
    assert_eq!(serial[0], wide[0], "trace bytes depend on thread count");
}

#[test]
fn trace_file_structure_is_well_formed() {
    let bytes = trace_bytes(3, "structure");
    let text = String::from_utf8(bytes).expect("traces are UTF-8");
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() >= 3, "header + events + trailer expected");

    // Line 1: schema-versioned header that round-trips through parse().
    let header = TraceHeader::parse(lines[0]).expect("header line parses");
    assert_eq!(header.schema, TRACE_SCHEMA);
    assert_eq!(header.seed, 3);
    assert_eq!(header.duration_us, 800_000);

    // Every line is one JSON object, no pretty-printing.
    for line in &lines {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "bad line: {line}"
        );
    }

    // Last line: the summary trailer with the event count and the
    // aggregated dequeue histogram.
    let trailer = lines.last().unwrap();
    assert!(
        trailer.starts_with("{\"summary\":true"),
        "trailer: {trailer}"
    );
    assert!(trailer.contains("\"events\":"), "trailer: {trailer}");
    assert!(trailer.contains("\"dequeues\":{"), "trailer: {trailer}");

    // Body events are in non-decreasing time order.
    let mut last_t = 0u64;
    for line in &lines[1..lines.len() - 1] {
        let t: u64 = line
            .split("\"t_us\":")
            .nth(1)
            .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
            .and_then(|d| d.parse().ok())
            .unwrap_or_else(|| panic!("no t_us in line: {line}"));
        assert!(t >= last_t, "time went backwards: {line}");
        last_t = t;
    }
}

#[test]
fn header_round_trips_and_rejects_unknown_schema() {
    let header = TraceHeader::new(99, "ecc", 1_234_567);
    let parsed = TraceHeader::parse(&header.to_json()).expect("round trip");
    assert_eq!(parsed.schema, TRACE_SCHEMA);
    assert_eq!(parsed.seed, 99);
    assert_eq!(parsed.mode, "ecc");
    assert_eq!(parsed.duration_us, 1_234_567);

    let alien = header.to_json().replace(TRACE_SCHEMA, "bicord-trace/999");
    assert!(TraceHeader::parse(&alien).is_err());
    assert!(TraceHeader::parse("not json").is_err());
}

/// Writes `event` as a line, reads it back and writes it again.
fn rewrite(event: &TraceEvent) -> (String, String) {
    let mut line = String::new();
    event.write_jsonl(&mut line);
    let doc = json::parse(&line).expect("a written line is JSON");
    let parsed = TraceEvent::from_json(&doc).unwrap_or_else(|e| panic!("{line}: {e}"));
    let mut again = String::new();
    parsed.write_jsonl(&mut again);
    (line, again)
}

/// Every record line and the trailer of both golden traces read back as
/// a `TraceEvent` / `TraceSummary` and write out as the same bytes.
#[test]
fn golden_lines_read_back_and_rewrite_byte_for_byte() {
    for seed in GOLDEN_SEEDS {
        let text = std::fs::read_to_string(golden_path(seed)).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let file = TraceFile::parse(&text).expect("a golden trace parses");
        assert_eq!(file.records.len(), lines.len() - 2, "seed {seed}");
        for (event, line) in file.records.iter().zip(&lines[1..]) {
            let mut out = String::new();
            event.write_jsonl(&mut out);
            assert_eq!(out, *line, "seed {seed}");
        }
        let trailer = file.summary.expect("a golden trace has a trailer");
        assert_eq!(trailer.to_json(), *lines.last().unwrap(), "seed {seed}");
    }
}

/// Every record but the dequeues of a live `coexist` run with injected
/// faults and a second ZigBee node reads back and writes out the same.
#[test]
fn live_records_with_faults_and_an_extra_node_read_back() {
    let spec = SweepSpec::parse(
        r#"{"scenario": "coexist", "seed": 7, "params": {"seconds": 3, "extra_nodes": "D:3:500",
            "fault_profile": "control-loss=0.5,cts-loss=0.2,csi-fp=0.05,churn-ms=500,churn-m=2"}}"#,
    );
    let cell = (ScenarioRegistry::builtin().resolve(&spec.unwrap()))
        .unwrap()
        .expand()
        .remove(0);
    let mut sink = VecSink::new();
    CoexistenceSim::with_sink(coexist_config(&cell).unwrap(), &mut sink)
        .expect("valid config")
        .run();
    let mut kinds = Vec::new();
    for event in &sink.events {
        if let TraceEvent::Dequeue { .. } = event {
            continue;
        }
        let (line, again) = rewrite(event);
        assert_eq!(again, line);
        if !kinds.contains(&event.kind()) {
            kinds.push(event.kind());
        }
    }
    kinds.sort_by_key(|kind| TraceEvent::KINDS.iter().position(|k| k == kind));
    // The kinds this run emitted (no mobility, so no medium stats; no
    // stall or overdue burst, so no guard records).
    assert_eq!(
        kinds,
        [
            "csi_classified",
            "detection",
            "channel_request",
            "reservation",
            "white_space",
            "n_round",
            "estimate",
            "re_estimate",
            "burst_complete",
            "packet_delivered",
            "fault_control_lost",
            "fault_cts_lost",
            "fault_phantom_csi",
            "fault_churn",
            "signaling_backoff",
        ]
    );
}
