//! Every file parser returns `Ok` or `Err` on malformed input and never
//! panics: JSON, trace headers and files, bench results, budget rules,
//! sweep specs, and shard and quarantine artifacts.
//!
//! Inputs are random bytes plus mutations of real documents — a golden
//! trace, the committed bench baseline, the rules example from
//! `docs/ANALYTICS.md`, every `specs/*_quick.json`, and freshly rendered
//! shard and quarantine artifacts: truncation, deletion, duplication and
//! substitution of JSON structural bytes.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use bicord::analyze::bench::{parse_bench_file, parse_rules};
use bicord::sim::json;
use bicord::sim::obs::{TraceFile, TraceHeader};
use bicord::sweep::artifact::{read_quarantine, read_shard, render_quarantine, render_shard};
use bicord::sweep::{ParamValue, QuarantineRecord, ResultRow, Shard, SweepSpec};
use proptest::prelude::*;

fn repo_file(relative: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(relative);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn spec() -> SweepSpec {
    SweepSpec::parse(&repo_file("specs/robustness_quick.json")).expect("committed spec parses")
}

/// The valid documents the mutation test starts from.
fn seed_documents() -> Vec<String> {
    let analytics = repo_file("docs/ANALYTICS.md");
    let rules = analytics
        .split("```json\n")
        .nth(1)
        .and_then(|rest| rest.split("```").next())
        .expect("docs/ANALYTICS.md holds a rules example")
        .to_string();
    let spec = spec();
    let row = ResultRow {
        cell: 1,
        seed: 20_210_706,
        replicate: 0,
        params: vec![("seconds".to_string(), ParamValue::Int(2))],
        metrics: vec![("pdr".to_string(), 0.9), ("gone".to_string(), f64::NAN)],
    };
    let quarantine = QuarantineRecord {
        cell: 2,
        seed: 20_210_707,
        replicate: 0,
        cause: "panic".to_string(),
        message: "a \"quoted\" \\ message".to_string(),
    };
    let trace = repo_file("tests/golden/trace_seed1.jsonl");
    let lines: Vec<&str> = trace.lines().collect();
    // A short trace keeps mutations dense around the header and trailer.
    let short_trace = [&lines[..4], &lines[lines.len() - 1..]].concat().join("\n");
    let mut docs = vec![
        trace.clone(),
        short_trace,
        repo_file("scripts/bench_baseline.json"),
        rules,
        render_shard(&spec, Shard::SINGLE, &[row], &[2]),
        render_quarantine(&spec, &quarantine),
    ];
    for name in ["cti_accuracy", "dense_city", "multi_node", "robustness"] {
        docs.push(repo_file(&format!("specs/{name}_quick.json")));
    }
    docs
}

/// Applies mutations encoded as byte quadruples `(op, pos_hi, pos_lo,
/// arg)` to `doc`: truncation, deletion, duplication, substitution or
/// insertion of a structural byte, and substitution of a digit, which
/// turns counts into negative, fractional or exponent numbers.
fn mutate(doc: &[u8], program: &[u8]) -> Vec<u8> {
    const STRUCTURAL: &[u8] = b"{}[]\":,\\-.0e \n";
    const NUMERIC: &[u8] = b"-.e9";
    let mut out = doc.to_vec();
    for step in program.chunks_exact(4) {
        let at = |len: usize| (usize::from(step[1]) << 8 | usize::from(step[2])) * len / 65_536;
        let arg = usize::from(step[3]);
        let pos = at(out.len());
        match step[0] % 6 {
            0 => out.truncate(pos),
            1 => {
                out.drain(pos..(pos + arg % 16 + 1).min(out.len()));
            }
            2 => {
                let copy = out[pos..(pos + arg + 1).min(out.len())].to_vec();
                out.splice(pos..pos, copy);
            }
            3 if pos < out.len() => out[pos] = STRUCTURAL[arg % STRUCTURAL.len()],
            4 => {
                let digits: Vec<usize> = (0..out.len())
                    .filter(|&i| out[i].is_ascii_digit())
                    .collect();
                if !digits.is_empty() {
                    out[digits[at(digits.len())]] = NUMERIC[arg % NUMERIC.len()];
                }
            }
            _ => out.insert(pos, STRUCTURAL[arg % STRUCTURAL.len()]),
        }
    }
    out
}

/// Feeds `bytes` to every parser. Each must return; none may panic.
fn feed_every_parser(bytes: &[u8], scratch: &Path) {
    let text = String::from_utf8_lossy(bytes);
    let _ = json::parse(&text);
    let _ = TraceHeader::parse(text.lines().next().unwrap_or(""));
    let _ = TraceFile::parse(&text);
    let _ = parse_bench_file(&text);
    let _ = parse_rules(&text);
    let _ = SweepSpec::parse(&text);
    let spec = spec();
    let artifact = scratch.join("artifact.json");
    std::fs::write(&artifact, bytes).expect("write scratch artifact");
    let _ = read_shard(&artifact, &spec, Shard::SINGLE, &[1, 2]);
    let _ = read_quarantine(&artifact, &spec);
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "bicord-parser-robustness-{}-{tag}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 1024,
        ..ProptestConfig::default()
    })]

    #[test]
    fn random_bytes_never_panic_a_parser(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        feed_every_parser(&bytes, &scratch_dir("random"));
    }

    #[test]
    fn mutated_documents_never_panic_a_parser(
        program in proptest::collection::vec(any::<u8>(), 4..12),
    ) {
        static DOCS: OnceLock<Vec<String>> = OnceLock::new();
        for doc in DOCS.get_or_init(seed_documents) {
            feed_every_parser(&mutate(doc.as_bytes(), &program), &scratch_dir("mutated"));
        }
    }
}

#[test]
fn seed_documents_parse_cleanly() {
    let docs = seed_documents();
    let spec = spec();
    for doc in &docs[2..] {
        json::parse(doc).unwrap();
    }
    assert_eq!(TraceFile::parse(&docs[0]).unwrap().header.seed, 1);
    assert_eq!(TraceFile::parse(&docs[1]).unwrap().records.len(), 3);
    assert!(!parse_bench_file(&docs[2]).unwrap().is_empty());
    assert_eq!(parse_rules(&docs[3]).unwrap().len(), 4);
    let dir = scratch_dir("seeds");
    let artifact = dir.join("artifact.json");
    std::fs::write(&artifact, &docs[4]).unwrap();
    let shard = read_shard(&artifact, &spec, Shard::SINGLE, &[1, 2]).unwrap();
    assert_eq!(shard.quarantined, vec![2]);
    std::fs::write(&artifact, &docs[5]).unwrap();
    assert_eq!(read_quarantine(&artifact, &spec).unwrap().cause, "panic");
    for spec_doc in &docs[6..] {
        SweepSpec::parse(spec_doc).unwrap();
    }
}

#[test]
fn trace_header_with_an_unknown_key_is_an_error() {
    let header = r#"{"schema":"bicord-trace/1","seed":1,"mode":"x","duration_us":5,"bogus":1}"#;
    assert!(TraceHeader::parse(header)
        .unwrap_err()
        .contains("\"bogus\""));
    let err = TraceFile::parse(&format!("{header}\n")).unwrap_err();
    assert!(err.to_string().contains("\"bogus\""), "{err}");
}

#[test]
fn spec_whose_replicate_seeds_overflow_is_an_error() {
    // The second replicate's seed would be 2^64 (0 in release, a panic in debug).
    let spec = r#"{"scenario": "coexist", "seed": 18446744073709551615, "replicates": 2}"#;
    assert!(SweepSpec::parse(spec).unwrap_err().contains("\"seed\""));
}
