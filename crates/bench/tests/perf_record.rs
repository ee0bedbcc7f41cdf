//! `BENCH_results.json` handling of a real bench binary: records merge
//! into a valid file without touching the other entries, and a file that
//! does not parse is refused rather than overwritten.

use std::path::PathBuf;
use std::process::{Command, Output};

fn run_cti_accuracy(results: &PathBuf) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cti_accuracy"))
        .arg("--quick")
        .env("BICORD_BENCH_JSON", results)
        .env("BICORD_THREADS", "1")
        .output()
        .expect("spawn cti_accuracy")
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bicord-perf-record-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn record_merges_into_a_valid_results_file() {
    let dir = tmpdir("valid");
    let results = dir.join("BENCH_results.json");
    let other = "{\"experiment\": \"other\", \"quick\": false, \"threads\": 1, \
                 \"cells\": 2, \"wall_ms\": 1.5, \"metrics\": {\"x\": 0.25}}";
    std::fs::write(&results, format!("[\n{other}\n]\n")).unwrap();
    for _ in 0..2 {
        let out = run_cti_accuracy(&results);
        assert!(out.status.success(), "{out:?}");
    }
    let text = std::fs::read_to_string(&results).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 4, "{text}");
    assert_eq!(lines[1], format!("{other},"));
    assert!(lines[2].starts_with("{\"experiment\": \"cti_accuracy\", \"quick\": true,"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_results_file_is_refused_not_overwritten() {
    let dir = tmpdir("corrupt");
    let results = dir.join("BENCH_results.json");
    let corrupt = "[\n{\"experiment\": \"other\", \"quick\": false, \"threads\": 1, \"ce";
    std::fs::write(&results, corrupt).unwrap();
    let out = run_cti_accuracy(&results);
    // A perf-record failure is a warning; the bench itself succeeded.
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("refusing to overwrite"), "{stderr}");
    assert_eq!(std::fs::read_to_string(&results).unwrap(), corrupt);
    std::fs::remove_dir_all(&dir).ok();
}
