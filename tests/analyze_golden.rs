//! Byte pins of the analyzer's reports on the golden traces: `bicord
//! analyze summarize` (text and JSON) of each golden trace and
//! `diff-trace` (text and JSON) of seed 1 against seed 2.
//!
//! Regenerate the pinned reports after an intentional analyzer or
//! simulation change with `BICORD_BLESS=1 cargo test --test analyze_golden`.

use std::path::PathBuf;
use std::process::Command;

fn repo() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Runs `bicord analyze ARGS` from the repo root (so report paths are
/// relative) and returns stdout after checking the exit code.
fn analyze(args: &[&str], code: i32) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_bicord"))
        .arg("analyze")
        .args(args)
        .current_dir(repo())
        .output()
        .expect("spawn bicord analyze");
    assert_eq!(
        out.status.code(),
        Some(code),
        "bicord analyze {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

#[test]
fn analyzer_reports_match_golden_files() {
    let (seed1, seed2) = (
        "tests/golden/trace_seed1.jsonl",
        "tests/golden/trace_seed2.jsonl",
    );
    let mut reports = Vec::new();
    for (seed, trace) in [(1, seed1), (2, seed2)] {
        for format in ["text", "json"] {
            reports.push((
                format!("summarize_seed{seed}.{format}"),
                analyze(&["summarize", trace, "--format", format], 0),
            ));
        }
    }
    for format in ["text", "json"] {
        reports.push((
            format!("diff_trace_seed1_seed2.{format}"),
            analyze(&["diff-trace", seed1, seed2, "--format", format], 1),
        ));
    }
    let bless = std::env::var("BICORD_BLESS").is_ok();
    for (name, bytes) in reports {
        let golden = repo().join("tests/golden").join(&name);
        if bless {
            std::fs::write(&golden, &bytes).unwrap();
            continue;
        }
        let expected = std::fs::read(&golden).unwrap_or_else(|e| {
            panic!(
                "missing golden file {} ({e}); regenerate with BICORD_BLESS=1",
                golden.display()
            )
        });
        assert!(
            bytes == expected,
            "{name} drifted from {}:\n{}\nif the change is intentional, re-bless with \
             BICORD_BLESS=1",
            golden.display(),
            String::from_utf8_lossy(&bytes)
        );
    }
}
