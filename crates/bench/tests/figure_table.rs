//! The figure table against `results/`, and the `bicord-bench` command
//! line's usage errors (each exits 2 before running anything).

use std::process::{Command, Output};

use bicord_bench::figures::FIGURES;

fn bicord_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bicord-bench"))
        .args(args)
        .env("BICORD_BENCH_JSON", "0")
        .output()
        .expect("spawn bicord-bench")
}

fn usage_error(args: &[&str]) -> String {
    let out = bicord_bench(args);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
    assert!(out.stdout.is_empty(), "{args:?} ran the figure: {out:?}");
    String::from_utf8(out.stderr).unwrap()
}

#[test]
fn every_figure_has_a_checked_output_and_every_output_a_figure() {
    let results = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    let mut committed: Vec<String> = std::fs::read_dir(results)
        .expect("results/ exists")
        .filter_map(|entry| {
            let name = entry.unwrap().file_name().into_string().unwrap();
            name.strip_suffix(".txt").map(str::to_string)
        })
        .collect();
    committed.sort();
    let mut figures: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    figures.sort();
    assert_eq!(figures, committed);
}

#[test]
fn a_missing_or_unknown_figure_lists_the_table() {
    for args in [&[][..], &["--quick"], &["fig99", "--quick"]] {
        let stderr = usage_error(args);
        for figure in &FIGURES {
            assert!(stderr.contains(figure.name), "{args:?}: {stderr}");
        }
    }
    assert!(usage_error(&["fig99"]).contains("unknown figure 'fig99'"));
}

#[test]
fn a_flag_is_never_taken_as_a_value() {
    let stderr = usage_error(&["fig9_whitespace", "--out", "--quick"]);
    assert!(
        stderr.contains("--out requires a value, but got the flag --quick"),
        "{stderr}"
    );
}

#[test]
fn trace_needs_a_figure_with_a_traced_config() {
    for figure in FIGURES.iter().filter(|f| f.trace.is_none()) {
        let stderr = usage_error(&[figure.name, "--quick", "--trace", "t.jsonl"]);
        assert!(stderr.contains("--trace"), "{}: {stderr}", figure.name);
    }
}
