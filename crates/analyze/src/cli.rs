//! Argument parsing and dispatch for `bicord analyze`.
//!
//! ```text
//! bicord analyze summarize TRACE [--format text|json] [--bins N] [--assert S,..]
//! bicord analyze diff-trace A B [--format text|json]
//! bicord analyze diff-bench [CURRENT] [--baseline FILE] [--rules FILE]
//!                           [--out FILE] [--bless]
//! ```
//!
//! Exit codes follow the repo convention: `0` pass/identical, `1`
//! differ/budget breach/failed `--assert`, `2` usage or I/O error.

use std::path::PathBuf;

use bicord_sim::obs::TraceFile;
use bicord_sim::stdout::print;

use crate::bench::{
    blessable, default_rules, evaluate, parse_bench_file, parse_rules, BenchEntry, BudgetRule,
};
use crate::diff::diff_traces;
use crate::summarize::{Analytics, SummarizeOptions};

/// Output flavor of the reporting subcommands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
}

impl Format {
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "text" => Ok(Format::Text),
            "json" => Ok(Format::Json),
            other => Err(format!("unknown --format '{other}' (use text or json)")),
        }
    }
}

/// The parsed `bicord analyze` invocation.
#[derive(Debug, Clone, PartialEq)]
enum Command {
    Summarize {
        trace: PathBuf,
        format: Format,
        bins: usize,
        asserts: Vec<String>,
    },
    DiffTrace {
        a: PathBuf,
        b: PathBuf,
        format: Format,
    },
    DiffBench {
        current: PathBuf,
        baseline: PathBuf,
        rules: Option<PathBuf>,
        out: Option<PathBuf>,
        bless: bool,
    },
}

/// Usage text (also the `--help` output).
fn usage() -> &'static str {
    "bicord analyze — trace analytics and budget diffs

USAGE:
  bicord analyze summarize TRACE [OPTIONS]
  bicord analyze diff-trace A B [OPTIONS]
  bicord analyze diff-bench [CURRENT] [OPTIONS]

summarize — report burst waterfalls, white-space utilization,
allocator convergence and fault tallies of one JSONL trace:
  --format <text|json>  output flavor                           [text]
  --bins N              utilization timeline bins               [20]
  --assert S,S,...      exit 1 unless each named section is
                        non-empty (events, bursts, utilization,
                        convergence, faults)

diff-trace — structurally compare two traces of the same schema;
exit 0 when identical, 1 when they differ:
  --format <text|json>  output flavor                           [text]

diff-bench — compare a BENCH_results.json against a baseline under
per-metric budget rules; exit 0 within budget, 1 on breach (a gated
baseline metric missing from CURRENT is a breach):
  CURRENT               results file            [BENCH_results.json]
  --baseline FILE       baseline file  [scripts/bench_baseline.json]
  --rules FILE          JSON budget rules (docs/ANALYTICS.md)
                        [PDR/utilization floors]
  --out FILE            also write a markdown report
  --bless               rewrite the baseline from CURRENT and exit

See docs/ANALYTICS.md."
}

fn parse<I: Iterator<Item = String>>(mut args: I) -> Result<Command, String> {
    let sub = args.next().ok_or("help")?;
    if sub == "--help" || sub == "-h" || sub == "help" {
        return Err("help".to_string());
    }
    let mut positional: Vec<String> = Vec::new();
    let mut format = Format::Text;
    let mut bins = SummarizeOptions::default().bins;
    let mut asserts: Vec<String> = Vec::new();
    let mut baseline = PathBuf::from("scripts/bench_baseline.json");
    let mut rules = None;
    let mut out = None;
    let mut bless = false;
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} wants a value"));
        match arg.as_str() {
            "--help" | "-h" => return Err("help".to_string()),
            "--format" => format = Format::parse(&value("--format")?)?,
            "--bins" => {
                bins = value("--bins")?
                    .parse()
                    .map_err(|_| "--bins wants a positive integer".to_string())?;
                if bins == 0 {
                    return Err("--bins wants a positive integer".to_string());
                }
            }
            "--assert" => {
                asserts.extend(
                    value("--assert")?
                        .split(',')
                        .filter(|s| !s.is_empty())
                        .map(str::to_string),
                );
            }
            "--baseline" => baseline = PathBuf::from(value("--baseline")?),
            "--rules" => rules = Some(PathBuf::from(value("--rules")?)),
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            "--bless" => bless = true,
            other if other.starts_with("--") => {
                return Err(format!("unknown option '{other}'"));
            }
            other => positional.push(other.to_string()),
        }
    }
    match sub.as_str() {
        "summarize" => {
            let [trace] = positional.as_slice() else {
                return Err("summarize wants exactly one TRACE file".to_string());
            };
            Ok(Command::Summarize {
                trace: PathBuf::from(trace),
                format,
                bins,
                asserts,
            })
        }
        "diff-trace" => {
            let [a, b] = positional.as_slice() else {
                return Err("diff-trace wants exactly two trace files".to_string());
            };
            Ok(Command::DiffTrace {
                a: PathBuf::from(a),
                b: PathBuf::from(b),
                format,
            })
        }
        "diff-bench" => {
            let current = match positional.as_slice() {
                [] => PathBuf::from("BENCH_results.json"),
                [current] => PathBuf::from(current),
                _ => return Err("diff-bench wants at most one CURRENT file".to_string()),
            };
            Ok(Command::DiffBench {
                current,
                baseline,
                rules,
                out,
                bless,
            })
        }
        other => Err(format!(
            "unknown analyze subcommand '{other}' (use summarize, diff-trace or diff-bench)"
        )),
    }
}

/// Runs `bicord analyze` with the arguments after the `analyze` word;
/// returns the process exit code.
pub fn run<I: Iterator<Item = String>>(args: I) -> i32 {
    let command = match parse(args) {
        Ok(c) => c,
        Err(e) if e == "help" => {
            print(&format!("{}\n", usage()));
            return 0;
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return 2;
        }
    };
    match execute(&command) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}

fn execute(command: &Command) -> Result<i32, String> {
    match command {
        Command::Summarize {
            trace,
            format,
            bins,
            asserts,
        } => {
            let parsed = TraceFile::read(trace).map_err(|e| format!("{}: {e}", trace.display()))?;
            let analytics = Analytics::compute(&parsed, &SummarizeOptions { bins: *bins });
            match format {
                Format::Text => print(&analytics.render_text(&parsed)),
                Format::Json => print(&format!("{}\n", analytics.render_json(&parsed))),
            }
            let mut missing = Vec::new();
            for section in asserts {
                match analytics.section_nonempty(section) {
                    Some(true) => {}
                    Some(false) => missing.push(section.clone()),
                    None => {
                        return Err(format!(
                            "--assert: unknown section '{section}' (use events, bursts, \
                             utilization, convergence or faults)"
                        ));
                    }
                }
            }
            if !missing.is_empty() {
                eprintln!(
                    "summarize: ASSERT FAILED — empty section(s): {}",
                    missing.join(", ")
                );
                return Ok(1);
            }
            Ok(0)
        }
        Command::DiffTrace { a, b, format } => {
            let (ta, tb) = (
                TraceFile::read(a).map_err(|e| format!("{}: {e}", a.display()))?,
                TraceFile::read(b).map_err(|e| format!("{}: {e}", b.display()))?,
            );
            let diff = diff_traces(&ta, &tb);
            match format {
                Format::Text => {
                    print(&diff.render_text(&a.display().to_string(), &b.display().to_string()))
                }
                Format::Json => print(&format!("{}\n", diff.render_json())),
            }
            Ok(if diff.identical() { 0 } else { 1 })
        }
        Command::DiffBench {
            current,
            baseline,
            rules,
            out,
            bless,
        } => {
            let rules = load_rules(rules.as_deref())?;
            let current_entries = read_bench_file(current)?;
            if *bless {
                let kept = blessable(&current_entries, &rules);
                if kept.is_empty() {
                    return Err(format!(
                        "refusing to bless: {} holds no entries gated by a relative rule",
                        current.display()
                    ));
                }
                let lines: Vec<String> = kept.iter().map(|e| e.record.to_string()).collect();
                std::fs::write(baseline, format!("[\n{}\n]\n", lines.join(",\n")))
                    .map_err(|e| format!("{}: {e}", baseline.display()))?;
                eprintln!(
                    "diff-bench: blessed {} entr(ies) into {}",
                    lines.len(),
                    baseline.display()
                );
                return Ok(0);
            }
            let baseline_entries = read_bench_file(baseline)?;
            let report = evaluate(&baseline_entries, &current_entries, &rules);
            if report.rows.is_empty() {
                return Err(format!(
                    "refusing to judge an empty comparison: no metric of {} is gated by \
                     the active rules (wrong file, or a rules/baseline mismatch)",
                    current.display()
                ));
            }
            print(&report.render_text());
            if let Some(out) = out {
                std::fs::write(out, report.render_markdown())
                    .map_err(|e| format!("{}: {e}", out.display()))?;
                eprintln!("diff-bench: wrote markdown report to {}", out.display());
            }
            Ok(if report.breaches().is_empty() { 0 } else { 1 })
        }
    }
}

fn read_bench_file(path: &std::path::Path) -> Result<Vec<BenchEntry>, String> {
    std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| parse_bench_file(&text))
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn load_rules(path: Option<&std::path::Path>) -> Result<Vec<BudgetRule>, String> {
    match path {
        None => Ok(default_rules()),
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
            parse_rules(&text).map_err(|e| format!("{}: {e}", path.display()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_of(words: &[&str]) -> Result<Command, String> {
        parse(words.iter().map(|s| s.to_string()))
    }

    #[test]
    fn summarize_defaults_and_options() {
        let c = parse_of(&["summarize", "trace.jsonl"]).unwrap();
        assert_eq!(
            c,
            Command::Summarize {
                trace: PathBuf::from("trace.jsonl"),
                format: Format::Text,
                bins: 20,
                asserts: vec![],
            }
        );
        let c = parse_of(&[
            "summarize",
            "t.jsonl",
            "--format",
            "json",
            "--bins",
            "8",
            "--assert",
            "bursts,utilization",
        ])
        .unwrap();
        match c {
            Command::Summarize {
                format,
                bins,
                asserts,
                ..
            } => {
                assert_eq!(format, Format::Json);
                assert_eq!(bins, 8);
                assert_eq!(asserts, vec!["bursts", "utilization"]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn diff_trace_wants_two_files() {
        assert!(parse_of(&["diff-trace", "a.jsonl"]).is_err());
        let c = parse_of(&["diff-trace", "a.jsonl", "b.jsonl"]).unwrap();
        assert_eq!(
            c,
            Command::DiffTrace {
                a: PathBuf::from("a.jsonl"),
                b: PathBuf::from("b.jsonl"),
                format: Format::Text,
            }
        );
    }

    #[test]
    fn diff_bench_defaults_match_the_repo_layout() {
        let c = parse_of(&["diff-bench"]).unwrap();
        assert_eq!(
            c,
            Command::DiffBench {
                current: PathBuf::from("BENCH_results.json"),
                baseline: PathBuf::from("scripts/bench_baseline.json"),
                rules: None,
                out: None,
                bless: false,
            }
        );
        let c = parse_of(&[
            "diff-bench",
            "other.json",
            "--baseline",
            "base.json",
            "--rules",
            "rules.json",
            "--out",
            "report.md",
            "--bless",
        ])
        .unwrap();
        match c {
            Command::DiffBench {
                current,
                baseline,
                rules,
                out,
                bless,
            } => {
                assert_eq!(current, PathBuf::from("other.json"));
                assert_eq!(baseline, PathBuf::from("base.json"));
                assert_eq!(rules, Some(PathBuf::from("rules.json")));
                assert_eq!(out, Some(PathBuf::from("report.md")));
                assert!(bless);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn errors_are_usage_shaped() {
        assert_eq!(parse_of(&[]).unwrap_err(), "help");
        assert_eq!(parse_of(&["--help"]).unwrap_err(), "help");
        assert_eq!(parse_of(&["summarize", "--help"]).unwrap_err(), "help");
        assert!(parse_of(&["warp"]).unwrap_err().contains("warp"));
        assert!(parse_of(&["summarize"]).is_err());
        assert!(parse_of(&["summarize", "t", "--bins", "0"]).is_err());
        assert!(parse_of(&["summarize", "t", "--format", "xml"]).is_err());
        assert!(parse_of(&["diff-bench", "a", "b"]).is_err());
        assert!(parse_of(&["summarize", "t", "--wat"]).is_err());
    }
}
