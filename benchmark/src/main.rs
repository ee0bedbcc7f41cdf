//! `bicord-benchmark`: runs one workload (`--workload NAME`), or every
//! workload in its own child process, one after another.
//!
//! ```text
//! bicord-benchmark [--workload NAME] [--seed S] [--seconds N] [--trace [0|1]]
//!                  [--cells N] [--rounds N] [--sets N]
//! ```
//!
//! With `--workload` it prints `workload metric value unit` lines, `#`
//! notes, and as its last line a JSON result for automated runners.
//! Without it, it also merges every workload's metrics into
//! `out/results.json` and prints them as a table; `--sets N` repeats the
//! whole set and reports how far the sets disagree. The exit code is 0
//! when every check passed, 1 when a result was wrong or missing, and 2
//! on a usage or set-up error before any run.

use std::path::Path;
use std::process::{Command, ExitCode};

use bicord_benchmark::measure::{self, is_host_measured, Options};
use bicord_benchmark::spec::{self, BenchSpec};
use bicord_benchmark::stats::median;
use bicord_benchmark::workload::{Workload, DEFAULT_SEED};
use bicord_sweep::json;

const USAGE: &str = "usage: bicord-benchmark [--workload NAME] [--seed S] [--seconds N] \
[--trace [0|1]] [--cells N] [--rounds N] [--sets N]";

#[derive(Debug, Clone)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    cells: Option<usize>,
    rounds: Option<usize>,
    sets: usize,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        cells: None,
        rounds: None,
        sets: 1,
    };
    let mut it = it.by_ref().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        let positive = |v: String| match v.parse::<usize>() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err(format!("{flag} needs a positive whole number, got `{v}`")),
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                args.workload = Some(Workload::from_name(&name).ok_or_else(|| {
                    format!("unknown workload `{name}` (one of {})", names.join(", "))
                })?);
            }
            "--seed" => {
                let v = value("a seed")?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("--seed needs a whole number, got `{v}`"))?;
            }
            "--seconds" => {
                let v = value("a duration")?;
                args.seconds = match v.parse::<f64>() {
                    Ok(s) if s.is_finite() && s >= 0.0 => Some(s),
                    _ => return Err(format!("--seconds needs a non-negative number, got `{v}`")),
                };
            }
            "--trace" => {
                args.trace = it
                    .next_if(|v| v == "0" || v == "1")
                    .is_none_or(|v| v == "1");
            }
            "--cells" => args.cells = Some(positive(value("a cell count")?)?),
            "--rounds" => args.rounds = Some(positive(value("a pass count")?)?),
            "--sets" => args.sets = positive(value("a set count")?)?,
            "-h" | "--help" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let result = parse_args(std::env::args().skip(1)).and_then(|args| match args.workload {
        Some(w) => run_one(&args, w),
        None => run_all(&args),
    });
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("bicord-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

/// Runs one workload in this process.
fn run_one(args: &Args, w: Workload) -> Result<ExitCode, String> {
    let spec = BenchSpec::load(&spec::benchmark_json())?;
    let mut opts = Options::new(w, spec::load_expected(&spec::digests_json(), w.name())?);
    opts.seed = args.seed;
    opts.seconds = args.seconds;
    opts.trace = args.trace;
    opts.cells = args.cells.unwrap_or(opts.cells);
    opts.rounds = args.rounds.unwrap_or(opts.rounds);
    let report = measure::run(&opts);
    let recorded = spec.recorded(opts.trace);
    print!("{}", report.lines());
    for problem in report.unrecorded(recorded) {
        println!("# {} FAILED result: {problem}", w.name());
    }
    println!("{}", report.json_line(recorded));
    Ok(if report.correct(recorded) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// One workload's output, as read back from its child process.
struct Run {
    workload: Workload,
    /// `(name, value, unit)` of every metric line.
    metrics: Vec<(String, String, String)>,
    /// The JSON result line, if the child printed one.
    result: Option<String>,
    success: bool,
}

/// Runs every workload in its own child process, `args.sets` times.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let spec = BenchSpec::load(&spec::benchmark_json())?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this program: {e}"))?;
    let mut sets: Vec<Vec<Run>> = Vec::new();
    for _ in 0..args.sets {
        let mut set = Vec::new();
        for w in Workload::ALL {
            let output = Command::new(&exe)
                .args(child_args(args, w))
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let mut run = Run {
                workload: w,
                metrics: Vec::new(),
                result: None,
                success: output.status.success(),
            };
            for line in stdout.lines() {
                if line.starts_with('{') {
                    run.result = Some(line.to_string());
                    continue;
                }
                println!("{line}");
                let fields: Vec<&str> = line.split_whitespace().collect();
                if let [name, metric, value, unit] = fields[..] {
                    if name == w.name() {
                        run.metrics.push((metric.into(), value.into(), unit.into()));
                    }
                }
            }
            set.push(run);
        }
        sets.push(set);
    }

    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let path = out.join("results.json");
    std::fs::write(&path, results_json(args, &sets))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    print_table(&sets[0]);
    println!("# results written to {}", path.display());

    let mut ok = sets
        .iter()
        .flatten()
        .all(|r| r.success && r.result.is_some());
    if sets.len() > 1 {
        ok &= compare_sets(&spec, &sets);
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn child_args(args: &Args, w: Workload) -> Vec<String> {
    let mut v = vec![
        "--workload".to_string(),
        w.name().to_string(),
        "--seed".to_string(),
        args.seed.to_string(),
        "--trace".to_string(),
        if args.trace { "1" } else { "0" }.to_string(),
    ];
    let optional = [
        ("--seconds", args.seconds.map(|s| s.to_string())),
        ("--cells", args.cells.map(|n| n.to_string())),
        ("--rounds", args.rounds.map(|n| n.to_string())),
    ];
    for (flag, value) in optional {
        if let Some(value) = value {
            v.extend([flag.to_string(), value]);
        }
    }
    v
}

fn results_json(args: &Args, sets: &[Vec<Run>]) -> String {
    let set_json = |set: &Vec<Run>| {
        let runs: Vec<String> = set
            .iter()
            .map(|r| {
                let metrics: Vec<String> = r
                    .metrics
                    .iter()
                    .map(|(name, value, unit)| {
                        // `n/a` becomes `null`.
                        let value = value.parse().map_or("null".to_string(), json::number);
                        format!(
                            "{}: {{\"value\": {value}, \"unit\": {}}}",
                            json::escape(name),
                            json::escape(unit)
                        )
                    })
                    .collect();
                format!(
                    "    {}: {{\"success\": {}, \"result\": {}, \"metrics\": {{{}}}}}",
                    json::escape(r.workload.name()),
                    r.success,
                    r.result.as_deref().unwrap_or("null"),
                    metrics.join(", ")
                )
            })
            .collect();
        format!("  {{\n{}\n  }}", runs.join(",\n"))
    };
    let sets: Vec<String> = sets.iter().map(set_json).collect();
    format!(
        "{{\"seed\": {}, \"trace\": {}, \"seconds\": {}, \"sets\": [\n{}\n]}}\n",
        args.seed,
        args.trace,
        args.seconds.map_or("null".to_string(), json::number),
        sets.join(",\n")
    )
}

/// Prints one set as a metric × workload table.
fn print_table(set: &[Run]) {
    let mut names: Vec<(&str, &str)> = Vec::new();
    for run in set {
        for (name, _, unit) in &run.metrics {
            if !names.iter().any(|(n, _)| n == name) {
                names.push((name, unit));
            }
        }
    }
    let width = names.iter().map(|(n, _)| n.len()).max().unwrap_or(6);
    let mut header = format!("{:width$}", "metric");
    for run in set {
        header.push_str(&format!(" {:>16}", run.workload.name()));
    }
    println!("{header} unit");
    for (name, unit) in names {
        let mut row = format!("{name:width$}");
        for run in set {
            let value = run
                .metrics
                .iter()
                .find(|(n, _, _)| n == name)
                .map_or("-".to_string(), |(_, v, _)| short(v));
            row.push_str(&format!(" {value:>16}"));
        }
        println!("{row} {unit}");
    }
}

/// A number cut to a readable width; `n/a` unchanged.
fn short(value: &str) -> String {
    match value.parse::<f64>() {
        Ok(v) if v.abs() >= 1e4 => format!("{v:.0}"),
        Ok(v) if v.fract() == 0.0 => format!("{v}"),
        Ok(v) => format!("{v:.4}"),
        Err(_) => value.to_string(),
    }
}

/// Prints each metric's spread across the sets: `(max − min) / median`
/// for host-measured metrics, flagging end-to-end metrics beyond their
/// bound, and any difference at all for the exact ones. Returns `false`
/// if an exact metric differs.
fn compare_sets(spec: &BenchSpec, sets: &[Vec<Run>]) -> bool {
    let mut identical = true;
    let mut exact = 0;
    for (i, first) in sets[0].iter().enumerate() {
        let w = first.workload.name();
        for (name, value, _) in &first.metrics {
            let values: Vec<&str> = sets
                .iter()
                .filter_map(|s| s[i].metrics.iter().find(|(n, _, _)| n == name))
                .map(|(_, v, _)| v.as_str())
                .collect();
            if !is_host_measured(name) {
                exact += 1;
                if values.len() != sets.len() || values.iter().any(|v| v != value) {
                    identical = false;
                    println!("# sets {w} {name} DIFFERS: {}", values.join(" vs "));
                }
                continue;
            }
            let nums: Vec<f64> = values.iter().filter_map(|v| v.parse().ok()).collect();
            let (lo, hi) = nums
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                    (lo.min(v), hi.max(v))
                });
            let spread = (hi - lo) / median(&nums).abs();
            let bound = spec
                .end_to_end
                .iter()
                .find(|m| &m.name == name)
                .and_then(|m| m.bound);
            let verdict = match bound {
                Some(b) if spread > b => format!(" EXCEEDS bound {:.1}%", b * 100.0),
                Some(b) => format!(" within bound {:.1}%", b * 100.0),
                None => String::new(),
            };
            println!("# sets {w} {name} spread {:.2}%{verdict}", spread * 100.0);
        }
    }
    println!(
        "# sets: {exact} exact metrics {} across {} sets",
        if identical {
            "identical"
        } else {
            "NOT identical"
        },
        sets.len()
    );
    identical
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn workload_run_arguments_parse() {
        let a = parse(&[
            "--workload",
            "dense_city_10k",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Some(Workload::DenseCity10k));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(15.0), true));
        let a = parse(&["--trace", "0", "--cells", "3"]).unwrap();
        assert!(!a.trace);
        assert_eq!(a.cells, Some(3));
        assert!(parse(&["--trace"]).unwrap().trace);
        assert!(parse(&["--trace", "--sets", "2"]).unwrap().trace);
    }

    #[test]
    fn bad_arguments_are_errors() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "x"],
            &["--seconds", "-1"],
            &["--cells", "0"],
            &["--rounds"],
            &["--frobnicate"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
