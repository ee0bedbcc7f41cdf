//! `bicord` — command-line runner for coexistence scenarios.
//!
//! ```text
//! bicord [OPTIONS]
//! bicord sweep --spec FILE [--shard K/N] [--merge] [--resume] ...
//! bicord analyze <summarize|diff-trace|diff-bench> ...
//!
//! OPTIONS:
//!   --mode <bicord|ecc-20|ecc-30|ecc-40|unprotected>   coordination scheme [bicord]
//!   --location <A|B|C|D>        ZigBee sender location (Fig. 6)       [A]
//!   --seconds <N>               simulated duration                    [10]
//!   --seed <N>                  master seed                           [42]
//!   --burst <N>                 packets per ZigBee burst              [5]
//!   --bytes <N>                 MPDU bytes per packet, 1-127          [50]
//!   --interval-ms <N>           mean Poisson burst interval           [200]
//!   --extra-node <LOC:BURST:INTERVAL_MS>   add a ZigBee pair (repeatable)
//!   --fault-profile <K=V,...>   inject faults: control-loss, cts-loss,
//!                               csi-fp, churn-ms, churn-m
//!   --timeline                  print an ASCII channel timeline
//!   --trace <PATH>              write a JSONL event timeline (docs/OBSERVABILITY.md)
//!   --help                      this text
//! ```
//!
//! The run flags are the parameters of the `coexist` sweep scenario
//! under the same names (`--interval-ms` sets `interval_ms`; repeated
//! `--extra-node`s join into `extra_nodes`), and
//! `bicord::sweep::registry::coexist_config` builds the config, so any
//! command line is a one-cell sweep. Example:
//!
//! ```text
//! bicord --mode ecc-30 --location C --seconds 20 --extra-node D:3:400
//! ```
//!
//! The `sweep` subcommand drives the `bicord::sweep` scenario registry
//! from a JSON spec file, optionally as one shard of a distributed run
//! (see README.md § Distributed sweeps and DESIGN.md § The sweep
//! contract):
//!
//! ```text
//! bicord sweep --spec specs/robustness_quick.json --shard 1/2
//! bicord sweep --spec specs/robustness_quick.json --shard 2/2
//! bicord sweep --spec specs/robustness_quick.json --merge
//! ```
//!
//! The `analyze` subcommand is the offline analysis layer
//! (`bicord::analyze`, see docs/ANALYTICS.md): `summarize` a JSONL
//! trace, `diff-trace` two traces, or `diff-bench` a
//! `BENCH_results.json` against a baseline under budget rules:
//!
//! ```text
//! bicord analyze summarize trace.jsonl --assert bursts,utilization
//! bicord analyze diff-trace a.jsonl b.jsonl
//! bicord analyze diff-bench --baseline scripts/bench_baseline.json --out report.md
//! ```

use bicord::prelude::*;
use bicord::sim::stdout::print;
use bicord::sim::SimTime;
use bicord::sweep::registry::coexist_config;
use bicord::sweep::{Cell, ParamValue, ScenarioRegistry, SweepSpec};

#[derive(Debug, Clone, PartialEq)]
struct CliOptions {
    /// The one-cell `coexist` sweep the flags describe: each flag sets
    /// the parameter of the same name, `--seed` sets the seed, and
    /// unset parameters keep the scenario's defaults.
    spec: SweepSpec,
    timeline: bool,
    trace: Option<std::path::PathBuf>,
}

impl Default for CliOptions {
    fn default() -> Self {
        CliOptions {
            spec: SweepSpec::new("coexist", 42, 1),
            timeline: false,
            trace: None,
        }
    }
}

impl CliOptions {
    /// Sets `coexist` parameter `name`; a repeated flag's last value wins.
    fn set(&mut self, name: &str, value: ParamValue) {
        self.spec.axes.retain(|(axis, _)| axis != name);
        self.spec.axes.push((name.to_string(), vec![value]));
    }
}

fn parse_args<I: Iterator<Item = String>>(mut args: I) -> Result<CliOptions, String> {
    let mut options = CliOptions::default();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        let int = |text: String| {
            text.parse()
                .map(ParamValue::Int)
                .map_err(|e| format!("{arg}: {e}"))
        };
        match arg.as_str() {
            "--mode" => options.set("mode", ParamValue::Str(value("--mode")?)),
            "--location" => options.set("location", ParamValue::Str(value("--location")?)),
            "--seconds" => options.set("seconds", int(value("--seconds")?)?),
            "--seed" => {
                options.spec.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--burst" => options.set("burst", int(value("--burst")?)?),
            "--bytes" => options.set("bytes", int(value("--bytes")?)?),
            "--interval-ms" => options.set("interval_ms", int(value("--interval-ms")?)?),
            "--extra-node" => {
                let node = value("--extra-node")?;
                // One node per flag: `extra_nodes` joins them with ','.
                if node.is_empty() || node.contains(',') {
                    return Err(format!(
                        "--extra-node wants LOC:BURST:INTERVAL_MS, got '{node}'"
                    ));
                }
                let nodes = match options.spec.axes.iter().find(|(n, _)| n == "extra_nodes") {
                    Some((_, values)) => format!("{},{node}", values[0]),
                    None => node,
                };
                options.set("extra_nodes", ParamValue::Str(nodes));
            }
            "--fault-profile" => {
                options.set("fault_profile", ParamValue::Str(value("--fault-profile")?))
            }
            "--timeline" => options.timeline = true,
            "--trace" => options.trace = Some(std::path::PathBuf::from(value("--trace")?)),
            "--help" | "-h" => return Err("help".to_string()),
            other => return Err(format!("unknown option '{other}' (try --help)")),
        }
    }
    Ok(options)
}

/// The flags' `coexist` cell and the config `coexist_config` builds
/// from it.
fn build_config(options: &CliOptions) -> Result<(Cell, SimConfig), String> {
    let spec = ScenarioRegistry::builtin()
        .resolve(&options.spec)
        .map_err(|e| e.to_string())?;
    let cell = spec.expand().remove(0);
    let mut config = coexist_config(&cell)?;
    config.record_trace = options.timeline;
    Ok((cell, config))
}

/// Options of the `bicord sweep` subcommand.
#[derive(Debug, Clone, PartialEq)]
struct SweepOptions {
    spec: Option<std::path::PathBuf>,
    shard: Option<bicord::sweep::Shard>,
    merge: bool,
    resume: bool,
    out_dir: std::path::PathBuf,
    threads: Option<usize>,
    list_scenarios: bool,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            spec: None,
            shard: None,
            merge: false,
            resume: false,
            out_dir: std::path::PathBuf::from("sweep_out"),
            threads: None,
            list_scenarios: false,
        }
    }
}

fn parse_sweep_args<I: Iterator<Item = String>>(mut args: I) -> Result<SweepOptions, String> {
    let mut options = SweepOptions::default();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--spec" => options.spec = Some(std::path::PathBuf::from(value("--spec")?)),
            "--shard" => {
                options.shard = Some(
                    bicord::sweep::Shard::parse(&value("--shard")?)
                        .map_err(|e| format!("--shard: {e}"))?,
                )
            }
            "--merge" => options.merge = true,
            "--resume" => options.resume = true,
            "--out-dir" => options.out_dir = std::path::PathBuf::from(value("--out-dir")?),
            "--threads" => {
                let n: usize = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
                if n == 0 {
                    return Err("--threads wants at least 1".to_string());
                }
                options.threads = Some(n);
            }
            "--list-scenarios" => options.list_scenarios = true,
            "--help" | "-h" => return Err("help".to_string()),
            other => return Err(format!("unknown option '{other}' (try --help)")),
        }
    }
    if !options.list_scenarios && options.spec.is_none() {
        return Err("sweep needs --spec FILE (or --list-scenarios)".to_string());
    }
    if options.resume && options.spec.is_none() {
        return Err("--resume needs --spec".to_string());
    }
    if options.resume && options.merge && options.shard.is_none() {
        // `--merge` alone only merges, so it would skip the resumed run.
        return Err("--resume with --merge needs --shard K/N \
                    (--shard 1/1 for the whole sweep)"
            .to_string());
    }
    Ok(options)
}

fn sweep_usage() -> &'static str {
    "bicord sweep — run/merge a sweep of a registered scenario

USAGE:
  bicord sweep --spec FILE [OPTIONS]
  bicord sweep --list-scenarios

OPTIONS:
  --spec FILE        JSON sweep spec (scenario, seed, replicates, axes)
  --shard K/N        run only shard K of N (1-based); omit for the whole
                     sweep in one process
  --merge            reduce the shard artifacts into merged.json; alone
                     it only merges, after --shard it runs then merges
  --resume           keep valid existing artifacts, re-run missing or
                     corrupt shards and failed cells only; with --merge
                     it needs --shard K/N (--shard 1/1 for the whole
                     sweep)
  --out-dir DIR      artifact directory                        [sweep_out]
  --threads N        worker threads (sets BICORD_THREADS)
  --list-scenarios   print the scenario registry and exit
  --help             this text

Each cell runs once. A cell that panics or trips the runtime guard's
stall check is quarantined: the shard artifact lists it, a
quarantine-cell-*.json records the cause, and the exit code is 3.
`--merge` refuses to reduce a sweep with quarantined cells and names
them."
}

/// Runs the `sweep` subcommand over `registry`; returns the process exit
/// code.
fn run_sweep(options: &SweepOptions, registry: &bicord::sweep::ScenarioRegistry) -> i32 {
    use bicord::sweep::{merge, rows_table, run_shard, Shard};

    if let Some(n) = options.threads {
        std::env::set_var("BICORD_THREADS", n.to_string());
    }
    if options.list_scenarios {
        let mut listing = String::new();
        for scenario in registry.iter() {
            listing += &format!("{} — {}\n", scenario.name, scenario.description);
            for p in &scenario.params {
                let default = p
                    .default
                    .as_ref()
                    .map(|d| format!(" [{d}]"))
                    .unwrap_or_else(|| " (required)".to_string());
                listing += &format!("  {} <{}>{default}  {}\n", p.name, p.kind, p.help);
            }
        }
        print(&listing);
        return 0;
    }

    let spec_path = options.spec.as_deref().expect("checked by the parser");
    // 0 = clean, 3 = the shard completed but some cells are quarantined.
    let run = || -> Result<i32, bicord::sweep::SweepError> {
        let spec = registry.resolve(&bicord::sweep::load_spec(spec_path)?)?;
        let hash = spec.content_hash();
        let mut rows = None;
        let mut quarantined = 0usize;

        if options.shard.is_some() || !options.merge {
            let shard = options.shard.unwrap_or(Shard::SINGLE);
            eprintln!(
                "sweep: {} spec {hash}, shard {shard} ({} of {} cells), out {}",
                spec.scenario,
                shard.contains_count(spec.cell_count()),
                spec.cell_count(),
                options.out_dir.display(),
            );
            let outcome = run_shard(registry, &spec, shard, &options.out_dir, options.resume)?;
            eprintln!(
                "sweep: shard {shard}: {} cells run, {} resumed -> {}",
                outcome.cells_run,
                outcome.cells_skipped,
                outcome.artifact.display()
            );
            if !outcome.quarantined.is_empty() {
                eprintln!(
                    "sweep: shard {shard}: {} cells QUARANTINED {:?}; \
                     see quarantine-cell-*.json, then re-run with \
                     `bicord sweep --spec {} --out-dir {} --shard {shard} --resume`",
                    outcome.quarantined.len(),
                    outcome.quarantined,
                    spec_path.display(),
                    options.out_dir.display(),
                );
                quarantined = outcome.quarantined.len();
            }
            if let Some(merged) = &outcome.merged {
                eprintln!("sweep: merged results: {}", merged.display());
            }
            rows = Some((
                format!("{} — spec {hash} shard {shard}", spec.scenario),
                outcome.rows,
            ));
        }

        if options.merge {
            let (path, merged_rows) = merge(&spec, &options.out_dir)?;
            eprintln!(
                "sweep: merged {} cells -> {}",
                merged_rows.len(),
                path.display()
            );
            rows = Some((
                format!("{} — spec {hash} merged", spec.scenario),
                merged_rows,
            ));
        }

        if let Some((title, rows)) = rows {
            print(&format!("{}\n", rows_table(&title, &rows)));
        }
        Ok(if quarantined > 0 { 3 } else { 0 })
    };
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

fn usage() -> &'static str {
    "bicord — run a Wi-Fi/ZigBee coexistence scenario

USAGE:
  bicord [OPTIONS]
  bicord sweep --spec FILE [--shard K/N] [--merge] [--resume]
               (see `bicord sweep --help`)
  bicord analyze <summarize|diff-trace|diff-bench> ...
               (see `bicord analyze --help`)

OPTIONS:
  --mode <bicord|ecc-20|ecc-30|ecc-40|unprotected>  scheme      [bicord]
  --location <A|B|C|D>      ZigBee sender location (Fig. 6)     [A]
  --seconds <N>             simulated duration                  [10]
  --seed <N>                master seed                         [42]
  --burst <N>               packets per ZigBee burst            [5]
  --bytes <N>               MPDU bytes per packet, 1-127        [50]
  --interval-ms <N>         mean Poisson burst interval         [200]
  --extra-node LOC:BURST:INTERVAL_MS  add a ZigBee pair (repeatable)
  --fault-profile K=V,...   inject faults; knobs: control-loss, cts-loss,
                            csi-fp (rates in [0,1]), churn-ms (whole), churn-m
  --timeline                print an ASCII channel timeline
  --trace <PATH>            write a JSONL event timeline (docs/OBSERVABILITY.md)
  --help                    this text

The run flags are the parameters of the `coexist` sweep scenario
(`bicord sweep --list-scenarios`), so a command line is a one-cell
sweep spec with `--seed` as its seed."
}

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("analyze") {
        args.next();
        std::process::exit(bicord::analyze::cli::run(args));
    }
    if args.peek().map(String::as_str) == Some("sweep") {
        args.next();
        let options = match parse_sweep_args(args) {
            Ok(o) => o,
            Err(e) if e == "help" => {
                print(&format!("{}\n", sweep_usage()));
                return;
            }
            Err(e) => {
                eprintln!("error: {e}\n\n{}", sweep_usage());
                std::process::exit(2);
            }
        };
        std::process::exit(run_sweep(
            &options,
            &bicord::sweep::ScenarioRegistry::builtin(),
        ));
    }
    let options = match parse_args(args) {
        Ok(o) => o,
        Err(e) if e == "help" => {
            print(&format!("{}\n", usage()));
            return;
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            std::process::exit(2);
        }
    };
    let (cell, config) = match build_config(&options) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    let mode = cell.str("mode").expect("coexist_config read the mode");
    eprintln!(
        "running {mode} at {} for {}s (seed {})...",
        config.location,
        config.duration.as_secs_f64(),
        config.seed
    );
    let results = match options.trace.as_deref() {
        Some(path) => {
            let header = TraceHeader::new(config.seed, mode, config.duration.as_micros());
            let mut sink = match JsonlSink::create(path, &header) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: cannot write trace {}: {e}", path.display());
                    std::process::exit(2);
                }
            };
            let results = match CoexistenceSim::with_sink(config, &mut sink) {
                Ok(sim) => sim.run(),
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(2);
                }
            };
            match sink.finish() {
                Ok(events) => eprintln!("trace: {} events -> {}", events, path.display()),
                Err(e) => {
                    eprintln!("error: trace write failed: {e}");
                    std::process::exit(2);
                }
            }
            results
        }
        None => match CoexistenceSim::new(config) {
            Ok(sim) => sim.run(),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        },
    };

    let mut text = results.summary_text();
    if let Some(trace) = results.trace.as_ref() {
        let to = SimTime::ZERO
            + results
                .simulated
                .min(bicord::sim::SimDuration::from_secs(1));
        text += "\nfirst second of channel activity:\n";
        text += &trace.render(SimTime::ZERO, to, 110);
    }
    print(&text);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CliOptions, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    /// The config the space-separated flags `args` build.
    fn config(args: &str) -> Result<SimConfig, String> {
        build_config(&parse(&args.split_whitespace().collect::<Vec<_>>())?).map(|(_, c)| c)
    }

    #[test]
    fn defaults_without_args() {
        assert_eq!(parse(&[]).unwrap(), CliOptions::default());
        assert_eq!(config("").unwrap(), SimConfig::bicord(Location::A, 42));
    }

    #[test]
    fn full_argument_set() {
        let args = "--mode ecc-30 --location c --seconds 20 --seed 7 --burst 10 --bytes 75 \
                    --interval-ms 400 --extra-node D:3:500 --extra-node B:7:300 \
                    --fault-profile cts-loss=0.1 --timeline";
        let mut want = SimConfig::ecc(Location::C, 7, SimDuration::from_millis(30));
        want.duration = SimDuration::from_secs(20);
        want.zigbee.burst = BurstSpec {
            n_packets: 10,
            mpdu_bytes: 75,
        };
        want.zigbee.arrivals = ArrivalProcess::Poisson(SimDuration::from_millis(400));
        for (location, n_packets, ms) in [(Location::D, 3, 500), (Location::B, 7, 300)] {
            let mut node = ExtraNodeConfig::at(location);
            // Every extra node sends the primary's packet size.
            node.burst = BurstSpec {
                n_packets,
                mpdu_bytes: 75,
            };
            node.arrivals = ArrivalProcess::Poisson(SimDuration::from_millis(ms));
            want.extra_nodes.push(node);
        }
        want.fault.cts_loss = 0.1;
        want.record_trace = true;
        assert_eq!(config(args).unwrap(), want);
        // A repeated flag's last value wins.
        assert_eq!(
            config("--seconds 3 --seconds 20").unwrap().duration,
            want.duration
        );
    }

    #[test]
    fn trace_flag_takes_a_path() {
        let o = parse(&["--trace", "run.jsonl"]).unwrap();
        assert_eq!(o.trace.as_deref(), Some(std::path::Path::new("run.jsonl")));
        assert!(parse(&["--trace"]).is_err());
    }

    #[test]
    fn bad_location_is_an_error() {
        let err = config("--location Z").unwrap_err();
        assert!(err.contains("unknown location"), "{err}");
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(parse(&["--seconds"]).is_err());
    }

    #[test]
    fn unknown_flag_is_an_error() {
        assert!(parse(&["--frobnicate"]).is_err());
    }

    #[test]
    fn help_is_special_cased() {
        assert_eq!(parse(&["--help"]).unwrap_err(), "help");
    }

    #[test]
    fn extra_node_validation() {
        assert!(config("--extra-node D:3:500").is_ok());
        for bad in ["D:3", "X:3:500", "D:x:500", "D:3:y"] {
            assert!(config(&format!("--extra-node {bad}")).is_err(), "{bad}");
        }
        // Each flag names exactly one node.
        for bad in ["", "D:3:500,C:1:200", "D:3:500,"] {
            let err = parse(&["--extra-node", bad]).unwrap_err();
            assert!(err.contains("LOC:BURST:INTERVAL_MS"), "{bad}: {err}");
        }
    }

    #[test]
    fn fault_profile_parses_and_validates() {
        let fault = |profile: &str| config(&format!("--fault-profile {profile}")).map(|c| c.fault);
        let p = fault("control-loss=0.2,cts-loss=0.1,csi-fp=0.05").unwrap();
        assert_eq!(p.control_loss, 0.2);
        assert_eq!(p.cts_loss, 0.1);
        assert_eq!(p.csi_false_positive, 0.05);
        assert_eq!(p.churn_period, None);

        let p = fault("churn-ms=500,churn-m=0.5").unwrap();
        assert_eq!(p.churn_period, Some(SimDuration::from_millis(500)));
        assert_eq!(p.churn_range_m, 0.5);

        for bad in [
            "control-loss=1.5",
            "control-loss",
            "warp=1",
            "control-loss=x",
            "churn-ms=0",
        ] {
            assert!(fault(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn fault_profile_errors_name_every_valid_knob_and_the_format() {
        let err = |profile: &str| config(&format!("--fault-profile {profile}")).unwrap_err();
        // Unknown key: the error must teach the full vocabulary and the
        // KEY=VALUE shape, not just reject.
        let e = err("warp=1");
        for key in ["control-loss", "cts-loss", "csi-fp", "churn-ms", "churn-m"] {
            assert!(e.contains(key), "unknown-key error lacks '{key}': {e}");
        }
        assert!(e.contains("KEY=VALUE"), "{e}");
        assert!(e.contains("'warp'"), "{e}");

        // Missing '=': same vocabulary plus a worked example.
        let e = err("control-loss");
        assert!(e.contains("KEY=VALUE"), "{e}");
        assert!(e.contains("churn-m"), "{e}");
        assert!(e.contains("example"), "{e}");

        // Bad number: names the knob, what it means, and its range.
        let e = err("cts-loss=high");
        assert!(e.contains("'cts-loss'"), "{e}");
        assert!(e.contains("[0,1]"), "{e}");

        // Out of range: says which ranges are valid.
        let e = err("control-loss=1.5");
        assert!(e.contains("out of range"), "{e}");
        assert!(e.contains("control-loss in [0,1]"), "{e}");
    }

    #[test]
    fn fault_profile_flag_reaches_the_config() {
        let c = config("--fault-profile control-loss=0.3").unwrap();
        assert_eq!(c.fault.control_loss, 0.3);
        assert!(c.fault.is_active());
        // Without the flag the config keeps the inactive default.
        assert!(!config("").unwrap().fault.is_active());
    }

    fn parse_sweep(args: &[&str]) -> Result<SweepOptions, String> {
        parse_sweep_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn sweep_args_parse() {
        let o = parse_sweep(&[
            "--spec",
            "s.json",
            "--shard",
            "2/4",
            "--merge",
            "--resume",
            "--out-dir",
            "artifacts",
            "--threads",
            "3",
        ])
        .unwrap();
        assert_eq!(o.spec.as_deref(), Some(std::path::Path::new("s.json")));
        assert_eq!(o.shard, Some(bicord::sweep::Shard::parse("2/4").unwrap()));
        assert!(o.merge && o.resume);
        assert_eq!(o.out_dir, std::path::PathBuf::from("artifacts"));
        assert_eq!(o.threads, Some(3));
    }

    #[test]
    fn sweep_requires_a_spec_or_listing() {
        assert!(parse_sweep(&[]).is_err());
        assert!(parse_sweep(&["--merge"]).is_err());
        let o = parse_sweep(&["--list-scenarios"]).unwrap();
        assert!(o.list_scenarios);
        // Merge-only: spec given, no shard.
        let o = parse_sweep(&["--spec", "s.json", "--merge"]).unwrap();
        assert!(o.merge);
        assert_eq!(o.shard, None);
    }

    #[test]
    fn sweep_rejects_bad_inputs() {
        assert!(parse_sweep(&["--spec", "s.json", "--shard", "0/4"]).is_err());
        assert!(parse_sweep(&["--spec", "s.json", "--threads", "0"]).is_err());
        assert!(parse_sweep(&["--spec", "s.json", "--warp"]).is_err());
        assert_eq!(parse_sweep(&["--help"]).unwrap_err(), "help");
    }

    #[test]
    fn resume_with_merge_needs_a_shard() {
        let err = parse_sweep(&["--spec", "s.json", "--resume", "--merge"]).unwrap_err();
        assert!(err.contains("--shard K/N"), "{err}");
        let o =
            parse_sweep(&["--spec", "s.json", "--shard", "1/1", "--resume", "--merge"]).unwrap();
        assert!(o.resume && o.merge);
        assert!(
            parse_sweep(&["--spec", "s.json", "--resume"])
                .unwrap()
                .resume
        );
    }

    #[test]
    fn removed_supervision_flags_are_unknown_options() {
        for flag in ["--cell-timeout", "--max-retries"] {
            let err = parse_sweep(&["--spec", "s.json", flag, "1"]).unwrap_err();
            assert!(err.contains("unknown option"), "{flag}: {err}");
        }
    }

    #[test]
    fn sweep_exits_3_on_a_failed_cell_and_0_once_resumed() {
        use bicord::sweep::{ParamKind, ParamSpec, ParamValue, Scenario, ScenarioRegistry};
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let healthy = Arc::new(AtomicBool::new(false));
        let flag = healthy.clone();
        let mut registry = ScenarioRegistry::new();
        registry.register(Scenario::new(
            "synthetic",
            "panics on n = 2 until healed",
            vec![ParamSpec {
                name: "n",
                kind: ParamKind::Int,
                default: Some(ParamValue::Int(0)),
                help: "any integer",
            }],
            move |cell| {
                let n = cell.int("n")?;
                assert!(flag.load(Ordering::SeqCst) || n != 2, "injected crash");
                Ok(vec![("n2".to_string(), (n * n) as f64)])
            },
        ));

        let dir = std::env::temp_dir().join(format!("bicord-cli-sweep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let spec = dir.join("spec.json");
        std::fs::write(
            &spec,
            r#"{"scenario": "synthetic", "seed": 3, "params": {"n": [1, 2, 3]}}"#,
        )
        .unwrap();
        let run = |args: &[&str]| {
            let mut argv = vec!["--spec", spec.to_str().unwrap(), "--out-dir"];
            argv.push(dir.to_str().unwrap());
            argv.extend_from_slice(args);
            run_sweep(&parse_sweep(&argv).unwrap(), &registry)
        };

        assert_eq!(run(&[]), 3, "a quarantined cell exits 3");
        assert_ne!(run(&["--merge"]), 0, "merge refuses a quarantined shard");
        healthy.store(true, Ordering::SeqCst);
        let healed = run(&["--shard", "1/1", "--resume", "--merge"]);
        assert_eq!(healed, 0, "healed resume merges");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn config_building() {
        let c = config("--mode unprotected --extra-node B:7:300").unwrap();
        assert_eq!(c.extra_nodes.len(), 1);
        assert_eq!(c.extra_nodes[0].burst.n_packets, 7);
        assert!(matches!(c.mode, Mode::Unprotected));
        assert!(config("--mode warp-drive").is_err());
    }
}
