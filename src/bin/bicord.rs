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
//!   --bytes <N>                 MPDU bytes per packet                 [50]
//!   --interval-ms <N>           mean Poisson burst interval           [200]
//!   --extra-node <LOC:BURST:INTERVAL_MS>   add a ZigBee pair (repeatable)
//!   --fault-profile <K=V,...>   inject faults: control-loss, cts-loss,
//!                               csi-fp, churn-ms, churn-m
//!   --timeline                  print an ASCII channel timeline
//!   --trace <PATH>              write a JSONL event timeline (docs/OBSERVABILITY.md)
//!   --help                      this text
//! ```
//!
//! Example:
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

#[derive(Debug, Clone, PartialEq)]
struct CliOptions {
    mode: String,
    location: Location,
    seconds: u64,
    seed: u64,
    burst: u32,
    bytes: usize,
    interval_ms: u64,
    extra_nodes: Vec<(Location, u32, u64)>,
    fault: Option<FaultProfile>,
    timeline: bool,
    trace: Option<std::path::PathBuf>,
}

impl Default for CliOptions {
    fn default() -> Self {
        CliOptions {
            mode: "bicord".to_string(),
            location: Location::A,
            seconds: 10,
            seed: 42,
            burst: 5,
            bytes: 50,
            interval_ms: 200,
            extra_nodes: Vec::new(),
            fault: None,
            timeline: false,
            trace: None,
        }
    }
}

fn parse_location(s: &str) -> Result<Location, String> {
    match s.to_ascii_uppercase().as_str() {
        "A" => Ok(Location::A),
        "B" => Ok(Location::B),
        "C" => Ok(Location::C),
        "D" => Ok(Location::D),
        other => Err(format!("unknown location '{other}' (use A, B, C or D)")),
    }
}

fn parse_extra_node(s: &str) -> Result<(Location, u32, u64), String> {
    let parts: Vec<&str> = s.split(':').collect();
    if parts.len() != 3 {
        return Err(format!(
            "--extra-node wants LOC:BURST:INTERVAL_MS, got '{s}'"
        ));
    }
    let location = parse_location(parts[0])?;
    let burst: u32 = parts[1]
        .parse()
        .map_err(|_| format!("bad burst count '{}'", parts[1]))?;
    let interval: u64 = parts[2]
        .parse()
        .map_err(|_| format!("bad interval '{}'", parts[2]))?;
    Ok((location, burst, interval))
}

/// The `--fault-profile` knobs: `(key, what it sets, valid range)`.
/// Error messages are generated from this table so they can never drift
/// from what the parser actually accepts.
const FAULT_KNOBS: &[(&str, &str, &str)] = &[
    ("control-loss", "control-frame loss rate", "[0,1]"),
    ("cts-loss", "CTS loss rate", "[0,1]"),
    ("csi-fp", "phantom-CSI false-positive rate", "[0,1]"),
    ("churn-ms", "coordinator churn period in ms", ">=1"),
    ("churn-m", "churn displacement range in meters", ">=0"),
];

fn fault_knob_names() -> String {
    FAULT_KNOBS
        .iter()
        .map(|(key, _, _)| *key)
        .collect::<Vec<_>>()
        .join(", ")
}

fn parse_fault_profile(s: &str) -> Result<FaultProfile, String> {
    let mut profile = FaultProfile::default();
    for pair in s.split(',').filter(|p| !p.is_empty()) {
        let (key, value) = pair.split_once('=').ok_or_else(|| {
            format!(
                "--fault-profile wants comma-separated KEY=VALUE pairs, got '{pair}' \
                 (valid keys: {}; example: control-loss=0.2,cts-loss=0.1)",
                fault_knob_names()
            )
        })?;
        let knob = FAULT_KNOBS.iter().find(|(k, _, _)| *k == key);
        let Some(&(_, what, range)) = knob else {
            return Err(format!(
                "unknown fault knob '{key}' in '{pair}'; valid keys are {} \
                 (KEY=VALUE, comma-separated)",
                fault_knob_names()
            ));
        };
        let number: f64 = value.parse().map_err(|_| {
            format!("bad value '{value}' for fault knob '{key}' ({what}; want a number in {range})")
        })?;
        match key {
            "control-loss" => profile.control_loss = number,
            "cts-loss" => profile.cts_loss = number,
            "csi-fp" => profile.csi_false_positive = number,
            "churn-ms" => {
                profile.churn_period = Some(SimDuration::from_millis(number as u64));
            }
            "churn-m" => profile.churn_range_m = number,
            _ => unreachable!("key was validated against FAULT_KNOBS"),
        }
    }
    if let Some(field) = profile.invalid_field() {
        let hint = FAULT_KNOBS
            .iter()
            .map(|(key, _, range)| format!("{key} in {range}"))
            .collect::<Vec<_>>()
            .join(", ");
        return Err(format!(
            "fault profile field '{field}' is out of range (valid: {hint})"
        ));
    }
    Ok(profile)
}

fn parse_args<I: Iterator<Item = String>>(mut args: I) -> Result<CliOptions, String> {
    let mut options = CliOptions::default();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--mode" => options.mode = value("--mode")?,
            "--location" => options.location = parse_location(&value("--location")?)?,
            "--seconds" => {
                options.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--seed" => {
                options.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--burst" => {
                options.burst = value("--burst")?
                    .parse()
                    .map_err(|e| format!("--burst: {e}"))?
            }
            "--bytes" => {
                options.bytes = value("--bytes")?
                    .parse()
                    .map_err(|e| format!("--bytes: {e}"))?
            }
            "--interval-ms" => {
                options.interval_ms = value("--interval-ms")?
                    .parse()
                    .map_err(|e| format!("--interval-ms: {e}"))?
            }
            "--extra-node" => options
                .extra_nodes
                .push(parse_extra_node(&value("--extra-node")?)?),
            "--fault-profile" => {
                options.fault = Some(parse_fault_profile(&value("--fault-profile")?)?)
            }
            "--timeline" => options.timeline = true,
            "--trace" => options.trace = Some(std::path::PathBuf::from(value("--trace")?)),
            "--help" | "-h" => return Err("help".to_string()),
            other => return Err(format!("unknown option '{other}' (try --help)")),
        }
    }
    Ok(options)
}

fn build_config(options: &CliOptions) -> Result<SimConfig, String> {
    let mut config = match options.mode.as_str() {
        "bicord" => SimConfig::bicord(options.location, options.seed),
        "ecc-20" => SimConfig::ecc(options.location, options.seed, SimDuration::from_millis(20)),
        "ecc-30" => SimConfig::ecc(options.location, options.seed, SimDuration::from_millis(30)),
        "ecc-40" => SimConfig::ecc(options.location, options.seed, SimDuration::from_millis(40)),
        "unprotected" => SimConfig::unprotected(options.location, options.seed),
        other => {
            return Err(format!(
                "unknown mode '{other}' (bicord, ecc-20, ecc-30, ecc-40, unprotected)"
            ))
        }
    };
    config.duration = SimDuration::from_secs(options.seconds);
    config.zigbee.burst = BurstSpec {
        n_packets: options.burst,
        mpdu_bytes: options.bytes,
    };
    config.zigbee.arrivals = ArrivalProcess::Poisson(SimDuration::from_millis(options.interval_ms));
    for &(location, burst, interval) in &options.extra_nodes {
        let mut node = ExtraNodeConfig::at(location);
        node.burst = BurstSpec {
            n_packets: burst,
            mpdu_bytes: options.bytes,
        };
        node.arrivals = ArrivalProcess::Poisson(SimDuration::from_millis(interval));
        config.extra_nodes.push(node);
    }
    if let Some(fault) = options.fault {
        config.fault = fault;
    }
    config.record_trace = options.timeline;
    Ok(config)
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
  --bytes <N>               MPDU bytes per packet               [50]
  --interval-ms <N>         mean Poisson burst interval         [200]
  --extra-node LOC:BURST:INTERVAL_MS  add a ZigBee pair (repeatable)
  --fault-profile K=V,...   inject faults; knobs: control-loss, cts-loss,
                            csi-fp (rates in [0,1]), churn-ms, churn-m
  --timeline                print an ASCII channel timeline
  --trace <PATH>            write a JSONL event timeline (docs/OBSERVABILITY.md)
  --help                    this text"
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
    let config = match build_config(&options) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    eprintln!(
        "running {} at {} for {}s (seed {})...",
        options.mode, options.location, options.seconds, options.seed
    );
    let results = match options.trace.as_deref() {
        Some(path) => {
            let header = TraceHeader::new(config.seed, &options.mode, config.duration.as_micros());
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

    #[test]
    fn defaults_without_args() {
        let o = parse(&[]).unwrap();
        assert_eq!(o, CliOptions::default());
    }

    #[test]
    fn full_argument_set() {
        let o = parse(&[
            "--mode",
            "ecc-30",
            "--location",
            "c",
            "--seconds",
            "20",
            "--seed",
            "7",
            "--burst",
            "10",
            "--bytes",
            "75",
            "--interval-ms",
            "400",
            "--extra-node",
            "D:3:500",
            "--timeline",
        ])
        .unwrap();
        assert_eq!(o.mode, "ecc-30");
        assert_eq!(o.location, Location::C);
        assert_eq!(o.seconds, 20);
        assert_eq!(o.seed, 7);
        assert_eq!(o.burst, 10);
        assert_eq!(o.bytes, 75);
        assert_eq!(o.interval_ms, 400);
        assert_eq!(o.extra_nodes, vec![(Location::D, 3, 500)]);
        assert!(o.timeline);
    }

    #[test]
    fn trace_flag_takes_a_path() {
        let o = parse(&["--trace", "run.jsonl"]).unwrap();
        assert_eq!(o.trace.as_deref(), Some(std::path::Path::new("run.jsonl")));
        assert!(parse(&["--trace"]).is_err());
    }

    #[test]
    fn bad_location_is_an_error() {
        assert!(parse(&["--location", "Z"]).is_err());
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
        assert!(parse_extra_node("D:3:500").is_ok());
        assert!(parse_extra_node("D:3").is_err());
        assert!(parse_extra_node("X:3:500").is_err());
        assert!(parse_extra_node("D:x:500").is_err());
        assert!(parse_extra_node("D:3:y").is_err());
    }

    #[test]
    fn fault_profile_parses_and_validates() {
        let p = parse_fault_profile("control-loss=0.2,cts-loss=0.1,csi-fp=0.05").unwrap();
        assert_eq!(p.control_loss, 0.2);
        assert_eq!(p.cts_loss, 0.1);
        assert_eq!(p.csi_false_positive, 0.05);
        assert_eq!(p.churn_period, None);

        let p = parse_fault_profile("churn-ms=500,churn-m=0.5").unwrap();
        assert_eq!(p.churn_period, Some(SimDuration::from_millis(500)));
        assert_eq!(p.churn_range_m, 0.5);

        assert!(parse_fault_profile("control-loss=1.5").is_err());
        assert!(parse_fault_profile("control-loss").is_err());
        assert!(parse_fault_profile("warp=1").is_err());
        assert!(parse_fault_profile("control-loss=x").is_err());
    }

    #[test]
    fn fault_profile_errors_name_every_valid_knob_and_the_format() {
        // Unknown key: the error must teach the full vocabulary and the
        // KEY=VALUE shape, not just reject.
        let err = parse_fault_profile("warp=1").unwrap_err();
        for key in ["control-loss", "cts-loss", "csi-fp", "churn-ms", "churn-m"] {
            assert!(err.contains(key), "unknown-key error lacks '{key}': {err}");
        }
        assert!(err.contains("KEY=VALUE"), "{err}");
        assert!(err.contains("'warp'"), "{err}");

        // Missing '=': same vocabulary plus a worked example.
        let err = parse_fault_profile("control-loss").unwrap_err();
        assert!(err.contains("KEY=VALUE"), "{err}");
        assert!(err.contains("churn-m"), "{err}");
        assert!(err.contains("example"), "{err}");

        // Bad number: names the knob, what it means, and its range.
        let err = parse_fault_profile("cts-loss=high").unwrap_err();
        assert!(err.contains("'cts-loss'"), "{err}");
        assert!(err.contains("[0,1]"), "{err}");

        // Out of range: says which ranges are valid.
        let err = parse_fault_profile("control-loss=1.5").unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        assert!(err.contains("control-loss in [0,1]"), "{err}");
    }

    #[test]
    fn fault_profile_flag_reaches_the_config() {
        let o = parse(&["--fault-profile", "control-loss=0.3"]).unwrap();
        let c = build_config(&o).unwrap();
        assert_eq!(c.fault.control_loss, 0.3);
        assert!(c.fault.is_active());
        // Without the flag the config keeps the inactive default.
        let c = build_config(&CliOptions::default()).unwrap();
        assert!(!c.fault.is_active());
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
        let mut o = CliOptions {
            mode: "unprotected".to_string(),
            ..CliOptions::default()
        };
        o.extra_nodes.push((Location::B, 7, 300));
        let c = build_config(&o).unwrap();
        assert_eq!(c.extra_nodes.len(), 1);
        assert_eq!(c.extra_nodes[0].burst.n_packets, 7);
        assert!(matches!(
            c.mode,
            bicord::scenario::config::Mode::Unprotected
        ));
        o.mode = "warp-drive".to_string();
        assert!(build_config(&o).is_err());
    }
}
