//! Shared command-line handling for `bicord-bench` and
//! `dense_city_scaling`.
//!
//! Both binaries accept the same small flag set; parsing lives here so
//! the binaries stay short:
//!
//! ```text
//! bicord-bench <figure> [--quick|--full] [--threads N] [--trace PATH] [--out PATH]
//! dense_city_scaling [--quick|--full] [--threads N] [--out PATH]
//!
//!   --quick        shortened sweep (smoke-test scale)
//!   --full         paper-scale sweep (the default; rejects --quick)
//!   --threads N    worker threads for the parallel harness
//!                  (sets BICORD_THREADS)
//!   --trace PATH   write a JSONL event timeline of one representative
//!                  run (docs/OBSERVABILITY.md); only figures with a
//!                  traced config accept it
//!   --out PATH     performance-record file (sets BICORD_BENCH_JSON;
//!                  `0`/`off` disables)
//! ```
//!
//! Flag conflicts are **errors**, never silently resolved: `--quick`
//! with `--full`, any flag given twice, a flag where a value belongs
//! (`--out --quick`), and `--trace` where there is no run to trace all
//! fail parsing with a message naming the flag.
//!
//! Call [`BenchCli::parse_or_exit`] first thing in `main`, then
//! [`BenchCli::apply`] before the first simulation, and — when the
//! figure has a traced config — [`BenchCli::maybe_trace`].

use std::path::PathBuf;

use bicord_scenario::config::{Mode, SimConfig};
use bicord_scenario::sim::CoexistenceSim;
use bicord_sim::obs::{JsonlSink, TraceHeader};

use crate::Scale;

/// The flag lines of every usage text.
pub const OPTIONS: &str = "OPTIONS:
  --quick        shortened sweep (smoke-test scale)
  --full         paper-scale sweep (the default)
  --threads N    worker threads (sets BICORD_THREADS)
  --trace PATH   JSONL event timeline of one representative run
                 (only where a traced config exists)
  --out PATH     performance-record file (sets BICORD_BENCH_JSON)
  --help         this text";

/// Parsed common bench flags.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchCli {
    /// Run the shortened sweep.
    pub quick: bool,
    /// Worker-thread override for `bicord_sim::par`.
    pub threads: Option<usize>,
    /// Where to write the JSONL timeline of one representative run.
    pub trace: Option<PathBuf>,
    /// Where to append the machine-readable performance record.
    pub out: Option<PathBuf>,
}

/// The mode label used in trace headers (`"bicord"`, `"ecc"`, ...).
pub fn mode_label(mode: &Mode) -> &'static str {
    match mode {
        Mode::Bicord => "bicord",
        Mode::Ecc(_) => "ecc",
        Mode::Unprotected => "unprotected",
        Mode::SignalingTrial { .. } => "signaling_trial",
    }
}

impl BenchCli {
    /// Parses `args` (the flags, without the program or figure name);
    /// prints `usage` and exits on `--help` (status 0) or any error
    /// (status 2). `traceable` says whether there is a representative
    /// run for `--trace` to record.
    pub fn parse_or_exit<I: Iterator<Item = String>>(
        args: I,
        traceable: bool,
        usage: &str,
    ) -> BenchCli {
        match BenchCli::parse(args, traceable) {
            Ok(cli) => cli,
            Err(e) if e == "help" => {
                bicord_sim::stdout::print(&format!("{usage}\n"));
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("error: {e}\n\n{usage}");
                std::process::exit(2);
            }
        }
    }

    /// Parses `args`; `Err("help")` on `--help`, otherwise `Err` names
    /// the offending flag.
    pub fn parse<I: Iterator<Item = String>>(
        mut args: I,
        traceable: bool,
    ) -> Result<BenchCli, String> {
        let mut cli = BenchCli::default();
        let mut full = false;
        let mut seen: Vec<String> = Vec::new();
        while let Some(arg) = args.next() {
            // Every flag is single-occurrence; a repeat is a conflict the
            // user should resolve, not a silent last-one-wins.
            if arg.starts_with("--") && arg != "--help" {
                if seen.contains(&arg) {
                    return Err(format!("{arg} given more than once"));
                }
                seen.push(arg.clone());
            }
            let mut value = |name: &str| match args.next() {
                None => Err(format!("{name} requires a value")),
                Some(v) if v.starts_with("--") => {
                    Err(format!("{name} requires a value, but got the flag {v}"))
                }
                Some(v) => Ok(v),
            };
            match arg.as_str() {
                "--quick" => cli.quick = true,
                "--full" => full = true,
                "--threads" => {
                    let n: usize = value("--threads")?
                        .parse()
                        .map_err(|e| format!("--threads: {e}"))?;
                    if n == 0 {
                        return Err("--threads wants at least 1".to_string());
                    }
                    cli.threads = Some(n);
                }
                "--trace" if !traceable => {
                    return Err("--trace: this run has no traced config".to_string());
                }
                "--trace" => cli.trace = Some(PathBuf::from(value("--trace")?)),
                "--out" => cli.out = Some(PathBuf::from(value("--out")?)),
                "--help" | "-h" => return Err("help".to_string()),
                other => return Err(format!("unknown option '{other}' (try --help)")),
            }
        }
        if cli.quick && full {
            return Err("--quick and --full are mutually exclusive".to_string());
        }
        Ok(cli)
    }

    /// The sweep scale the flags ask for.
    pub fn scale(&self) -> Scale {
        if self.quick {
            Scale::Quick
        } else {
            Scale::Full
        }
    }

    /// Applies the environment-variable-backed options. Must run before
    /// the first `parallel_map` call (the worker pool reads
    /// `BICORD_THREADS` once).
    pub fn apply(&self) {
        if let Some(n) = self.threads {
            std::env::set_var("BICORD_THREADS", n.to_string());
        }
        if let Some(out) = &self.out {
            std::env::set_var("BICORD_BENCH_JSON", out.as_os_str());
        }
    }

    /// If `--trace` was given, runs `config` once with a [`JsonlSink`]
    /// attached and writes the timeline. The traced run is a dedicated
    /// extra simulation — single-threaded by construction — so the file
    /// is bitwise identical for any `--threads` value, and the sweep's
    /// own results are untouched.
    ///
    /// I/O errors are reported on stderr but never fail the bench.
    pub fn maybe_trace(&self, experiment: &str, config: SimConfig) {
        let Some(path) = &self.trace else {
            return;
        };
        let header = TraceHeader::new(
            config.seed,
            mode_label(&config.mode),
            config.duration.as_micros(),
        );
        let mut sink = match JsonlSink::create(path, &header) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("warning: could not create trace {}: {e}", path.display());
                return;
            }
        };
        match CoexistenceSim::with_sink(config, &mut sink) {
            Ok(sim) => {
                sim.run();
            }
            Err(e) => {
                eprintln!("warning: trace run ({experiment}) rejected its config: {e}");
                return;
            }
        }
        match sink.finish() {
            Ok(events) => eprintln!("trace: {events} events -> {}", path.display()),
            Err(e) => eprintln!("warning: trace write failed: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<BenchCli, String> {
        BenchCli::parse(args.iter().map(|s| s.to_string()), true)
    }

    #[test]
    fn defaults_are_full_scale() {
        let cli = parse(&[]).unwrap();
        assert_eq!(cli, BenchCli::default());
        assert_eq!(cli.scale(), Scale::Full);
    }

    #[test]
    fn all_flags_parse() {
        let cli = parse(&[
            "--quick",
            "--threads",
            "4",
            "--trace",
            "t.jsonl",
            "--out",
            "p.json",
        ])
        .unwrap();
        assert_eq!(cli.scale(), Scale::Quick);
        assert_eq!(cli.threads, Some(4));
        assert_eq!(cli.trace.as_deref(), Some(std::path::Path::new("t.jsonl")));
        assert_eq!(cli.out.as_deref(), Some(std::path::Path::new("p.json")));
    }

    #[test]
    fn quick_and_full_conflict() {
        assert!(parse(&["--full"]).is_ok());
        assert!(parse(&["--quick", "--full"]).is_err());
    }

    #[test]
    fn repeated_flags_are_conflicts_not_last_one_wins() {
        let err = parse(&["--out", "a.json", "--out", "b.json"]).unwrap_err();
        assert!(err.contains("--out"), "{err}");
        assert!(err.contains("more than once"), "{err}");
        assert!(parse(&["--threads", "2", "--threads", "4"]).is_err());
        assert!(parse(&["--quick", "--quick"]).is_err());
    }

    #[test]
    fn a_flag_is_never_taken_as_a_value() {
        // `--out --quick` once wrote the record to a file named
        // `--quick` while still running at quick scale.
        for flag in ["--out", "--trace", "--threads"] {
            let err = parse(&[flag, "--quick"]).unwrap_err();
            assert!(err.starts_with(flag), "{err}");
            assert!(err.contains("--quick"), "{err}");
        }
        // A value that merely starts with one dash is still a value.
        let cli = parse(&["--out", "-"]).unwrap();
        assert_eq!(cli.out.as_deref(), Some(std::path::Path::new("-")));
    }

    #[test]
    fn trace_is_an_error_without_a_traced_config() {
        let untraced = |args: &[&str]| BenchCli::parse(args.iter().map(|s| s.to_string()), false);
        let err = untraced(&["--trace", "t.jsonl"]).unwrap_err();
        assert!(err.contains("--trace"), "{err}");
        assert!(untraced(&["--quick", "--out", "p.json"]).is_ok());
    }

    #[test]
    fn bad_inputs_are_errors() {
        assert!(parse(&["--threads"]).is_err());
        assert!(parse(&["--threads", "0"]).is_err());
        assert!(parse(&["--threads", "x"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
        assert!(parse(&["--spec", "s.json"]).is_err());
        assert_eq!(parse(&["--help"]).unwrap_err(), "help");
    }

    #[test]
    fn mode_labels_cover_all_modes() {
        use bicord_scenario::geometry::Location;
        use bicord_sim::SimDuration;
        let b = SimConfig::bicord(Location::A, 1);
        assert_eq!(mode_label(&b.mode), "bicord");
        let e = SimConfig::ecc(Location::A, 1, SimDuration::from_millis(20));
        assert_eq!(mode_label(&e.mode), "ecc");
        let u = SimConfig::unprotected(Location::A, 1);
        assert_eq!(mode_label(&u.mode), "unprotected");
    }
}
