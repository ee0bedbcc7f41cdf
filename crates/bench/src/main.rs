//! `bicord-bench <figure>`: regenerates one table or figure of the BiCord
//! paper (see `bicord_bench::figures` for the table of names).
//!
//! Prints the figure's text on stdout, appends its perf record to
//! `BENCH_results.json`, writes its CSV tables when `BICORD_CSV_DIR` is
//! set, and exits 1 if the run disproved a property the figure checks.

use bicord_bench::figures::{self, FIGURES};
use bicord_bench::{maybe_write_csv, BenchCli, PerfRecorder};

fn usage() -> String {
    let names: Vec<String> = FIGURES
        .iter()
        .map(|f| {
            let traced = if f.trace.is_some() { " (--trace)" } else { "" };
            format!("  {}{traced}", f.name)
        })
        .collect();
    format!(
        "bicord-bench — regenerate one table/figure of the BiCord paper

USAGE:
  bicord-bench <figure> [--quick|--full] [--threads N] [--trace PATH] [--out PATH]

FIGURES:
{}

{}",
        names.join("\n"),
        bicord_bench::cli::OPTIONS
    )
}

fn main() {
    let mut args = std::env::args().skip(1);
    let figure = match args.next() {
        Some(flag) if flag == "--help" || flag == "-h" => {
            println!("{}", usage());
            return;
        }
        Some(name) if !name.starts_with('-') => figures::find(&name).unwrap_or_else(|| {
            eprintln!("error: unknown figure '{name}'\n\n{}", usage());
            std::process::exit(2);
        }),
        _ => {
            eprintln!(
                "error: missing figure name (it comes before the flags)\n\n{}",
                usage()
            );
            std::process::exit(2);
        }
    };
    let cli = BenchCli::parse_or_exit(args, figure.trace.is_some(), &usage());
    cli.apply();
    if let Some(config) = figure.trace {
        cli.maybe_trace(figure.name, config());
    }

    let mut perf = PerfRecorder::start(figure.name, cli.scale());
    let out = (figure.run)(cli.scale());
    perf.cells(out.cells);
    for (name, value) in &out.metrics {
        perf.metric(name, *value);
    }
    perf.finish();
    for (name, table) in &out.csvs {
        maybe_write_csv(name, table);
    }
    print!("{}", out.text);

    if let Some(failure) = out.failure {
        eprintln!("error: {failure}");
        std::process::exit(1);
    }
}
