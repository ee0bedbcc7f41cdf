//! Robustness sweep: BiCord's coordination quality as the fault rate
//! grows (control-packet loss, CTS-to-self loss, phantom CSI detections).
//!
//! Not a paper figure — this exercises the `bicord_sim::fault` layer end
//! to end: at rate 0 the sweep must reproduce the no-fault baseline
//! bit-identically (checked here, the binary fails otherwise), and at
//! high rates the coordinator must degrade gracefully (bounded retries,
//! CSMA fallback) instead of deadlocking.
//!
//! The rate grid runs through the `bicord-sweep` scenario registry
//! ("robustness" entry); pass `--spec FILE [--shard K/N]` to run an
//! arbitrary spec of the same scenario instead of the built-in grid.

use bicord_bench::{run_duration, PerfRecorder, BENCH_SEED};
use bicord_metrics::table::{fmt1, pct, TextTable};
use bicord_scenario::sim::CoexistenceSim;
use bicord_sim::FaultProfile;
use bicord_sweep::registry::robustness_config;
use bicord_sweep::{ParamValue, ResultRow, ScenarioRegistry, SweepSpec};

/// Control-loss rates swept; CTS loss and phantom-CSI rates scale along.
const RATES: [f64; 5] = [0.0, 0.1, 0.25, 0.5, 0.9];

fn metric(row: &ResultRow, name: &str) -> f64 {
    row.metric(name).unwrap_or(f64::NAN)
}

fn count(row: &ResultRow, name: &str) -> u64 {
    metric(row, name) as u64
}

fn main() {
    let cli = bicord_bench::BenchCli::parse_or_exit_sweepable("robustness_sweep");
    cli.apply();
    if bicord_bench::run_spec_mode(&cli, "robustness") {
        return;
    }
    let duration = run_duration(20, 3);
    eprintln!(
        "robustness sweep: {} fault rates x {duration}...",
        RATES.len()
    );
    let mut perf = PerfRecorder::start("robustness_sweep");

    // Rate 0 must be bit-identical to a run without any fault profile.
    let baseline = CoexistenceSim::new({
        let mut c = robustness_config(0.0, BENCH_SEED, duration);
        c.fault = FaultProfile::default();
        c
    })
    .expect("valid baseline config")
    .run();
    let rate0 = CoexistenceSim::new(robustness_config(0.0, BENCH_SEED, duration))
        .expect("valid rate-0 config")
        .run();
    let rate0_identical = rate0 == baseline;
    if !rate0_identical {
        eprintln!("error: rate-0 sweep diverged from the no-fault baseline");
    }

    let registry = ScenarioRegistry::builtin();
    let spec = registry
        .resolve(
            &SweepSpec::new("robustness", BENCH_SEED, 1)
                .axis(
                    "fault_rate",
                    RATES.iter().map(|&r| ParamValue::Float(r)).collect(),
                )
                .axis(
                    "duration_secs",
                    vec![ParamValue::Int(duration.as_secs_f64() as i64)],
                ),
        )
        .expect("built-in grid resolves");
    let rows =
        bicord_sweep::run_cells(&registry, &spec, spec.expand()).expect("built-in grid runs");

    let mut table = TextTable::new(vec![
        "fault rate",
        "PDR",
        "mean delay (ms)",
        "utilization",
        "ZigBee util",
        "rounds",
        "reservations",
        "backoffs",
        "fallbacks",
        "faults (ctl/cts/fp)",
    ]);
    table.title("Robustness sweep — BiCord under injected faults");
    for row in &rows {
        let rate = row
            .params
            .iter()
            .find(|(n, _)| n == "fault_rate")
            .and_then(|(_, v)| match v {
                ParamValue::Float(f) => Some(*f),
                _ => None,
            })
            .unwrap_or(f64::NAN);
        let delay = metric(row, "mean_delay_ms");
        table.row(vec![
            format!("{:.0}%", rate * 100.0),
            pct(metric(row, "pdr")),
            if delay.is_finite() {
                fmt1(delay)
            } else {
                "-".to_string()
            },
            pct(metric(row, "utilization")),
            pct(metric(row, "zigbee_utilization")),
            count(row, "signaling_rounds").to_string(),
            count(row, "reservations").to_string(),
            count(row, "backoffs").to_string(),
            count(row, "csma_fallbacks").to_string(),
            format!(
                "{}/{}/{}",
                count(row, "control_lost"),
                count(row, "cts_lost"),
                count(row, "phantom_csi")
            ),
        ]);
    }
    bicord_bench::maybe_write_csv("robustness_sweep", &table);
    println!("{table}");
    println!(
        "rate-0 reproduces the no-fault baseline bit-identically: {}",
        if rate0_identical { "yes" } else { "NO" }
    );

    let worst = rows.last().expect("non-empty sweep");
    perf.cells(rows.len() + 2);
    perf.metric(
        "rate0_bit_identical",
        if rate0_identical { 1.0 } else { 0.0 },
    );
    perf.metric("baseline_pdr", baseline.zigbee_pdr());
    perf.metric("worst_rate_pdr", metric(worst, "pdr"));
    perf.metric("worst_rate_mean_delay_ms", metric(worst, "mean_delay_ms"));
    perf.metric("worst_rate_utilization", metric(worst, "utilization"));
    perf.metric("worst_rate_csma_fallbacks", metric(worst, "csma_fallbacks"));
    perf.finish();

    if !rate0_identical {
        std::process::exit(1);
    }
}
