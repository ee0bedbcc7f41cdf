//! The table of figures `bicord-bench <figure>` regenerates.
//!
//! Each [`Figure`] pairs a name with the function that runs it at a
//! given [`Scale`] and returns everything the binary emits: the stdout
//! text, the perf-record cell count and metrics, and the CSV tables.
//! Figures that have a representative single run also name its config,
//! which `--trace` records as a JSONL timeline.
//!
//! Every name has a committed `results/<name>.txt` that
//! `scripts/check_results.sh` diffs against a fresh full-scale run.

use std::fmt::{Display, Write as _};

use bicord_core::allocation::AllocatorConfig;
use bicord_core::energy::{clear_channel_burst, failed_attempt};
use bicord_ctc::delay_models::CtcScheme;
use bicord_ctc::folding::{evaluate_folding, FoldingConfig};
use bicord_metrics::table::{fmt1, fmt3, pct, TextTable};
use bicord_phy::csi::{CsiClass, CsiModel, Disturbance};
use bicord_phy::noise::NoiseBurstProcess;
use bicord_phy::units::Dbm;
use bicord_scenario::config::{ExtraNodeConfig, SimConfig};
use bicord_scenario::experiments::{self as exp, MobilityScenario, PriorityRow, Scheme};
use bicord_scenario::geometry::Location;
use bicord_scenario::sim::CoexistenceSim;
use bicord_sim::dist::exponential_duration;
use bicord_sim::{stream_rng, FaultProfile, SeedDomain, SimDuration, SimTime};
use bicord_sweep::registry::robustness_config;
use bicord_sweep::{ParamValue, ResultRow, ScenarioRegistry, SweepSpec};
use bicord_workloads::traffic::ArrivalProcess;

use crate::{Scale, BENCH_SEED};

/// One entry of [`FIGURES`].
#[derive(Debug)]
pub struct Figure {
    /// The command-line name, also the basename of its `results/` file.
    pub name: &'static str,
    /// Runs the figure at the given scale.
    pub run: fn(Scale) -> Output,
    /// The representative run `--trace` records, if the figure has one.
    pub trace: Option<fn() -> SimConfig>,
}

/// Everything one figure run produces.
#[derive(Debug, Default)]
pub struct Output {
    /// The text the binary prints on stdout.
    pub text: String,
    /// Independent `(seed, config)` cells run, for the perf record.
    pub cells: usize,
    /// Key result values, for the perf record.
    pub metrics: Vec<(&'static str, f64)>,
    /// Tables exported as `<name>.csv` under `BICORD_CSV_DIR`.
    pub csvs: Vec<(String, TextTable)>,
    /// Set when the run disproved a property the figure checks; the
    /// binary still prints and records, then exits with status 1.
    pub failure: Option<String>,
}

impl Output {
    /// Appends `item` and a newline to the stdout text.
    fn line(&mut self, item: impl Display) {
        writeln!(self.text, "{item}").expect("writing to a String cannot fail");
    }

    /// Prints `table` and keeps it for the `<name>.csv` export.
    fn csv_table(&mut self, name: impl Into<String>, table: TextTable) {
        self.line(&table);
        self.csvs.push((name.into(), table));
    }
}

/// Every figure, in the order the paper presents them.
pub static FIGURES: [Figure; 16] = [
    traced("table1_2", table1_2, table1_2_trace),
    plain("fig3_csi", fig3_csi),
    traced("fig7_learning", fig7_learning, fig7_trace),
    plain("fig8_iterations", fig8_iterations),
    plain("fig9_whitespace", fig9_whitespace),
    traced("fig10_comparison", fig10_comparison, fig10_trace),
    traced("fig10_replicated", fig10_replicated, fig10_trace),
    plain("fig11_parameters", fig11_parameters),
    plain("fig12_mobility", fig12_mobility),
    plain("fig13_priority", fig13_priority),
    plain("cti_accuracy", cti_accuracy),
    plain("energy_cost", energy_cost),
    plain("motivation_ctc", motivation_ctc),
    traced("multi_node", multi_node, multi_node_trace),
    plain("ablations", ablations),
    plain("robustness_sweep", robustness_sweep),
];

const fn plain(name: &'static str, run: fn(Scale) -> Output) -> Figure {
    Figure {
        name,
        run,
        trace: None,
    }
}

const fn traced(name: &'static str, run: fn(Scale) -> Output, trace: fn() -> SimConfig) -> Figure {
    Figure {
        name,
        run,
        trace: Some(trace),
    }
}

/// The figure called `name`.
pub fn find(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    sum / n as f64
}

/// The representative run `--trace` records for Tables I and II.
fn table1_2_trace() -> SimConfig {
    SimConfig::builder()
        .seed(BENCH_SEED)
        .signaling_trial(4, 60, Dbm::new(0.0))
        .build()
        .expect("trace config is valid")
}

/// Tables I and II: precision and recall of cross-technology signaling
/// at locations A–D, powers {0, −1, −3} dBm, and {3, 4, 5} control
/// packets per request.
fn table1_2(scale: Scale) -> Output {
    let trials = scale.pick(600, 60);
    eprintln!(
        "Table I/II grid: 4 locations x 3 powers x 3 packet counts, {trials} trials each{}...",
        scale.pick("", " (quick)")
    );
    let cells = exp::table1_2(BENCH_SEED, trials);
    let mut out = Output {
        cells: cells.len(),
        metrics: vec![
            ("mean_precision", mean(cells.iter().map(|c| c.precision))),
            ("mean_recall", mean(cells.iter().map(|c| c.recall))),
        ],
        ..Output::default()
    };

    for (metric, pick) in [("Table I — precision", true), ("Table II — recall", false)] {
        let mut headers = vec!["location".to_string()];
        for power in exp::table_powers() {
            for packets in [3, 4, 5] {
                headers.push(format!("{}dBm/{}pkt", power.value(), packets));
            }
        }
        let mut table = TextTable::new(headers);
        table.title(metric);
        for location in Location::all() {
            let mut row = vec![location.label().to_string()];
            for power in exp::table_powers() {
                for packets in [3u32, 4, 5] {
                    let cell = cells
                        .iter()
                        .find(|c| {
                            c.location == location && c.power == power && c.packets == packets
                        })
                        .expect("full grid");
                    row.push(fmt3(if pick { cell.precision } else { cell.recall }));
                }
            }
            table.row(row);
        }
        let csv = if pick {
            "table1_precision"
        } else {
            "table2_recall"
        };
        out.csv_table(csv, table);
    }

    out.line("Paper anchors: precision/recall increase with packet count; location A");
    out.line("is robust across powers; C peaks at -1 dBm; D needs -3 dBm.");
    out
}

const FIG3_WINDOW: SimDuration = SimDuration::from_millis(60);
const FIG3_CONTROL_AIRTIME: SimDuration = SimDuration::from_micros(4_032);

/// One Fig. 3 trace as a sparkline plus the high-fluctuation counts the
/// continuity rule (N = 2 within 5 ms) acts on.
fn fig3_render(out: &mut Output, label: &str, deviations: &[f64], model: &CsiModel) {
    let threshold = model.classify_threshold();
    let highs = deviations.iter().filter(|d| **d >= threshold).count();
    let spark: String = deviations
        .iter()
        .map(|d| {
            if *d >= threshold {
                '#'
            } else if *d >= threshold / 2.0 {
                '+'
            } else {
                '.'
            }
        })
        .collect();
    // Count adjacent high pairs within 5 ms (the continuity rule's
    // evidence).
    let mut pairs = 0;
    let mut last_high: Option<usize> = None;
    for (i, d) in deviations.iter().enumerate() {
        if *d >= threshold {
            if let Some(j) = last_high {
                if (i - j) * 500 <= 5_000 {
                    pairs += 1;
                }
            }
            last_high = Some(i);
        }
    }
    out.line(label);
    out.line(format_args!("  {spark}"));
    out.line(format_args!(
        "  high fluctuations: {highs:2}   pairs within 5 ms: {pairs:2}   detector fires: {}",
        pairs > 0
    ));
}

/// Fig. 3: the CSI amplitude-deviation traces a Wi-Fi receiver observes
/// under (a) strong noise only and (b–d) one to three overlapping ZigBee
/// control packets, each 60 ms trace printed as a text sparkline.
fn fig3_csi(_scale: Scale) -> Output {
    let mut out = Output {
        cells: 4,
        ..Output::default()
    };
    let model = CsiModel::intel5300();
    let mut rng = stream_rng(BENCH_SEED, SeedDomain::Csi, 9);
    let samples = (FIG3_WINDOW / model.sample_period()) as usize;
    // Hoist the registration-probability evaluation out of the sample loops.
    let idle = model.sampler(Disturbance::None);
    let noisy = model.sampler(Disturbance::NoiseBurst { sir_db: -12.0 });
    let zigbee = model.sampler(Disturbance::Zigbee { sir_db: -12.0 });

    out.line(format_args!(
        "Fig. 3 — CSI amplitude deviation over a {FIG3_WINDOW} window (one char = 500 us)"
    ));
    out.line("('.' slight jitter, '+' elevated, '#' high fluctuation)\n");

    // (a) Strong noise only.
    let noise = NoiseBurstProcess::new(40.0, SimDuration::from_micros(600), -48.0, 3.0);
    let mut noise_rng = stream_rng(BENCH_SEED, SeedDomain::Noise, 9);
    let bursts = noise.bursts_in(&mut noise_rng, SimTime::ZERO, SimTime::ZERO + FIG3_WINDOW);
    let trace: Vec<f64> = (0..samples)
        .map(|i| {
            let t = SimTime::ZERO + model.sample_period() * i as u64;
            let t_end = t + model.sample_period();
            if bursts.iter().any(|b| b.overlaps(t, t_end)) {
                noisy.deviation(&mut rng)
            } else {
                idle.deviation(&mut rng)
            }
        })
        .collect();
    fig3_render(&mut out, "(a) strong noise only", &trace, &model);

    // (b-d) k ZigBee control packets starting at 20 ms.
    for k in 1..=3u64 {
        let trace: Vec<f64> = (0..samples)
            .map(|i| {
                let t = SimTime::ZERO + model.sample_period() * i as u64;
                let in_packet = (0..k).any(|p| {
                    let start = SimTime::from_millis(20)
                        + FIG3_CONTROL_AIRTIME * p
                        + SimDuration::from_micros(700) * p;
                    t >= start && t < start + FIG3_CONTROL_AIRTIME
                });
                if in_packet {
                    zigbee.deviation(&mut rng)
                } else {
                    idle.deviation(&mut rng)
                }
            })
            .collect();
        let label = format!(
            "({}) {k} ZigBee control packet(s)",
            (b'a' + k as u8) as char
        );
        fig3_render(&mut out, &label, &trace, &model);
    }

    out.line("");
    out.line("Noise leaves isolated spikes; ZigBee packets leave *runs* of high");
    out.line(format_args!(
        "fluctuations — the continuity the detector keys on (CsiClass::{:?}).",
        CsiClass::HighFluctuation
    ));
    out
}

/// The representative run `--trace` records for Fig. 7.
fn fig7_trace() -> SimConfig {
    SimConfig::builder()
        .seed(BENCH_SEED)
        .duration(SimDuration::from_secs(8))
        .burst(10, 50)
        .arrivals(ArrivalProcess::Periodic(SimDuration::from_millis(200)))
        .allocator(AllocatorConfig {
            initial_step: SimDuration::from_millis(30),
            ..AllocatorConfig::default()
        })
        .build()
        .expect("trace config is valid")
}

/// Fig. 7: the white-space length granted per iteration of the
/// adjustment phase for a 10-packet burst and a 30 ms learning step. The
/// paper converges to ≈ 70 ms after ≈ 5 iterations for a burst lasting
/// 62.7 ms.
fn fig7_learning(_scale: Scale) -> Output {
    eprintln!("Fig. 7: learning a 10-packet burst with a 30 ms step at location A...");
    let run = exp::fig7_learning(BENCH_SEED);
    let mut out = Output {
        cells: 1,
        metrics: vec![("final_ws_ms", run.final_ws_ms)],
        ..Output::default()
    };

    let mut table = TextTable::new(vec!["reservation #", "white space (ms)"]);
    table.title("Fig. 7 — white-space length during the adjustment phase");
    for (i, ws) in run.ws_history_ms.iter().enumerate() {
        table.row(vec![(i + 1).to_string(), fmt1(*ws)]);
    }
    out.line(&table);

    // The staircase, as a sparkline.
    let max = run.ws_history_ms.iter().cloned().fold(1.0, f64::max);
    let bars: String = run
        .ws_history_ms
        .iter()
        .map(|w| {
            let level = (w / max * 7.0).round() as usize;
            char::from_u32(0x2581 + level.min(7) as u32).unwrap_or('#')
        })
        .collect();
    out.line(format_args!("staircase: {bars}\n"));

    out.line(format_args!(
        "burst duration      {:.1} ms (paper: 62.7 ms)",
        run.burst_duration_ms
    ));
    out.line(format_args!(
        "converged estimate  {:.1} ms after {} estimate updates (paper: ~70 ms after ~5)",
        run.final_ws_ms, run.iterations
    ));
    out.line(format_args!("converged           {}", run.converged));
    out
}

/// Fig. 8: iterations needed by the Wi-Fi device to adjust the white
/// space — locations {A, B} × steps {30, 40} ms × bursts {5, 10, 15}
/// packets, averaged over repeated runs (30 in the paper). The paper's
/// headline: always below 8 iterations; more packets or a shorter step
/// need more iterations.
fn fig8_iterations(scale: Scale) -> Output {
    let runs = scale.pick(30, 5);
    eprintln!("Fig. 8: sweeping 2 locations x 2 steps x 3 burst sizes, {runs} runs each...");
    let rows = exp::fig8_fig9(BENCH_SEED, runs, SimDuration::from_secs(8));
    let max_iter = rows.iter().map(|r| r.mean_iterations).fold(0.0, f64::max);
    let mut out = Output {
        cells: rows.len() * runs as usize,
        metrics: vec![("max_mean_iterations", max_iter)],
        ..Output::default()
    };

    let mut table = TextTable::new(vec![
        "location",
        "step (ms)",
        "burst (pkts)",
        "mean iterations",
        "converged runs",
    ]);
    table.title("Fig. 8 — iterations to converge (paper: always < 8)");
    for row in &rows {
        table.row(vec![
            row.location.label().to_string(),
            row.step_ms.to_string(),
            row.burst_packets.to_string(),
            fmt1(row.mean_iterations),
            format!("{:.0}%", row.converged_fraction * 100.0),
        ]);
    }
    out.line(&table);
    out.line(format_args!(
        "maximum mean iterations: {max_iter:.1} (paper bound: 8)"
    ));
    out
}

/// Fig. 9: the white space generated after the adjustment phase versus
/// burst size, with the over-provision ratios the paper reports
/// (27.1 % / 12.5 % / 20.4 % for 5 / 10 / 15 packets).
fn fig9_whitespace(scale: Scale) -> Output {
    let runs = scale.pick(30, 5);
    eprintln!("Fig. 9: converged white space across the Fig. 8 grid, {runs} runs each...");
    let rows = exp::fig8_fig9(BENCH_SEED, runs, SimDuration::from_secs(8));
    let mut out = Output {
        cells: rows.len() * runs as usize,
        metrics: vec![(
            "mean_overprovision",
            mean(rows.iter().map(|r| r.mean_overprovision)),
        )],
        ..Output::default()
    };

    let mut table = TextTable::new(vec![
        "location",
        "step (ms)",
        "burst (pkts)",
        "burst length (ms)",
        "white space (ms)",
        "over-provision",
    ]);
    table.title("Fig. 9 — white space after the adjustment phase");
    for row in &rows {
        table.row(vec![
            row.location.label().to_string(),
            row.step_ms.to_string(),
            row.burst_packets.to_string(),
            fmt1(row.burst_duration_ms),
            fmt1(row.mean_final_ws_ms),
            pct(row.mean_overprovision),
        ]);
    }
    out.line(&table);

    out.line("Paper anchors: the white space tracks the burst length; longer steps");
    out.line("over-provision more; reported over-provision 27.1/12.5/20.4% for 5/10/15");
    out.line("packets — an acceptable cost since, unlike ECC, the space is always used.");
    out
}

/// The representative run `--trace` records for both Fig. 10 variants.
fn fig10_trace() -> SimConfig {
    SimConfig::builder()
        .seed(BENCH_SEED)
        .duration(SimDuration::from_secs(5))
        .build()
        .expect("trace config is valid")
}

/// Fig. 10: BiCord versus ECC-20/30/40 ms over the paper's five Poisson
/// burst intervals — (a) channel utilization, (b) mean ZigBee delay,
/// (c) ZigBee throughput.
///
/// Paper anchors: BiCord stays above 80 % utilization everywhere and
/// beats ECC by up to 50.6 % at the 2 s interval; BiCord's delay stays
/// below ~30 ms while ECC's grows with traffic sparsity (−84.2 % on
/// average); BiCord's throughput is never capped by a fixed white space.
fn fig10_comparison(scale: Scale) -> Output {
    let duration = scale.secs(60, 6);
    eprintln!("Fig. 10: 4 schemes x 5 intervals, {duration} each...");
    let rows = exp::fig10_comparison(BENCH_SEED, duration);
    let mut out = Output {
        cells: rows.len(),
        metrics: vec![(
            "bicord_mean_utilization",
            mean(
                rows.iter()
                    .filter(|r| r.scheme == Scheme::Bicord)
                    .map(|r| r.utilization),
            ),
        )],
        ..Output::default()
    };

    for (title, metric) in [
        ("Fig. 10(a) — channel utilization", 0usize),
        ("Fig. 10(b) — mean ZigBee delay (ms)", 1),
        ("Fig. 10(c) — ZigBee throughput (kb/s)", 2),
    ] {
        let mut headers = vec!["interval".to_string()];
        for scheme in Scheme::fig10_set() {
            headers.push(scheme.label());
        }
        let mut table = TextTable::new(headers);
        table.title(title);
        let mut intervals: Vec<u64> = rows.iter().map(|r| r.interval_ms).collect();
        intervals.dedup();
        for interval in intervals {
            let mut row = vec![format!("{interval} ms")];
            for scheme in Scheme::fig10_set() {
                let cell = rows
                    .iter()
                    .find(|r| r.interval_ms == interval && r.scheme == scheme)
                    .expect("full grid");
                row.push(match metric {
                    0 => pct(cell.utilization),
                    1 => cell
                        .mean_delay_ms
                        .map(fmt1)
                        .unwrap_or_else(|| "-".to_string()),
                    _ => fmt1(cell.throughput_kbps),
                });
            }
            table.row(row);
        }
        out.csv_table(format!("fig10_metric{metric}"), table);
    }

    // Headline ratios at the sparsest interval.
    let at = |scheme: Scheme, interval: u64| {
        rows.iter()
            .find(|r| r.scheme == scheme && r.interval_ms == interval)
            .expect("grid")
    };
    let bicord = at(Scheme::Bicord, 2000);
    let worst_ecc = Scheme::fig10_set()[1..]
        .iter()
        .map(|s| at(*s, 2000).utilization)
        .fold(f64::MAX, f64::min);
    out.line(format_args!(
        "utilization gain over the weakest ECC at the 2 s interval: {} (paper: +50.6%)",
        pct(bicord.utilization / worst_ecc - 1.0)
    ));
    let mut ratios = Vec::new();
    for r in &rows {
        if r.scheme == Scheme::Bicord {
            continue;
        }
        let b = at(Scheme::Bicord, r.interval_ms);
        if let (Some(bd), Some(ed)) = (b.mean_delay_ms, r.mean_delay_ms) {
            ratios.push(1.0 - bd / ed);
        }
    }
    let mean_ratio = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
    out.line(format_args!(
        "mean delay reduction vs ECC: {} (paper: 84.2%)",
        pct(mean_ratio)
    ));
    out
}

/// Fig. 10 with replication: the BiCord-vs-ECC comparison repeated over
/// several seeds, reported as mean ± 95 % CI per cell. The single-seed
/// `fig10_comparison` remains the paper-shaped view; this one shows how
/// stable the numbers are.
fn fig10_replicated(scale: Scale) -> Output {
    let duration = scale.secs(30, 4);
    let runs = scale.pick(5, 2);
    eprintln!("Fig. 10 replicated: 4 schemes x 5 intervals, {runs} x {duration} each...");
    let cells = exp::fig10_replicated(BENCH_SEED, runs, duration);
    let mut out = Output {
        cells: cells.len() * runs as usize,
        metrics: vec![(
            "bicord_mean_utilization",
            mean(
                cells
                    .iter()
                    .filter(|c| c.scheme == Scheme::Bicord)
                    .map(|c| c.utilization.mean()),
            ),
        )],
        ..Output::default()
    };

    for (title, pick) in [
        ("Fig. 10(a) — utilization, mean ± 95% CI", 0usize),
        ("Fig. 10(b) — mean ZigBee delay (ms), mean ± 95% CI", 1),
    ] {
        let mut headers = vec!["interval".to_string()];
        for scheme in Scheme::fig10_set() {
            headers.push(scheme.label());
        }
        let mut table = TextTable::new(headers);
        table.title(title);
        let mut intervals: Vec<u64> = cells.iter().map(|c| c.interval_ms).collect();
        intervals.dedup();
        for interval in intervals {
            let mut row = vec![format!("{interval} ms")];
            for scheme in Scheme::fig10_set() {
                let cell = cells
                    .iter()
                    .find(|c| c.interval_ms == interval && c.scheme == scheme)
                    .expect("full grid");
                row.push(match pick {
                    0 => format!(
                        "{:.1}% ± {:.1}",
                        cell.utilization.mean() * 100.0,
                        cell.utilization.ci95_halfwidth() * 100.0
                    ),
                    _ => {
                        if cell.delay_ms.is_empty() {
                            "-".to_string()
                        } else {
                            format!(
                                "{:.1} ± {:.1}",
                                cell.delay_ms.mean(),
                                cell.delay_ms.ci95_halfwidth()
                            )
                        }
                    }
                });
            }
            table.row(row);
        }
        out.csv_table(format!("fig10_replicated_{pick}"), table);
    }
    out.line("The paper's orderings hold across seeds: BiCord flat and on top for");
    out.line("sparse traffic, ECC degrading monotonically with sparsity.");
    out
}

/// Fig. 11: BiCord's channel utilization split and per-packet delay as a
/// function of (a) ZigBee packet length, (b) packets per burst, (c)
/// sender location — plus (d) the delay view.
///
/// Paper anchors: total utilization stays around 80 % across all three
/// sweeps; the ZigBee share grows with burst duration; delay stays under
/// 80 ms and around 30 ms for small bursts.
fn fig11_parameters(scale: Scale) -> Output {
    let duration = scale.secs(40, 6);
    eprintln!("Fig. 11: three parameter sweeps, {duration} each...");
    let rows = exp::fig11_parameters(BENCH_SEED, duration);
    let min_util = rows.iter().map(|r| r.utilization).fold(f64::MAX, f64::min);
    let mut out = Output {
        cells: rows.len(),
        metrics: vec![("min_utilization", min_util)],
        ..Output::default()
    };

    for (dimension, title) in [
        ("packet_length", "Fig. 11(a) — utilization vs packet length"),
        (
            "burst_size",
            "Fig. 11(b) — utilization vs packets per burst",
        ),
        ("location", "Fig. 11(c) — utilization vs sender location"),
    ] {
        let mut table = TextTable::new(vec![
            "value",
            "total utilization",
            "ZigBee share",
            "Wi-Fi share",
        ]);
        table.title(title);
        for row in rows.iter().filter(|r| r.dimension == dimension) {
            table.row(vec![
                row.value.clone(),
                pct(row.utilization),
                pct(row.zigbee_utilization),
                pct(row.utilization - row.zigbee_utilization),
            ]);
        }
        out.line(&table);
    }

    let mut table = TextTable::new(vec!["dimension", "value", "mean delay (ms)"]);
    table.title("Fig. 11(d) — mean per-packet ZigBee delay");
    for row in &rows {
        table.row(vec![
            row.dimension.to_string(),
            row.value.clone(),
            row.mean_delay_ms
                .map(fmt1)
                .unwrap_or_else(|| "-".to_string()),
        ]);
    }
    out.line(&table);

    out.line(format_args!(
        "minimum total utilization across all sweeps: {} (paper: ~80%)",
        pct(min_util)
    ));
    out
}

/// Fig. 12: channel utilization and ZigBee delay in the static,
/// person-mobility and device-mobility scenarios.
///
/// Paper anchors: mobility costs at most ~9 % utilization; device
/// mobility adds ≈ 3 ms of delay from retransmissions and extra control
/// packets.
fn fig12_mobility(scale: Scale) -> Output {
    let duration = scale.secs(30, 6);
    let runs = scale.pick(5, 1);
    eprintln!("Fig. 12: three scenarios x two burst intervals, {runs} x {duration} each...");
    let cells = exp::fig12_mobility_replicated(BENCH_SEED, runs, duration);
    let mut out = Output {
        cells: cells.len() * runs as usize,
        metrics: vec![(
            "mean_utilization",
            mean(cells.iter().map(|c| c.utilization.mean())),
        )],
        ..Output::default()
    };

    let mut table = TextTable::new(vec![
        "scenario",
        "burst interval",
        "utilization (mean ± 95% CI)",
        "mean delay (ms)",
    ]);
    table.title("Fig. 12 — mobile scenarios (BiCord)");
    for cell in &cells {
        table.row(vec![
            cell.scenario.label().to_string(),
            format!("{} ms", cell.interval_ms),
            format!(
                "{} ± {:.1}pp",
                pct(cell.utilization.mean()),
                cell.utilization.ci95_halfwidth() * 100.0
            ),
            if cell.delay_ms.is_empty() {
                "-".to_string()
            } else {
                format!(
                    "{} ± {}",
                    fmt1(cell.delay_ms.mean()),
                    fmt1(cell.delay_ms.ci95_halfwidth())
                )
            },
        ]);
    }
    out.csv_table("fig12_mobility", table);

    let util = |s: MobilityScenario| {
        mean(
            cells
                .iter()
                .filter(|c| c.scenario == s)
                .map(|c| c.utilization.mean()),
        )
    };
    let s = util(MobilityScenario::Static);
    let p = util(MobilityScenario::PersonMobility);
    let d = util(MobilityScenario::DeviceMobility);
    out.line(format_args!(
        "utilization drop vs static: person {:.1} pp, device {:.1} pp (paper: <= 9 pp)",
        (s - p) * 100.0,
        (s - d) * 100.0
    ));
    let delay = |s: MobilityScenario| {
        let v: Vec<f64> = cells
            .iter()
            .filter(|c| c.scenario == s && !c.delay_ms.is_empty())
            .map(|c| c.delay_ms.mean())
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    out.line(format_args!(
        "device-mobility delay penalty: {:.1} ms (paper: +3.13 ms)",
        delay(MobilityScenario::DeviceMobility) - delay(MobilityScenario::Static)
    ));
    out
}

/// Fig. 13: coexistence under prioritised Wi-Fi traffic — total/ZigBee
/// utilization and low-priority Wi-Fi delay as the high-priority share
/// grows from 0.1 to 0.5.
///
/// Paper anchors: BiCord beats ECC-20/30 ms on total utilization by
/// 3.11 %/9.76 % and on ZigBee utilization by 46.05 %/27.97 %; BiCord's
/// low-priority Wi-Fi delay is ~6 % lower than ECC's; high-priority
/// traffic sees (nearly) zero delay because requests are simply ignored.
fn fig13_priority(scale: Scale) -> Output {
    let duration = scale.secs(10, 4);
    eprintln!("Fig. 13: 3 schemes x 5 priority shares, {duration} each...");
    let rows = exp::fig13_priority(BENCH_SEED, duration);
    let scheme_mean = |scheme: Scheme, f: &dyn Fn(&PriorityRow) -> f64| {
        mean(rows.iter().filter(|r| r.scheme == scheme).map(f))
    };
    let total = |r: &PriorityRow| r.utilization;
    let zb = |r: &PriorityRow| r.zigbee_utilization;
    let mut out = Output {
        cells: rows.len(),
        metrics: vec![(
            "bicord_mean_utilization",
            scheme_mean(Scheme::Bicord, &total),
        )],
        ..Output::default()
    };

    let mut table = TextTable::new(vec![
        "high-prio share",
        "scheme",
        "total utilization",
        "ZigBee share",
        "low-prio Wi-Fi delay (ms)",
        "ignored requests",
    ]);
    table.title("Fig. 13 — prioritised Wi-Fi traffic");
    for row in &rows {
        table.row(vec![
            format!("{:.0}%", row.proportion * 100.0),
            row.scheme.label(),
            pct(row.utilization),
            pct(row.zigbee_utilization),
            row.wifi_low_delay_ms
                .map(fmt1)
                .unwrap_or_else(|| "-".to_string()),
            row.ignored_requests.to_string(),
        ]);
    }
    out.csv_table("fig13_priority", table);

    out.line(format_args!(
        "mean total utilization: BiCord {} vs ECC-20 {} vs ECC-30 {} (paper: +3.11%/+9.76%)",
        pct(scheme_mean(Scheme::Bicord, &total)),
        pct(scheme_mean(Scheme::Ecc(20), &total)),
        pct(scheme_mean(Scheme::Ecc(30), &total)),
    ));
    out.line(format_args!(
        "mean ZigBee utilization: BiCord {} vs ECC-20 {} vs ECC-30 {} (paper: +46.05%/+27.97%)",
        pct(scheme_mean(Scheme::Bicord, &zb)),
        pct(scheme_mean(Scheme::Ecc(20), &zb)),
        pct(scheme_mean(Scheme::Ecc(30), &zb)),
    ));
    out
}

/// Sec. VII-A: recognising Wi-Fi interference among RSSI traces of four
/// technologies (paper: 96.39 %) and identifying which of three Wi-Fi
/// devices transmitted (paper: 89.76 % ± 2.14).
fn cti_accuracy(scale: Scale) -> Output {
    let traces = scale.pick(200, 40);
    eprintln!("CTI detection: {traces} traces per technology / device...");
    let acc = exp::cti_accuracy(BENCH_SEED, traces);
    let mut out = Output {
        // 4 technologies + 3 training devices, plus the test traces.
        cells: traces * 7 + traces.max(30) * 3,
        metrics: vec![
            ("wifi_detection_accuracy", acc.wifi_detection_accuracy),
            ("device_id_accuracy", acc.device_id_accuracy),
        ],
        ..Output::default()
    };

    let mut table = TextTable::new(vec!["metric", "measured", "paper"]);
    table.title("Sec. VII-A — CTI detection accuracy");
    table.row(vec![
        "Wi-Fi vs other technologies".into(),
        pct(acc.wifi_detection_accuracy),
        "96.39%".into(),
    ]);
    table.row(vec![
        "Wi-Fi device identification".into(),
        pct(acc.device_id_accuracy),
        "89.76%".into(),
    ]);
    table.row(vec![
        "identification std-dev".into(),
        pct(acc.device_id_std),
        "2.14%".into(),
    ]);
    out.line(&table);
    out
}

/// Sec. VII-B: BiCord's energy overhead for a ten-packet 120 B burst
/// versus a clear channel (paper: 10–21 %), and the break-even against
/// retransmissions.
fn energy_cost(scale: Scale) -> Output {
    let mut out = Output::default();
    let rows = exp::energy_cost();
    let mut table = TextTable::new(vec![
        "control packets",
        "baseline (mJ)",
        "BiCord (mJ)",
        "overhead",
    ]);
    table.title("Sec. VII-B — energy of a 10 x 120 B burst (paper: 10-21% overhead)");
    for row in &rows {
        table.row(vec![
            row.n_control.to_string(),
            fmt3(row.baseline_mj),
            fmt3(row.bicord_mj),
            pct(row.overhead),
        ]);
    }
    out.line(&table);

    // Break-even: how many retransmissions cost as much as coordinating?
    let base = clear_channel_burst(10, 120, Dbm::new(0.0), SimDuration::from_millis(4)).total_mj();
    let retry = failed_attempt(120, Dbm::new(0.0)).total_mj();
    let bicord_extra = rows.last().expect("two rows").bicord_mj - base;
    out.line(format_args!(
        "one failed attempt costs {retry:.3} mJ; BiCord's full coordination costs \
         {bicord_extra:.3} mJ — break-even at {:.1} retransmissions (paper: > 2)",
        bicord_extra / retry
    ));

    // The same calculation with coordination overheads *measured* from a
    // live simulation of the Sec. VII-B workload.
    let measured = exp::energy_cost_measured(BENCH_SEED, scale.secs(30, 5));
    out.cells = 1;
    out.metrics.push(("measured_overhead", measured.overhead));
    out.line("");
    out.line(format_args!(
        "measured from simulation: {:.1} control packets per burst, ~{:.1} ms of \
         white-space wait",
        measured.controls_per_burst, measured.listen_ms
    ));
    out.line(format_args!(
        "  baseline {:.3} mJ, BiCord {:.3} mJ -> overhead {} (paper band: 10-21%)",
        measured.baseline_mj,
        measured.bicord_mj,
        pct(measured.overhead)
    ));
    out
}

/// Sec. III-A: ECC's interval estimation ("folding") phase-locks on
/// periodic traffic but not on Poisson arrivals of the same mean.
fn folding_sweep(out: &mut Output) {
    let horizon = SimTime::from_secs(60);
    let mut table = TextTable::new(vec![
        "traffic",
        "mean interval",
        "hit rate",
        "wasted reservations",
    ]);
    table.title("Sec. III-A — ECC's interval estimation only helps periodic traffic");
    for interval_ms in [200u64, 400, 1000] {
        // Strictly periodic arrivals:
        let periodic: Vec<SimTime> = (1..)
            .map(|k| SimTime::from_millis(interval_ms * k))
            .take_while(|t| *t < horizon)
            .collect();
        let p = evaluate_folding(FoldingConfig::default(), &periodic, horizon);
        table.row(vec![
            "periodic".into(),
            format!("{interval_ms} ms"),
            pct(p.hit_rate()),
            pct(p.waste_rate()),
        ]);
        // Poisson arrivals with the same mean:
        let mut rng = stream_rng(BENCH_SEED, SeedDomain::Traffic, interval_ms);
        let mut t = SimTime::ZERO;
        let mut poisson = Vec::new();
        loop {
            t += exponential_duration(&mut rng, SimDuration::from_millis(interval_ms));
            if t >= horizon {
                break;
            }
            poisson.push(t);
        }
        let q = evaluate_folding(FoldingConfig::default(), &poisson, horizon);
        table.row(vec![
            "Poisson".into(),
            format!("{interval_ms} ms"),
            pct(q.hit_rate()),
            pct(q.waste_rate()),
        ]);
    }
    out.line(&table);
    out.line("Folding phase-locks to periodic arrivals and stops wasting reservations;");
    out.line("under Poisson traffic it stays in blind mode — the paper's argument that");
    out.line("interval estimation cannot substitute for explicit requests.\n");
}

/// The Sec. III motivation analysis: (a) why ECC's folding variant
/// cannot replace explicit requests (Sec. III-A), and (b) the latency of
/// existing ZigBee→Wi-Fi CTC schemes versus the white-space timescales a
/// coordination scheme must hit (Sec. III-B).
fn motivation_ctc(_scale: Scale) -> Output {
    let mut out = Output::default();
    folding_sweep(&mut out);
    let rows = exp::motivation_ctc();
    let mut table = TextTable::new(vec![
        "scheme",
        "one-bit latency on busy channel",
        "works under Wi-Fi traffic",
    ]);
    table.title("Sec. III-B — why existing CTC cannot carry the channel request");
    for scheme in CtcScheme::all() {
        let row = rows
            .iter()
            .find(|r| r.scheme == scheme.name)
            .expect("all schemes modelled");
        table.row(vec![
            scheme.name.to_string(),
            row.one_bit_ms
                .map(|ms| format!("{} ms", fmt1(ms)))
                .unwrap_or_else(|| "cannot operate".to_string()),
            scheme.works_on_busy_channel.to_string(),
        ]);
    }
    out.line(&table);
    out.line("A typical burst needs a ~30 ms white space; AdaComm's 110 ms Barker");
    out.line("synchronisation alone overshoots it ~4x. BiCord's one-bit signal needs no");
    out.line("synchronisation at all, which is the paper's central design argument.");
    out
}

/// Runs a built-in grid of a registry scenario in-process.
fn run_registry_grid(spec: SweepSpec) -> Vec<ResultRow> {
    let registry = ScenarioRegistry::builtin();
    let spec = registry.resolve(&spec).expect("built-in grid resolves");
    bicord_sweep::run_cells(&registry, &spec, spec.expand()).expect("built-in grid runs")
}

fn param<'a>(row: &'a ResultRow, name: &str) -> Option<&'a ParamValue> {
    row.params.iter().find(|(n, _)| n == name).map(|(_, v)| v)
}

fn metric(row: &ResultRow, name: &str) -> f64 {
    row.metric(name).unwrap_or(f64::NAN)
}

/// The representative run `--trace` records for the multi-node grid.
fn multi_node_trace() -> SimConfig {
    SimConfig::builder()
        .seed(BENCH_SEED)
        .duration(SimDuration::from_secs(5))
        .extra_node(ExtraNodeConfig::at(Location::C))
        .build()
        .expect("trace config is valid")
}

/// The Sec. VI extension: **multiple coexisting ZigBee nodes with
/// different traffic patterns** sharing one Wi-Fi coordinator, against
/// ECC-30 as the baseline. The paper sketches this case but does not
/// evaluate it. The grid runs through the scenario registry's
/// `multi_node` entry.
fn multi_node(scale: Scale) -> Output {
    let duration = scale.secs(30, 5);
    eprintln!("Multi-node: 1-3 heterogeneous ZigBee pairs x 2 schemes, {duration} each...");
    let rows = run_registry_grid(
        SweepSpec::new("multi_node", BENCH_SEED, 1)
            .axis(
                "scheme",
                vec![
                    ParamValue::Str("bicord".to_string()),
                    ParamValue::Str("ecc-30".to_string()),
                ],
            )
            .axis(
                "n_nodes",
                vec![ParamValue::Int(1), ParamValue::Int(2), ParamValue::Int(3)],
            )
            .axis(
                "duration_secs",
                vec![ParamValue::Int(duration.as_secs_f64() as i64)],
            ),
    );
    let mut out = Output {
        cells: rows.len(),
        metrics: vec![(
            "mean_aggregate_pdr",
            rows.iter()
                .filter_map(|r| r.metric("aggregate_pdr"))
                .sum::<f64>()
                / rows.len() as f64,
        )],
        ..Output::default()
    };

    let mut table = TextTable::new(vec![
        "scheme",
        "nodes",
        "utilization",
        "aggregate PDR",
        "mean delay (ms)",
        "per-node PDR",
    ]);
    table.title("Multiple ZigBee nodes (A: 5-pkt, C: 10-pkt, D: 3-pkt bursts)");
    for row in &rows {
        let per_node: Vec<String> = row
            .metrics
            .iter()
            .filter(|(name, _)| name.starts_with("pdr_node_"))
            .map(|(_, pdr)| format!("{:.0}%", pdr * 100.0))
            .collect();
        let shown = |name: &str| {
            param(row, name)
                .map(ToString::to_string)
                .unwrap_or_default()
        };
        table.row(vec![
            shown("scheme"),
            shown("n_nodes"),
            pct(metric(row, "utilization")),
            pct(metric(row, "aggregate_pdr")),
            row.metric("mean_delay_ms")
                .filter(|d| d.is_finite())
                .map(fmt1)
                .unwrap_or_else(|| "-".into()),
            per_node.join(" / "),
        ]);
    }
    out.line(&table);
    out.line("Finding: every node stays served (PDR ~100%) under both schemes, but");
    out.line("BiCord's single shared estimate thrashes when heterogeneous nodes");
    out.line("interleave their requests — utilization and delay degrade with node");
    out.line("count, while blind periodic ECC is insensitive to it. The paper notes");
    out.line("multi-node re-adjustment as necessary but does not evaluate it; this");
    out.line("bench shows it is the scheme's main open problem (per-node estimates");
    out.line("would need the Wi-Fi side to *identify* the requesting node, which");
    out.line("one-bit signaling cannot).");
    out
}

/// Ablations of the design choices DESIGN.md calls out: (1) the
/// **continuity rule** of the CSI detector (N high fluctuations within
/// T) versus raw thresholding, and (2) the **allocator stabilisers**
/// (opportunistic shrink + re-estimation confirmation) added on top of
/// the paper's Eq. 1.
fn ablations(scale: Scale) -> Output {
    let mut out = Output::default();
    let trials = scale.pick(300, 40);
    eprintln!("Ablation 1: detector rule sweep (N x T), {trials} trials per cell...");
    let rows = exp::ablation_detector(BENCH_SEED, trials);
    let mut table = TextTable::new(vec!["N (highs)", "T (ms)", "precision", "recall"]);
    table.title("Ablation — CSI detector continuity rule (location C, -1 dBm, 4 packets)");
    for row in &rows {
        table.row(vec![
            row.required_highs.to_string(),
            row.window_ms.to_string(),
            fmt3(row.precision),
            fmt3(row.recall),
        ]);
    }
    out.line(&table);
    let precision_at = |highs: usize| {
        rows.iter()
            .filter(|r| r.required_highs == highs)
            .map(|r| r.precision)
            .sum::<f64>()
            / 3.0
    };
    let (n1, n2) = (precision_at(1), precision_at(2));
    out.line(format_args!(
        "mean precision N=1: {} vs N=2: {} — the continuity rule is what",
        fmt3(n1),
        fmt3(n2)
    ));
    out.line("rejects isolated noise spikes (paper Sec. V / Fig. 3).\n");

    let duration = scale.secs(30, 5);
    eprintln!("Ablation 2: allocator stabilisers, {duration} per cell...");
    let rows = exp::ablation_allocator(BENCH_SEED, duration);
    let mut table = TextTable::new(vec![
        "interval",
        "variant",
        "utilization",
        "mean delay (ms)",
        "mean white space (ms)",
        "reservations",
    ]);
    table.title("Ablation — white-space allocator stabilisers");
    for row in &rows {
        table.row(vec![
            format!("{} ms", row.interval_ms),
            row.variant.to_string(),
            pct(row.utilization),
            row.mean_delay_ms.map(fmt1).unwrap_or_else(|| "-".into()),
            fmt1(row.mean_ws_ms),
            row.reservations.to_string(),
        ]);
    }
    out.line(&table);
    out.line("Without the shrink path, burst merging under dense traffic ratchets the");
    out.line("estimate to the cap and utilization collapses; without confirmation,");
    out.line("detector false positives distort a converged estimate immediately.");

    out.cells = 9 + rows.len();
    out.metrics = vec![
        ("detector_n2_mean_precision", n2),
        (
            "allocator_full_mean_utilization",
            rows.iter()
                .filter(|r| r.variant == "full")
                .map(|r| r.utilization)
                .sum::<f64>()
                / 2.0,
        ),
    ];
    out
}

/// Control-loss rates the robustness sweep covers; CTS loss and
/// phantom-CSI rates scale along.
const FAULT_RATES: [f64; 5] = [0.0, 0.1, 0.25, 0.5, 0.9];

/// Robustness sweep (not a paper figure): BiCord's coordination quality
/// as the fault rate grows (control-packet loss, CTS-to-self loss,
/// phantom CSI detections). At rate 0 the sweep must reproduce the
/// no-fault baseline bit-identically — the run fails otherwise — and at
/// high rates the coordinator must degrade gracefully (bounded retries,
/// CSMA fallback) instead of deadlocking. The rate grid runs through the
/// scenario registry's `robustness` entry.
fn robustness_sweep(scale: Scale) -> Output {
    let duration = scale.secs(20, 3);
    eprintln!(
        "robustness sweep: {} fault rates x {duration}...",
        FAULT_RATES.len()
    );

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

    let rows = run_registry_grid(
        SweepSpec::new("robustness", BENCH_SEED, 1)
            .axis(
                "fault_rate",
                FAULT_RATES.iter().map(|&r| ParamValue::Float(r)).collect(),
            )
            .axis(
                "duration_secs",
                vec![ParamValue::Int(duration.as_secs_f64() as i64)],
            ),
    );

    let count = |row: &ResultRow, name: &str| (metric(row, name) as u64).to_string();
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
        let rate = match param(row, "fault_rate") {
            Some(ParamValue::Float(f)) => *f,
            _ => f64::NAN,
        };
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
            count(row, "signaling_rounds"),
            count(row, "reservations"),
            count(row, "backoffs"),
            count(row, "csma_fallbacks"),
            format!(
                "{}/{}/{}",
                count(row, "control_lost"),
                count(row, "cts_lost"),
                count(row, "phantom_csi")
            ),
        ]);
    }

    let worst = rows.last().expect("non-empty sweep");
    let mut out = Output {
        cells: rows.len() + 2,
        metrics: vec![
            ("rate0_bit_identical", f64::from(u8::from(rate0_identical))),
            ("baseline_pdr", baseline.zigbee_pdr()),
            ("worst_rate_pdr", metric(worst, "pdr")),
            ("worst_rate_mean_delay_ms", metric(worst, "mean_delay_ms")),
            ("worst_rate_utilization", metric(worst, "utilization")),
            ("worst_rate_csma_fallbacks", metric(worst, "csma_fallbacks")),
        ],
        failure: (!rate0_identical)
            .then(|| "rate-0 sweep diverged from the no-fault baseline".to_string()),
        ..Output::default()
    };
    out.csv_table("robustness_sweep", table);
    out.line(format_args!(
        "rate-0 reproduces the no-fault baseline bit-identically: {}",
        if rate0_identical { "yes" } else { "NO" }
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_found() {
        for (i, figure) in FIGURES.iter().enumerate() {
            assert!(
                FIGURES[..i].iter().all(|f| f.name != figure.name),
                "{} listed twice",
                figure.name
            );
            assert_eq!(find(figure.name).map(|f| f.name), Some(figure.name));
        }
        assert!(find("fig99").is_none());
    }

    #[test]
    fn traced_configs_are_valid() {
        let mut traced = Vec::new();
        for figure in &FIGURES {
            if let Some(config) = figure.trace {
                config();
                traced.push(figure.name);
            }
        }
        assert_eq!(
            traced,
            [
                "table1_2",
                "fig7_learning",
                "fig10_comparison",
                "fig10_replicated",
                "multi_node"
            ]
        );
    }
}
