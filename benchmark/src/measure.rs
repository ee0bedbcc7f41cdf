//! One workload's run: correctness canary, warm-up, timed passes, and
//! the metrics they yield.
//!
//! A run is a closed loop on one thread: each cell starts when the
//! previous one has finished. The cell list and the number of passes
//! over it are fixed by the workload, so every commit does the same
//! work. Each cell's host time is the minimum over its passes, so a slow
//! episode on the host must overlap every pass of a cell to inflate it.

use std::time::{Duration, Instant};

use bicord_core::signaling::{CsiDetector, DetectorConfig};
use bicord_phy::csi::{CsiModel, CsiSample};
use bicord_scenario::dense_city::DenseCityResults;
use bicord_sweep::contract::fnv1a;
use bicord_sweep::json;

use crate::clock::{kind_entry, CallStat, KindStats, LayerClock};
use crate::replay::{replay, ReplayProfile};
use crate::spec::{Expected, MetricSpec};
use crate::stats::{median, tail};
use crate::workload::DEFAULT_SEED;
use crate::workload::{run_traced, run_untraced, Cell, Outcome, Timing, Traced, Workload};

/// Untimed cells run before the first timed pass.
const WARM_UP_CELLS: usize = 5;

/// Replays of each cell's CSI stream into a fresh detector; the fastest
/// counts.
const DETECTOR_REPLAYS: usize = 5;

/// What one run does.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Master seed of cell 0; cell `k` uses `seed + k`.
    pub seed: u64,
    /// A cap: no pass starts that would, at the average pass length so
    /// far, end after this many seconds. Only a run far slower than the
    /// workload was sized for reaches it; the printed pass count shows it.
    pub seconds: Option<f64>,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Cells in the list (the traced run takes the first
    /// [`Workload::traced_cells`] of them).
    pub cells: usize,
    /// Passes over the list.
    pub rounds: usize,
    /// Expected digests at the default seed.
    pub expected: Expected,
}

impl Options {
    /// The workload's defaults: fixed cells and rounds, no cap.
    pub fn new(workload: Workload, expected: Expected) -> Options {
        Options {
            workload,
            seed: DEFAULT_SEED,
            seconds: None,
            trace: false,
            cells: workload.cells(),
            rounds: workload.rounds(),
            expected,
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, e.g. `cell_ms_p50` or `mac.medium.sensed_power.ns_per_call`.
    pub name: String,
    /// Value; `None` where the metric does not apply to the workload.
    pub value: Option<f64>,
    /// Unit.
    pub unit: &'static str,
}

/// Whether a metric is host-measured (and so varies run to run). Every
/// other metric is a pure function of workload, seed and cell count.
pub fn is_host_measured(name: &str) -> bool {
    matches!(
        name,
        "setup_s"
            | "cell_ms_p50"
            | "cell_ms_tail"
            | "events_per_s"
            | "sim_speedup"
            | "peak_rss_mb"
            | "scenario.finalize_ms"
            | "sim.engine.ns_per_event"
            | "core.signaling.push_ns"
            | "trace.coverage"
            | "trace.overhead_pct"
    ) || name.ends_with(".ns_per_call")
}

/// The outcome of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// The workload run.
    pub workload: Workload,
    /// Every metric, in print order.
    pub metrics: Vec<Metric>,
    /// Labels, pass counts, digests and failure causes.
    pub notes: Vec<String>,
    /// Cells attempted.
    pub attempted: u64,
    /// Cells failed.
    pub failed: u64,
}

impl Report {
    /// One `workload metric value unit` line per metric, then the notes
    /// as `#` lines.
    pub fn lines(&self) -> String {
        let w = self.workload.name();
        let mut out = String::new();
        for m in &self.metrics {
            let value = match m.value {
                Some(v) if v.is_finite() => format!("{v}"),
                _ => "n/a".to_string(),
            };
            out.push_str(&format!("{w} {} {value} {}\n", m.name, m.unit));
        }
        for note in &self.notes {
            out.push_str(&format!("# {w} {note}\n"));
        }
        out
    }

    /// The value of the recorded metric `spec`, or why there is none:
    /// this run did not measure it, has no finite value for it, or
    /// measured it in another unit.
    fn recorded_value(&self, spec: &MetricSpec) -> Result<f64, String> {
        let w = self.workload.name();
        let metric = self
            .metrics
            .iter()
            .find(|m| m.name == spec.name)
            .ok_or_else(|| format!("{w} did not measure `{}`", spec.name))?;
        if metric.unit != spec.unit {
            return Err(format!(
                "`{}` is measured in {}, BENCHMARK.json says {}",
                spec.name, metric.unit, spec.unit
            ));
        }
        metric
            .value
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("{w} has no value for `{}`", spec.name))
    }

    /// Why a `recorded` metric has no value, one line each.
    pub fn unrecorded(&self, recorded: &[MetricSpec]) -> Vec<String> {
        recorded
            .iter()
            .filter_map(|spec| self.recorded_value(spec).err())
            .collect()
    }

    /// Whether every cell passed and every `recorded` metric has a value.
    pub fn correct(&self, recorded: &[MetricSpec]) -> bool {
        self.failed == 0 && self.unrecorded(recorded).is_empty()
    }

    /// The JSON result line: `correct`, `attempted`, `failed`, and the
    /// `recorded` metrics, `null` where one has no value.
    pub fn json_line(&self, recorded: &[MetricSpec]) -> String {
        let fields: Vec<String> = recorded
            .iter()
            .map(|spec| {
                let value = self
                    .recorded_value(spec)
                    .map_or("null".to_string(), json::number);
                format!(
                    "{}: {{\"value\": {value}, \"unit\": {}}}",
                    json::escape(&spec.name),
                    json::escape(&spec.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(recorded),
            self.attempted,
            self.failed,
            fields.join(", ")
        )
    }
}

/// Failure causes per cell, plus any that fail the whole workload.
struct Failures {
    cells: Vec<Option<String>>,
    workload: Option<String>,
}

impl Failures {
    fn new(cells: usize) -> Failures {
        Failures {
            cells: vec![None; cells],
            workload: None,
        }
    }

    fn cell(&mut self, k: usize, cause: String) {
        self.cells[k].get_or_insert(cause);
    }

    fn workload(&mut self, cause: String) {
        self.workload.get_or_insert(cause);
    }

    fn has(&self, k: usize) -> bool {
        self.cells[k].is_some()
    }

    fn count(&self) -> u64 {
        if self.workload.is_some() {
            self.cells.len() as u64
        } else {
            self.cells.iter().filter(|c| c.is_some()).count() as u64
        }
    }

    fn notes(&self) -> Vec<String> {
        let cells = self.cells.iter().enumerate();
        self.workload
            .iter()
            .map(|cause| format!("FAILED workload: {cause}"))
            .chain(cells.filter_map(|(k, c)| c.as_ref().map(|c| format!("FAILED cell {k}: {c}"))))
            .collect()
    }
}

/// Runs `opts`.
pub fn run(opts: &Options) -> Report {
    let w = opts.workload;
    let n = if opts.trace {
        opts.cells.min(w.traced_cells())
    } else {
        opts.cells
    };
    let cells: Vec<Cell> = (0..n).map(|k| w.cell(opts.seed, k)).collect();
    let mut fails = Failures::new(n);
    let canary = check_canary(w, opts.expected, &mut fails);
    for cell in cells.iter().take(WARM_UP_CELLS) {
        let _ = run_untraced(cell);
    }
    let mut metrics = Vec::new();
    let mut notes = Vec::new();
    let passes = if opts.trace {
        traced(opts, &cells, &mut fails, &mut metrics)
    } else {
        end_to_end(opts, &cells, canary, &mut fails, &mut metrics, &mut notes)
    };
    notes.push(format!(
        "{} {n} cells from seed {}, {passes} of {} passes",
        if opts.trace { "traced" } else { "timed" },
        opts.seed,
        opts.rounds
    ));
    notes.extend(fails.notes());
    Report {
        workload: w,
        metrics,
        notes,
        attempted: n as u64,
        failed: fails.count(),
    }
}

/// Runs cell 0 at the default seed and checks it against the expected
/// digest; a mismatch fails the whole workload. Returns its digest.
fn check_canary(w: Workload, expected: Expected, fails: &mut Failures) -> Option<u64> {
    match run_untraced(&w.cell(DEFAULT_SEED, 0)) {
        Ok((_, o)) => {
            if o.digest != expected.first_cell {
                fails.workload(format!(
                    "cell 0 at seed {DEFAULT_SEED} has digest {:016x}, expected {:016x}",
                    o.digest, expected.first_cell
                ));
            }
            Some(o.digest)
        }
        Err(e) => {
            fails.workload(format!("cell 0 at seed {DEFAULT_SEED}: {e}"));
            None
        }
    }
}

/// Calls `pass` `opts.rounds` times, stopping early only before a pass
/// that would, at the average length so far, end after the
/// `opts.seconds` cap; returns the number of passes made.
fn passes(opts: &Options, mut pass: impl FnMut()) -> usize {
    let start = Instant::now();
    for done in 1..=opts.rounds {
        pass();
        let elapsed = start.elapsed().as_secs_f64();
        if opts
            .seconds
            .is_some_and(|cap| elapsed * (done + 1) as f64 / done as f64 > cap)
        {
            return done;
        }
    }
    opts.rounds
}

/// Keeps the faster of two timings of one cell, failing the cell when
/// the two runs' results differ.
fn keep_min(
    best: &mut Option<(Timing, Outcome)>,
    timing: Timing,
    outcome: Outcome,
) -> Result<(), String> {
    match best {
        None => *best = Some((timing, outcome)),
        Some((t, o)) => {
            if o.digest != outcome.digest {
                return Err(format!(
                    "results differ across passes ({:016x} vs {:016x})",
                    o.digest, outcome.digest
                ));
            }
            t.setup = t.setup.min(timing.setup);
            t.total = t.total.min(timing.total);
        }
    }
    Ok(())
}

/// FNV-1a over the cells' digests, in order.
fn combine(digests: impl IntoIterator<Item = u64>) -> u64 {
    let bytes: Vec<u8> = digests.into_iter().flat_map(u64::to_le_bytes).collect();
    fnv1a(&bytes)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn num(metrics: &mut Vec<Metric>, name: impl Into<String>, value: f64, unit: &'static str) {
    metrics.push(Metric {
        name: name.into(),
        value: Some(value),
        unit,
    });
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The process's peak resident set, MiB (`VmHWM`).
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

fn end_to_end(
    opts: &Options,
    cells: &[Cell],
    canary: Option<u64>,
    fails: &mut Failures,
    metrics: &mut Vec<Metric>,
    notes: &mut Vec<String>,
) -> usize {
    let w = opts.workload;
    let mut best: Vec<Option<(Timing, Outcome)>> = vec![None; cells.len()];
    let passes = passes(opts, || {
        for (k, cell) in cells.iter().enumerate() {
            if fails.has(k) {
                continue;
            }
            let kept = run_untraced(cell).and_then(|(t, o)| keep_min(&mut best[k], t, o));
            if let Err(cause) = kept {
                fails.cell(k, cause);
            }
        }
    });

    let cells_ok = (0..cells.len()).all(|k| !fails.has(k));
    let all_cells = cells_ok.then(|| combine(best.iter().flatten().map(|(_, o)| o.digest)));
    let full = opts.seed == DEFAULT_SEED && cells.len() == w.cells();
    if let (true, Some(digest)) = (full, all_cells) {
        if digest != opts.expected.all_cells {
            fails.workload(format!(
                "all-cells digest {digest:016x}, expected {:016x}",
                opts.expected.all_cells
            ));
        }
    }
    if let Some(first) = canary {
        let all = match (full, all_cells) {
            (true, Some(d)) => format!(", \"all_cells\": \"{d:016x}\""),
            _ => String::new(),
        };
        notes.push(format!("digests {{\"first_cell\": \"{first:016x}\"{all}}}"));
    }

    let ok: Vec<&(Timing, Outcome)> = best
        .iter()
        .enumerate()
        .filter(|(k, _)| !fails.has(*k))
        .filter_map(|(_, b)| b.as_ref())
        .collect();
    let cell_ms: Vec<f64> = ok.iter().map(|(t, _)| secs(t.total) * 1e3).collect();
    let host_s: f64 = ok.iter().map(|(t, _)| secs(t.total)).sum();
    let events: u64 = ok.iter().map(|(_, o)| o.events).sum();
    let simulated_s: f64 = ok.iter().map(|(_, o)| o.simulated_s).sum();
    let tail = tail(&cell_ms);
    notes.insert(
        0,
        format!(
            "cell_ms_tail is {} of {} cells",
            tail.label(),
            cell_ms.len()
        ),
    );

    num(
        metrics,
        "setup_s",
        ok.iter().map(|(t, _)| secs(t.setup)).sum(),
        "s",
    );
    num(metrics, "cell_ms_p50", median(&cell_ms), "ms");
    num(metrics, "cell_ms_tail", tail.value, "ms");
    num(metrics, "events_per_s", events as f64 / host_s, "1/s");
    num(metrics, "sim_speedup", simulated_s / host_s, "s/s");
    metrics.push(Metric {
        name: "peak_rss_mb".to_string(),
        value: peak_rss_mib(),
        unit: "MiB",
    });
    num(
        metrics,
        "fail_ratio",
        ratio(fails.count(), cells.len() as u64),
        "ratio",
    );

    let simulated = |name: &str, value: Option<f64>, unit| Metric {
        name: name.to_string(),
        value,
        unit,
    };
    let protocol = w.is_protocol() && !ok.is_empty();
    let utilization = ok.iter().filter_map(|(_, o)| o.utilization);
    let delays: Vec<f64> = ok.iter().filter_map(|(_, o)| o.delay_ms).collect();
    let delivered: u64 = ok.iter().map(|(_, o)| o.delivered).sum();
    let generated: u64 = ok.iter().map(|(_, o)| o.generated).sum();
    metrics.push(simulated(
        "utilization",
        protocol.then(|| utilization.sum::<f64>() / ok.len() as f64),
        "ratio",
    ));
    metrics.push(simulated(
        "zigbee_delay_ms",
        (protocol && !delays.is_empty()).then(|| delays.iter().sum::<f64>() / delays.len() as f64),
        "ms",
    ));
    metrics.push(simulated(
        "zigbee_pdr",
        (protocol && generated > 0).then(|| ratio(delivered, generated)),
        "ratio",
    ));
    passes
}

/// The per-layer measurements of one traced cell.
enum Layers {
    Protocol(Traced),
    DenseCity(DenseCityResults, ReplayProfile),
}

fn trace_cell(cell: &Cell) -> Result<(Duration, Outcome, Layers), String> {
    match cell {
        Cell::Protocol(config) => {
            let t = run_traced(config)?;
            Ok((t.total, t.outcome, Layers::Protocol(t)))
        }
        Cell::DenseCity(config) => crate::workload::guarded(|| {
            let t0 = Instant::now();
            let (results, profile) = replay(config);
            let total = t0.elapsed();
            Ok((
                total,
                Outcome::dense_city(&results),
                Layers::DenseCity(results, profile),
            ))
        }),
    }
}

fn traced(
    opts: &Options,
    cells: &[Cell],
    fails: &mut Failures,
    metrics: &mut Vec<Metric>,
) -> usize {
    let mut untraced: Vec<Option<(Timing, Outcome)>> = vec![None; cells.len()];
    // The fastest traced run of each cell and what it measured.
    let mut best: Vec<Option<(Duration, Layers)>> = (0..cells.len()).map(|_| None).collect();
    let passes = passes(opts, || {
        for (k, cell) in cells.iter().enumerate() {
            if fails.has(k) {
                continue;
            }
            let step = run_untraced(cell)
                .and_then(|(t, o)| keep_min(&mut untraced[k], t, o))
                .and_then(|()| trace_cell(cell));
            let (total, outcome, layers) = match step {
                Ok(traced) => traced,
                Err(cause) => {
                    fails.cell(k, cause);
                    continue;
                }
            };
            let expected = untraced[k].expect("kept above").1.digest;
            if outcome.digest != expected {
                fails.cell(
                    k,
                    format!(
                        "traced results differ from untraced ({:016x} vs {expected:016x})",
                        outcome.digest
                    ),
                );
            } else if best[k].as_ref().is_none_or(|(fastest, _)| total < *fastest) {
                best[k] = Some((total, layers));
            }
        }
    });

    let ok: Vec<(usize, Duration, Duration, &Layers)> = (0..cells.len())
        .filter(|&k| !fails.has(k))
        .filter_map(|k| match (&untraced[k], &best[k]) {
            (Some((timing, _)), Some((traced, layers))) => Some((k, timing.total, *traced, layers)),
            _ => None,
        })
        .collect();
    let untraced_s: f64 = ok.iter().map(|(_, u, _, _)| secs(*u)).sum();
    let traced_s: f64 = ok.iter().map(|(_, _, t, _)| secs(*t)).sum();
    let overhead_pct = (traced_s - untraced_s) / untraced_s * 100.0;
    let mut protocol = Vec::new();
    let mut dense_city = Vec::new();
    for &(k, _, _, layers) in &ok {
        match layers {
            Layers::Protocol(t) => protocol.push((k, t)),
            Layers::DenseCity(r, p) => dense_city.push((r, p)),
        }
    }
    if opts.workload.is_protocol() {
        protocol_layers(cells, &protocol, fails, metrics);
    } else {
        dense_city_layers(&dense_city, metrics);
    }
    num(metrics, "trace.overhead_pct", overhead_pct, "%");
    passes
}

/// Counts of the protocol layers; zero where a workload has none.
#[derive(Default)]
struct ProtocolCounts {
    guard_violations: u64,
    csi_samples: u64,
    detections: u64,
    channel_requests: u64,
    csma_fallbacks: u64,
    reservations: u64,
    n_rounds: u64,
    bursts: u64,
}

impl ProtocolCounts {
    fn push(&self, metrics: &mut Vec<Metric>) {
        let count =
            |metrics: &mut Vec<Metric>, name: &str, v: u64| num(metrics, name, v as f64, "count");
        count(metrics, "sim.guard.violations", self.guard_violations);
        count(metrics, "core.signaling.csi_samples", self.csi_samples);
        count(metrics, "core.signaling.detections", self.detections);
        count(
            metrics,
            "core.client.channel_requests",
            self.channel_requests,
        );
        count(metrics, "core.client.csma_fallbacks", self.csma_fallbacks);
        count(metrics, "core.allocation.reservations", self.reservations);
        num(
            metrics,
            "core.signaling.detection_yield",
            ratio(self.detections, self.channel_requests),
            "ratio",
        );
        num(
            metrics,
            "core.allocation.rounds_per_burst",
            ratio(self.n_rounds, self.bursts),
            "ratio",
        );
    }
}

fn dispatch_metrics(metrics: &mut Vec<Metric>, dispatch: &KindStats) {
    for (kind, stat) in dispatch {
        num(
            metrics,
            format!("scenario.dispatch.{kind}.calls"),
            stat.calls as f64,
            "count",
        );
        num(
            metrics,
            format!("scenario.dispatch.{kind}.ns_per_call"),
            stat.ns_per_call(),
            "ns",
        );
    }
}

fn protocol_layers(
    cells: &[Cell],
    traced: &[(usize, &Traced)],
    fails: &mut Failures,
    metrics: &mut Vec<Metric>,
) {
    let mut dispatch = KindStats::new();
    let mut counts = ProtocolCounts::default();
    let (mut finalize_s, mut run_s) = (0.0, 0.0);
    let (mut link_hits, mut link_lookups, mut link_seen, mut invalidations) = (0, 0, false, 0);
    let (mut push_ns, mut pushes) = (0u64, 0u64);
    for &(k, t) in traced {
        let c: &LayerClock = &t.clock;
        for (kind, stat) in &c.dispatch {
            kind_entry(&mut dispatch, kind).merge(*stat);
        }
        if c.calls() != t.outcome.events {
            fails.cell(
                k,
                format!(
                    "LayerClock saw {} dispatches, RunResults.events = {}",
                    c.calls(),
                    t.outcome.events
                ),
            );
        }
        let violations = t.guard.stalls + t.guard.liveness + t.guard.conservation;
        if violations > 0 {
            fails.cell(k, format!("runtime guard: {}", t.guard));
        }
        counts.guard_violations += violations;
        counts.csi_samples += c.csi.len() as u64;
        counts.detections += c.detections;
        counts.channel_requests += c.channel_requests;
        counts.csma_fallbacks += c.csma_fallbacks;
        counts.reservations += c.reservations;
        counts.n_rounds += c.n_rounds;
        counts.bursts += c.bursts;
        invalidations += c.invalidations;
        if let Some((hits, misses)) = c.link_cache {
            link_seen = true;
            link_hits += hits;
            link_lookups += hits + misses;
        }
        finalize_s += secs(t.finalize);
        run_s += secs(t.run);
        if let (Cell::Protocol(config), false) = (&cells[k], c.csi.is_empty()) {
            push_ns += detector_replay_ns(config.detector, &c.csi);
            pushes += c.csi.len() as u64;
        }
    }
    let calls: u64 = dispatch.iter().map(|(_, s)| s.calls).sum();
    let dispatch_ns: u64 = dispatch.iter().map(|(_, s)| s.ns).sum();

    dispatch_metrics(metrics, &dispatch);
    num(
        metrics,
        "scenario.finalize_ms",
        finalize_s * 1e3 / traced.len() as f64,
        "ms",
    );
    num(
        metrics,
        "sim.engine.ns_per_event",
        ratio(dispatch_ns, calls),
        "ns",
    );
    counts.push(metrics);
    if pushes > 0 {
        num(
            metrics,
            "core.signaling.push_ns",
            ratio(push_ns, pushes),
            "ns",
        );
    }
    if link_seen {
        num(
            metrics,
            "mac.medium.link_hit_ratio",
            ratio(link_hits, link_lookups),
            "ratio",
        );
    }
    num(
        metrics,
        "mac.medium.invalidations",
        invalidations as f64,
        "count",
    );
    num(
        metrics,
        "trace.coverage",
        (dispatch_ns as f64 * 1e-9 + finalize_s) / run_s,
        "ratio",
    );
}

/// The fastest of [`DETECTOR_REPLAYS`] replays of `samples` into a
/// fresh detector, in ns.
fn detector_replay_ns(config: DetectorConfig, samples: &[CsiSample]) -> u64 {
    (0..DETECTOR_REPLAYS)
        .map(|_| {
            let mut detector = CsiDetector::new(config, CsiModel::intel5300());
            let t0 = Instant::now();
            for s in samples {
                std::hint::black_box(detector.push(*s));
            }
            u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
        })
        .min()
        .unwrap_or(0)
}

fn dense_city_layers(replays: &[(&DenseCityResults, &ReplayProfile)], metrics: &mut Vec<Metric>) {
    let mut calls = KindStats::new();
    let mut dispatch = KindStats::new();
    let (mut timed_ns, mut wall_ns) = (0u64, 0u64);
    let (mut hits, mut lookups) = (0u64, 0u64);
    let (mut culled, mut visited, mut out_of_range) = (0u64, 0u64, 0u64);
    for (r, p) in replays {
        for (name, stat) in p.calls() {
            kind_entry(&mut calls, name).merge(stat);
        }
        for (kind, stat) in [("arrival", p.arrival), ("tx_end", p.tx_end)] {
            kind_entry(&mut dispatch, kind).merge(stat);
        }
        timed_ns += p.timed_ns();
        wall_ns += p.wall_ns;
        hits += r.cache.link_hits;
        lookups += r.cache.link_hits + r.cache.link_misses;
        culled += r.grid.tx_culled;
        visited += r.grid.tx_visited;
        out_of_range += r.grid.tx_out_of_range;
    }
    let mut events = CallStat::default();
    for (_, stat) in &dispatch {
        events.merge(*stat);
    }

    dispatch_metrics(metrics, &dispatch);
    num(
        metrics,
        "sim.engine.ns_per_event",
        events.ns_per_call(),
        "ns",
    );
    ProtocolCounts::default().push(metrics);
    for (name, stat) in calls {
        num(metrics, format!("{name}.calls"), stat.calls as f64, "count");
        num(
            metrics,
            format!("{name}.ns_per_call"),
            stat.ns_per_call(),
            "ns",
        );
    }
    num(
        metrics,
        "mac.medium.link_hit_ratio",
        ratio(hits, lookups),
        "ratio",
    );
    num(
        metrics,
        "mac.medium.cull_ratio",
        ratio(culled, culled + visited),
        "ratio",
    );
    num(
        metrics,
        "mac.medium.in_range_ratio",
        ratio(visited - out_of_range, visited),
        "ratio",
    );
    num(metrics, "trace.coverage", ratio(timed_ns, wall_ns), "ratio");
}
