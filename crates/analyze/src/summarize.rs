//! Turns a parsed trace into the `bicord analyze summarize` report:
//! per-burst latency waterfalls, a white-space utilization timeline,
//! allocator convergence, and fault/fallback/guard tallies.
//!
//! All analytics are pure functions of the [`TraceFile`], so the text and
//! JSON renderings are deterministic — two runs of the same seeded
//! simulation summarize to identical bytes.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use bicord_metrics::table::TextTable;

use bicord_sim::json;
use bicord_sim::obs::{AllocationPhase, ReEstimateReason, TraceEvent, TraceFile};

/// Upper edges of the burst-span waterfall buckets, in microseconds.
/// The final bucket is open-ended.
const WATERFALL_EDGES_US: &[u64] = &[
    1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000, 200_000, 500_000, 1_000_000,
];

/// Tuning knobs of [`Analytics::compute`].
#[derive(Debug, Clone, Copy)]
pub struct SummarizeOptions {
    /// Bin count of the utilization timeline.
    pub bins: usize,
}

impl Default for SummarizeOptions {
    fn default() -> Self {
        SummarizeOptions { bins: 20 }
    }
}

/// Per-node burst tallies.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeBursts {
    /// Node index (0 = the primary ZigBee pair).
    pub node: u32,
    /// Completed bursts.
    pub bursts: usize,
    /// Packets delivered across all bursts.
    pub delivered: u64,
    /// Packets abandoned across all bursts.
    pub failed: u64,
    /// Mean burst span (first burst event to completion), microseconds.
    pub mean_span_us: f64,
    /// Longest burst span, microseconds.
    pub max_span_us: u64,
}

/// One bucket of the burst-span waterfall.
#[derive(Debug, Clone, PartialEq)]
pub struct WaterfallBucket {
    /// Human-readable bucket label (e.g. `"2-5 ms"`).
    pub label: String,
    /// Bursts whose span fell in this bucket.
    pub count: usize,
}

/// The white-space utilization timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Utilization {
    /// Reserved fraction of each equal-width time bin, in `[0, 1]`.
    pub bins: Vec<f64>,
    /// Width of one bin, microseconds.
    pub bin_us: u64,
    /// `white_space` records seen.
    pub white_spaces: usize,
    /// Total NAV-reserved airtime, microseconds (overlaps merged per bin,
    /// summed raw here).
    pub reserved_us: u64,
    /// Reserved fraction of the whole run.
    pub fraction: f64,
}

/// Allocator convergence (`n_round` / `estimate` / `re_estimate`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Convergence {
    /// `(t_us, estimate_us, rounds, phase)` per `estimate` record.
    pub estimates: Vec<(u64, u64, u32, AllocationPhase)>,
    /// `n_round` records seen.
    pub n_rounds: usize,
    /// Largest round count any burst reached.
    pub max_rounds: u32,
    /// `re_estimate` counts by reason, in first-seen order.
    pub re_estimates: Vec<(ReEstimateReason, usize)>,
}

/// Everything `bicord analyze summarize` reports.
#[derive(Debug, Clone)]
pub struct Analytics {
    /// `(kind, count, first_t_us, last_t_us)` per kind present.
    pub populations: Vec<(&'static str, usize, u64, u64)>,
    /// Per-node burst tallies, by node index.
    pub bursts: Vec<NodeBursts>,
    /// Burst-span histogram across all nodes.
    pub waterfall: Vec<WaterfallBucket>,
    /// White-space utilization timeline.
    pub utilization: Utilization,
    /// Allocator convergence.
    pub convergence: Convergence,
    /// `(kind, count)` for the fault/fallback/guard kinds present.
    pub faults: Vec<(&'static str, usize)>,
    /// Span of the analyzed timeline, microseconds (header duration, or
    /// the last record's timestamp if it runs past the header).
    pub span_us: u64,
}

impl Analytics {
    /// Computes every section from a parsed trace.
    pub fn compute(trace: &TraceFile, options: &SummarizeOptions) -> Self {
        let span_us = (trace.records.iter())
            .map(TraceEvent::time_us)
            .max()
            .unwrap_or(0)
            .max(trace.header.duration_us)
            .max(1);
        let mut bursts = Bursts::default();
        let mut white_spaces = Vec::new();
        let mut convergence = Convergence::default();
        let mut fault_kinds = BTreeSet::new();
        for event in &trace.records {
            // One arm per record kind and no wildcard: a new TraceEvent
            // variant does not build until the report places it.
            match *event {
                // Burst openers.
                TraceEvent::ChannelRequest { t_us, node }
                | TraceEvent::PacketDelivered { t_us, node, .. } => bursts.open(node, t_us),
                // Burst openers that are also fallback tallies.
                TraceEvent::SignalingBackoff { t_us, node, .. }
                | TraceEvent::CsmaFallback { t_us, node, .. } => {
                    bursts.open(node, t_us);
                    fault_kinds.insert(event.kind());
                }
                // Burst end.
                TraceEvent::BurstComplete {
                    t_us,
                    node,
                    delivered,
                    failed,
                } => bursts.complete(node, t_us, delivered, failed),
                // Utilization and allocator convergence.
                TraceEvent::WhiteSpace { t_us, nav_us } => white_spaces.push((t_us, nav_us)),
                TraceEvent::Estimate {
                    t_us,
                    estimate_us,
                    rounds,
                    phase,
                } => convergence
                    .estimates
                    .push((t_us, estimate_us, rounds, phase)),
                TraceEvent::NRound { rounds, .. } => {
                    convergence.n_rounds += 1;
                    convergence.max_rounds = convergence.max_rounds.max(rounds);
                }
                TraceEvent::ReEstimate { reason, .. } => {
                    let seen = &mut convergence.re_estimates;
                    match seen.iter_mut().find(|(r, _)| *r == reason) {
                        Some((_, n)) => *n += 1,
                        None => seen.push((reason, 1)),
                    }
                }
                // Fault and guard tallies.
                TraceEvent::FaultControlLost { .. }
                | TraceEvent::FaultCtsLost { .. }
                | TraceEvent::FaultPhantomCsi { .. }
                | TraceEvent::FaultChurn { .. }
                | TraceEvent::LearningAbort { .. }
                | TraceEvent::GuardStall { .. }
                | TraceEvent::GuardLiveness { .. }
                | TraceEvent::GuardConservation { .. } => {
                    fault_kinds.insert(event.kind());
                }
                // Counted in the populations only.
                TraceEvent::Dequeue { .. }
                | TraceEvent::CsiClassified { .. }
                | TraceEvent::Detection { .. }
                | TraceEvent::Reservation { .. }
                | TraceEvent::TrialResolved { .. }
                | TraceEvent::MediumCacheInvalidated { .. }
                | TraceEvent::MediumCacheStats { .. }
                | TraceEvent::MediumGridStats { .. } => {}
            }
        }
        let populations = populations(trace);
        let (bursts, spans) = bursts.rows();
        Analytics {
            faults: (populations.iter())
                .filter(|(kind, ..)| fault_kinds.contains(kind))
                .map(|&(kind, count, ..)| (kind, count))
                .collect(),
            populations,
            bursts,
            waterfall: waterfall(&spans),
            utilization: utilization(&white_spaces, span_us, options.bins.max(1)),
            convergence,
            span_us,
        }
    }

    /// Whether a named report section has content; used by the CI smoke
    /// gate (`--assert bursts,utilization`) so the analyzer can never
    /// silently rot against the live trace schema.
    ///
    /// Unknown section names return `false` (the caller reports them).
    pub fn section_nonempty(&self, section: &str) -> Option<bool> {
        match section {
            "events" => Some(!self.populations.is_empty()),
            "bursts" => Some(!self.bursts.is_empty()),
            "utilization" => Some(self.utilization.white_spaces > 0),
            "convergence" => Some(!self.convergence.estimates.is_empty()),
            "faults" => Some(!self.faults.is_empty()),
            _ => None,
        }
    }

    /// Renders the full text report.
    pub fn render_text(&self, trace: &TraceFile) -> String {
        let mut out = String::new();
        let h = &trace.header;
        let _ = writeln!(
            out,
            "trace: mode {}, seed {}, {:.1} s simulated, {} records",
            h.mode,
            h.seed,
            self.span_us as f64 / 1e6,
            trace.records.len(),
        );
        if let Some(s) = &trace.summary {
            let dequeues: u64 = s.dequeues.values().sum();
            let _ = writeln!(
                out,
                "engine: {dequeues} DES dequeues across {} kinds",
                s.dequeues.len()
            );
        }
        out.push('\n');

        let mut pop = TextTable::new(vec!["kind", "count", "first ms", "last ms"]);
        pop.title("event populations");
        for (kind, count, first, last) in &self.populations {
            pop.row(vec![
                kind.to_string(),
                count.to_string(),
                format!("{:.1}", *first as f64 / 1e3),
                format!("{:.1}", *last as f64 / 1e3),
            ]);
        }
        let _ = writeln!(out, "{pop}");

        let mut bursts = TextTable::new(vec![
            "node",
            "bursts",
            "delivered",
            "failed",
            "mean span ms",
            "max span ms",
        ]);
        bursts.title("per-node bursts");
        for b in &self.bursts {
            bursts.row(vec![
                b.node.to_string(),
                b.bursts.to_string(),
                b.delivered.to_string(),
                b.failed.to_string(),
                format!("{:.1}", b.mean_span_us / 1e3),
                format!("{:.1}", b.max_span_us as f64 / 1e3),
            ]);
        }
        if bursts.is_empty() {
            out.push_str("per-node bursts: none recorded\n\n");
        } else {
            let _ = writeln!(out, "{bursts}");
        }

        let max_count = self.waterfall.iter().map(|b| b.count).max().unwrap_or(0);
        if max_count > 0 {
            out.push_str("burst latency waterfall (span = first burst event -> completion)\n");
            for bucket in &self.waterfall {
                let bar = "#".repeat((bucket.count * 40).div_ceil(max_count.max(1)));
                let _ = writeln!(out, "  {:>10}  {:>5}  {bar}", bucket.label, bucket.count);
            }
            out.push('\n');
        }

        let u = &self.utilization;
        let _ = writeln!(
            out,
            "white-space utilization timeline ({} bins of {:.1} ms)",
            u.bins.len(),
            u.bin_us as f64 / 1e3
        );
        let glyphs: &[u8] = b" .:-=+*#%@";
        let bar: String = u
            .bins
            .iter()
            .map(|f| {
                let idx = ((f * 10.0) as usize).min(glyphs.len() - 1);
                glyphs[idx] as char
            })
            .collect();
        let _ = writeln!(out, "  [{bar}]");
        let _ = writeln!(
            out,
            "  {} white spaces, {:.1} ms reserved ({:.1}% of run)\n",
            u.white_spaces,
            u.reserved_us as f64 / 1e3,
            u.fraction * 100.0
        );

        let c = &self.convergence;
        out.push_str("allocator convergence\n");
        if let (Some(first), Some(last)) = (c.estimates.first(), c.estimates.last()) {
            let _ = writeln!(
                out,
                "  estimates: {} (first {:.1} ms after {} rounds, last {:.1} ms, phase {})",
                c.estimates.len(),
                first.1 as f64 / 1e3,
                first.2,
                last.1 as f64 / 1e3,
                last.3.as_str()
            );
        } else {
            out.push_str("  estimates: none recorded\n");
        }
        let _ = writeln!(
            out,
            "  n_round records: {}, max {} rounds/burst",
            c.n_rounds, c.max_rounds
        );
        if c.re_estimates.is_empty() {
            out.push_str("  re-estimates: none\n");
        } else {
            let list: Vec<String> = c
                .re_estimates
                .iter()
                .map(|(reason, n)| format!("{} {n}", reason.as_str()))
                .collect();
            let _ = writeln!(out, "  re-estimates: {}", list.join(", "));
        }
        out.push('\n');

        if self.faults.is_empty() {
            out.push_str("faults, fallbacks & guards: none recorded\n");
        } else {
            let mut t = TextTable::new(vec!["kind", "count"]);
            t.title("faults, fallbacks & guards");
            for (kind, n) in &self.faults {
                t.row(vec![kind.to_string(), n.to_string()]);
            }
            let _ = write!(out, "{t}");
        }
        out
    }

    /// Renders the report as one deterministic JSON document (for
    /// scripting; `bicord analyze summarize --format json`).
    pub fn render_json(&self, trace: &TraceFile) -> String {
        let mut out = String::from("{\"schema\":\"bicord-analyze/1\"");
        let h = &trace.header;
        let _ = write!(
            out,
            ",\"mode\":{},\"seed\":{},\"span_us\":{},\"records\":{}",
            json::escape(&h.mode),
            h.seed,
            self.span_us,
            trace.records.len()
        );
        out.push_str(",\"populations\":{");
        for (i, (kind, count, first, last)) in self.populations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{kind}\":{{\"count\":{count},\"first_us\":{first},\"last_us\":{last}}}"
            );
        }
        out.push_str("},\"bursts\":[");
        for (i, b) in self.bursts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"node\":{},\"bursts\":{},\"delivered\":{},\"failed\":{},\
                 \"mean_span_us\":{},\"max_span_us\":{}}}",
                b.node, b.bursts, b.delivered, b.failed, b.mean_span_us, b.max_span_us
            );
        }
        out.push_str("],\"waterfall\":[");
        for (i, bucket) in self.waterfall.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"bucket\":\"{}\",\"count\":{}}}",
                bucket.label, bucket.count
            );
        }
        let u = &self.utilization;
        out.push_str("],\"utilization\":{\"bins\":[");
        for (i, f) in u.bins.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{f}");
        }
        let _ = write!(
            out,
            "],\"bin_us\":{},\"white_spaces\":{},\"reserved_us\":{},\"fraction\":{}}}",
            u.bin_us, u.white_spaces, u.reserved_us, u.fraction
        );
        let c = &self.convergence;
        let _ = write!(
            out,
            ",\"convergence\":{{\"estimates\":{},\"n_rounds\":{},\"max_rounds\":{}",
            c.estimates.len(),
            c.n_rounds,
            c.max_rounds
        );
        if let Some(last) = c.estimates.last() {
            let _ = write!(
                out,
                ",\"final_estimate_us\":{},\"final_phase\":{}",
                last.1,
                json::escape(last.3.as_str())
            );
        }
        out.push_str(",\"re_estimates\":{");
        for (i, (reason, n)) in c.re_estimates.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{n}", json::escape(reason.as_str()));
        }
        out.push_str("}},\"faults\":{");
        for (i, (kind, n)) in self.faults.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{kind}\":{n}");
        }
        out.push_str("}}");
        out
    }
}

/// `(kind, count, first_t_us, last_t_us)` per kind present, in
/// [`TraceEvent::KINDS`] order.
fn populations(trace: &TraceFile) -> Vec<(&'static str, usize, u64, u64)> {
    (TraceEvent::KINDS.iter())
        .filter_map(|&kind| {
            let mut times = (trace.records.iter())
                .filter(|e| e.kind() == kind)
                .map(TraceEvent::time_us);
            let first = times.next()?;
            let (count, last) = times.fold((1, first), |(n, _), t| (n + 1, t));
            Some((kind, count, first, last))
        })
        .collect()
}

/// Per-node burst accumulators. A burst's span runs from the first
/// opener after the node's previous `burst_complete` to the completing
/// record.
#[derive(Default)]
struct Bursts(BTreeMap<u32, BurstAcc>);

#[derive(Default)]
struct BurstAcc {
    open_since: Option<u64>,
    spans: Vec<u64>,
    delivered: u64,
    failed: u64,
}

impl Bursts {
    fn open(&mut self, node: u32, t_us: u64) {
        self.0
            .entry(node)
            .or_default()
            .open_since
            .get_or_insert(t_us);
    }

    fn complete(&mut self, node: u32, t_us: u64, delivered: u32, failed: u32) {
        let acc = self.0.entry(node).or_default();
        let start = acc.open_since.take().unwrap_or(t_us);
        acc.spans.push(t_us - start);
        acc.delivered += u64::from(delivered);
        acc.failed += u64::from(failed);
    }

    /// Per-node tallies plus the flat list of burst spans (for the
    /// waterfall).
    fn rows(self) -> (Vec<NodeBursts>, Vec<u64>) {
        let mut all_spans = Vec::new();
        let rows = (self.0.into_iter())
            .filter(|(_, acc)| !acc.spans.is_empty())
            .map(|(node, acc)| {
                let sum: u64 = acc.spans.iter().sum();
                let row = NodeBursts {
                    node,
                    bursts: acc.spans.len(),
                    delivered: acc.delivered,
                    failed: acc.failed,
                    mean_span_us: sum as f64 / acc.spans.len() as f64,
                    max_span_us: acc.spans.iter().copied().max().unwrap_or(0),
                };
                all_spans.extend_from_slice(&acc.spans);
                row
            })
            .collect();
        (rows, all_spans)
    }
}

fn waterfall(spans: &[u64]) -> Vec<WaterfallBucket> {
    let label = |i: usize| -> String {
        let ms = |us: u64| {
            if us >= 1_000_000 {
                format!("{} s", us / 1_000_000)
            } else {
                format!("{} ms", us / 1_000)
            }
        };
        if i == 0 {
            format!("< {}", ms(WATERFALL_EDGES_US[0]))
        } else if i == WATERFALL_EDGES_US.len() {
            format!(">= {}", ms(WATERFALL_EDGES_US[i - 1]))
        } else {
            format!(
                "{}-{}",
                WATERFALL_EDGES_US[i - 1] / 1_000,
                ms(WATERFALL_EDGES_US[i])
            )
        }
    };
    let mut counts = vec![0usize; WATERFALL_EDGES_US.len() + 1];
    for &span in spans {
        let idx = WATERFALL_EDGES_US
            .iter()
            .position(|&edge| span < edge)
            .unwrap_or(WATERFALL_EDGES_US.len());
        counts[idx] += 1;
    }
    counts
        .into_iter()
        .enumerate()
        .filter(|(_, n)| *n > 0)
        .map(|(i, count)| WaterfallBucket {
            label: label(i),
            count,
        })
        .collect()
}

/// Bins `(t_us, nav_us)` white spaces over the run.
fn utilization(white_spaces: &[(u64, u64)], span_us: u64, bins: usize) -> Utilization {
    let bin_us = span_us.div_ceil(bins as u64).max(1);
    let mut covered = vec![0u64; bins];
    let mut reserved_us = 0u64;
    for &(t_us, nav) in white_spaces {
        reserved_us += nav;
        // Spread [t, t+nav) across the bins it overlaps. Clamp the end
        // to the binned range (`bins * bin_us >= span_us`, and a NAV can
        // run past the end of the trace): with `t < end <= total_us`,
        // every chunk lands in a real bin and is at least 1 µs, so the
        // walk always terminates.
        let total_us = bin_us * bins as u64;
        let (mut t, end) = (t_us, (t_us + nav).min(total_us));
        while t < end {
            let bin = (t / bin_us) as usize;
            let bin_end = (bin as u64 + 1) * bin_us;
            let chunk = end.min(bin_end) - t;
            covered[bin] += chunk;
            t += chunk;
        }
    }
    Utilization {
        bins: covered
            .iter()
            .map(|&c| (c as f64 / bin_us as f64).min(1.0))
            .collect(),
        bin_us,
        white_spaces: white_spaces.len(),
        reserved_us,
        fraction: reserved_us as f64 / span_us as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceFile {
        let text = "\
{\"schema\":\"bicord-trace/1\",\"seed\":7,\"mode\":\"bicord\",\"duration_us\":1000000}
{\"t_us\":1000,\"ev\":\"channel_request\",\"node\":0}
{\"t_us\":2000,\"ev\":\"n_round\",\"rounds\":1}
{\"t_us\":3000,\"ev\":\"white_space\",\"nav_us\":20000}
{\"t_us\":10000,\"ev\":\"packet_delivered\",\"node\":0,\"seq\":1}
{\"t_us\":26000,\"ev\":\"estimate\",\"estimate_us\":30000,\"rounds\":2,\"phase\":\"learning\"}
{\"t_us\":26000,\"ev\":\"burst_complete\",\"node\":0,\"delivered\":5,\"failed\":0}
{\"t_us\":500000,\"ev\":\"channel_request\",\"node\":1}
{\"t_us\":503000,\"ev\":\"white_space\",\"nav_us\":30000}
{\"t_us\":600000,\"ev\":\"estimate\",\"estimate_us\":31000,\"rounds\":2,\"phase\":\"converged\"}
{\"t_us\":600000,\"ev\":\"re_estimate\",\"reason\":\"shrink-probe\"}
{\"t_us\":601000,\"ev\":\"burst_complete\",\"node\":1,\"delivered\":4,\"failed\":1}
{\"t_us\":700000,\"ev\":\"csma_fallback\",\"node\":1,\"failures\":3}
{\"summary\":true,\"events\":13,\"dequeues\":{\"Timer\":9}}
";
        TraceFile::parse(text).unwrap()
    }

    #[test]
    fn bursts_span_from_first_event_to_completion() {
        let a = Analytics::compute(&sample(), &SummarizeOptions::default());
        assert_eq!(a.bursts.len(), 2);
        let n0 = &a.bursts[0];
        assert_eq!((n0.node, n0.bursts, n0.delivered, n0.failed), (0, 1, 5, 0));
        assert_eq!(n0.max_span_us, 25_000); // 26000 - 1000
        let n1 = &a.bursts[1];
        assert_eq!(n1.max_span_us, 101_000); // 601000 - 500000
                                             // Waterfall: 25 ms span -> "20-50 ms", 101 ms -> "100-200 ms".
        let labels: Vec<&str> = a.waterfall.iter().map(|b| b.label.as_str()).collect();
        assert_eq!(labels, vec!["20-50 ms", "100-200 ms"]);
    }

    #[test]
    fn utilization_covers_the_nav_windows() {
        let a = Analytics::compute(&sample(), &SummarizeOptions { bins: 10 });
        let u = &a.utilization;
        assert_eq!(u.white_spaces, 2);
        assert_eq!(u.reserved_us, 50_000);
        assert!((u.fraction - 0.05).abs() < 1e-9);
        // 10 bins of 100 ms: bin 0 holds the 20 ms window, bin 5 the 30 ms.
        assert!((u.bins[0] - 0.2).abs() < 1e-9, "{:?}", u.bins);
        assert!((u.bins[5] - 0.3).abs() < 1e-9, "{:?}", u.bins);
        assert_eq!(u.bins[9], 0.0);
    }

    #[test]
    fn nav_running_past_the_trace_end_terminates_and_clamps() {
        // The reservation window extends past the last record AND past
        // the binned range; the spread walk must clamp, not wrap.
        let t = TraceFile::parse(
            "{\"schema\":\"bicord-trace/1\",\"seed\":1,\"mode\":\"bicord\",\"duration_us\":100000}\n\
             {\"t_us\":99999,\"ev\":\"white_space\",\"nav_us\":50000}\n",
        )
        .unwrap();
        let a = Analytics::compute(&t, &SummarizeOptions { bins: 10 });
        let u = &a.utilization;
        assert_eq!(u.white_spaces, 1);
        assert_eq!(u.reserved_us, 50_000);
        // Only the tail of the last bin is coverable.
        assert!(u.bins[..9].iter().all(|&f| f == 0.0), "{:?}", u.bins);
        assert!(u.bins[9] > 0.0 && u.bins[9] <= 1.0, "{:?}", u.bins);
    }

    #[test]
    fn convergence_and_faults() {
        let a = Analytics::compute(&sample(), &SummarizeOptions::default());
        assert_eq!(a.convergence.estimates.len(), 2);
        assert_eq!(a.convergence.estimates[1].3, AllocationPhase::Converged);
        assert_eq!(a.convergence.max_rounds, 1);
        assert_eq!(
            a.convergence.re_estimates,
            vec![(ReEstimateReason::ShrinkProbe, 1)]
        );
        assert_eq!(a.faults, vec![("csma_fallback", 1)]);
    }

    #[test]
    fn populations_follow_taxonomy_order() {
        let a = Analytics::compute(&sample(), &SummarizeOptions::default());
        let kinds: Vec<(&str, usize)> = a.populations.iter().map(|p| (p.0, p.1)).collect();
        assert_eq!(
            kinds,
            [
                ("channel_request", 2),
                ("white_space", 2),
                ("n_round", 1),
                ("estimate", 2),
                ("re_estimate", 1),
                ("burst_complete", 2),
                ("packet_delivered", 1),
                ("csma_fallback", 1),
            ]
        );
        assert_eq!(a.populations[0].2..=a.populations[0].3, 1_000..=500_000);
    }

    #[test]
    fn sections_report_nonempty() {
        let a = Analytics::compute(&sample(), &SummarizeOptions::default());
        for s in ["events", "bursts", "utilization", "convergence", "faults"] {
            assert_eq!(a.section_nonempty(s), Some(true), "{s}");
        }
        assert_eq!(a.section_nonempty("nonsense"), None);
    }

    #[test]
    fn renders_are_deterministic_and_contain_sections() {
        let t = sample();
        let a = Analytics::compute(&t, &SummarizeOptions::default());
        let text = a.render_text(&t);
        for needle in [
            "event populations",
            "per-node bursts",
            "burst latency waterfall",
            "white-space utilization timeline",
            "allocator convergence",
            "faults, fallbacks & guards",
        ] {
            assert!(text.contains(needle), "missing {needle}:\n{text}");
        }
        let json = a.render_json(&t);
        assert!(json.starts_with("{\"schema\":\"bicord-analyze/1\""));
        assert!(json.contains("\"white_spaces\":2"), "{json}");
        assert_eq!(
            json,
            Analytics::compute(&t, &SummarizeOptions::default()).render_json(&t)
        );
    }

    #[test]
    fn empty_trace_still_summarizes() {
        let t = TraceFile::parse(
            "{\"schema\":\"bicord-trace/1\",\"seed\":1,\"mode\":\"x\",\"duration_us\":1000}\n",
        )
        .unwrap();
        let a = Analytics::compute(&t, &SummarizeOptions::default());
        assert_eq!(a.section_nonempty("bursts"), Some(false));
        assert_eq!(a.section_nonempty("utilization"), Some(false));
        let text = a.render_text(&t);
        assert!(text.contains("none recorded"), "{text}");
    }
}
