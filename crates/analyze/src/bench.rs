//! Budget engine (`bicord analyze diff-bench`): compares two
//! `BENCH_results.json` files under per-metric threshold rules and turns
//! the deterministic floors of the bench records into an enforced
//! budget. Host timing is judged by `scripts/ab.sh`, not here.
//!
//! Records are keyed by `(experiment, quick)`: a `--quick` record diffs
//! against the quick baseline record of the same experiment, never
//! against the full-scale one.
//!
//! # Budget rules
//!
//! A [`BudgetRule`] selects metrics by substring match on the experiment
//! name and the metric name (with an optional disqualifying substring)
//! and applies one of three checks:
//!
//! * [`RuleKind::MaxRegressionPct`] — lower-is-better values: breach
//!   when `current > baseline × (1 + limit/100)`.
//! * [`RuleKind::MaxDropPct`] — higher-is-better throughput/quality
//!   floors: breach when `current < baseline × (1 - limit/100)`.
//! * [`RuleKind::MaxValue`] — absolute ceilings evaluated on the current
//!   file alone (no baseline entry needed), e.g. quarantined-cell counts.
//!
//! A baseline metric gated by a relative rule must reappear in the
//! current file: a missing entry or metric is a breach, so a renamed
//! metric or an experiment that stops recording cannot loosen a floor.
//!
//! The default rule set (see [`default_rules`]) is PDR/utilization
//! floors plus a zero ceiling on `quarantined_cells`. `--rules FILE`
//! replaces it with a JSON list; see `docs/ANALYTICS.md` for the format.

use std::fmt::Write as _;

use bicord_metrics::table::{fmt1, TextTable};
use bicord_sim::json::{self, Json};

/// Default allowed drop for higher-is-better metrics, percent. The gated
/// quality metrics (PDR, utilization) are deterministic for a seeded run,
/// so any real drop is a behavior change; 5% only absorbs float
/// formatting drift.
pub const DEFAULT_DROP_PCT: f64 = 5.0;

/// One parsed `BENCH_results.json` entry.
#[derive(Debug, Clone)]
pub struct BenchEntry {
    /// Experiment name (`"medium_microbench"`, ...).
    pub experiment: String,
    /// Whether the record came from a `--quick` run.
    pub quick: bool,
    /// The whole record, for `--bless` passthrough.
    pub record: Json,
    /// The flat metrics map (non-finite values dropped).
    pub metrics: Vec<(String, f64)>,
}

impl BenchEntry {
    /// The `(experiment, quick)` identity used for matching.
    fn key(&self) -> (&str, bool) {
        (&self.experiment, self.quick)
    }

    /// Display label: `experiment`, plus `:quick` for quick-mode
    /// records, so same-experiment rows stay tellable apart in reports.
    fn label(&self) -> String {
        let mut label = self.experiment.clone();
        if self.quick {
            label.push_str(":quick");
        }
        label
    }

    /// Reads one record object. `null` metrics (non-finite values at
    /// record time) are dropped.
    fn from_json(record: &Json) -> Result<BenchEntry, String> {
        let experiment = record
            .get("experiment")
            .and_then(Json::as_str)
            .ok_or("record lacks an \"experiment\" string")?;
        let quick = match record.get("quick") {
            None => false,
            Some(v) => v.as_bool().ok_or("\"quick\" is not a boolean")?,
        };
        let metrics = match record.get("metrics") {
            None => &[][..],
            Some(v) => v.as_object().ok_or("\"metrics\" is not an object")?,
        };
        let metrics = metrics
            .iter()
            .filter(|(_, v)| *v != Json::Null)
            .map(|(name, v)| match v.as_f64() {
                Some(x) => Ok((name.clone(), x)),
                None => Err(format!("metric \"{name}\" is not a number")),
            })
            .collect::<Result<_, String>>()?;
        Ok(BenchEntry {
            experiment: experiment.to_string(),
            quick,
            record: record.clone(),
            metrics,
        })
    }
}

/// Parses a results file (the format `PerfRecorder::merge_record`
/// writes: a JSON array of record objects, one per line). Any element
/// that is not a well-formed record fails the whole file, so a truncated
/// or corrupt file can never pass a budget gate by losing entries.
pub fn parse_bench_file(text: &str) -> Result<Vec<BenchEntry>, String> {
    json::parse(text)?
        .as_array()
        .ok_or("a results file must be a JSON array of records")?
        .iter()
        .enumerate()
        .map(|(i, record)| BenchEntry::from_json(record).map_err(|e| format!("entry {i}: {e}")))
        .collect()
}

/// The check a [`BudgetRule`] applies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RuleKind {
    /// Lower-is-better: breach when current exceeds baseline by more
    /// than `limit` percent.
    MaxRegressionPct,
    /// Higher-is-better: breach when current falls below baseline by
    /// more than `limit` percent.
    MaxDropPct,
    /// Absolute ceiling on the current value (baseline not consulted).
    MaxValue,
}

impl RuleKind {
    /// The identifier used in the JSON rules file.
    pub fn name(&self) -> &'static str {
        match self {
            RuleKind::MaxRegressionPct => "max_regression_pct",
            RuleKind::MaxDropPct => "max_drop_pct",
            RuleKind::MaxValue => "max_value",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "max_regression_pct" => Some(RuleKind::MaxRegressionPct),
            "max_drop_pct" => Some(RuleKind::MaxDropPct),
            "max_value" => Some(RuleKind::MaxValue),
            _ => None,
        }
    }
}

/// One per-metric threshold rule.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetRule {
    /// Substring match on the experiment name (empty = any experiment).
    pub experiment: String,
    /// Substring match on the metric name (empty = any metric).
    pub metric: String,
    /// Metrics containing this substring are exempt (empty = none).
    pub exclude: String,
    /// The check to apply.
    pub kind: RuleKind,
    /// The threshold (percent for the relative kinds, absolute for
    /// [`RuleKind::MaxValue`]).
    pub limit: f64,
}

impl BudgetRule {
    fn matches(&self, experiment: &str, metric: &str) -> bool {
        (self.experiment.is_empty() || experiment.contains(&self.experiment))
            && (self.metric.is_empty() || metric.contains(&self.metric))
            && (self.exclude.is_empty() || !metric.contains(&self.exclude))
    }

    /// Human-readable limit, e.g. `"<= +25%"` or `"<= 0"`.
    pub fn limit_text(&self) -> String {
        match self.kind {
            RuleKind::MaxRegressionPct => format!("<= +{:.0}%", self.limit),
            RuleKind::MaxDropPct => format!(">= -{:.0}%", self.limit),
            RuleKind::MaxValue => format!("<= {}", self.limit),
        }
    }
}

/// The built-in rule set: the deterministic PDR/utilization floors and
/// the quarantined-cell ceiling.
pub fn default_rules() -> Vec<BudgetRule> {
    vec![
        BudgetRule {
            experiment: String::new(),
            metric: "pdr".to_string(),
            exclude: String::new(),
            kind: RuleKind::MaxDropPct,
            limit: DEFAULT_DROP_PCT,
        },
        BudgetRule {
            experiment: String::new(),
            metric: "utilization".to_string(),
            exclude: String::new(),
            kind: RuleKind::MaxDropPct,
            limit: DEFAULT_DROP_PCT,
        },
        BudgetRule {
            experiment: String::new(),
            metric: "quarantined_cells".to_string(),
            exclude: String::new(),
            kind: RuleKind::MaxValue,
            limit: 0.0,
        },
    ]
}

/// Parses a JSON rules file: an array of objects with string fields
/// `experiment`, `metric`, optional `exclude`, `rule` (one of
/// `max_regression_pct` / `max_drop_pct` / `max_value`) and a numeric
/// `limit`. See `docs/ANALYTICS.md` for examples.
pub fn parse_rules(text: &str) -> Result<Vec<BudgetRule>, String> {
    let doc = json::parse(text)?;
    let objects = doc
        .as_array()
        .ok_or("a rules file must be a JSON array of rule objects")?;
    if objects.is_empty() {
        return Err("rules file holds no rule objects".to_string());
    }
    objects
        .iter()
        .enumerate()
        .map(|(i, rule)| parse_rule(rule).map_err(|e| format!("rule {i}: {e}")))
        .collect()
}

fn parse_rule(rule: &Json) -> Result<BudgetRule, String> {
    let text = |name: &str| match rule.get(name) {
        None => Ok(String::new()),
        Some(v) => v
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("\"{name}\" is not a string")),
    };
    let kind_name = rule
        .get("rule")
        .and_then(Json::as_str)
        .ok_or("rule object lacks a \"rule\" string")?;
    let kind = RuleKind::parse(kind_name).ok_or_else(|| {
        format!(
            "unknown rule kind {} (valid: max_regression_pct, max_drop_pct, max_value)",
            json::escape(kind_name)
        )
    })?;
    let limit = rule
        .get("limit")
        .and_then(Json::as_f64)
        .ok_or("rule object lacks a numeric \"limit\" field")?;
    Ok(BudgetRule {
        experiment: text("experiment")?,
        metric: text("metric")?,
        exclude: text("exclude")?,
        kind,
        limit,
    })
}

/// The verdict for one gated metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within budget.
    Ok,
    /// Budget breached.
    Breach,
}

/// One evaluated `(entry, metric)` pair.
#[derive(Debug, Clone)]
pub struct BudgetRow {
    /// `experiment` or `experiment[K/N]`.
    pub entry: String,
    /// Metric name.
    pub metric: String,
    /// Baseline value (`None` for [`RuleKind::MaxValue`] rows).
    pub baseline: Option<f64>,
    /// Current value (`None` when the current file lacks a gated
    /// baseline metric, which is a breach).
    pub current: Option<f64>,
    /// Relative change in percent (`None` for absolute-ceiling rows, a
    /// missing current value or a zero baseline).
    pub delta_pct: Option<f64>,
    /// The applied limit, human-readable.
    pub limit: String,
    /// Pass/fail for this metric.
    pub verdict: Verdict,
}

/// The full budget evaluation.
#[derive(Debug, Clone)]
pub struct BudgetReport {
    /// Every gated metric, in current-file order, then the gated
    /// baseline metrics the current file lacks.
    pub rows: Vec<BudgetRow>,
    /// Current-file entries with no matching baseline entry, and
    /// `entry/metric` pairs whose baseline entry lacks the metric: the
    /// relative rules that would gate them were skipped.
    pub unmatched: Vec<String>,
}

impl BudgetReport {
    /// The breached rows.
    pub fn breaches(&self) -> Vec<&BudgetRow> {
        self.rows
            .iter()
            .filter(|r| r.verdict == Verdict::Breach)
            .collect()
    }

    /// One-line descriptions of every breach, naming the metric.
    pub fn breach_lines(&self) -> Vec<String> {
        self.breaches()
            .iter()
            .map(|r| match (r.baseline, r.current, r.delta_pct) {
                (Some(base), None, _) => format!(
                    "{}/{}: {} -> missing from the current file (budget {})",
                    r.entry,
                    r.metric,
                    fmt1(base),
                    r.limit
                ),
                (Some(base), Some(cur), Some(delta)) => format!(
                    "{}/{}: {} -> {} ({delta:+.1}%, budget {})",
                    r.entry,
                    r.metric,
                    fmt1(base),
                    fmt1(cur),
                    r.limit
                ),
                (_, cur, _) => format!(
                    "{}/{}: {} (budget {})",
                    r.entry,
                    r.metric,
                    current_text(cur),
                    r.limit
                ),
            })
            .collect()
    }

    /// Renders the aligned text report with a PASS/FAIL trailer.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let mut table = TextTable::new(vec![
            "entry", "metric", "baseline", "current", "delta %", "budget", "verdict",
        ]);
        table.title("diff-bench — budget".to_string());
        for r in &self.rows {
            table.row(row_cells(r));
        }
        let _ = writeln!(out, "{table}");
        for entry in &self.unmatched {
            let _ = writeln!(
                out,
                "diff-bench: note — no baseline for {entry}, relative rules skipped"
            );
        }
        let breaches = self.breach_lines();
        if breaches.is_empty() {
            let _ = writeln!(
                out,
                "diff-bench: PASS — {} metric(s) within budget",
                self.rows.len()
            );
        } else {
            let _ = writeln!(
                out,
                "diff-bench: FAIL — {} of {} metric(s) breached the budget:",
                breaches.len(),
                self.rows.len()
            );
            for b in &breaches {
                let _ = writeln!(out, "  {b}");
            }
        }
        out
    }

    /// Renders the report as a markdown document (the CI `perf-budget`
    /// artifact).
    pub fn render_markdown(&self) -> String {
        let mut out = String::from("# Perf budget report\n\n");
        let breaches = self.breach_lines();
        if breaches.is_empty() {
            let _ = writeln!(
                out,
                "**PASS** — {} gated metric(s) within budget.\n",
                self.rows.len()
            );
        } else {
            let _ = writeln!(
                out,
                "**FAIL** — {} of {} gated metric(s) breached the budget:\n",
                breaches.len(),
                self.rows.len()
            );
            for b in &breaches {
                let _ = writeln!(out, "- `{b}`");
            }
            out.push('\n');
        }
        out.push_str("| entry | metric | baseline | current | delta % | budget | verdict |\n");
        out.push_str("|---|---|---|---|---|---|---|\n");
        for r in &self.rows {
            let _ = writeln!(out, "| {} |", row_cells(r).join(" | "));
        }
        if !self.unmatched.is_empty() {
            out.push('\n');
            for entry in &self.unmatched {
                let _ = writeln!(out, "*No baseline for `{entry}`; relative rules skipped.*");
            }
        }
        out
    }
}

fn row_cells(r: &BudgetRow) -> Vec<String> {
    vec![
        r.entry.clone(),
        r.metric.clone(),
        r.baseline.map(fmt1).unwrap_or_else(|| "-".to_string()),
        current_text(r.current),
        r.delta_pct
            .map(|d| format!("{d:+.1}"))
            .unwrap_or_else(|| "-".to_string()),
        r.limit.clone(),
        match r.verdict {
            Verdict::Ok => "ok".to_string(),
            Verdict::Breach => "BREACH".to_string(),
        },
    ]
}

fn current_text(current: Option<f64>) -> String {
    current.map(fmt1).unwrap_or_else(|| "missing".to_string())
}

/// The first rule that gates `metric` of `experiment`, if any.
fn rule_for<'a>(rules: &'a [BudgetRule], experiment: &str, metric: &str) -> Option<&'a BudgetRule> {
    rules.iter().find(|r| r.matches(experiment, metric))
}

/// Evaluates `current` against `baseline` under `rules`.
///
/// Every metric is gated by the *first* rule that matches it, so
/// specific rules should precede catch-alls in a custom rules file. A
/// baseline metric gated by a relative rule that the current file lacks
/// (its metric or its whole entry) is a breach row with no current
/// value.
pub fn evaluate(
    baseline: &[BenchEntry],
    current: &[BenchEntry],
    rules: &[BudgetRule],
) -> BudgetReport {
    let mut rows = Vec::new();
    let mut unmatched = Vec::new();
    for cur in current {
        let base = baseline.iter().find(|b| b.key() == cur.key());
        let mut needed_baseline = false;
        for (metric, cur_v) in &cur.metrics {
            let Some(rule) = rule_for(rules, &cur.experiment, metric) else {
                continue;
            };
            match rule.kind {
                RuleKind::MaxValue => {
                    rows.push(BudgetRow {
                        entry: cur.label(),
                        metric: metric.clone(),
                        baseline: None,
                        current: Some(*cur_v),
                        delta_pct: None,
                        limit: rule.limit_text(),
                        verdict: if *cur_v > rule.limit {
                            Verdict::Breach
                        } else {
                            Verdict::Ok
                        },
                    });
                }
                RuleKind::MaxRegressionPct | RuleKind::MaxDropPct => {
                    let Some(base) = base else {
                        needed_baseline = true;
                        continue;
                    };
                    let Some((_, base_v)) = base.metrics.iter().find(|(n, _)| n == metric) else {
                        unmatched.push(format!("{}/{metric}", cur.label()));
                        continue;
                    };
                    let delta_pct = (*base_v != 0.0).then(|| 100.0 * (cur_v - base_v) / base_v);
                    let breached = match rule.kind {
                        RuleKind::MaxRegressionPct => *cur_v > base_v * (1.0 + rule.limit / 100.0),
                        _ => *cur_v < base_v * (1.0 - rule.limit / 100.0),
                    };
                    rows.push(BudgetRow {
                        entry: cur.label(),
                        metric: metric.clone(),
                        baseline: Some(*base_v),
                        current: Some(*cur_v),
                        delta_pct,
                        limit: rule.limit_text(),
                        verdict: if breached {
                            Verdict::Breach
                        } else {
                            Verdict::Ok
                        },
                    });
                }
            }
        }
        if needed_baseline {
            unmatched.push(cur.label());
        }
    }
    for base in baseline {
        let cur = current.iter().find(|c| c.key() == base.key());
        for (metric, base_v) in &base.metrics {
            let relative = |r: &&BudgetRule| r.kind != RuleKind::MaxValue;
            let Some(rule) = rule_for(rules, &base.experiment, metric).filter(relative) else {
                continue;
            };
            if cur.is_some_and(|c| c.metrics.iter().any(|(n, _)| n == metric)) {
                continue;
            }
            rows.push(BudgetRow {
                entry: base.label(),
                metric: metric.clone(),
                baseline: Some(*base_v),
                current: None,
                delta_pct: None,
                limit: rule.limit_text(),
                verdict: Verdict::Breach,
            });
        }
    }
    BudgetReport { rows, unmatched }
}

/// The `--bless` payload: the current entries worth baselining — those
/// with at least one metric gated by a *relative* rule (absolute-ceiling
/// rules need no baseline).
pub fn blessable<'a>(current: &'a [BenchEntry], rules: &[BudgetRule]) -> Vec<&'a BenchEntry> {
    current
        .iter()
        .filter(|e| {
            e.metrics.iter().any(|(name, _)| {
                rule_for(rules, &e.experiment, name).is_some_and(|r| r.kind != RuleKind::MaxValue)
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &str = "{\"experiment\": \"dense_city_scaling\", \"quick\": true, \
         \"threads\": 8, \"cells\": 3, \"wall_ms\": 42.5, \"metrics\": \
         {\"sensed_ns_100\": 236.2, \"sensed_nocull_ns_100\": 485.8, \
         \"broken\": null, \"sensed_flatness\": 1.74}}";

    const MULTI: &str = "{\"experiment\": \"multi_node\", \"quick\": true, \
         \"threads\": 1, \"cells\": 3, \"wall_ms\": 9.5, \
         \"metrics\": {\"mean_aggregate_pdr\": 0.92, \"quarantined_cells\": 0}}";

    fn file(lines: &[&str]) -> Vec<BenchEntry> {
        parse_bench_file(&format!("[\n{}\n]\n", lines.join(",\n"))).unwrap()
    }

    /// A rules file gating `LINE`'s `_ns` columns (`nocull` exempt) at
    /// +25%, followed by the default floors.
    fn latency_rules() -> Vec<BudgetRule> {
        let mut rules = parse_rules(
            r#"[{"experiment": "dense_city_scaling", "metric": "_ns", "exclude": "nocull",
                 "rule": "max_regression_pct", "limit": 25}]"#,
        )
        .unwrap();
        rules.extend(default_rules());
        rules
    }

    #[test]
    fn parses_recorder_lines() {
        let entries = file(&[LINE, LINE]);
        assert_eq!(entries.len(), 2);
        let e = &entries[0];
        assert_eq!(e.experiment, "dense_city_scaling");
        assert!(e.quick);
        // `null` metrics are dropped; finite ones keep their values —
        // including the final metric, right against the closing braces.
        assert_eq!(
            e.metrics,
            vec![
                ("sensed_ns_100".to_string(), 236.2),
                ("sensed_nocull_ns_100".to_string(), 485.8),
                ("sensed_flatness".to_string(), 1.74),
            ]
        );
    }

    #[test]
    fn malformed_files_are_errors_not_fewer_entries() {
        let whole = format!("[\n{LINE},\n{MULTI}\n]\n");
        assert_eq!(parse_bench_file(&whole).unwrap().len(), 2);
        // Cut anywhere inside the array: the file no longer parses.
        for cut in [whole.len() - 3, whole.len() / 2, 1] {
            assert!(parse_bench_file(&whole[..cut]).is_err(), "cut at {cut}");
        }
        assert!(parse_bench_file("{}").unwrap_err().contains("JSON array"));
        let no_name = parse_bench_file("[{\"quick\": true}]").unwrap_err();
        assert!(no_name.contains("entry 0") && no_name.contains("experiment"));
        let bad_metric = LINE.replace("236.2", "\"fast\"");
        let err = parse_bench_file(&format!("[{bad_metric}]")).unwrap_err();
        assert!(err.contains("sensed_ns_100"), "{err}");
    }

    #[test]
    fn default_rules_gate_the_deterministic_floors_only() {
        let rules = default_rules();
        let gated = |exp: &str, metric: &str| {
            rules
                .iter()
                .find(|r| r.matches(exp, metric))
                .map(|r| r.kind)
        };
        // Host timings are `scripts/ab.sh`'s to judge.
        assert_eq!(gated("dense_city_scaling", "sensed_ns_100"), None);
        assert_eq!(gated("dense_city_scaling", "sensed_nocull_ns_100"), None);
        assert_eq!(gated("dense_city_scaling", "sensed_flatness"), None);
        assert_eq!(gated("dense_city_scaling", "run_ms_100"), None);
        assert_eq!(
            gated("multi_node", "mean_aggregate_pdr"),
            Some(RuleKind::MaxDropPct)
        );
        assert_eq!(
            gated("robustness_sweep", "worst_rate_utilization"),
            Some(RuleKind::MaxDropPct)
        );
        assert_eq!(
            gated("anything", "quarantined_cells"),
            Some(RuleKind::MaxValue)
        );
    }

    #[test]
    fn latency_regression_breaches_and_names_the_metric() {
        let baseline = file(&[LINE]);
        let current = file(&[&LINE.replace("236.2", "400.0")]);
        let report = evaluate(&baseline, &current, &latency_rules());
        let breaches = report.breach_lines();
        assert_eq!(breaches.len(), 1);
        assert!(breaches[0].contains("sensed_ns_100"), "{breaches:?}");
        assert!(breaches[0].contains("+69.3%"), "{breaches:?}");
        assert!(report.render_text().contains("FAIL"));
        assert!(report.render_markdown().contains("**FAIL**"));
    }

    #[test]
    fn improvement_and_nocull_growth_pass() {
        let baseline = file(&[LINE]);
        // Gated metric improves; the exempt nocull column explodes.
        let current = file(&[&LINE.replace("236.2", "100.0").replace("485.8", "9999.0")]);
        let report = evaluate(&baseline, &current, &latency_rules());
        assert!(report.breaches().is_empty(), "{:?}", report.breach_lines());
        assert!(report.render_text().contains("PASS"));
    }

    #[test]
    fn throughput_floor_and_quarantine_ceiling() {
        let baseline = file(&[MULTI]);
        let dropped = MULTI
            .replace("0.92", "0.80")
            .replace("\"quarantined_cells\": 0", "\"quarantined_cells\": 2");
        let current = file(&[&dropped]);
        let report = evaluate(&baseline, &current, &default_rules());
        let breaches = report.breach_lines();
        assert_eq!(breaches.len(), 2, "{breaches:?}");
        assert!(breaches.iter().any(|b| b.contains("mean_aggregate_pdr")));
        assert!(breaches.iter().any(|b| b.contains("quarantined_cells")));
        // The ceiling row needs no baseline.
        let report = evaluate(&[], &current, &default_rules());
        assert_eq!(report.breach_lines().len(), 1);
        assert!(report.breach_lines()[0].contains("quarantined_cells"));
    }

    #[test]
    fn gated_baseline_metric_missing_from_current_is_a_breach() {
        const SWEEP: &str = "{\"experiment\": \"robustness_sweep\", \"quick\": true, \
             \"threads\": 1, \"cells\": 7, \"wall_ms\": 23.1, \"metrics\": \
             {\"baseline_pdr\": 1, \"worst_rate_pdr\": 0.925, \"worst_rate_csma_fallbacks\": 1}}";
        let baseline = file(&[MULTI, SWEEP]);
        // A renamed floor metric: the new name has no baseline (a note),
        // the old one is gone from the current file (a breach).
        let renamed = SWEEP.replace("worst_rate_pdr", "worst_pdr");
        let report = evaluate(&baseline, &file(&[MULTI, &renamed]), &default_rules());
        assert_eq!(
            report.breach_lines(),
            vec![
                "robustness_sweep:quick/worst_rate_pdr: 0.9 -> missing from the current \
                  file (budget >= -5%)"
                    .to_string()
            ]
        );
        assert_eq!(report.unmatched, vec!["robustness_sweep:quick/worst_pdr"]);
        assert!(report
            .render_markdown()
            .contains("| 0.9 | missing | - | >= -5% | BREACH |"));
        // An experiment that stops recording: each of its gated metrics
        // is a breach; the ungated fallback count is not.
        let report = evaluate(&baseline, &file(&[MULTI]), &default_rules());
        let breaches = report.breach_lines();
        assert_eq!(breaches.len(), 2, "{breaches:?}");
        assert!(breaches[0].starts_with("robustness_sweep:quick/baseline_pdr: 1.0 -> missing"));
        assert!(breaches[1].starts_with("robustness_sweep:quick/worst_rate_pdr: 0.9 -> missing"));
        assert!(report.render_markdown().contains("**FAIL**"));
        // A ceiling-only metric needs no baseline and is never missing.
        let ceiling = file(&[&MULTI.replace("0.92", "0.93")]);
        assert!(evaluate(&ceiling, &ceiling, &default_rules())
            .breaches()
            .is_empty());
    }

    #[test]
    fn metric_missing_from_baseline_entry_is_reported_not_dropped() {
        let baseline = file(&[LINE]);
        let current = file(&[&LINE.replace(
            "\"sensed_flatness\"",
            "\"sensed_ns_400\": 300.0, \"sensed_flatness\"",
        )]);
        let report = evaluate(&baseline, &current, &latency_rules());
        assert!(report.rows.iter().all(|r| r.metric != "sensed_ns_400"));
        assert_eq!(
            report.unmatched,
            vec!["dense_city_scaling:quick/sensed_ns_400".to_string()]
        );
        let note = "no baseline for dense_city_scaling:quick/sensed_ns_400, relative rules skipped";
        assert!(
            report.render_text().contains(note),
            "{}",
            report.render_text()
        );
        assert!(report
            .render_markdown()
            .contains("*No baseline for `dense_city_scaling:quick/sensed_ns_400`;"));
        // Ungated metrics missing from the baseline stay silent.
        let current = file(&[&LINE.replace(
            "\"sensed_flatness\"",
            "\"sensed_mean\": 1.0, \"sensed_flatness\"",
        )]);
        let report = evaluate(&baseline, &current, &latency_rules());
        assert!(report.unmatched.is_empty(), "{:?}", report.unmatched);
    }

    #[test]
    fn rules_file_round_trip() {
        let text = r#"[
  {"experiment": "dense_city_scaling", "metric": "_ns", "exclude": "nocull",
   "rule": "max_regression_pct", "limit": 10},
  {"metric": "quarantined_cells", "rule": "max_value", "limit": 0}
]"#;
        let rules = parse_rules(text).unwrap();
        assert_eq!(rules.len(), 2);
        assert_eq!(rules[0].kind, RuleKind::MaxRegressionPct);
        assert_eq!(rules[0].limit, 10.0);
        assert_eq!(rules[0].exclude, "nocull");
        assert_eq!(rules[1].kind, RuleKind::MaxValue);
        assert_eq!(rules[1].experiment, "");

        assert!(parse_rules("[]").is_err());
        assert!(parse_rules("[{\"rule\": \"warp\", \"limit\": 1}]").is_err());
        assert!(parse_rules("[{\"metric\": \"x\"}]").is_err());
        // The file must be one valid JSON array: a stray object, a
        // truncated array or a non-string filter is an error.
        assert!(parse_rules("{\"rule\": \"max_value\", \"limit\": 1}").is_err());
        assert!(parse_rules("[{\"rule\": \"max_value\", \"limit\": 1}").is_err());
        let err = parse_rules("[{\"metric\": 5, \"rule\": \"max_value\", \"limit\": 1}]");
        assert!(err.unwrap_err().contains("rule 0: \"metric\""));
    }

    #[test]
    fn bless_selects_relative_rule_targets_only() {
        let no_gated = "{\"experiment\": \"cti_accuracy\", \"quick\": false, \
             \"threads\": 1, \"cells\": 4, \"wall_ms\": 18.5, \"metrics\": {}}";
        let entries = file(&[LINE, MULTI, no_gated]);
        let names: Vec<String> = blessable(&entries, &latency_rules())
            .iter()
            .map(|e| e.label())
            .collect();
        assert_eq!(names, vec!["dense_city_scaling:quick", "multi_node:quick"]);
    }
}
