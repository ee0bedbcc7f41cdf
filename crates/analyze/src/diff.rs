//! Structural comparison of two `bicord-trace/1` timelines
//! (`bicord analyze diff-trace`).
//!
//! Records are keyed by kind, plus the node index for node-attributed
//! kinds, so "node 2 stopped completing bursts" shows up as its own row
//! instead of vanishing into an aggregate count. For keys whose counts
//! match, the record payloads are compared pairwise in time order, so a
//! count-preserving change (same number of reservations, different
//! lengths) is still reported.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use bicord_metrics::table::TextTable;
use bicord_sim::json;
use bicord_sim::obs::{TraceEvent, TraceFile, TraceSummary};

/// What happened to one record population between trace A and trace B.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffStatus {
    /// Present in B only.
    Added,
    /// Present in A only.
    Removed,
    /// Present in both with different counts.
    CountChanged,
    /// Same count, but at least one record's time or payload differs.
    PayloadChanged,
    /// Byte-identical populations.
    Equal,
}

impl DiffStatus {
    /// Stable label used in text and JSON output.
    pub fn label(&self) -> &'static str {
        match self {
            DiffStatus::Added => "added",
            DiffStatus::Removed => "removed",
            DiffStatus::CountChanged => "count-changed",
            DiffStatus::PayloadChanged => "payload-changed",
            DiffStatus::Equal => "equal",
        }
    }
}

/// One population row of the diff report.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Population key: `kind` or `kind/node=N`.
    pub key: String,
    /// Record count in trace A.
    pub count_a: usize,
    /// Record count in trace B.
    pub count_b: usize,
    /// The verdict for this population.
    pub status: DiffStatus,
}

/// The full structural diff of two traces.
#[derive(Debug, Clone)]
pub struct TraceDiff {
    /// `(field, value in A, value in B)` for differing header fields.
    pub header_diffs: Vec<(&'static str, String, String)>,
    /// One row per population key present in either trace.
    pub rows: Vec<DiffRow>,
    /// `(kind, count in A, count in B)` for differing DES dequeue
    /// aggregates from the summary trailers.
    pub dequeue_diffs: Vec<(String, u64, u64)>,
}

impl TraceDiff {
    /// `true` when the two traces are structurally identical: same
    /// header, same record stream, same dequeue aggregates.
    pub fn identical(&self) -> bool {
        self.header_diffs.is_empty()
            && self.dequeue_diffs.is_empty()
            && self.rows.iter().all(|r| r.status == DiffStatus::Equal)
    }

    /// Rows that differ, most-changed kinds first (stable by key within
    /// the same status).
    pub fn changed_rows(&self) -> Vec<&DiffRow> {
        self.rows
            .iter()
            .filter(|r| r.status != DiffStatus::Equal)
            .collect()
    }

    /// Renders the text report.
    pub fn render_text(&self, name_a: &str, name_b: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "diff-trace: A = {name_a}, B = {name_b}");
        for (field, a, b) in &self.header_diffs {
            let _ = writeln!(out, "header: {field} differs — A {a}, B {b}");
        }
        let mut table = TextTable::new(vec!["population", "A", "B", "delta", "status"]);
        table.title("record populations");
        for row in &self.rows {
            table.row(vec![
                row.key.clone(),
                row.count_a.to_string(),
                row.count_b.to_string(),
                format!("{:+}", row.count_b as i64 - row.count_a as i64),
                row.status.label().to_string(),
            ]);
        }
        let _ = writeln!(out, "{table}");
        for (kind, a, b) in &self.dequeue_diffs {
            let _ = writeln!(out, "dequeues: {kind} differs — A {a}, B {b}");
        }
        let changed = self.changed_rows().len();
        if self.identical() {
            out.push_str("diff-trace: IDENTICAL — same header, records, and dequeue counts\n");
        } else {
            let _ = writeln!(
                out,
                "diff-trace: DIFFER — {changed} population(s) changed, {} header field(s), \
                 {} dequeue kind(s)",
                self.header_diffs.len(),
                self.dequeue_diffs.len()
            );
        }
        out
    }

    /// Renders the diff as one deterministic JSON document.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"schema\":\"bicord-analyze-diff/1\"");
        let _ = write!(out, ",\"identical\":{}", self.identical());
        out.push_str(",\"header\":{");
        for (i, (field, a, b)) in self.header_diffs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{field}\":{{\"a\":{},\"b\":{}}}",
                json::escape(a),
                json::escape(b)
            );
        }
        out.push_str("},\"populations\":[");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"key\":\"{}\",\"a\":{},\"b\":{},\"status\":\"{}\"}}",
                row.key,
                row.count_a,
                row.count_b,
                row.status.label()
            );
        }
        out.push_str("],\"dequeues\":[");
        for (i, (kind, a, b)) in self.dequeue_diffs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"kind\":{},\"a\":{a},\"b\":{b}}}",
                json::escape(kind)
            );
        }
        out.push_str("]}");
        out
    }
}

/// The population key of one record.
fn key_of(event: &TraceEvent) -> String {
    match event.node() {
        Some(node) => format!("{}/node={node}", event.kind()),
        None => event.kind().to_string(),
    }
}

fn group(trace: &TraceFile) -> BTreeMap<String, Vec<&TraceEvent>> {
    let mut map: BTreeMap<String, Vec<&TraceEvent>> = BTreeMap::new();
    for event in &trace.records {
        map.entry(key_of(event)).or_default().push(event);
    }
    map
}

/// Structurally compares two parsed traces. Both are already guaranteed
/// to carry the same schema version — [`TraceFile`] refuses anything but
/// `bicord-trace/1`.
pub fn diff_traces(a: &TraceFile, b: &TraceFile) -> TraceDiff {
    let mut header_diffs = Vec::new();
    if a.header.seed != b.header.seed {
        header_diffs.push(("seed", a.header.seed.to_string(), b.header.seed.to_string()));
    }
    if a.header.mode != b.header.mode {
        header_diffs.push(("mode", a.header.mode.clone(), b.header.mode.clone()));
    }
    if a.header.duration_us != b.header.duration_us {
        header_diffs.push((
            "duration_us",
            a.header.duration_us.to_string(),
            b.header.duration_us.to_string(),
        ));
    }

    let (groups_a, groups_b) = (group(a), group(b));
    let mut keys: Vec<&String> = groups_a.keys().chain(groups_b.keys()).collect();
    keys.sort();
    keys.dedup();
    let empty: Vec<&TraceEvent> = Vec::new();
    let rows = keys
        .into_iter()
        .map(|key| {
            let ra = groups_a.get(key).unwrap_or(&empty);
            let rb = groups_b.get(key).unwrap_or(&empty);
            let status = if ra.is_empty() {
                DiffStatus::Added
            } else if rb.is_empty() {
                DiffStatus::Removed
            } else if ra.len() != rb.len() {
                DiffStatus::CountChanged
            } else if ra != rb {
                DiffStatus::PayloadChanged
            } else {
                DiffStatus::Equal
            };
            DiffRow {
                key: key.clone(),
                count_a: ra.len(),
                count_b: rb.len(),
                status,
            }
        })
        .collect();

    let empty_summary = TraceSummary::default();
    let (sa, sb) = (
        a.summary.as_ref().unwrap_or(&empty_summary),
        b.summary.as_ref().unwrap_or(&empty_summary),
    );
    let mut dequeue_kinds: Vec<&String> = sa.dequeues.keys().chain(sb.dequeues.keys()).collect();
    dequeue_kinds.sort();
    dequeue_kinds.dedup();
    let dequeue_diffs = dequeue_kinds
        .into_iter()
        .filter_map(|kind| {
            let (ca, cb) = (
                sa.dequeues.get(kind).copied().unwrap_or(0),
                sb.dequeues.get(kind).copied().unwrap_or(0),
            );
            (ca != cb).then(|| (kind.clone(), ca, cb))
        })
        .collect();

    TraceDiff {
        header_diffs,
        rows,
        dequeue_diffs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = "\
{\"schema\":\"bicord-trace/1\",\"seed\":42,\"mode\":\"bicord\",\"duration_us\":1000000}
{\"t_us\":100,\"ev\":\"channel_request\",\"node\":0}
{\"t_us\":200,\"ev\":\"reservation\",\"ws_us\":30000}
{\"t_us\":900,\"ev\":\"burst_complete\",\"node\":0,\"delivered\":5,\"failed\":0}
{\"summary\":true,\"events\":3,\"dequeues\":{\"Timer\":7}}
";

    #[test]
    fn identical_traces_diff_clean() {
        let a = TraceFile::parse(BASE).unwrap();
        let d = diff_traces(&a, &a.clone());
        assert!(d.identical());
        assert!(d.changed_rows().is_empty());
        assert!(d.render_text("a", "b").contains("IDENTICAL"));
        assert!(d.render_json().contains("\"identical\":true"));
    }

    #[test]
    fn added_removed_and_count_changes_are_attributed() {
        let a = TraceFile::parse(BASE).unwrap();
        let other = BASE
            .replace(
                "{\"t_us\":200,\"ev\":\"reservation\",\"ws_us\":30000}",
                "{\"t_us\":200,\"ev\":\"reservation\",\"ws_us\":30000}\n\
                 {\"t_us\":300,\"ev\":\"reservation\",\"ws_us\":10000}\n\
                 {\"t_us\":400,\"ev\":\"csma_fallback\",\"node\":1,\"failures\":3}",
            )
            .replace("{\"t_us\":100,\"ev\":\"channel_request\",\"node\":0}\n", "");
        let b = TraceFile::parse(&other).unwrap();
        let d = diff_traces(&a, &b);
        assert!(!d.identical());
        let by_key = |key: &str| d.rows.iter().find(|r| r.key == key).unwrap();
        assert_eq!(by_key("channel_request/node=0").status, DiffStatus::Removed);
        assert_eq!(by_key("csma_fallback/node=1").status, DiffStatus::Added);
        assert_eq!(by_key("reservation").status, DiffStatus::CountChanged);
        assert_eq!(by_key("burst_complete/node=0").status, DiffStatus::Equal);
    }

    #[test]
    fn count_preserving_payload_change_is_caught() {
        let a = TraceFile::parse(BASE).unwrap();
        let b = TraceFile::parse(&BASE.replace("\"ws_us\":30000", "\"ws_us\":31000")).unwrap();
        let d = diff_traces(&a, &b);
        let row = d.rows.iter().find(|r| r.key == "reservation").unwrap();
        assert_eq!(row.status, DiffStatus::PayloadChanged);
        assert!(!d.identical());
    }

    #[test]
    fn header_and_dequeue_divergence_reported() {
        let a = TraceFile::parse(BASE).unwrap();
        let b = TraceFile::parse(
            &BASE
                .replace("\"seed\":42", "\"seed\":43")
                .replace("\"Timer\":7", "\"Timer\":9"),
        )
        .unwrap();
        let d = diff_traces(&a, &b);
        assert_eq!(d.header_diffs.len(), 1);
        assert_eq!(d.header_diffs[0].0, "seed");
        assert_eq!(d.dequeue_diffs, vec![("Timer".to_string(), 7, 9)]);
        let text = d.render_text("a", "b");
        assert!(text.contains("seed differs"), "{text}");
        assert!(text.contains("DIFFER"), "{text}");
    }
}
