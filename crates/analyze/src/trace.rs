//! Parser for `bicord-trace/1` JSONL timelines.
//!
//! A trace file (written by `JsonlSink`, see `docs/OBSERVABILITY.md`) is
//! one [`TraceHeader`] line, zero or more single-line event records,
//! and a `{"summary":true,...}` trailer. This module reads the whole file
//! into a [`TraceFile`]: every line goes through the workspace codec
//! ([`bicord_sim::json`]) and every record becomes a [`Record`] whose
//! fields keep their JSON names and values, so the analytics layer never
//! re-parses text.
//!
//! Parsing is **closed-world**: every `ev` kind must be listed in
//! [`TraceEvent::KINDS`]. An unknown kind is a hard
//! [`TraceError::UnknownKind`] naming the offender — when a new
//! `TraceEvent` variant is added to the sinks, the analyzer (the
//! summarizer's section routing and the exhaustive round-trip test in
//! `tests/record_kinds.rs`) must learn it in the same change, instead of
//! silently dropping records.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

use bicord_sim::json::{self, Json};
use bicord_sim::obs::{TraceEvent, TraceHeader};

/// One parsed event record.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Virtual timestamp in microseconds.
    pub t_us: u64,
    /// The `ev` kind label (guaranteed to be in [`TraceEvent::KINDS`]).
    pub kind: String,
    /// The record's extra fields, in file order, excluding `t_us`/`ev`.
    pub fields: Vec<(String, Json)>,
}

impl Record {
    /// Looks up a field by name.
    pub fn field(&self, name: &str) -> Option<&Json> {
        self.fields.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// The `node` field, when the record is node-attributed.
    pub fn node(&self) -> Option<u64> {
        self.field("node").and_then(Json::as_u64)
    }
}

/// The parsed `{"summary":true,...}` trailer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Records the sink reported writing (excludes header and trailer).
    pub events: u64,
    /// Aggregated per-DES-event-kind dequeue counts.
    pub dequeues: BTreeMap<String, u64>,
}

/// A fully parsed `bicord-trace/1` file.
#[derive(Debug, Clone)]
pub struct TraceFile {
    /// The schema-versioned header line.
    pub header: TraceHeader,
    /// All event records, in file (= virtual time) order.
    pub records: Vec<Record>,
    /// The summary trailer, if the run finished cleanly.
    pub summary: Option<TraceSummary>,
}

/// Why a trace file failed to parse.
#[derive(Debug)]
pub enum TraceError {
    /// The file could not be read.
    Io(std::io::Error),
    /// Line 1 is not a `bicord-trace/1` header.
    BadHeader,
    /// A record line is not a JSON object of the expected shape.
    BadRecord {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        reason: String,
    },
    /// A record carries an `ev` kind the analyzer does not know.
    UnknownKind {
        /// 1-based line number.
        line: usize,
        /// The offending kind label.
        kind: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "cannot read trace: {e}"),
            TraceError::BadHeader => write!(
                f,
                "line 1 is not a {} header (is this a JSONL trace written by \
                 `bicord --trace` / a bench `--trace`?)",
                bicord_sim::obs::TRACE_SCHEMA
            ),
            TraceError::BadRecord { line, reason } => {
                write!(f, "line {line}: malformed trace record: {reason}")
            }
            TraceError::UnknownKind { line, kind } => write!(
                f,
                "line {line}: unknown record kind {} — not in \
                 bicord_sim::obs::TraceEvent::KINDS; a trace from another schema \
                 revision, or a new kind that KINDS and the summarizer routing \
                 have not learned yet",
                json::escape(kind)
            ),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

impl TraceFile {
    /// Reads and parses a trace file from disk.
    pub fn read(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        let text = std::fs::read_to_string(path)?;
        Self::parse(&text)
    }

    /// Parses the full text of a trace file.
    pub fn parse(text: &str) -> Result<Self, TraceError> {
        let mut lines = text.lines().enumerate();
        let header = lines
            .next()
            .and_then(|(_, l)| TraceHeader::parse(l))
            .ok_or(TraceError::BadHeader)?;
        let mut records = Vec::new();
        let mut summary = None;
        for (idx, line) in lines {
            let line_no = idx + 1;
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let bad = |reason: String| TraceError::BadRecord {
                line: line_no,
                reason,
            };
            let doc = json::parse(line).map_err(bad)?;
            if doc.get("summary") == Some(&Json::Bool(true)) {
                summary = Some(parse_summary(&doc).map_err(|r| bad(r.to_string()))?);
                continue;
            }
            let Json::Obj(fields) = doc else {
                return Err(bad("not a JSON object".to_string()));
            };
            records.push(parse_record(fields, line_no)?);
        }
        Ok(TraceFile {
            header,
            records,
            summary,
        })
    }

    /// Per-kind record counts, in [`TraceEvent::KINDS`] order (kinds
    /// absent from the trace are omitted).
    pub fn populations(&self) -> Vec<(&'static str, usize)> {
        TraceEvent::KINDS
            .iter()
            .filter_map(|kind| {
                let n = self.records.iter().filter(|r| r.kind == *kind).count();
                (n > 0).then_some((*kind, n))
            })
            .collect()
    }

    /// All records of one kind, in time order.
    pub fn of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a Record> + 'a {
        self.records.iter().filter(move |r| r.kind == kind)
    }
}

fn parse_record(mut fields: Vec<(String, Json)>, line_no: usize) -> Result<Record, TraceError> {
    let mut take = |name: &str| {
        let at = fields.iter().position(|(n, _)| n == name)?;
        Some(fields.remove(at).1)
    };
    let bad = |reason: &str| TraceError::BadRecord {
        line: line_no,
        reason: reason.to_string(),
    };
    let t_us = take("t_us")
        .and_then(|v| v.as_u64())
        .ok_or_else(|| bad("missing integer \"t_us\""))?;
    let kind = match take("ev") {
        Some(Json::Str(kind)) => kind,
        _ => return Err(bad("missing string \"ev\"")),
    };
    if !TraceEvent::KINDS.contains(&kind.as_str()) {
        return Err(TraceError::UnknownKind {
            line: line_no,
            kind,
        });
    }
    Ok(Record { t_us, kind, fields })
}

fn parse_summary(doc: &Json) -> Result<TraceSummary, &'static str> {
    let events = match doc.get("events") {
        None => 0,
        Some(v) => v.as_u64().ok_or("bad \"events\" count")?,
    };
    let dequeues = match doc.get("dequeues") {
        None => BTreeMap::new(),
        Some(v) => v
            .as_object()
            .ok_or("\"dequeues\" is not an object")?
            .iter()
            .map(|(name, count)| Ok((name.clone(), count.as_u64().ok_or("bad dequeue count")?)))
            .collect::<Result<_, &'static str>>()?,
    };
    Ok(TraceSummary { events, dequeues })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
{\"schema\":\"bicord-trace/1\",\"seed\":42,\"mode\":\"bicord\",\"duration_us\":2000000}
{\"t_us\":100,\"ev\":\"channel_request\",\"node\":0}
{\"t_us\":250,\"ev\":\"reservation\",\"ws_us\":30000}
{\"t_us\":300,\"ev\":\"white_space\",\"nav_us\":28000}
{\"t_us\":400,\"ev\":\"csi_classified\",\"deviation\":0.25,\"high\":true}
{\"t_us\":900,\"ev\":\"estimate\",\"estimate_us\":42000,\"rounds\":3,\"phase\":\"learning\"}
{\"t_us\":950,\"ev\":\"burst_complete\",\"node\":0,\"delivered\":5,\"failed\":0}
{\"summary\":true,\"events\":6,\"dequeues\":{\"Timer\":12,\"TxEnd\":4}}
";

    #[test]
    fn parses_a_full_file() {
        let t = TraceFile::parse(SAMPLE).unwrap();
        assert_eq!(t.header.seed, 42);
        assert_eq!(t.records.len(), 6);
        assert_eq!(t.records[0].kind, "channel_request");
        assert_eq!(t.records[0].node(), Some(0));
        assert_eq!(t.records[3].field("deviation"), Some(&Json::Float(0.25)));
        assert_eq!(
            t.records[4].field("phase").unwrap().as_str(),
            Some("learning")
        );
        let s = t.summary.unwrap();
        assert_eq!(s.events, 6);
        assert_eq!(s.dequeues.get("Timer"), Some(&12));
        assert_eq!(s.dequeues.get("TxEnd"), Some(&4));
    }

    #[test]
    fn populations_follow_taxonomy_order() {
        let t = TraceFile::parse(SAMPLE).unwrap();
        let pops = t.populations();
        assert_eq!(
            pops,
            vec![
                ("csi_classified", 1),
                ("channel_request", 1),
                ("reservation", 1),
                ("white_space", 1),
                ("estimate", 1),
                ("burst_complete", 1),
            ]
        );
    }

    #[test]
    fn rejects_missing_or_foreign_header() {
        assert!(matches!(
            TraceFile::parse("not json\n"),
            Err(TraceError::BadHeader)
        ));
        let foreign =
            "{\"schema\":\"bicord-trace/999\",\"seed\":1,\"mode\":\"x\",\"duration_us\":1}\n";
        assert!(matches!(
            TraceFile::parse(foreign),
            Err(TraceError::BadHeader)
        ));
    }

    #[test]
    fn unknown_kind_is_a_naming_error() {
        let text = "{\"schema\":\"bicord-trace/1\",\"seed\":1,\"mode\":\"x\",\"duration_us\":1}\n\
                    {\"t_us\":5,\"ev\":\"warp_drive\",\"x\":1}\n";
        let err = TraceFile::parse(text).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("warp_drive"), "{msg}");
        assert!(msg.contains("TraceEvent::KINDS"), "{msg}");
        assert!(msg.contains("line 2"), "{msg}");
    }

    #[test]
    fn malformed_record_names_the_line() {
        let text = "{\"schema\":\"bicord-trace/1\",\"seed\":1,\"mode\":\"x\",\"duration_us\":1}\n\
                    {\"ev\":\"reservation\",\"ws_us\":1}\n";
        let err = TraceFile::parse(text).unwrap_err();
        assert!(err.to_string().contains("t_us"), "{err}");
    }

    #[test]
    fn malformed_lines_are_errors_naming_the_line() {
        let header =
            "{\"schema\":\"bicord-trace/1\",\"seed\":1,\"mode\":\"x\",\"duration_us\":1}\n";
        for (line, needle) in [
            ("{\"t_us\":5,\"ev\":\"reservation\"", "json parse error"),
            ("[1,2]", "not a JSON object"),
            ("{\"t_us\":-5,\"ev\":\"reservation\"}", "t_us"),
            ("{\"t_us\":5,\"ev\":7}", "\"ev\""),
            ("{\"summary\":true,\"events\":\"x\"}", "events"),
            (
                "{\"summary\":true,\"dequeues\":{\"Timer\":-1}}",
                "dequeue count",
            ),
        ] {
            let err = TraceFile::parse(&format!("{header}{line}\n")).unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains("line 2") && msg.contains(needle),
                "{line}: {msg}"
            );
        }
    }

    #[test]
    fn escaped_strings_and_u64_seed_survive() {
        let text = format!(
            "{}\n{{\"t_us\":1,\"ev\":\"re_estimate\",\"reason\":\"a\\\"b\"}}\n",
            TraceHeader::new(u64::MAX, "m\\x", 1).to_json()
        );
        let t = TraceFile::parse(&text).unwrap();
        assert_eq!(t.header.seed, u64::MAX);
        assert_eq!(t.header.mode, "m\\x");
        assert_eq!(t.records[0].field("reason").unwrap().as_str(), Some("a\"b"));
    }
}
