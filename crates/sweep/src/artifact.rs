//! Content-addressed shard artifacts and the merged results file.
//!
//! Every artifact of a sweep lives under
//! `out_dir/<scenario>-<spec_hash>/`:
//!
//! * `shard-K-of-N-<shard_key>.json` — one per shard, where
//!   `shard_key = fnv1a(spec_hash ":" K "/" N)` content-addresses the
//!   (spec, shard) pair;
//! * `merged.json` — the reduce of all `N` shard artifacts, written
//!   byte-identically by the sharded merge and by an unsharded
//!   single-process run of the same cells.
//!
//! Artifacts embed the spec hash, their shard, the cell ids they cover,
//! and an FNV-1a hash over the serialized rows. [`read_shard`] verifies
//! all four, so resume ([`crate::runner`]) can distinguish "done" from
//! "missing, truncated, corrupt, or from a different spec" without
//! trusting file names.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::contract::{fnv1a, ResultRow, SweepSpec};
use crate::shard::Shard;
use bicord_sim::json::{self, Json};

/// Schema tag of shard artifacts.
pub const SHARD_SCHEMA: &str = "bicord-sweep/1";
/// Schema tag of merged results.
pub const MERGED_SCHEMA: &str = "bicord-sweep-merged/1";
/// Schema tag of per-cell quarantine artifacts.
pub const QUARANTINE_SCHEMA: &str = "bicord-quarantine/2";

/// The content key of a (spec, shard) pair: 16 hex digits.
pub fn shard_key(spec_hash: &str, shard: Shard) -> String {
    let material = format!("{spec_hash}:{shard}");
    format!("{:016x}", fnv1a(material.as_bytes()))
}

/// The directory all artifacts of `spec` are filed under.
pub fn sweep_dir(out_dir: &Path, spec: &SweepSpec) -> PathBuf {
    out_dir.join(format!("{}-{}", spec.scenario, spec.content_hash()))
}

/// The path of one shard's artifact.
pub fn shard_path(out_dir: &Path, spec: &SweepSpec, shard: Shard) -> PathBuf {
    let key = shard_key(&spec.content_hash(), shard);
    sweep_dir(out_dir, spec).join(format!(
        "shard-{}-of-{}-{key}.json",
        shard.index, shard.count
    ))
}

/// The path of the merged results file.
pub fn merged_path(out_dir: &Path, spec: &SweepSpec) -> PathBuf {
    sweep_dir(out_dir, spec).join("merged.json")
}

fn rows_hash(rows: &[ResultRow]) -> String {
    let mut bytes = Vec::new();
    for row in rows {
        bytes.extend_from_slice(row.to_json_line().as_bytes());
        bytes.push(b'\n');
    }
    format!("{:016x}", fnv1a(&bytes))
}

fn render_rows(out: &mut String, rows: &[ResultRow]) {
    out.push_str("\"rows\": [");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str(&row.to_json_line());
    }
    out.push_str("\n]}\n");
}

/// Serializes one shard's artifact (header line + one row per line).
///
/// `quarantined` lists cell ids this shard owns but could not produce
/// rows for ([`crate::runner::run_shard`] quarantined them). The field
/// is only emitted when non-empty, so clean shards render byte-for-byte
/// as they did before quarantine existed.
pub fn render_shard(
    spec: &SweepSpec,
    shard: Shard,
    rows: &[ResultRow],
    quarantined: &[u64],
) -> String {
    let mut out = format!(
        "{{\"schema\": {}, \"spec_hash\": {}, \"scenario\": {}, \"shard\": {}, \"cells\": {}, \"rows_hash\": {},\n",
        json::escape(SHARD_SCHEMA),
        json::escape(&spec.content_hash()),
        json::escape(&spec.scenario),
        json::escape(&shard.to_string()),
        rows.len(),
        json::escape(&rows_hash(rows)),
    );
    if !quarantined.is_empty() {
        out.push_str("\"quarantined\": [");
        for (i, id) in quarantined.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&id.to_string());
        }
        out.push_str("],\n");
    }
    render_rows(&mut out, rows);
    out
}

/// Serializes the merged results of a full sweep. This is the byte
/// representation the acceptance gate compares: the unsharded run and
/// the shard-merge path both end here with the same row list.
pub fn render_merged(spec: &SweepSpec, rows: &[ResultRow]) -> String {
    let mut out = format!(
        "{{\"schema\": {}, \"spec_hash\": {}, \"scenario\": {}, \"seed\": {}, \"replicates\": {}, \"cells\": {},\n",
        json::escape(MERGED_SCHEMA),
        json::escape(&spec.content_hash()),
        json::escape(&spec.scenario),
        spec.seed,
        spec.replicates,
        rows.len(),
    );
    render_rows(&mut out, rows);
    out
}

/// Creates the sweep directory and writes `text` at `path` atomically
/// (write to `.tmp`, then rename) so a killed writer never leaves a
/// half-written artifact that resume would have to second-guess.
pub fn write_atomic(path: &Path, text: &str) -> io::Result<()> {
    let dir = path.parent().expect("artifact paths have a parent");
    fs::create_dir_all(dir)?;
    let tmp = path.with_extension("json.tmp");
    fs::write(&tmp, text)?;
    fs::rename(&tmp, path)
}

/// Why a shard artifact failed validation (all map to "re-run the
/// shard" during resume, but the distinction is reported to the user).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactIssue {
    /// No file at the expected content-addressed path.
    Missing,
    /// File exists but is not valid artifact JSON.
    Corrupt(String),
    /// Artifact is valid but belongs to a different spec or shard, or
    /// its rows do not cover the expected cells.
    Mismatch(String),
}

impl std::fmt::Display for ArtifactIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactIssue::Missing => f.write_str("missing"),
            ArtifactIssue::Corrupt(e) => write!(f, "corrupt: {e}"),
            ArtifactIssue::Mismatch(e) => write!(f, "mismatch: {e}"),
        }
    }
}

/// What a shard artifact holds: completed rows plus the cell ids the
/// runner quarantined instead of producing rows for.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardContents {
    /// Completed result rows, in cell order.
    pub rows: Vec<ResultRow>,
    /// Quarantined cell ids, ascending. Empty for clean shards.
    pub quarantined: Vec<u64>,
}

/// Reads and fully validates one shard artifact: schema and spec hash,
/// declared shard, row-bytes hash, and coverage of exactly
/// `expected_cells` — every expected cell must appear either as a row
/// or in the quarantine list, and nowhere twice.
pub fn read_shard(
    path: &Path,
    spec: &SweepSpec,
    shard: Shard,
    expected_cells: &[u64],
) -> Result<ShardContents, ArtifactIssue> {
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Err(ArtifactIssue::Missing),
        Err(e) => return Err(ArtifactIssue::Corrupt(e.to_string())),
    };
    let doc = json::parse(&text).map_err(ArtifactIssue::Corrupt)?;
    let field = |name: &str| -> Result<&str, ArtifactIssue> {
        doc.get(name)
            .and_then(Json::as_str)
            .ok_or_else(|| ArtifactIssue::Corrupt(format!("no \"{name}\" string")))
    };
    if field("schema")? != SHARD_SCHEMA {
        return Err(ArtifactIssue::Mismatch(format!(
            "schema {:?} (want {SHARD_SCHEMA:?})",
            field("schema")?
        )));
    }
    if field("spec_hash")? != spec.content_hash() {
        return Err(ArtifactIssue::Mismatch(format!(
            "spec hash {} (want {})",
            field("spec_hash")?,
            spec.content_hash()
        )));
    }
    if field("shard")? != shard.to_string() {
        return Err(ArtifactIssue::Mismatch(format!(
            "shard {} (want {shard})",
            field("shard")?
        )));
    }
    let rows = doc
        .get("rows")
        .and_then(Json::as_array)
        .ok_or_else(|| ArtifactIssue::Corrupt("no \"rows\" array".to_string()))?
        .iter()
        .map(ResultRow::from_json)
        .collect::<Result<Vec<_>, _>>()
        .map_err(ArtifactIssue::Corrupt)?;
    let declared_hash = field("rows_hash")?;
    if declared_hash != rows_hash(&rows) {
        return Err(ArtifactIssue::Corrupt(format!(
            "rows hash {declared_hash} does not match content"
        )));
    }
    let quarantined: Vec<u64> = match doc.get("quarantined") {
        None => Vec::new(),
        Some(v) => v
            .as_array()
            .ok_or_else(|| ArtifactIssue::Corrupt("\"quarantined\" is not an array".to_string()))?
            .iter()
            .map(|j| {
                j.as_u64().ok_or_else(|| {
                    ArtifactIssue::Corrupt("non-integer quarantined cell id".to_string())
                })
            })
            .collect::<Result<Vec<_>, _>>()?,
    };
    // Coverage: rows and quarantine must partition the expected cells.
    let mut covered: Vec<u64> = rows
        .iter()
        .map(|r| r.cell)
        .chain(quarantined.iter().copied())
        .collect();
    covered.sort_unstable();
    covered.dedup();
    let mut expected_sorted = expected_cells.to_vec();
    expected_sorted.sort_unstable();
    if covered != expected_sorted
        || rows.len() + quarantined.len() != expected_cells.len()
        || !rows.windows(2).all(|w| w[0].cell < w[1].cell)
    {
        return Err(ArtifactIssue::Mismatch(format!(
            "covers {} rows + {} quarantined, expected {} cells for shard {shard}",
            rows.len(),
            quarantined.len(),
            expected_cells.len()
        )));
    }
    Ok(ShardContents { rows, quarantined })
}

/// One quarantined cell: why the runner could not produce a
/// row for it, with enough identity to re-run it exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineRecord {
    /// The failing cell's id.
    pub cell: u64,
    /// The seed the cell ran (and will re-run) with.
    pub seed: u64,
    /// The replicate index of the cell.
    pub replicate: u32,
    /// Failure class: `"panic"` or `"stall"`.
    pub cause: String,
    /// Human-readable detail (panic payload, or guard counters for
    /// stalls).
    pub message: String,
}

/// The path of one cell's quarantine artifact. Keyed by spec and cell
/// only — not by shard — so `merge` can attribute causes regardless of
/// which shard layout produced the failure.
pub fn quarantine_path(out_dir: &Path, spec: &SweepSpec, cell: u64) -> PathBuf {
    let material = format!("{}:cell:{cell}", spec.content_hash());
    let key = format!("{:016x}", fnv1a(material.as_bytes()));
    sweep_dir(out_dir, spec).join(format!("quarantine-cell-{cell}-{key}.json"))
}

/// Serializes a quarantine artifact. The trailing `self_hash` is an
/// FNV-1a over every byte before it, so a truncated or hand-edited file
/// fails validation just like shard artifacts do.
pub fn render_quarantine(spec: &SweepSpec, record: &QuarantineRecord) -> String {
    let mut out = format!(
        "{{\"schema\": {}, \"spec_hash\": {}, \"cell\": {}, \"seed\": {}, \"replicate\": {}, \
         \"cause\": {}, \"message\": {}, ",
        json::escape(QUARANTINE_SCHEMA),
        json::escape(&spec.content_hash()),
        record.cell,
        record.seed,
        record.replicate,
        json::escape(&record.cause),
        json::escape(&record.message),
    );
    let hash = format!("{:016x}", fnv1a(out.as_bytes()));
    out.push_str(&format!("\"self_hash\": {}}}\n", json::escape(&hash)));
    out
}

/// Reads and validates one quarantine artifact (schema, spec hash, and
/// the self hash over its own bytes).
pub fn read_quarantine(path: &Path, spec: &SweepSpec) -> Result<QuarantineRecord, ArtifactIssue> {
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Err(ArtifactIssue::Missing),
        Err(e) => return Err(ArtifactIssue::Corrupt(e.to_string())),
    };
    let doc = json::parse(&text).map_err(ArtifactIssue::Corrupt)?;
    let sfield = |name: &str| -> Result<&str, ArtifactIssue> {
        doc.get(name)
            .and_then(Json::as_str)
            .ok_or_else(|| ArtifactIssue::Corrupt(format!("no \"{name}\" string")))
    };
    let nfield = |name: &str| -> Result<u64, ArtifactIssue> {
        doc.get(name)
            .and_then(Json::as_u64)
            .ok_or_else(|| ArtifactIssue::Corrupt(format!("no \"{name}\" number")))
    };
    if sfield("schema")? != QUARANTINE_SCHEMA {
        return Err(ArtifactIssue::Mismatch(format!(
            "schema {:?} (want {QUARANTINE_SCHEMA:?})",
            sfield("schema")?
        )));
    }
    if sfield("spec_hash")? != spec.content_hash() {
        return Err(ArtifactIssue::Mismatch(format!(
            "spec hash {} (want {})",
            sfield("spec_hash")?,
            spec.content_hash()
        )));
    }
    let declared = sfield("self_hash")?;
    let marker = ", \"self_hash\"";
    let prefix_end = text
        .find(marker)
        .ok_or_else(|| ArtifactIssue::Corrupt("no self_hash field".to_string()))?
        + 2; // the hash covers everything up to and including ", "
    let actual = format!("{:016x}", fnv1a(&text.as_bytes()[..prefix_end]));
    if declared != actual {
        return Err(ArtifactIssue::Corrupt(format!(
            "self hash {declared} does not match content"
        )));
    }
    Ok(QuarantineRecord {
        cell: nfield("cell")?,
        seed: nfield("seed")?,
        replicate: nfield("replicate")? as u32,
        cause: sfield("cause")?.to_string(),
        message: sfield("message")?.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::ParamValue;

    fn spec() -> SweepSpec {
        let mut s = SweepSpec::new("demo", 5, 1).axis(
            "n",
            vec![ParamValue::Int(1), ParamValue::Int(2), ParamValue::Int(3)],
        );
        s.normalize_axes();
        s
    }

    fn row(cell: u64, value: f64) -> ResultRow {
        ResultRow {
            cell,
            seed: 5,
            replicate: 0,
            params: vec![("n".to_string(), ParamValue::Int(cell as i64 + 1))],
            metrics: vec![("value".to_string(), value)],
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "bicord-sweep-artifact-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn shard_round_trips_through_disk() {
        let dir = tmpdir("roundtrip");
        let spec = spec();
        let shard = Shard::parse("1/2").unwrap();
        let rows = vec![row(0, 1.5), row(2, 2.5)];
        let path = shard_path(&dir, &spec, shard);
        write_atomic(&path, &render_shard(&spec, shard, &rows, &[])).unwrap();
        let back = read_shard(&path, &spec, shard, &[0, 2]).unwrap();
        assert_eq!(back.rows, rows);
        assert!(back.quarantined.is_empty());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn validation_catches_missing_corrupt_and_mismatched() {
        let dir = tmpdir("validate");
        let spec = spec();
        let shard = Shard::SINGLE;
        let path = shard_path(&dir, &spec, shard);
        assert_eq!(
            read_shard(&path, &spec, shard, &[0, 1, 2]),
            Err(ArtifactIssue::Missing)
        );

        let rows = vec![row(0, 1.0), row(1, 2.0), row(2, 3.0)];
        let rendered = render_shard(&spec, shard, &rows, &[]);
        // Corrupt: flip a metric byte so the rows hash no longer matches.
        write_atomic(&path, &rendered.replace("\"value\": 2", "\"value\": 9")).unwrap();
        assert!(matches!(
            read_shard(&path, &spec, shard, &[0, 1, 2]),
            Err(ArtifactIssue::Corrupt(_))
        ));
        // Truncated: not even JSON.
        write_atomic(&path, &rendered[..rendered.len() / 2]).unwrap();
        assert!(matches!(
            read_shard(&path, &spec, shard, &[0, 1, 2]),
            Err(ArtifactIssue::Corrupt(_))
        ));
        // Mismatch: artifact of a different spec at the same path.
        let mut other = spec.clone();
        other.seed = 6;
        write_atomic(&path, &render_shard(&other, shard, &rows, &[])).unwrap();
        assert!(matches!(
            read_shard(&path, &spec, shard, &[0, 1, 2]),
            Err(ArtifactIssue::Mismatch(_))
        ));
        // Mismatch: valid artifact, wrong cell coverage.
        write_atomic(&path, &render_shard(&spec, shard, &rows[..2], &[])).unwrap();
        assert!(matches!(
            read_shard(&path, &spec, shard, &[0, 1, 2]),
            Err(ArtifactIssue::Mismatch(_))
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn paths_are_content_addressed() {
        let dir = PathBuf::from("out");
        let a = spec();
        let mut b = a.clone();
        b.seed += 1;
        let s = Shard::parse("1/2").unwrap();
        assert_ne!(shard_path(&dir, &a, s), shard_path(&dir, &b, s));
        assert_ne!(
            shard_path(&dir, &a, s),
            shard_path(&dir, &a, Shard::parse("2/2").unwrap())
        );
        let name = shard_path(&dir, &a, s);
        let name = name.file_name().unwrap().to_string_lossy().into_owned();
        assert!(name.starts_with("shard-1-of-2-"), "{name}");
        assert_eq!(shard_key(&a.content_hash(), s).len(), 16);
    }

    #[test]
    fn quarantined_shard_round_trips() {
        let dir = tmpdir("quarantined");
        let spec = spec();
        let shard = Shard::SINGLE;
        let rows = vec![row(0, 1.0), row(2, 3.0)];
        let path = shard_path(&dir, &spec, shard);
        write_atomic(&path, &render_shard(&spec, shard, &rows, &[1])).unwrap();
        let contents = read_shard(&path, &spec, shard, &[0, 1, 2]).unwrap();
        assert_eq!(contents.rows, rows);
        assert_eq!(contents.quarantined, vec![1]);
        // A cell listed both as a row and as quarantined is corrupt coverage.
        write_atomic(&path, &render_shard(&spec, shard, &rows, &[1, 2])).unwrap();
        assert!(read_shard(&path, &spec, shard, &[0, 1, 2]).is_err());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clean_shard_bytes_are_unchanged_by_the_quarantine_field() {
        // Backwards compatibility: artifacts without quarantined cells
        // must render exactly as they did before quarantine existed, so
        // existing goldens and resume hashes stay valid.
        let spec = spec();
        let rows = vec![row(0, 1.0)];
        let rendered = render_shard(&spec, Shard::SINGLE, &rows, &[]);
        assert!(!rendered.contains("quarantined"), "{rendered}");
    }

    #[test]
    fn quarantine_record_round_trips_and_detects_tampering() {
        let dir = tmpdir("qrecord");
        let spec = spec();
        let record = QuarantineRecord {
            cell: 1,
            seed: 5,
            replicate: 0,
            cause: "panic".to_string(),
            message: "index out of bounds: len 3, index 7".to_string(),
        };
        let path = quarantine_path(&dir, &spec, record.cell);
        write_atomic(&path, &render_quarantine(&spec, &record)).unwrap();
        assert_eq!(read_quarantine(&path, &spec).unwrap(), record);

        // Hand-editing the cause invalidates the self hash.
        let text = fs::read_to_string(&path).unwrap();
        write_atomic(&path, &text.replace("panic", "benign")).unwrap();
        assert!(matches!(
            read_quarantine(&path, &spec),
            Err(ArtifactIssue::Corrupt(_))
        ));
        // An artifact of the old schema (which also carried `attempts`)
        // is rejected rather than misread.
        let old = render_quarantine(&spec, &record)
            .replace(QUARANTINE_SCHEMA, "bicord-quarantine/1")
            .replace("\"message\"", "\"attempts\": 2, \"message\"");
        write_atomic(&path, &old).unwrap();
        assert!(matches!(
            read_quarantine(&path, &spec),
            Err(ArtifactIssue::Mismatch(_))
        ));
        // A different spec rejects the artifact outright.
        write_atomic(&path, &render_quarantine(&spec, &record)).unwrap();
        let mut other = spec.clone();
        other.seed = 99;
        assert!(matches!(
            read_quarantine(&path, &other),
            Err(ArtifactIssue::Mismatch(_))
        ));
        assert_eq!(
            read_quarantine(&dir.join("nope.json"), &spec),
            Err(ArtifactIssue::Missing)
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quarantine_paths_are_content_addressed_per_cell() {
        let dir = PathBuf::from("out");
        let a = spec();
        let mut b = a.clone();
        b.seed += 1;
        assert_ne!(quarantine_path(&dir, &a, 1), quarantine_path(&dir, &b, 1));
        assert_ne!(quarantine_path(&dir, &a, 1), quarantine_path(&dir, &a, 2));
        let name = quarantine_path(&dir, &a, 1);
        let name = name.file_name().unwrap().to_string_lossy().into_owned();
        assert!(name.starts_with("quarantine-cell-1-"), "{name}");
    }

    #[test]
    fn merged_rendering_is_deterministic() {
        let spec = spec();
        let rows = vec![row(0, 1.0), row(1, 2.0)];
        let a = render_merged(&spec, &rows);
        let b = render_merged(&spec, &rows);
        assert_eq!(a, b);
        assert!(a.contains(MERGED_SCHEMA));
        assert!(a.ends_with("]}\n"));
        // The whole file is itself valid JSON.
        assert!(json::parse(&a).is_ok());
        assert!(json::parse(&render_shard(&spec, Shard::SINGLE, &rows, &[])).is_ok());
    }
}
