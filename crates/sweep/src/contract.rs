//! The serializable sweep contract: [`SweepSpec`] → ordered [`Cell`]s →
//! [`ResultRow`]s.
//!
//! A spec names a registered scenario, a master seed, a replicate count,
//! and a parameter grid (one axis per parameter, each axis an ordered
//! list of values). [`SweepSpec::expand`] turns the spec into the full
//! cartesian product of the axes × replicates, assigning each cell a
//! stable `id` (its index in expansion order) and a per-replicate seed
//! (`spec.seed + replicate`). Expansion order is part of the contract:
//!
//! * axes iterate in **sorted name order** (normalized by
//!   [`crate::registry::ScenarioRegistry::resolve`]), first axis
//!   outermost;
//! * replicates iterate innermost.
//!
//! Because cell ids are positional, any process holding the same
//! resolved spec derives the same cells — that is what makes sharding
//! ([`crate::shard`]) and resume ([`crate::artifact`]) possible without
//! any coordination between workers.
//!
//! [`SweepSpec::canonical_json`] is the canonical byte encoding of a
//! resolved spec; [`SweepSpec::content_hash`] (FNV-1a over those bytes)
//! is the content address under which all artifacts of the sweep are
//! filed.

use std::fmt;

use bicord_sim::json::{self, Json};

/// One parameter value in a sweep axis or an expanded cell.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    /// A boolean knob.
    Bool(bool),
    /// An integer knob (device counts, durations, node counts...).
    Int(i64),
    /// A float knob (rates, powers...).
    Float(f64),
    /// A string knob (scheme names, locations...).
    Str(String),
}

impl ParamValue {
    /// The kind of this value, for schema checks.
    pub fn kind(&self) -> ParamKind {
        match self {
            ParamValue::Bool(_) => ParamKind::Bool,
            ParamValue::Int(_) => ParamKind::Int,
            ParamValue::Float(_) => ParamKind::Float,
            ParamValue::Str(_) => ParamKind::Str,
        }
    }

    /// Canonical JSON rendering (used by spec and artifact writers).
    pub fn to_json(&self) -> String {
        match self {
            ParamValue::Bool(b) => b.to_string(),
            ParamValue::Int(n) => n.to_string(),
            ParamValue::Float(x) => json::number(*x),
            ParamValue::Str(s) => json::escape(s),
        }
    }

    /// Reads a value from parsed JSON; arrays/objects/null are rejected.
    pub fn from_json(value: &Json) -> Result<ParamValue, String> {
        match value {
            Json::Bool(b) => Ok(ParamValue::Bool(*b)),
            Json::Int(n) => Ok(ParamValue::Int(*n)),
            // Beyond `i64`: a float, like any other number too big for `Int`.
            Json::UInt(n) => Ok(ParamValue::Float(*n as f64)),
            Json::Float(x) => Ok(ParamValue::Float(*x)),
            Json::Str(s) => Ok(ParamValue::Str(s.clone())),
            other => Err(format!(
                "parameter values must be scalars, got {}",
                other.kind_name()
            )),
        }
    }
}

impl fmt::Display for ParamValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamValue::Bool(b) => write!(f, "{b}"),
            ParamValue::Int(n) => write!(f, "{n}"),
            ParamValue::Float(x) => write!(f, "{x}"),
            ParamValue::Str(s) => write!(f, "{s}"),
        }
    }
}

/// The type a scenario declares for one of its parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamKind {
    /// Boolean.
    Bool,
    /// Integer.
    Int,
    /// Float (integer spec values coerce losslessly).
    Float,
    /// String.
    Str,
}

impl fmt::Display for ParamKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ParamKind::Bool => "bool",
            ParamKind::Int => "int",
            ParamKind::Float => "float",
            ParamKind::Str => "str",
        };
        f.write_str(name)
    }
}

/// A declarative sweep: scenario + parameter grid + seeds + replicates.
///
/// Construct one programmatically with [`SweepSpec::new`] /
/// [`SweepSpec::axis`], or load it from a JSON file:
///
/// ```json
/// {
///   "scenario": "coexist",
///   "seed": 20210705,
///   "replicates": 1,
///   "params": {
///     "mode": ["bicord", "ecc-30"],
///     "extra_nodes": ["", "C:10:500"],
///     "seconds": 5
///   }
/// }
/// ```
///
/// Scalar axis values are shorthand for a single-element axis.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Registered scenario name (see `ScenarioRegistry`).
    pub scenario: String,
    /// Master seed; replicate `r` runs with seed `seed + r`.
    pub seed: u64,
    /// Independent replicates per grid point (≥ 1).
    pub replicates: u32,
    /// Parameter axes. Kept sorted by name once resolved; use
    /// [`SweepSpec::axis`] to build and `resolve` to normalize.
    pub axes: Vec<(String, Vec<ParamValue>)>,
}

impl SweepSpec {
    /// A spec with no axes (expands to `replicates` cells of defaults
    /// once resolved against the scenario's schema).
    pub fn new(scenario: &str, seed: u64, replicates: u32) -> SweepSpec {
        SweepSpec {
            scenario: scenario.to_string(),
            seed,
            replicates,
            axes: Vec::new(),
        }
    }

    /// Adds one parameter axis (builder style).
    pub fn axis(mut self, name: &str, values: Vec<ParamValue>) -> SweepSpec {
        self.axes.push((name.to_string(), values));
        self
    }

    /// Sorts axes by parameter name — the order expansion iterates in.
    pub fn normalize_axes(&mut self) {
        self.axes.sort_by(|(a, _), (b, _)| a.cmp(b));
    }

    /// Parses a spec document (see the type-level example). Unknown
    /// top-level keys, non-scalar axis values, and empty axes are errors.
    pub fn from_json(doc: &Json) -> Result<SweepSpec, String> {
        let fields = doc
            .as_object()
            .ok_or_else(|| format!("spec must be a JSON object, got {}", doc.kind_name()))?;
        for (key, _) in fields {
            if !matches!(key.as_str(), "scenario" | "seed" | "replicates" | "params") {
                return Err(format!(
                    "unknown spec key \"{key}\" (expected scenario, seed, replicates, params)"
                ));
            }
        }
        let scenario = doc
            .get("scenario")
            .and_then(Json::as_str)
            .ok_or("spec needs a \"scenario\" string")?
            .to_string();
        let seed = match doc.get("seed") {
            None => return Err("spec needs a \"seed\" integer".to_string()),
            Some(v) => v.as_u64().ok_or_else(|| {
                format!(
                    "\"seed\" must be a non-negative integer, got {}",
                    v.kind_name()
                )
            })?,
        };
        let replicates = match doc.get("replicates") {
            None => 1,
            Some(Json::Int(n)) if (1..=u32::MAX as i64).contains(n) => *n as u32,
            Some(other) => {
                return Err(format!(
                    "\"replicates\" must be a positive integer, got {}",
                    other.kind_name()
                ))
            }
        };
        if seed.checked_add(u64::from(replicates) - 1).is_none() {
            let last = format!("{seed} + {} replicates", replicates - 1);
            return Err(format!("\"seed\" {last} overflows a 64-bit seed"));
        }
        let mut axes = Vec::new();
        if let Some(params) = doc.get("params") {
            let params = params.as_object().ok_or_else(|| {
                format!("\"params\" must be an object, got {}", params.kind_name())
            })?;
            for (name, value) in params {
                let values: Vec<ParamValue> = match value {
                    Json::Arr(items) => items
                        .iter()
                        .map(ParamValue::from_json)
                        .collect::<Result<_, _>>()
                        .map_err(|e| format!("axis \"{name}\": {e}"))?,
                    scalar => vec![ParamValue::from_json(scalar)
                        .map_err(|e| format!("axis \"{name}\": {e}"))?],
                };
                if values.is_empty() {
                    return Err(format!("axis \"{name}\" is empty"));
                }
                axes.push((name.clone(), values));
            }
        }
        Ok(SweepSpec {
            scenario,
            seed,
            replicates,
            axes,
        })
    }

    /// Parses a spec from the text of a spec file.
    pub fn parse(text: &str) -> Result<SweepSpec, String> {
        SweepSpec::from_json(&json::parse(text)?)
    }

    /// The canonical single-line encoding of this spec. Axes must be
    /// normalized first (resolve does this); the bytes feed
    /// [`SweepSpec::content_hash`] and are embedded in shard artifacts.
    pub fn canonical_json(&self) -> String {
        let mut out = format!(
            "{{\"scenario\": {}, \"seed\": {}, \"replicates\": {}, \"params\": {{",
            json::escape(&self.scenario),
            self.seed,
            self.replicates,
        );
        for (i, (name, values)) in self.axes.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json::escape(name));
            out.push_str(": [");
            for (j, value) in values.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&value.to_json());
            }
            out.push(']');
        }
        out.push_str("}}");
        out
    }

    /// The 16-hex-digit content address of this spec (FNV-1a 64 over
    /// [`SweepSpec::canonical_json`]). Every artifact of a sweep embeds
    /// and is keyed by this hash, so artifacts from different specs can
    /// never be merged together.
    pub fn content_hash(&self) -> String {
        format!("{:016x}", fnv1a(self.canonical_json().as_bytes()))
    }

    /// Number of cells this spec expands to.
    pub fn cell_count(&self) -> u64 {
        let grid: u64 = self.axes.iter().map(|(_, v)| v.len() as u64).product();
        grid * self.replicates as u64
    }

    /// Deterministically expands the grid into ordered cells. See the
    /// module docs for the ordering contract.
    pub fn expand(&self) -> Vec<Cell> {
        let mut cells = Vec::with_capacity(self.cell_count() as usize);
        let mut point = vec![0usize; self.axes.len()];
        loop {
            let params: Vec<(String, ParamValue)> = self
                .axes
                .iter()
                .zip(&point)
                .map(|((name, values), &i)| (name.clone(), values[i].clone()))
                .collect();
            for replicate in 0..self.replicates {
                cells.push(Cell {
                    id: cells.len() as u64,
                    seed: self.seed + replicate as u64,
                    replicate,
                    params: params.clone(),
                });
            }
            // Odometer increment, last axis fastest.
            let mut axis = self.axes.len();
            loop {
                if axis == 0 {
                    return cells;
                }
                axis -= 1;
                point[axis] += 1;
                if point[axis] < self.axes[axis].1.len() {
                    break;
                }
                point[axis] = 0;
            }
        }
    }
}

/// One unit of work: a grid point plus a replicate index.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Position in expansion order; stable across processes.
    pub id: u64,
    /// The seed this cell's simulation derives all randomness from.
    pub seed: u64,
    /// Replicate index within the grid point.
    pub replicate: u32,
    /// Resolved parameter values, in axis (sorted-name) order.
    pub params: Vec<(String, ParamValue)>,
}

impl Cell {
    fn param(&self, name: &str) -> Result<&ParamValue, String> {
        self.params
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("cell has no parameter \"{name}\""))
    }

    /// Typed accessor for an integer parameter.
    pub fn int(&self, name: &str) -> Result<i64, String> {
        match self.param(name)? {
            ParamValue::Int(n) => Ok(*n),
            other => Err(format!("parameter \"{name}\" is not an int: {other}")),
        }
    }

    /// Typed accessor for a float parameter (ints coerce).
    pub fn float(&self, name: &str) -> Result<f64, String> {
        match self.param(name)? {
            ParamValue::Float(x) => Ok(*x),
            ParamValue::Int(n) => Ok(*n as f64),
            other => Err(format!("parameter \"{name}\" is not a float: {other}")),
        }
    }

    /// Typed accessor for a string parameter.
    pub fn str(&self, name: &str) -> Result<&str, String> {
        match self.param(name)? {
            ParamValue::Str(s) => Ok(s),
            other => Err(format!("parameter \"{name}\" is not a string: {other}")),
        }
    }

    /// Typed accessor for a bool parameter.
    pub fn bool(&self, name: &str) -> Result<bool, String> {
        match self.param(name)? {
            ParamValue::Bool(b) => Ok(*b),
            other => Err(format!("parameter \"{name}\" is not a bool: {other}")),
        }
    }
}

/// One cell's outcome: the cell identity plus an ordered metric list.
///
/// Rows serialize canonically ([`ResultRow::to_json_line`]) so shard
/// artifacts and merged results are byte-stable; metric order is chosen
/// by the scenario and must be deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultRow {
    /// The cell this row came from.
    pub cell: u64,
    /// The seed the cell ran with.
    pub seed: u64,
    /// The replicate index.
    pub replicate: u32,
    /// The cell's resolved parameters.
    pub params: Vec<(String, ParamValue)>,
    /// Scenario metrics, in scenario-declared order. Non-finite values
    /// serialize as `null` and parse back as NaN.
    pub metrics: Vec<(String, f64)>,
}

impl ResultRow {
    /// Canonical single-line JSON encoding.
    pub fn to_json_line(&self) -> String {
        let mut out = format!(
            "{{\"cell\": {}, \"seed\": {}, \"replicate\": {}, \"params\": {{",
            self.cell, self.seed, self.replicate
        );
        for (i, (name, value)) in self.params.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("{}: {}", json::escape(name), value.to_json()));
        }
        out.push_str("}, \"metrics\": {");
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("{}: {}", json::escape(name), json::number(*value)));
        }
        out.push_str("}}");
        out
    }

    /// Reads a row back from parsed artifact JSON.
    pub fn from_json(doc: &Json) -> Result<ResultRow, String> {
        let cell = doc
            .get("cell")
            .and_then(Json::as_u64)
            .ok_or("row needs a \"cell\" integer")?;
        let seed = doc
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or("row needs a \"seed\" integer")?;
        let replicate = doc
            .get("replicate")
            .and_then(Json::as_i64)
            .ok_or("row needs a \"replicate\" integer")?;
        let params = doc
            .get("params")
            .and_then(Json::as_object)
            .ok_or("row needs a \"params\" object")?
            .iter()
            .map(|(name, value)| Ok((name.clone(), ParamValue::from_json(value)?)))
            .collect::<Result<Vec<_>, String>>()?;
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or("row needs a \"metrics\" object")?
            .iter()
            .map(|(name, value)| {
                let v = match value {
                    Json::Null => f64::NAN,
                    other => other
                        .as_f64()
                        .ok_or_else(|| format!("metric \"{name}\" is not a number"))?,
                };
                Ok((name.clone(), v))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(ResultRow {
            cell,
            seed,
            replicate: replicate as u32,
            params,
            metrics,
        })
    }

    /// Looks up one metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

/// FNV-1a 64-bit — the content-address hash for specs and artifacts.
/// Stability matters (hashes are embedded in artifact files and names),
/// so this is spelled out rather than borrowed from `DefaultHasher`,
/// whose algorithm is unspecified across Rust releases.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_spec() -> SweepSpec {
        let mut spec = SweepSpec::new("demo", 100, 2)
            .axis("b_axis", vec![ParamValue::Int(1), ParamValue::Int(2)])
            .axis(
                "a_axis",
                vec![
                    ParamValue::Str("x".to_string()),
                    ParamValue::Str("y".to_string()),
                ],
            );
        spec.normalize_axes();
        spec
    }

    #[test]
    fn expansion_order_is_sorted_axes_outermost_replicates_innermost() {
        let cells = demo_spec().expand();
        assert_eq!(cells.len(), 8);
        // a_axis sorts before b_axis, so it is outermost.
        let describe = |c: &Cell| {
            format!(
                "{}{}r{}",
                c.str("a_axis").unwrap(),
                c.int("b_axis").unwrap(),
                c.replicate
            )
        };
        let order: Vec<String> = cells.iter().map(describe).collect();
        assert_eq!(
            order,
            ["x1r0", "x1r1", "x2r0", "x2r1", "y1r0", "y1r1", "y2r0", "y2r1"]
        );
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(cell.id, i as u64);
            assert_eq!(cell.seed, 100 + cell.replicate as u64);
        }
    }

    #[test]
    fn empty_grid_expands_to_replicates_only() {
        let spec = SweepSpec::new("demo", 7, 3);
        let cells = spec.expand();
        assert_eq!(cells.len(), 3);
        assert_eq!(spec.cell_count(), 3);
        assert!(cells[2].params.is_empty());
        assert_eq!(cells[2].seed, 9);
    }

    #[test]
    fn spec_json_round_trips_through_canonical_form() {
        let spec = demo_spec();
        let parsed = SweepSpec::parse(&spec.canonical_json()).unwrap();
        assert_eq!(parsed, spec);
        assert_eq!(parsed.content_hash(), spec.content_hash());
    }

    #[test]
    fn spec_parsing_rejects_malformed_documents() {
        assert!(SweepSpec::parse("[]").is_err());
        assert!(SweepSpec::parse("{\"scenario\": \"x\"}").is_err()); // no seed
        assert!(SweepSpec::parse("{\"scenario\": \"x\", \"seed\": -1}").is_err());
        assert!(SweepSpec::parse("{\"scenario\": \"x\", \"seed\": 1, \"bogus\": 1}").is_err());
        assert!(
            SweepSpec::parse("{\"scenario\": \"x\", \"seed\": 1, \"params\": {\"a\": []}}")
                .is_err()
        );
        assert!(
            SweepSpec::parse("{\"scenario\": \"x\", \"seed\": 1, \"params\": {\"a\": [[1]]}}")
                .is_err()
        );
        assert!(SweepSpec::parse("{\"scenario\": \"x\", \"seed\": 1, \"replicates\": 0}").is_err());
        let spec =
            |seed: u64| format!("{{\"scenario\": \"x\", \"seed\": {seed}, \"replicates\": 2}}");
        let err = SweepSpec::parse(&spec(u64::MAX)).unwrap_err();
        assert!(err.contains("\"seed\""), "{err}");
        let last = SweepSpec::parse(&spec(u64::MAX - 1)).unwrap().expand();
        assert_eq!(last[1].seed, u64::MAX);
    }

    #[test]
    fn scalar_axis_is_single_value_shorthand() {
        let spec =
            SweepSpec::parse("{\"scenario\": \"x\", \"seed\": 1, \"params\": {\"n\": 5}}").unwrap();
        assert_eq!(spec.axes, vec![("n".to_string(), vec![ParamValue::Int(5)])]);
    }

    #[test]
    fn content_hash_tracks_content() {
        let a = demo_spec();
        let mut b = a.clone();
        assert_eq!(a.content_hash(), b.content_hash());
        b.seed += 1;
        assert_ne!(a.content_hash(), b.content_hash());
        assert_eq!(a.content_hash().len(), 16);
    }

    #[test]
    fn result_row_round_trips() {
        let row = ResultRow {
            cell: 3,
            seed: 103,
            replicate: 1,
            params: vec![
                ("rate".to_string(), ParamValue::Float(0.25)),
                ("scheme".to_string(), ParamValue::Str("bicord".to_string())),
            ],
            metrics: vec![("pdr".to_string(), 0.995), ("delay".to_string(), f64::NAN)],
        };
        let line = row.to_json_line();
        assert!(!line.contains('\n'));
        let parsed = ResultRow::from_json(&json::parse(&line).unwrap()).unwrap();
        assert_eq!(parsed.cell, 3);
        assert_eq!(parsed.params, row.params);
        assert_eq!(parsed.metric("pdr"), Some(0.995));
        assert!(parsed.metric("delay").unwrap().is_nan());
        // Canonical fixed point: re-serializing the parsed row is
        // byte-identical (NaN → null → NaN → null).
        assert_eq!(parsed.to_json_line(), line);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }
}
