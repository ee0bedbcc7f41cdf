//! The declarative scenario registry: name + parameter schema + run
//! closure per scenario.
//!
//! A [`Scenario`] owns a typed parameter schema ([`ParamSpec`]) and a
//! closure mapping one resolved [`Cell`] to a metric list. The
//! [`ScenarioRegistry`] resolves sweep specs against the schema (unknown
//! axes are errors, missing axes fall back to declared defaults, `int`
//! values coerce into `float` axes) and runs cells.
//!
//! [`ScenarioRegistry::builtin`] registers the repo's spec-drivable
//! sweeps — `coexist`, `dense_city` and `cti_accuracy` — which the
//! `bicord sweep` subcommand and the bench figures share. `coexist` is
//! the paper's setup with the `bicord` flags as axes: the CLI builds its
//! one run through [`coexist_config`] too, so any config `bicord` runs
//! can be swept over seeds.
//! Every built-in emits **deterministic** metrics only (no wall-clock
//! readings), which is what makes sharded artifacts byte-identical to a
//! single-process run; timing measurements stay in the bench binaries
//! and in `PerfRecorder` records.

use bicord_metrics::registry::CountingSink;
use bicord_scenario::config::{
    ArrivalProcess, BurstSpec, ExtraNodeConfig, ExtraWifiConfig, SimConfig,
};
use bicord_scenario::dense_city::DenseCityConfig;
use bicord_scenario::experiments::cti_accuracy;
use bicord_scenario::geometry::Location;
use bicord_scenario::sim::CoexistenceSim;
use bicord_sim::{FaultProfile, GuardConfig, RuntimeGuard, SimDuration};

use crate::contract::{Cell, ParamKind, ParamValue, ResultRow, SweepSpec};
use crate::runner::GUARD_STALL_MARKER;
use crate::SweepError;

/// Schema entry for one scenario parameter.
pub struct ParamSpec {
    /// Parameter (axis) name.
    pub name: &'static str,
    /// Expected value type.
    pub kind: ParamKind,
    /// Value used when a spec omits the axis; `None` makes the
    /// parameter required.
    pub default: Option<ParamValue>,
    /// One-line description for `--list-scenarios`.
    pub help: &'static str,
}

type RunFn = Box<dyn Fn(&Cell) -> Result<Vec<(String, f64)>, String> + Send + Sync>;

/// A registered scenario: schema plus the per-cell run closure.
pub struct Scenario {
    /// Registry name (the spec's `"scenario"` field).
    pub name: &'static str,
    /// One-line description for `--list-scenarios`.
    pub description: &'static str,
    /// Parameter schema, in declaration order.
    pub params: Vec<ParamSpec>,
    run: RunFn,
}

impl Scenario {
    /// Builds a scenario from its schema and run closure. The closure
    /// returns the metric list only; the registry assembles the full
    /// [`ResultRow`] so cell identity can never be misreported.
    pub fn new(
        name: &'static str,
        description: &'static str,
        params: Vec<ParamSpec>,
        run: impl Fn(&Cell) -> Result<Vec<(String, f64)>, String> + Send + Sync + 'static,
    ) -> Scenario {
        Scenario {
            name,
            description,
            params,
            run: Box::new(run),
        }
    }

    /// Runs one cell, producing its result row.
    pub fn run(&self, cell: &Cell) -> Result<ResultRow, String> {
        let metrics = (self.run)(cell)?;
        Ok(ResultRow {
            cell: cell.id,
            seed: cell.seed,
            replicate: cell.replicate,
            params: cell.params.clone(),
            metrics,
        })
    }
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("name", &self.name)
            .field("params", &self.params.len())
            .finish()
    }
}

/// Name-addressed collection of runnable scenarios.
#[derive(Debug, Default)]
pub struct ScenarioRegistry {
    scenarios: Vec<Scenario>,
}

impl ScenarioRegistry {
    /// An empty registry (tests register synthetic scenarios into it).
    pub fn new() -> ScenarioRegistry {
        ScenarioRegistry::default()
    }

    /// The registry with every built-in scenario registered.
    pub fn builtin() -> ScenarioRegistry {
        let mut registry = ScenarioRegistry::new();
        registry.register(coexist_scenario());
        registry.register(dense_city_scenario());
        registry.register(cti_accuracy_scenario());
        registry
    }

    /// Registers a scenario.
    ///
    /// # Panics
    ///
    /// On a duplicate name — that is a programming error, not an input
    /// error.
    pub fn register(&mut self, scenario: Scenario) {
        assert!(
            self.get(scenario.name).is_none(),
            "scenario {:?} registered twice",
            scenario.name
        );
        self.scenarios.push(scenario);
    }

    /// Looks a scenario up by name.
    pub fn get(&self, name: &str) -> Option<&Scenario> {
        self.scenarios.iter().find(|s| s.name == name)
    }

    /// All registered scenarios, in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &Scenario> {
        self.scenarios.iter()
    }

    /// Validates `spec` against its scenario's schema and returns the
    /// normalized spec that expansion, hashing, and artifacts key on:
    /// axes sorted by name, defaults filled in for omitted parameters,
    /// and `int` values coerced into `float` axes.
    pub fn resolve(&self, spec: &SweepSpec) -> Result<SweepSpec, SweepError> {
        let scenario = self
            .get(&spec.scenario)
            .ok_or_else(|| SweepError::UnknownScenario {
                name: spec.scenario.clone(),
                known: self.scenarios.iter().map(|s| s.name.to_string()).collect(),
            })?;
        // `expand` adds each replicate's index to the seed.
        let last_replicate = u64::from(spec.replicates.saturating_sub(1));
        if spec.seed.checked_add(last_replicate).is_none() {
            return Err(SweepError::Param(format!(
                "\"seed\" {} + {last_replicate} replicates overflows a 64-bit seed",
                spec.seed
            )));
        }
        let mut resolved = spec.clone();
        for (axis, values) in &mut resolved.axes {
            let param = scenario
                .params
                .iter()
                .find(|p| p.name == axis)
                .ok_or_else(|| {
                    SweepError::Param(format!(
                        "scenario \"{}\" has no parameter \"{axis}\" (has: {})",
                        scenario.name,
                        scenario
                            .params
                            .iter()
                            .map(|p| p.name)
                            .collect::<Vec<_>>()
                            .join(", ")
                    ))
                })?;
            for value in values.iter_mut() {
                if param.kind == ParamKind::Float {
                    if let ParamValue::Int(n) = value {
                        *value = ParamValue::Float(*n as f64);
                    }
                }
                if value.kind() != param.kind {
                    return Err(SweepError::Param(format!(
                        "parameter \"{axis}\" of \"{}\" wants {}, got {} ({value})",
                        scenario.name,
                        param.kind,
                        value.kind()
                    )));
                }
            }
        }
        for param in &scenario.params {
            if resolved.axes.iter().any(|(name, _)| name == param.name) {
                continue;
            }
            match &param.default {
                Some(default) => resolved
                    .axes
                    .push((param.name.to_string(), vec![default.clone()])),
                None => {
                    return Err(SweepError::Param(format!(
                        "scenario \"{}\" requires parameter \"{}\" ({})",
                        scenario.name, param.name, param.help
                    )))
                }
            }
        }
        resolved.normalize_axes();
        Ok(resolved)
    }

    /// Runs one cell of `scenario_name`.
    pub fn run_cell(&self, scenario_name: &str, cell: &Cell) -> Result<ResultRow, SweepError> {
        let scenario = self
            .get(scenario_name)
            .ok_or_else(|| SweepError::UnknownScenario {
                name: scenario_name.to_string(),
                known: self.scenarios.iter().map(|s| s.name.to_string()).collect(),
            })?;
        scenario.run(cell).map_err(|message| SweepError::Cell {
            cell: cell.id,
            message,
        })
    }
}

/// The `coexist` scenario: the paper's setup, a Wi-Fi AP and ZigBee
/// pairs at the Fig. 6 locations under one scheme. Its axes are the
/// `bicord` flags, under the same names, syntax and defaults, plus
/// `extra_wifi`; [`coexist_config`] turns a cell into a [`SimConfig`].
fn coexist_scenario() -> Scenario {
    let param = |name, default: ParamValue, help| ParamSpec {
        name,
        kind: default.kind(),
        default: Some(default),
        help,
    };
    let (str, int) = (|s: &str| ParamValue::Str(s.to_string()), ParamValue::Int);
    Scenario::new(
        "coexist",
        "Wi-Fi AP + ZigBee pairs at the Fig. 6 locations; the `bicord` flags as axes",
        vec![
            param("mode", str("bicord"), "bicord, ecc-20/30/40, unprotected"),
            param("location", str("A"), "ZigBee sender location: A-D"),
            param("seconds", int(10), "simulated seconds"),
            param("burst", int(5), "packets per ZigBee burst"),
            param("bytes", int(50), "MPDU bytes per packet, 1-127"),
            param("interval_ms", int(200), "mean Poisson burst interval"),
            param("extra_nodes", str(""), "LOC:BURST:INTERVAL_MS,..."),
            param("fault_profile", str(""), "KEY=VALUE,... (bicord --help)"),
            param("extra_wifi", ParamValue::Bool(false), "2nd Wi-Fi station"),
        ],
        |cell| {
            let config = coexist_config(cell)?;
            let mut sink = CountingSink::new();
            // The runtime guard draws no randomness, so guarded cells
            // stay bit-identical to unguarded ones; a livelock becomes a
            // quarantinable "guard stall" error instead of a hang.
            let mut guard = RuntimeGuard::new(GuardConfig::default());
            let r = CoexistenceSim::with_guard(config, &mut sink, &mut guard)
                .map_err(|e| format!("invalid coexist config: {e}"))?
                .try_run()
                .map_err(|v| format!("{GUARD_STALL_MARKER} {v} ({})", guard.summary()))?;
            let counter = |name| sink.registry.counter(name) as f64;
            let per_node = r.per_node.iter().enumerate().map(|(i, node)| {
                let pdr = node.delivered as f64 / node.generated.max(1) as f64;
                (format!("pdr_node_{i}"), pdr)
            });
            let metrics = [
                ("pdr", r.zigbee_pdr()),
                ("mean_delay_ms", r.zigbee.mean_delay_ms.unwrap_or(f64::NAN)),
                ("p95_delay_ms", r.zigbee.p95_delay_ms.unwrap_or(f64::NAN)),
                ("utilization", r.utilization),
                ("zigbee_utilization", r.zigbee_utilization),
                ("wifi_utilization", r.wifi_utilization),
                ("delivered", r.zigbee.delivered as f64),
                ("generated", r.zigbee.generated as f64),
                ("signaling_rounds", r.zigbee.signaling_rounds as f64),
                ("control_packets", r.zigbee.control_packets as f64),
                ("reservations", r.wifi.reservations as f64),
                ("csma_fallbacks", r.zigbee.csma_fallbacks as f64),
                ("ignored_requests", r.wifi.ignored_requests as f64),
                ("backoffs", counter("signaling_backoff")),
                ("control_lost", counter("fault_control_lost")),
                ("cts_lost", counter("fault_cts_lost")),
                ("phantom_csi", counter("fault_phantom_csi")),
                ("events", r.events as f64),
            ]
            .into_iter()
            .map(|(name, value)| (name.to_string(), value));
            Ok(metrics.chain(per_node).collect())
        },
    )
}

/// The [`SimConfig`] of one `coexist` cell: the one parser of the
/// `bicord` flags' syntax (`bicord` maps its flags to these parameters
/// and calls this). The cell's seed is the run's master seed. Every
/// error names the parameter it rejects, and the config returned has
/// passed [`SimConfig::validate`].
pub fn coexist_config(cell: &Cell) -> Result<SimConfig, String> {
    let location = parse_location(cell.str("location")?)?;
    let seed = cell.seed;
    let mut config = match cell.str("mode")? {
        "bicord" => SimConfig::bicord(location, seed),
        "ecc-20" => SimConfig::ecc(location, seed, SimDuration::from_millis(20)),
        "ecc-30" => SimConfig::ecc(location, seed, SimDuration::from_millis(30)),
        "ecc-40" => SimConfig::ecc(location, seed, SimDuration::from_millis(40)),
        "unprotected" => SimConfig::unprotected(location, seed),
        other => {
            return Err(format!(
                "unknown mode '{other}' (bicord, ecc-20, ecc-30, ecc-40, unprotected)"
            ))
        }
    };
    let whole = |name: &str| -> Result<u64, String> {
        let n = cell.int(name)?;
        u64::try_from(n)
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("{name} must be a whole number >= 1, got {n}"))
    };
    config.duration = span("seconds", whole("seconds")?, 1_000_000)?;
    let burst = whole("burst")?;
    let bytes = whole("bytes")? as usize;
    config.zigbee.burst = BurstSpec {
        n_packets: u32::try_from(burst)
            .map_err(|_| format!("burst {burst} exceeds {}", u32::MAX))?,
        mpdu_bytes: bytes,
    };
    config.zigbee.arrivals =
        ArrivalProcess::Poisson(span("interval_ms", whole("interval_ms")?, 1_000)?);
    let nodes = cell.str("extra_nodes")?;
    if !nodes.is_empty() {
        for node in nodes.split(',') {
            config.extra_nodes.push(parse_extra_node(node, bytes)?);
        }
    }
    config.fault = parse_fault_profile(cell.str("fault_profile")?)?;
    if cell.bool("extra_wifi")? {
        config.extra_wifi = Some(ExtraWifiConfig::default());
    }
    config.validate().map_err(|e| e.to_string())?;
    Ok(config)
}

/// `n` units of `unit_us` µs, or an error naming `name` when that span
/// does not fit in a [`SimDuration`].
fn span(name: &str, n: u64, unit_us: u64) -> Result<SimDuration, String> {
    n.checked_mul(unit_us)
        .map(SimDuration::from_micros)
        .ok_or_else(|| format!("{name} {n} is too long (at most {})", u64::MAX / unit_us))
}

fn parse_location(s: &str) -> Result<Location, String> {
    let location = Location::all()
        .into_iter()
        .find(|l| l.label().eq_ignore_ascii_case(s));
    location.ok_or_else(|| format!("unknown location '{s}' (use A, B, C or D)"))
}

/// One `LOC:BURST:INTERVAL_MS` extra ZigBee pair sending `bytes`-byte
/// packets.
fn parse_extra_node(s: &str, bytes: usize) -> Result<ExtraNodeConfig, String> {
    let [location, burst, interval] = s.split(':').collect::<Vec<_>>()[..] else {
        return Err(format!("extra node wants LOC:BURST:INTERVAL_MS, got '{s}'"));
    };
    let mut node = ExtraNodeConfig::at(parse_location(location)?);
    node.burst = BurstSpec {
        n_packets: burst
            .parse()
            .map_err(|_| format!("bad burst count '{burst}' in extra node '{s}'"))?,
        mpdu_bytes: bytes,
    };
    let interval: u64 = interval
        .parse()
        .map_err(|_| format!("bad interval '{interval}' in extra node '{s}'"))?;
    node.arrivals = ArrivalProcess::Poisson(span("extra node interval_ms", interval, 1_000)?);
    Ok(node)
}

/// The `fault_profile` knobs: `(key, what it sets, valid range)`.
/// Error messages are generated from this table so they can never drift
/// from what the parser actually accepts.
const FAULT_KNOBS: &[(&str, &str, &str)] = &[
    ("control-loss", "control-frame loss rate", "[0,1]"),
    ("cts-loss", "CTS loss rate", "[0,1]"),
    ("csi-fp", "phantom-CSI false-positive rate", "[0,1]"),
    ("churn-ms", "coordinator churn period in whole ms", ">=1"),
    ("churn-m", "churn displacement range in meters", ">=0"),
];

fn fault_knob_names() -> String {
    FAULT_KNOBS
        .iter()
        .map(|(key, _, _)| *key)
        .collect::<Vec<_>>()
        .join(", ")
}

fn parse_fault_profile(s: &str) -> Result<FaultProfile, String> {
    let mut profile = FaultProfile::default();
    for pair in s.split(',').filter(|p| !p.is_empty()) {
        let (key, value) = pair.split_once('=').ok_or_else(|| {
            format!(
                "fault profile wants comma-separated KEY=VALUE pairs, got '{pair}' \
                 (valid keys: {}; example: control-loss=0.2,cts-loss=0.1)",
                fault_knob_names()
            )
        })?;
        let knob = FAULT_KNOBS.iter().find(|(k, _, _)| *k == key);
        let Some(&(_, what, range)) = knob else {
            return Err(format!(
                "unknown fault knob '{key}' in '{pair}'; valid keys are {} \
                 (KEY=VALUE, comma-separated)",
                fault_knob_names()
            ));
        };
        let bad_value = || {
            format!("bad value '{value}' for fault knob '{key}' ({what}; want a number in {range})")
        };
        if key == "churn-ms" {
            let ms: u64 = value.parse().map_err(|_| bad_value())?;
            profile.churn_period = Some(span("churn-ms", ms, 1_000)?);
            continue;
        }
        let number: f64 = value.parse().map_err(|_| bad_value())?;
        match key {
            "control-loss" => profile.control_loss = number,
            "cts-loss" => profile.cts_loss = number,
            "csi-fp" => profile.csi_false_positive = number,
            "churn-m" => profile.churn_range_m = number,
            _ => unreachable!("key was validated against FAULT_KNOBS"),
        }
    }
    if let Some(field) = profile.invalid_field() {
        let hint = FAULT_KNOBS
            .iter()
            .map(|(key, _, range)| format!("{key} in {range}"))
            .collect::<Vec<_>>()
            .join(", ");
        return Err(format!(
            "fault profile field '{field}' is out of range (valid: {hint})"
        ));
    }
    Ok(profile)
}

/// The dense-city block as a registry scenario (deterministic outcome
/// counters; per-query latency stays in the `dense_city_scaling` bench).
fn dense_city_scenario() -> Scenario {
    Scenario::new(
        "dense_city",
        "10k-device city block: CCA/transmission outcomes and culling counters",
        vec![ParamSpec {
            name: "devices",
            kind: ParamKind::Int,
            default: Some(ParamValue::Int(400)),
            help: "target device count (rounded up to a full apartment grid)",
        }],
        |cell| {
            let devices = cell.int("devices")?;
            if !(1..=1_000_000).contains(&devices) {
                return Err(format!("devices must be in 1..=1000000, got {devices}"));
            }
            let config = DenseCityConfig::with_device_count(devices as u32, cell.seed);
            let r = config.run();
            Ok(vec![
                ("devices".to_string(), r.devices as f64),
                ("attempts".to_string(), r.attempts as f64),
                ("deferrals".to_string(), r.deferrals as f64),
                ("transmissions".to_string(), r.transmissions as f64),
                ("mean_sensed_dbm".to_string(), r.mean_sensed_dbm),
                ("grid_tx_visited".to_string(), r.grid.tx_visited as f64),
                ("grid_tx_culled".to_string(), r.grid.tx_culled as f64),
                (
                    "grid_tx_out_of_range".to_string(),
                    r.grid.tx_out_of_range as f64,
                ),
                ("cache_link_hits".to_string(), r.cache.link_hits as f64),
                ("cache_link_misses".to_string(), r.cache.link_misses as f64),
            ])
        },
    )
}

/// The Sec. VII-A CTI accuracy experiment as a registry scenario:
/// technology classification and Wi-Fi device identification accuracy
/// over `traces_per_kind` synthetic traces per interferer kind.
fn cti_accuracy_scenario() -> Scenario {
    Scenario::new(
        "cti_accuracy",
        "Sec. VII-A CTI accuracy: Wi-Fi detection and device identification",
        vec![ParamSpec {
            name: "traces_per_kind",
            kind: ParamKind::Int,
            default: Some(ParamValue::Int(60)),
            help: "synthetic traces per interferer kind (classification set)",
        }],
        |cell| {
            let traces = cell.int("traces_per_kind")?;
            if !(1..=100_000).contains(&traces) {
                return Err(format!(
                    "traces_per_kind must be in 1..=100000, got {traces}"
                ));
            }
            let r = cti_accuracy(cell.seed, traces as usize);
            Ok(vec![
                (
                    "wifi_detection_accuracy".to_string(),
                    r.wifi_detection_accuracy,
                ),
                ("device_id_accuracy".to_string(), r.device_id_accuracy),
                ("device_id_std".to_string(), r.device_id_std),
            ])
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_names_are_registered() {
        let names: Vec<&str> = ScenarioRegistry::builtin().iter().map(|s| s.name).collect();
        assert_eq!(names, ["coexist", "dense_city", "cti_accuracy"]);
    }

    #[test]
    fn cti_accuracy_cells_run_and_validate() {
        let registry = ScenarioRegistry::builtin();
        let spec = registry
            .resolve(
                &SweepSpec::new("cti_accuracy", 3, 1)
                    .axis("traces_per_kind", vec![ParamValue::Int(4)]),
            )
            .unwrap();
        let cells = spec.expand();
        assert_eq!(cells.len(), 1);
        let row = registry.run_cell("cti_accuracy", &cells[0]).unwrap();
        for metric in [
            "wifi_detection_accuracy",
            "device_id_accuracy",
            "device_id_std",
        ] {
            let v = row.metric(metric).unwrap();
            assert!((0.0..=1.0).contains(&v), "{metric} = {v}");
        }
        // Same cell, same bytes — the registry closure is deterministic.
        let again = registry.run_cell("cti_accuracy", &cells[0]).unwrap();
        assert_eq!(row, again);
        // Out-of-range trace counts are schema errors, not quarantines.
        let bad = registry
            .resolve(
                &SweepSpec::new("cti_accuracy", 3, 1)
                    .axis("traces_per_kind", vec![ParamValue::Int(0)]),
            )
            .unwrap();
        assert!(registry.run_cell("cti_accuracy", &bad.expand()[0]).is_err());
    }

    #[test]
    fn resolve_fills_defaults_and_sorts_axes() {
        let registry = ScenarioRegistry::builtin();
        let spec = SweepSpec::new("coexist", 1, 1)
            .axis("seconds", vec![ParamValue::Int(1), ParamValue::Int(2)]);
        let resolved = registry.resolve(&spec).unwrap();
        let names: Vec<&str> = resolved.axes.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names.join(" "),
            "burst bytes extra_nodes extra_wifi fault_profile interval_ms location mode seconds"
        );
        assert_eq!(resolved.cell_count(), 2);
    }

    #[test]
    fn resolve_rejects_unknown_axis_and_wrong_types() {
        let registry = ScenarioRegistry::builtin();
        let unknown = SweepSpec::new("coexist", 1, 1).axis("warp", vec![ParamValue::Int(1)]);
        assert!(registry.resolve(&unknown).is_err());
        let wrong_type = SweepSpec::new("coexist", 1, 1).axis("mode", vec![ParamValue::Int(3)]);
        assert!(registry.resolve(&wrong_type).is_err());
        let no_scenario = SweepSpec::new("warp_drive", 1, 1);
        assert!(matches!(
            registry.resolve(&no_scenario),
            Err(SweepError::UnknownScenario { .. })
        ));
    }

    #[test]
    fn resolve_rejects_replicate_seeds_that_overflow() {
        let registry = ScenarioRegistry::builtin();
        let err = registry.resolve(&SweepSpec::new("coexist", u64::MAX, 2));
        assert!(
            matches!(&err, Err(SweepError::Param(e)) if e.contains("\"seed\"")),
            "{err:?}"
        );
        assert!(registry
            .resolve(&SweepSpec::new("coexist", u64::MAX, 1))
            .is_ok());
        assert!(registry
            .resolve(&SweepSpec::new("coexist", u64::MAX - 1, 2))
            .is_ok());
    }

    /// The one `coexist` cell with the parameters `params`, a JSON
    /// object, set.
    fn coexist_cell(params: &str) -> Cell {
        let spec = format!(r#"{{"scenario": "coexist", "seed": 42, "params": {params}}}"#);
        let spec = ScenarioRegistry::builtin().resolve(&SweepSpec::parse(&spec).unwrap());
        spec.unwrap().expand().remove(0)
    }

    #[test]
    fn cell_errors_name_the_cell() {
        let cell = coexist_cell(r#"{"mode": "warp"}"#);
        let err = ScenarioRegistry::builtin()
            .run_cell("coexist", &cell)
            .unwrap_err();
        assert!(err.to_string().contains("cell 0"), "{err}");
        assert!(err.to_string().contains("unknown mode"), "{err}");
    }

    #[test]
    fn extra_nodes_is_a_list_without_empty_entries() {
        let nodes = |list: &str| {
            let cell = coexist_cell(&format!(r#"{{"extra_nodes": "{list}"}}"#));
            coexist_config(&cell).map(|c| c.extra_nodes.len())
        };
        assert_eq!(nodes(""), Ok(0));
        assert_eq!(nodes("D:3:500,C:1:200"), Ok(2));
        for bad in ["D:3:500,", ",D:3:500", "D:3:500,,C:1:200"] {
            let err = nodes(bad).unwrap_err();
            assert!(err.contains("LOC:BURST:INTERVAL_MS"), "{bad}: {err}");
        }
    }

    #[test]
    fn invalid_configs_are_rejected_before_any_run() {
        let err = coexist_config(&coexist_cell(r#"{"bytes": 128}"#)).unwrap_err();
        assert!(err.contains("at most 127 B"), "{err}");
    }

    #[test]
    fn spans_that_would_wrap_are_cell_errors_naming_the_parameter() {
        // 18446744073710 s × 10^6 µs is 2^64 + 448,384 µs.
        for (params, name) in [
            (r#"{"seconds": 18446744073710}"#, "seconds"),
            (r#"{"seconds": 0}"#, "seconds"),
            (r#"{"interval_ms": 18446744073709552}"#, "interval_ms"),
            (r#"{"burst": 4294967296}"#, "burst"),
            (r#"{"extra_nodes": "D:3:18446744073709552"}"#, "interval_ms"),
            (
                r#"{"fault_profile": "churn-ms=18446744073709552"}"#,
                "churn-ms",
            ),
            (r#"{"fault_profile": "churn-ms=1.9"}"#, "churn-ms"),
            (r#"{"fault_profile": "churn-ms=1e30"}"#, "churn-ms"),
        ] {
            let cell = coexist_cell(params);
            let err = ScenarioRegistry::builtin()
                .run_cell("coexist", &cell)
                .unwrap_err();
            assert!(err.to_string().contains(name), "{params}: {err}");
        }
    }
}
