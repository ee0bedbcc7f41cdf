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
//! sweeps — `multi_node`, `robustness`, and `dense_city` — which the
//! `bicord sweep` subcommand and the corresponding bench binaries share.
//! Every built-in emits **deterministic** metrics only (no wall-clock
//! readings), which is what makes sharded artifacts byte-identical to a
//! single-process run; timing measurements stay in the bench binaries
//! and in `PerfRecorder` records.

use bicord_metrics::registry::CountingSink;
use bicord_scenario::config::{ExtraWifiConfig, SimConfig};
use bicord_scenario::dense_city::DenseCityConfig;
use bicord_scenario::experiments::{cti_accuracy, multi_node_cell, Scheme};
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
        registry.register(multi_node_scenario());
        registry.register(robustness_scenario());
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

fn scheme_from_str(s: &str) -> Result<Scheme, String> {
    match s {
        "bicord" => Ok(Scheme::Bicord),
        "ecc-20" => Ok(Scheme::Ecc(20)),
        "ecc-30" => Ok(Scheme::Ecc(30)),
        "ecc-40" => Ok(Scheme::Ecc(40)),
        other => Err(format!(
            "unknown scheme '{other}' (bicord, ecc-20, ecc-30, ecc-40)"
        )),
    }
}

/// The Sec. VI multi-node grid as a registry scenario.
fn multi_node_scenario() -> Scenario {
    Scenario::new(
        "multi_node",
        "1-3 heterogeneous ZigBee pairs sharing one Wi-Fi coordinator (Sec. VI)",
        vec![
            ParamSpec {
                name: "scheme",
                kind: ParamKind::Str,
                default: Some(ParamValue::Str("bicord".to_string())),
                help: "coordination scheme: bicord, ecc-20, ecc-30, ecc-40",
            },
            ParamSpec {
                name: "n_nodes",
                kind: ParamKind::Int,
                default: Some(ParamValue::Int(1)),
                help: "coexisting ZigBee pairs (1..=3)",
            },
            ParamSpec {
                name: "duration_secs",
                kind: ParamKind::Int,
                default: Some(ParamValue::Int(30)),
                help: "simulated seconds per cell",
            },
        ],
        |cell| {
            let scheme = scheme_from_str(cell.str("scheme")?)?;
            let n_nodes = cell.int("n_nodes")?;
            if !(1..=3).contains(&n_nodes) {
                return Err(format!("n_nodes must be 1..=3, got {n_nodes}"));
            }
            let duration = SimDuration::from_secs(positive_secs(cell.int("duration_secs")?)?);
            let row = multi_node_cell(scheme, n_nodes as usize, cell.seed, duration);
            let mut metrics = vec![
                ("utilization".to_string(), row.utilization),
                ("aggregate_pdr".to_string(), row.aggregate_pdr),
                (
                    "mean_delay_ms".to_string(),
                    row.mean_delay_ms.unwrap_or(f64::NAN),
                ),
            ];
            for (i, pdr) in row.per_node_pdr.iter().enumerate() {
                metrics.push((format!("pdr_node_{i}"), *pdr));
            }
            Ok(metrics)
        },
    )
}

fn positive_secs(n: i64) -> Result<u64, String> {
    if n >= 1 {
        Ok(n as u64)
    } else {
        Err(format!("duration_secs must be at least 1, got {n}"))
    }
}

/// The fault-rate robustness sweep as a registry scenario.
fn robustness_scenario() -> Scenario {
    Scenario::new(
        "robustness",
        "BiCord under injected control/CTS loss and phantom CSI, vs fault rate",
        vec![
            ParamSpec {
                name: "fault_rate",
                kind: ParamKind::Float,
                default: Some(ParamValue::Float(0.0)),
                help: "control-loss rate in [0,1]; CTS loss and phantom CSI scale along",
            },
            ParamSpec {
                name: "duration_secs",
                kind: ParamKind::Int,
                default: Some(ParamValue::Int(20)),
                help: "simulated seconds per cell",
            },
        ],
        |cell| {
            let rate = cell.float("fault_rate")?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("fault_rate must be in [0,1], got {rate}"));
            }
            let duration = SimDuration::from_secs(positive_secs(cell.int("duration_secs")?)?);
            let config = robustness_config(rate, cell.seed, duration);
            let mut sink = CountingSink::new();
            // The runtime guard draws no randomness, so guarded cells
            // stay bit-identical to unguarded ones; a livelock becomes a
            // quarantinable "guard stall" error instead of a hang.
            let mut guard = RuntimeGuard::new(GuardConfig::default());
            let r = CoexistenceSim::with_guard(config, &mut sink, &mut guard)
                .map_err(|e| format!("invalid robustness config: {e}"))?
                .try_run()
                .map_err(|v| format!("{GUARD_STALL_MARKER} {v} ({})", guard.summary()))?;
            Ok(vec![
                ("pdr".to_string(), r.zigbee_pdr()),
                (
                    "mean_delay_ms".to_string(),
                    r.zigbee.mean_delay_ms.unwrap_or(f64::NAN),
                ),
                ("utilization".to_string(), r.utilization),
                ("zigbee_utilization".to_string(), r.zigbee_utilization),
                ("delivered".to_string(), r.zigbee.delivered as f64),
                ("generated".to_string(), r.zigbee.generated as f64),
                (
                    "signaling_rounds".to_string(),
                    r.zigbee.signaling_rounds as f64,
                ),
                ("reservations".to_string(), r.wifi.reservations as f64),
                ("csma_fallbacks".to_string(), r.zigbee.csma_fallbacks as f64),
                (
                    "backoffs".to_string(),
                    sink.registry.counter("signaling_backoff") as f64,
                ),
                (
                    "control_lost".to_string(),
                    sink.registry.counter("fault_control_lost") as f64,
                ),
                (
                    "cts_lost".to_string(),
                    sink.registry.counter("fault_cts_lost") as f64,
                ),
                (
                    "phantom_csi".to_string(),
                    sink.registry.counter("fault_phantom_csi") as f64,
                ),
                ("events".to_string(), r.events as f64),
            ])
        },
    )
}

/// The robustness-sweep cell config: BiCord at location A with one
/// contending Wi-Fi station (makes CTS loss observable) and the fault
/// profile scaled from the control-loss `rate`. At rate 0 the profile is
/// inactive, so the cell is bit-identical to a no-fault run.
pub fn robustness_config(rate: f64, seed: u64, duration: SimDuration) -> SimConfig {
    let mut config = SimConfig::bicord(Location::A, seed);
    config.duration = duration;
    config.extra_wifi = Some(ExtraWifiConfig::default());
    config.fault = FaultProfile {
        control_loss: rate,
        cts_loss: rate * 0.5,
        csi_false_positive: rate * 0.1,
        ..FaultProfile::default()
    };
    config
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
        let registry = ScenarioRegistry::builtin();
        for name in ["multi_node", "robustness", "dense_city", "cti_accuracy"] {
            assert!(registry.get(name).is_some(), "{name} missing");
        }
        assert_eq!(registry.iter().count(), 4);
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
        let spec = SweepSpec::new("multi_node", 1, 1)
            .axis("n_nodes", vec![ParamValue::Int(1), ParamValue::Int(2)]);
        let resolved = registry.resolve(&spec).unwrap();
        let names: Vec<&str> = resolved.axes.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["duration_secs", "n_nodes", "scheme"]);
        assert_eq!(resolved.cell_count(), 2);
    }

    #[test]
    fn resolve_rejects_unknown_axis_and_wrong_types() {
        let registry = ScenarioRegistry::builtin();
        let unknown = SweepSpec::new("multi_node", 1, 1).axis("warp", vec![ParamValue::Int(1)]);
        assert!(registry.resolve(&unknown).is_err());
        let wrong_type =
            SweepSpec::new("multi_node", 1, 1).axis("scheme", vec![ParamValue::Int(3)]);
        assert!(registry.resolve(&wrong_type).is_err());
        let no_scenario = SweepSpec::new("warp_drive", 1, 1);
        assert!(matches!(
            registry.resolve(&no_scenario),
            Err(SweepError::UnknownScenario { .. })
        ));
    }

    #[test]
    fn resolve_coerces_int_into_float_axes() {
        let registry = ScenarioRegistry::builtin();
        let spec = SweepSpec::new("robustness", 1, 1).axis(
            "fault_rate",
            vec![ParamValue::Int(0), ParamValue::Float(0.5)],
        );
        let resolved = registry.resolve(&spec).unwrap();
        let (_, values) = resolved
            .axes
            .iter()
            .find(|(n, _)| n == "fault_rate")
            .unwrap();
        assert_eq!(
            values,
            &vec![ParamValue::Float(0.0), ParamValue::Float(0.5)]
        );
    }

    #[test]
    fn cell_errors_name_the_cell() {
        let registry = ScenarioRegistry::builtin();
        let spec = registry
            .resolve(
                &SweepSpec::new("multi_node", 1, 1)
                    .axis("scheme", vec![ParamValue::Str("warp".to_string())]),
            )
            .unwrap();
        let cells = spec.expand();
        let err = registry.run_cell("multi_node", &cells[0]).unwrap_err();
        assert!(err.to_string().contains("cell 0"), "{err}");
        assert!(err.to_string().contains("unknown scheme"), "{err}");
    }

    #[test]
    fn scheme_names_round_trip() {
        assert_eq!(scheme_from_str("bicord").unwrap(), Scheme::Bicord);
        assert_eq!(scheme_from_str("ecc-30").unwrap(), Scheme::Ecc(30));
        assert!(scheme_from_str("ecc-25").is_err());
    }
}
