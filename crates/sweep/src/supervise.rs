//! Crash-isolated, retrying cell execution.
//!
//! The fail-fast [`crate::runner::run_cells`] maps cells straight over
//! `parallel_map`: one panicking or hanging cell kills the whole batch
//! with nothing written. [`crate::runner::run_shard`] runs its cells
//! through this module instead, which wraps each cell in a supervision
//! envelope:
//!
//! * **Panic isolation** — the cell runs under
//!   [`std::panic::catch_unwind`]; a panic is captured (payload
//!   included) and becomes a [`CellFailure::Panic`] for that cell
//!   alone.
//! * **Deadline watchdog** — with [`RunPolicy::cell_timeout`] set, the
//!   cell runs on its own thread and is abandoned when the wall-clock
//!   deadline passes ([`CellFailure::Timeout`]). Abandoned threads die
//!   with the process; the shard keeps going.
//! * **Stall capture** — a run aborted by the simulation's runtime
//!   guard (see `bicord_sim::guard`) surfaces its [`SweepError::Cell`]
//!   message, recognized by [`GUARD_STALL_MARKER`], as
//!   [`CellFailure::Stall`] with the guard's context attached.
//! * **Bounded deterministic retry** — each failure re-runs the cell up
//!   to [`RunPolicy::max_retries`] times with linear backoff. Cells are
//!   pure functions of their seed, so a retry that succeeds produces
//!   exactly the row the fault-free run would have — merges stay
//!   byte-identical.
//!
//! Cells that exhaust their retries are *quarantined*: the shard
//! artifact records their ids and a self-validating
//! [`QuarantineRecord`](crate::artifact::QuarantineRecord) artifact
//! preserves the cause, so `merge` can attribute the gap and `--resume`
//! re-runs only those cells.
//!
//! Schema/parameter errors are **not** quarantined — they are
//! deterministic spec mistakes that retrying cannot fix, and they keep
//! their fail-fast behaviour.
//!
//! # Chaos injection
//!
//! The `BICORD_SWEEP_CHAOS` environment variable arms a deterministic
//! test-only failure injector (see [`ChaosConfig`]) used by the
//! `sweep` CI job to prove the quarantine/retry/merge contract on
//! the real binary. It is inert unless explicitly set.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use bicord_sim::par::parallel_map;

use crate::contract::{fnv1a, Cell, ResultRow, SweepSpec};
use crate::registry::ScenarioRegistry;
use crate::SweepError;

/// Message prefix by which a guard-aborted cell is recognized as a
/// stall (quarantinable) rather than a deterministic scenario error
/// (fatal). Scenario closures that map
/// `bicord_sim::GuardViolation::StallDetected` into their error string
/// must start the message with this marker.
pub const GUARD_STALL_MARKER: &str = "guard stall:";

/// Supervision bounds for one sweep invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunPolicy {
    /// Wall-clock deadline per cell attempt; `None` disables the
    /// watchdog (panics and stalls are still isolated).
    pub cell_timeout: Option<Duration>,
    /// Re-runs after a failed attempt (0 = quarantine immediately).
    pub max_retries: u32,
    /// Backoff before retry `k` (1-based) is `retry_backoff * k`.
    pub retry_backoff: Duration,
}

impl Default for RunPolicy {
    fn default() -> Self {
        RunPolicy {
            cell_timeout: None,
            max_retries: 1,
            retry_backoff: Duration::from_millis(25),
        }
    }
}

/// Why one cell attempt (and, after retries, the cell) failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellFailure {
    /// The cell panicked; the payload (if it was a string) is kept.
    Panic(String),
    /// The cell exceeded the wall-clock deadline and was abandoned.
    Timeout(Duration),
    /// The simulation's runtime guard aborted the cell (livelock).
    Stall(String),
}

impl CellFailure {
    /// Stable cause label written into quarantine artifacts.
    pub fn cause(&self) -> &'static str {
        match self {
            CellFailure::Panic(_) => "panic",
            CellFailure::Timeout(_) => "timeout",
            CellFailure::Stall(_) => "stall",
        }
    }

    /// Human-readable detail for the quarantine artifact.
    pub fn message(&self) -> String {
        match self {
            CellFailure::Panic(payload) => payload.clone(),
            CellFailure::Timeout(limit) => {
                format!("exceeded cell timeout of {:.3}s", limit.as_secs_f64())
            }
            CellFailure::Stall(detail) => detail.clone(),
        }
    }
}

impl std::fmt::Display for CellFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.cause(), self.message())
    }
}

/// Deterministic test-only failure injector, armed by the
/// `BICORD_SWEEP_CHAOS` environment variable.
///
/// Format: comma-separated `panic:<rate>` / `hang:<rate>` /
/// `persist` — e.g. `panic:0.2,hang:0.1`. Rates are fractions in
/// `[0, 1]`; whether a given cell fails is a pure function of
/// `(spec_hash, cell id, kind)`, so every process and every retry
/// agrees on which cells are chosen. Without `persist`, injected
/// failures hit only the *first* attempt — a retry succeeds, modelling
/// transient infrastructure faults; with `persist`, every attempt
/// fails, forcing quarantine.
///
/// Hangs sleep far past any sane deadline, so exercising `hang:`
/// requires a cell timeout.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ChaosConfig {
    /// Fraction of cells whose attempt panics.
    pub panic_rate: f64,
    /// Fraction of cells whose attempt hangs until the watchdog fires.
    pub hang_rate: f64,
    /// Fail every attempt instead of only the first.
    pub persist: bool,
}

/// What the injector does to one attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChaosAction {
    Panic,
    Hang,
}

impl ChaosConfig {
    /// Reads `BICORD_SWEEP_CHAOS`; `None` when unset or empty. Malformed
    /// directives are rejected loudly — a chaos run that silently tests
    /// nothing is worse than a failing one.
    pub fn from_env() -> Result<Option<ChaosConfig>, String> {
        match std::env::var("BICORD_SWEEP_CHAOS") {
            Err(_) => Ok(None),
            Ok(v) if v.trim().is_empty() => Ok(None),
            Ok(v) => Self::parse(&v).map(Some),
        }
    }

    /// Parses the `BICORD_SWEEP_CHAOS` directive format.
    pub fn parse(text: &str) -> Result<ChaosConfig, String> {
        let mut config = ChaosConfig::default();
        for part in text.split(',') {
            let part = part.trim();
            if part == "persist" {
                config.persist = true;
                continue;
            }
            let (key, value) = part.split_once(':').ok_or_else(|| {
                format!(
                    "bad chaos directive '{part}' \
                     (want panic:<rate>, hang:<rate>, or persist)"
                )
            })?;
            let rate: f64 = value
                .parse()
                .map_err(|_| format!("bad chaos rate '{value}' for '{key}'"))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("chaos rate {rate} for '{key}' out of [0, 1]"));
            }
            match key {
                "panic" => config.panic_rate = rate,
                "hang" => config.hang_rate = rate,
                other => {
                    return Err(format!(
                        "unknown chaos directive '{other}' (panic, hang, persist)"
                    ))
                }
            }
        }
        Ok(config)
    }

    /// Deterministic unit fraction for `(spec, cell, salt)`.
    fn fraction(spec_hash: &str, cell: u64, salt: &str) -> f64 {
        let material = format!("{spec_hash}:{cell}:{salt}");
        (fnv1a(material.as_bytes()) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// What (if anything) to inject into this attempt.
    fn decide(&self, spec_hash: &str, cell: u64, attempt: u32) -> Option<ChaosAction> {
        if attempt > 0 && !self.persist {
            return None;
        }
        if Self::fraction(spec_hash, cell, "panic") < self.panic_rate {
            return Some(ChaosAction::Panic);
        }
        if Self::fraction(spec_hash, cell, "hang") < self.hang_rate {
            return Some(ChaosAction::Hang);
        }
        None
    }
}

/// The outcome of supervising a batch of cells: completed rows plus the
/// quarantine records of cells that exhausted their retries.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisedCells {
    /// Completed rows, in cell order.
    pub rows: Vec<ResultRow>,
    /// Cells that failed every attempt, in cell order.
    pub quarantined: Vec<crate::artifact::QuarantineRecord>,
}

/// One attempt of one cell, optionally under a wall-clock deadline.
///
/// Without a deadline the cell runs inline under `catch_unwind`. With
/// one, it runs on its own named thread; if the deadline passes the
/// thread is *abandoned* (it cannot be killed safely) and the attempt
/// reports [`CellFailure::Timeout`]. Abandoned threads hold no locks
/// anyone waits on and die with the process.
fn attempt_cell(
    registry: &Arc<ScenarioRegistry>,
    scenario: &str,
    cell: &Cell,
    timeout: Option<Duration>,
) -> Result<Result<ResultRow, CellFailure>, SweepError> {
    let classify = |caught: std::thread::Result<Result<ResultRow, SweepError>>| match caught {
        Ok(Ok(row)) => Ok(Ok(row)),
        Ok(Err(SweepError::Cell { message, .. })) if message.starts_with(GUARD_STALL_MARKER) => {
            Ok(Err(CellFailure::Stall(message)))
        }
        // Deterministic scenario/spec errors stay fatal: a retry cannot
        // fix a bad parameter, and masking it as quarantine would hide
        // the mistake until merge.
        Ok(Err(fatal)) => Err(fatal),
        Err(payload) => Ok(Err(CellFailure::Panic(panic_message(payload.as_ref())))),
    };

    match timeout {
        None => {
            let result = catch_unwind(AssertUnwindSafe(|| registry.run_cell(scenario, cell)));
            classify(result)
        }
        Some(limit) => {
            let registry = Arc::clone(registry);
            let scenario = scenario.to_string();
            let cell = cell.clone();
            let (tx, rx) = mpsc::channel();
            let builder = std::thread::Builder::new().name(format!("bicord-cell-{}", cell.id));
            let handle = builder
                .spawn(move || {
                    let result =
                        catch_unwind(AssertUnwindSafe(|| registry.run_cell(&scenario, &cell)));
                    // The supervisor may have moved on; a dead receiver
                    // just means this attempt's result is discarded.
                    let _ = tx.send(result);
                })
                .map_err(|e| SweepError::Io(format!("spawning cell worker: {e}")))?;
            match rx.recv_timeout(limit) {
                Ok(result) => {
                    let _ = handle.join();
                    classify(result)
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    // Abandon the hung worker; it dies with the process.
                    Ok(Err(CellFailure::Timeout(limit)))
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    // The worker died without sending — only possible if
                    // the send itself failed; treat as a panic.
                    let _ = handle.join();
                    Ok(Err(CellFailure::Panic(
                        "cell worker vanished without a result".to_string(),
                    )))
                }
            }
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one cell under `policy`, retrying failed attempts with linear
/// backoff. Returns the row, the final failure (after all attempts), or
/// a fatal (non-quarantinable) sweep error. `chaos` and `spec_hash` are
/// the batch's injector and spec hash, computed once per batch.
fn run_cell_supervised(
    registry: &Arc<ScenarioRegistry>,
    spec: &SweepSpec,
    spec_hash: &str,
    chaos: Option<&ChaosConfig>,
    cell: &Cell,
    policy: &RunPolicy,
) -> Result<Result<ResultRow, (CellFailure, u32)>, SweepError> {
    let mut last_failure = None;
    for attempt in 0..=policy.max_retries {
        if attempt > 0 {
            std::thread::sleep(policy.retry_backoff * attempt);
        }
        let injected = chaos.and_then(|c| c.decide(spec_hash, cell.id, attempt));
        let outcome = match injected {
            Some(ChaosAction::Panic) => Ok(Err(CellFailure::Panic(format!(
                "chaos: injected panic in cell {}",
                cell.id
            )))),
            Some(ChaosAction::Hang) => match policy.cell_timeout {
                // A real hang never returns; model it as the watchdog
                // firing after its deadline.
                Some(limit) => {
                    std::thread::sleep(limit);
                    Ok(Err(CellFailure::Timeout(limit)))
                }
                None => Err(SweepError::Param(
                    "chaos hang injection requires --cell-timeout".to_string(),
                )),
            },
            None => attempt_cell(registry, &spec.scenario, cell, policy.cell_timeout),
        }?;
        match outcome {
            Ok(row) => return Ok(Ok(row)),
            Err(failure) => last_failure = Some(failure),
        }
    }
    let attempts = policy.max_retries + 1;
    Ok(Err((
        last_failure.expect("loop ran at least one attempt"),
        attempts,
    )))
}

/// Runs `cells` in parallel under `policy`, preserving cell order.
/// Failures that survive every retry become quarantine records instead
/// of killing the batch; fatal spec errors still abort, and so does a
/// malformed `BICORD_SWEEP_CHAOS`.
pub fn run_cells_supervised(
    registry: &Arc<ScenarioRegistry>,
    spec: &SweepSpec,
    cells: Vec<Cell>,
    policy: &RunPolicy,
) -> Result<SupervisedCells, SweepError> {
    let chaos = ChaosConfig::from_env().map_err(SweepError::Param)?;
    let spec_hash = spec.content_hash();
    let outcomes = parallel_map(cells, |cell| {
        let outcome =
            run_cell_supervised(registry, spec, &spec_hash, chaos.as_ref(), &cell, policy)?;
        Ok::<_, SweepError>((cell, outcome))
    });
    let mut rows = Vec::new();
    let mut quarantined = Vec::new();
    for outcome in outcomes {
        let (cell, outcome) = outcome?;
        match outcome {
            Ok(row) => rows.push(row),
            Err((failure, attempts)) => {
                eprintln!(
                    "sweep: cell {} quarantined after {attempts} attempt(s): {failure}",
                    cell.id
                );
                quarantined.push(crate::artifact::QuarantineRecord {
                    cell: cell.id,
                    seed: cell.seed,
                    replicate: cell.replicate,
                    cause: failure.cause().to_string(),
                    message: failure.message(),
                    attempts,
                });
            }
        }
    }
    Ok(SupervisedCells { rows, quarantined })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::{ParamKind, ParamValue};
    use crate::registry::{ParamSpec, Scenario};
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    /// A registry whose cells fail according to a per-cell script:
    /// `fail_first.get(cell_id)` = number of leading attempts that
    /// panic before the cell starts succeeding; `u32::MAX` = always.
    fn scripted_registry(
        fail_first: HashMap<i64, u32>,
        ran: Arc<AtomicUsize>,
    ) -> Arc<ScenarioRegistry> {
        let attempts: Mutex<HashMap<i64, u32>> = Mutex::new(HashMap::new());
        let mut registry = ScenarioRegistry::new();
        registry.register(Scenario::new(
            "scripted",
            "panics per script, then succeeds",
            vec![ParamSpec {
                name: "n",
                kind: ParamKind::Int,
                default: Some(ParamValue::Int(0)),
                help: "any integer",
            }],
            move |cell| {
                ran.fetch_add(1, Ordering::SeqCst);
                let n = cell.int("n")?;
                let so_far = {
                    let mut map = attempts.lock().unwrap();
                    let counter = map.entry(n).or_insert(0);
                    *counter += 1;
                    *counter
                };
                let budget = fail_first.get(&n).copied().unwrap_or(0);
                assert!(so_far > budget, "scripted panic for n={n}");
                Ok(vec![("n2".to_string(), (n * n) as f64)])
            },
        ));
        Arc::new(registry)
    }

    fn spec(values: &[i64]) -> SweepSpec {
        let mut s = SweepSpec::new("scripted", 9, 1)
            .axis("n", values.iter().map(|&n| ParamValue::Int(n)).collect());
        s.normalize_axes();
        s
    }

    #[test]
    fn transient_panic_is_retried_to_success() {
        let ran = Arc::new(AtomicUsize::new(0));
        let registry = scripted_registry(HashMap::from([(2, 1)]), ran.clone());
        let spec = spec(&[1, 2, 3]);
        let out =
            run_cells_supervised(&registry, &spec, spec.expand(), &RunPolicy::default()).unwrap();
        assert_eq!(out.rows.len(), 3, "all cells recovered");
        assert!(out.quarantined.is_empty());
        assert_eq!(ran.load(Ordering::SeqCst), 4, "one retry for cell n=2");
    }

    #[test]
    fn persistent_panic_is_quarantined_with_cause() {
        let ran = Arc::new(AtomicUsize::new(0));
        let registry = scripted_registry(HashMap::from([(2, u32::MAX)]), ran.clone());
        let spec = spec(&[1, 2, 3]);
        let out =
            run_cells_supervised(&registry, &spec, spec.expand(), &RunPolicy::default()).unwrap();
        assert_eq!(out.rows.len(), 2);
        assert_eq!(out.quarantined.len(), 1);
        let q = &out.quarantined[0];
        assert_eq!(q.cause, "panic");
        assert_eq!(q.attempts, 2, "initial attempt + one retry");
        assert!(q.message.contains("scripted panic"), "{}", q.message);
        assert_eq!(q.seed, 9, "cell identity preserved");
        assert_eq!(q.cell, 1, "n=2 is the second cell in expansion order");
    }

    #[test]
    fn guard_stall_errors_are_quarantinable() {
        let mut registry = ScenarioRegistry::new();
        registry.register(Scenario::new(
            "stalling",
            "always reports a guard stall",
            vec![],
            |_cell| Err(format!("{GUARD_STALL_MARKER} stuck at t=5us")),
        ));
        let registry = Arc::new(registry);
        let mut spec = SweepSpec::new("stalling", 1, 1);
        spec.normalize_axes();
        let out =
            run_cells_supervised(&registry, &spec, spec.expand(), &RunPolicy::default()).unwrap();
        assert!(out.rows.is_empty());
        assert_eq!(out.quarantined[0].cause, "stall");
        assert!(out.quarantined[0].message.contains("t=5us"));
    }

    #[test]
    fn deterministic_scenario_errors_stay_fatal() {
        let mut registry = ScenarioRegistry::new();
        registry.register(Scenario::new(
            "broken",
            "always returns a plain error",
            vec![],
            |_cell| Err("bad parameter combination".to_string()),
        ));
        let registry = Arc::new(registry);
        let mut spec = SweepSpec::new("broken", 1, 1);
        spec.normalize_axes();
        let err = run_cells_supervised(&registry, &spec, spec.expand(), &RunPolicy::default())
            .unwrap_err();
        assert!(matches!(err, SweepError::Cell { .. }), "{err}");
    }

    #[test]
    fn hung_cell_times_out_and_is_quarantined() {
        let mut registry = ScenarioRegistry::new();
        registry.register(Scenario::new(
            "sleepy",
            "sleeps far past the deadline",
            vec![],
            |_cell| {
                std::thread::sleep(Duration::from_secs(5));
                Ok(vec![("x".to_string(), 1.0)])
            },
        ));
        let registry = Arc::new(registry);
        let mut spec = SweepSpec::new("sleepy", 1, 1);
        spec.normalize_axes();
        let policy = RunPolicy {
            cell_timeout: Some(Duration::from_millis(50)),
            max_retries: 0,
            retry_backoff: Duration::from_millis(1),
        };
        let out = run_cells_supervised(&registry, &spec, spec.expand(), &policy).unwrap();
        assert_eq!(out.quarantined.len(), 1);
        assert_eq!(out.quarantined[0].cause, "timeout");
        assert!(
            out.quarantined[0].message.contains("0.050"),
            "{}",
            out.quarantined[0].message
        );
    }

    #[test]
    fn timeout_path_returns_fast_results_unharmed() {
        let mut registry = ScenarioRegistry::new();
        registry.register(Scenario::new(
            "quick",
            "returns immediately",
            vec![ParamSpec {
                name: "n",
                kind: ParamKind::Int,
                default: Some(ParamValue::Int(0)),
                help: "any integer",
            }],
            |cell| {
                let n = cell.int("n")?;
                Ok(vec![("n2".to_string(), (n * n) as f64)])
            },
        ));
        let registry = Arc::new(registry);
        let mut spec =
            SweepSpec::new("quick", 3, 1).axis("n", vec![ParamValue::Int(2), ParamValue::Int(5)]);
        spec.normalize_axes();
        let policy = RunPolicy {
            cell_timeout: Some(Duration::from_secs(30)),
            ..RunPolicy::default()
        };
        let out = run_cells_supervised(&registry, &spec, spec.expand(), &policy).unwrap();
        assert!(out.quarantined.is_empty());
        let metrics: Vec<f64> = out.rows.iter().map(|r| r.metric("n2").unwrap()).collect();
        assert_eq!(metrics, vec![4.0, 25.0]);
    }

    #[test]
    fn chaos_directives_parse_and_reject_garbage() {
        let c = ChaosConfig::parse("panic:0.2,hang:0.1,persist").unwrap();
        assert_eq!(
            c,
            ChaosConfig {
                panic_rate: 0.2,
                hang_rate: 0.1,
                persist: true
            }
        );
        assert!(ChaosConfig::parse("panic:2.0").is_err());
        assert!(ChaosConfig::parse("explode:0.5").is_err());
        assert!(ChaosConfig::parse("panic=0.5").is_err());
    }

    #[test]
    fn chaos_decisions_are_deterministic_and_transient_by_default() {
        let c = ChaosConfig::parse("panic:0.5").unwrap();
        let hit: Vec<u64> = (0..64)
            .filter(|&id| c.decide("abc", id, 0).is_some())
            .collect();
        assert!(!hit.is_empty(), "rate 0.5 over 64 cells must hit some");
        assert!(hit.len() < 64, "rate 0.5 must not hit all");
        // Same inputs, same decisions.
        let again: Vec<u64> = (0..64)
            .filter(|&id| c.decide("abc", id, 0).is_some())
            .collect();
        assert_eq!(hit, again);
        // Retries are spared unless persist is set.
        assert!(hit.iter().all(|&id| c.decide("abc", id, 1).is_none()));
        let p = ChaosConfig::parse("panic:0.5,persist").unwrap();
        assert!(hit.iter().all(|&id| p.decide("abc", id, 1).is_some()));
    }
}
