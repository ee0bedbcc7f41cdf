//! The four workloads and how one cell of each is built and run.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use bicord_scenario::config::{ExtraNodeConfig, RunResults, SimConfig};
use bicord_scenario::dense_city::{DenseCityConfig, DenseCityResults};
use bicord_scenario::geometry::Location;
use bicord_scenario::sim::CoexistenceSim;
use bicord_sim::{
    stream_rng, FaultProfile, GuardConfig, GuardSummary, RuntimeGuard, SeedDomain, SimDuration,
};
use bicord_sweep::contract::fnv1a;
use bicord_workloads::mobility::DeviceMobility;
use bicord_workloads::traffic::{ArrivalProcess, BurstSpec};

use crate::clock::LayerClock;

/// The master seed of cell 0 when `--seed` is not given (the seed the
/// repository's regeneration binaries share).
pub const DEFAULT_SEED: u64 = bicord_bench::BENCH_SEED;

/// Simulated length of every protocol cell. Dense-city cells keep
/// `DenseCityConfig`'s default length (50 ms).
const PROTOCOL_CELL: SimDuration = SimDuration::from_secs(60);

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Fig. 10 cell: BiCord at location A.
    OfficeBicord,
    /// The heaviest `multi_node` registry cell: ECC-30 with three pairs.
    MultiNodeEcc,
    /// The 10k-device dense city block.
    DenseCity10k,
    /// BiCord under device mobility and injected faults.
    MobileFaults,
}

impl Workload {
    /// Every workload, in the order the benchmark runs them.
    pub const ALL: [Workload; 4] = [
        Workload::OfficeBicord,
        Workload::MultiNodeEcc,
        Workload::DenseCity10k,
        Workload::MobileFaults,
    ];

    /// The workload's name on the command line and in output.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OfficeBicord => "office_bicord",
            Workload::MultiNodeEcc => "multi_node_ecc",
            Workload::DenseCity10k => "dense_city_10k",
            Workload::MobileFaults => "mobile_faults",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether cells run the protocol runtime (`CoexistenceSim`).
    pub fn is_protocol(self) -> bool {
        self != Workload::DenseCity10k
    }

    /// Cells in the timed list.
    pub fn cells(self) -> usize {
        match self {
            Workload::DenseCity10k => 40,
            _ => 100,
        }
    }

    /// Passes over the cell list a run makes, fixed so that every commit
    /// does the same work; a run measures about 20 s of host time
    /// (protocol cells take ~36 ms, dense-city cells ~230 ms).
    pub fn rounds(self) -> usize {
        match self {
            Workload::DenseCity10k => 2,
            _ => 5,
        }
    }

    /// Cells of the traced (per-layer) pass.
    pub fn traced_cells(self) -> usize {
        match self {
            Workload::DenseCity10k => 4,
            _ => 10,
        }
    }

    /// The input of cell `k` of a run with master seed `seed`.
    pub fn cell(self, seed: u64, k: usize) -> Cell {
        let seed = seed.wrapping_add(k as u64);
        match self {
            Workload::OfficeBicord => {
                let intervals = ArrivalProcess::paper_intervals();
                let mut c = SimConfig::bicord(Location::A, seed);
                c.duration = PROTOCOL_CELL;
                c.zigbee.arrivals = ArrivalProcess::Poisson(intervals[k % intervals.len()]);
                Cell::Protocol(Box::new(c))
            }
            Workload::MultiNodeEcc => Cell::Protocol(Box::new(multi_node_ecc(seed))),
            Workload::DenseCity10k => {
                Cell::DenseCity(DenseCityConfig::with_device_count(10_000, seed))
            }
            Workload::MobileFaults => Cell::Protocol(Box::new(mobile_faults(seed))),
        }
    }
}

/// `multi_node_cell(Scheme::Ecc(30), 3, ..)`'s configuration: node A
/// sends 5-packet bursts every 300 ms, C 10-packet every 500 ms and D
/// 3-packet every 400 ms.
fn multi_node_ecc(seed: u64) -> SimConfig {
    let mut c = SimConfig::ecc(Location::A, seed, SimDuration::from_millis(30));
    c.duration = PROTOCOL_CELL;
    c.zigbee.arrivals = ArrivalProcess::Poisson(SimDuration::from_millis(300));
    for (location, n_packets, interval_ms) in [(Location::C, 10, 500), (Location::D, 3, 400)] {
        let mut node = ExtraNodeConfig::at(location);
        node.burst = BurstSpec {
            n_packets,
            mpdu_bytes: 50,
        };
        node.arrivals = ArrivalProcess::Poisson(SimDuration::from_millis(interval_ms));
        c.extra_nodes.push(node);
    }
    c
}

/// BiCord with 200 ms bursts while the ZigBee sender moves under the
/// Fig. 12 device-mobility preset (1 m, 250 ms steps), with control and
/// CTS loss, phantom CSI, and device churn every 200 ms within 2 m.
fn mobile_faults(seed: u64) -> SimConfig {
    let mut c = SimConfig::bicord(Location::A, seed);
    c.duration = PROTOCOL_CELL;
    c.zigbee.arrivals = ArrivalProcess::Poisson(SimDuration::from_millis(200));
    let mut rng = stream_rng(seed, SeedDomain::Mobility, 2);
    c.device_mobility = Some(DeviceMobility::generate(
        Location::A.sender_position(),
        1.0,
        PROTOCOL_CELL,
        SimDuration::from_millis(250),
        &mut rng,
    ));
    c.fault = FaultProfile {
        control_loss: 0.3,
        cts_loss: 0.1,
        csi_false_positive: 0.02,
        churn_period: Some(SimDuration::from_millis(200)),
        churn_range_m: 2.0,
    };
    c
}

/// The input of one cell.
#[derive(Debug, Clone)]
pub enum Cell {
    /// A protocol-runtime run.
    Protocol(Box<SimConfig>),
    /// A dense-city run.
    DenseCity(DenseCityConfig),
}

/// What a cell's simulated outcome contributes to the end-to-end
/// metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Outcome {
    /// FNV-1a of the `Debug`-formatted results.
    pub digest: u64,
    /// Dispatched events (`RunResults::events`; for the dense city,
    /// CCA attempts plus transmission ends).
    pub events: u64,
    /// Simulated seconds.
    pub simulated_s: f64,
    /// Channel utilization (protocol cells only).
    pub utilization: Option<f64>,
    /// Mean ZigBee delay in ms, when anything was delivered.
    pub delay_ms: Option<f64>,
    /// ZigBee packets delivered.
    pub delivered: u64,
    /// ZigBee packets generated.
    pub generated: u64,
}

impl Outcome {
    /// The outcome of a protocol run.
    pub fn protocol(r: &RunResults) -> Outcome {
        Outcome {
            digest: fnv1a(format!("{r:?}").as_bytes()),
            events: r.events,
            simulated_s: r.simulated.as_secs_f64(),
            utilization: Some(r.utilization),
            delay_ms: r.zigbee.mean_delay_ms,
            delivered: r.zigbee.delivered,
            generated: r.zigbee.generated,
        }
    }

    /// The outcome of a dense-city run.
    pub fn dense_city(r: &DenseCityResults) -> Outcome {
        Outcome {
            digest: fnv1a(format!("{r:?}").as_bytes()),
            events: r.attempts + r.transmissions,
            simulated_s: r.simulated.as_secs_f64(),
            ..Outcome::default()
        }
    }
}

/// Host time of one untraced cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Construction: `CoexistenceSim::new`, or `build_medium` for the
    /// dense city.
    pub setup: Duration,
    /// Construction plus run (for the dense city, `run()`, which builds
    /// its own medium).
    pub total: Duration,
}

/// Runs one cell untraced and times it. A panic or a construction error
/// is returned as `Err`.
pub fn run_untraced(cell: &Cell) -> Result<(Timing, Outcome), String> {
    guarded(|| match cell {
        Cell::Protocol(config) => {
            let config = SimConfig::clone(config);
            let t0 = Instant::now();
            let sim = CoexistenceSim::new(config).map_err(|e| e.to_string())?;
            let t1 = Instant::now();
            let results = sim.try_run().map_err(|v| v.to_string())?;
            let t2 = Instant::now();
            let timing = Timing {
                setup: t1 - t0,
                total: t2 - t0,
            };
            Ok((timing, Outcome::protocol(&results)))
        }
        Cell::DenseCity(config) => {
            let t0 = Instant::now();
            let built = std::hint::black_box(config.build_medium());
            let setup = t0.elapsed();
            drop(built);
            let t1 = Instant::now();
            let results = config.run();
            let timing = Timing {
                setup,
                total: t1.elapsed(),
            };
            Ok((timing, Outcome::dense_city(&results)))
        }
    })
}

/// One traced protocol run.
#[derive(Debug, Clone)]
pub struct Traced {
    /// The simulated outcome (must equal the untraced one).
    pub outcome: Outcome,
    /// Host time attributed per layer.
    pub clock: LayerClock,
    /// What the runtime guard found.
    pub guard: GuardSummary,
    /// `with_guard` plus `try_run`.
    pub total: Duration,
    /// `try_run` alone.
    pub run: Duration,
    /// From the last dequeue to the end of `try_run`: the last event
    /// plus `finalize`.
    pub finalize: Duration,
}

/// Runs one protocol cell with a [`LayerClock`] sink and a
/// [`RuntimeGuard`].
pub fn run_traced(config: &SimConfig) -> Result<Traced, String> {
    guarded(|| {
        let config = config.clone();
        let mut clock = LayerClock::new();
        let mut guard = RuntimeGuard::new(GuardConfig::default());
        let t0 = Instant::now();
        let sim = CoexistenceSim::with_guard(config, &mut clock, &mut guard)
            .map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let results = sim.try_run().map_err(|v| v.to_string())?;
        let t2 = Instant::now();
        let finalize = clock.finish(t2);
        Ok(Traced {
            outcome: Outcome::protocol(&results),
            clock,
            guard: guard.summary(),
            total: t2 - t0,
            run: t2 - t1,
            finalize,
        })
    })
}

/// Runs `f`, turning a panic into `Err`.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        Err(format!("panicked: {message}"))
    })
}
