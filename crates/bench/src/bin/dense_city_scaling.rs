//! Sweeps the dense-city block size (100 → 10k+ devices) and measures
//! how per-query medium cost scales with world size.
//!
//! For each size the sweep measures, on a world with a realistic set of
//! concurrent transmissions:
//!
//! * `sensed_ns_<n>` / `interference_ns_<n>` — mean latency of one
//!   `sensed_power` / `interference_against` query under the dense-city
//!   culling config (the spatial grid at work);
//! * `sensed_nocull_ns_<n>` — the same query under the conservative
//!   default culling (radii in the tens of kilometres ⇒ every
//!   transmission evaluated), i.e. the brute-force baseline that grows
//!   linearly with world size;
//! * `run_ms_<n>` — wall time of the full CCA-then-transmit run loop.
//!
//! The headline metrics are `sensed_flatness` and
//! `interference_flatness`: the culled per-query cost at the largest
//! size divided by the cost at the smallest — near 1 when culling works
//! (the acceptance bound is ~2×), against a no-cull baseline that grows
//! with devices. All metrics land in `BENCH_results.json`; they are
//! host latencies, so no gate compares them with a committed number
//! (the benchmark's `dense_city_10k` workload and `scripts/ab.sh` judge
//! the medium end to end).
//!
//! The registry's deterministic "dense_city" scenario runs through
//! `bicord sweep --spec specs/dense_city_quick.json`.

use std::time::Instant;

use bicord_bench::{BenchCli, PerfRecorder};
use bicord_mac::frames::Payload;
use bicord_metrics::table::{fmt1, TextTable};
use bicord_scenario::dense_city::DenseCityConfig;
use bicord_sim::{SimDuration, SimTime};

/// Roughly one device in seven transmits concurrently — a busy but not
/// saturated block.
const TX_STRIDE: usize = 7;

/// Timed queries per pass on the culled path (after an untimed cache
/// warm-up pass). Large enough that a pass takes ~1 ms even on the
/// smallest world, which keeps timer granularity and frequency-scaling
/// noise out of the flatness denominator.
const QUERIES: usize = 5_000;

/// Timed passes per culled measurement; the minimum is kept.
const PASSES: usize = 5;

/// The un-culled baseline only needs order-of-magnitude contrast, and a
/// 10k-device brute-force query costs ~100 µs — fewer, shorter passes.
const NOCULL_QUERIES: usize = 1_000;
const NOCULL_PASSES: usize = 3;

/// Distinct observers cycled by the timed loop. Fixed across world
/// sizes so the measurement isolates per-query cost: the steady-state
/// cache footprint a given observer set warms is the same whether the
/// world has 100 devices or 10k, and what varies is only what the
/// query itself must gather and evaluate.
const OBSERVERS: usize = 64;

/// A large prime stride so the observer set spreads across grid cells
/// instead of clustering in one apartment.
const OBSERVER_STRIDE: usize = 7_919;

/// Per-query latencies (ns) measured on one populated world.
struct QueryCost {
    sensed_ns: f64,
    interference_ns: f64,
}

/// Builds the block, starts transmissions on every `TX_STRIDE`-th
/// device, and times steady-state queries (`passes` timed passes of
/// `queries` each; minimum kept).
fn measure(config: &DenseCityConfig, queries: usize, passes: usize) -> QueryCost {
    let (mut medium, devices) = config.build_medium();
    let horizon = SimTime::ZERO + SimDuration::from_secs(1);
    let mut tx_ids = Vec::new();
    for d in devices.iter().step_by(TX_STRIDE) {
        tx_ids.push(medium.begin_transmission(
            d.id,
            d.power,
            d.band,
            SimTime::ZERO,
            horizon,
            Payload::Noise,
        ));
    }
    let now = SimTime::from_millis(1);
    let observers: Vec<usize> = (1..=OBSERVERS)
        .map(|k| (k * OBSERVER_STRIDE) % devices.len())
        .collect();

    // Warm-up: one untimed pass over the observer cycle populates the
    // link-budget cache, fading map, and band memo, so the timed loop
    // measures the steady state the simulation actually runs in.
    for q in 0..queries {
        let d = &devices[observers[q % observers.len()]];
        medium.sensed_power(d.id, &d.band, now, None);
    }

    // Min-of-N timed passes: the minimum is the least noisy estimator
    // of steady-state cost under scheduler and frequency jitter.
    let sensed_ns = (0..passes)
        .map(|_| {
            let started = Instant::now();
            for q in 0..queries {
                let d = &devices[observers[q % observers.len()]];
                medium.sensed_power(d.id, &d.band, now, None);
            }
            started.elapsed().as_nanos() as f64 / queries as f64
        })
        .fold(f64::INFINITY, f64::min);

    let signal = tx_ids[tx_ids.len() / 2];
    let interference_ns = (0..passes)
        .map(|_| {
            let started = Instant::now();
            for q in 0..queries {
                let d = &devices[observers[q % observers.len()]];
                medium.interference_against(signal, d.id, &d.band);
            }
            started.elapsed().as_nanos() as f64 / queries as f64
        })
        .fold(f64::INFINITY, f64::min);

    QueryCost {
        sensed_ns,
        interference_ns,
    }
}

fn main() {
    let usage = format!(
        "dense_city_scaling — per-query medium cost against world size\n\n\
         USAGE:\n  dense_city_scaling [--quick|--full] [--threads N] [--out PATH]\n\n{}",
        bicord_bench::cli::OPTIONS
    );
    let cli = BenchCli::parse_or_exit(std::env::args().skip(1), false, &usage);
    cli.apply();
    let sizes: &[u32] = cli
        .scale()
        .pick(&[100, 400, 1_600, 4_900, 10_000], &[100, 400, 1_600]);
    eprintln!(
        "dense_city_scaling: {} world sizes up to {} devices...",
        sizes.len(),
        sizes.last().unwrap()
    );

    let mut perf = PerfRecorder::start("dense_city_scaling", cli.scale());
    let mut table = TextTable::new(vec![
        "devices",
        "sensed ns/q",
        "no-cull ns/q",
        "interference ns/q",
        "run ms",
        "culled %",
    ]);
    table.title("dense_city scaling — per-query cost vs world size");

    // Untimed process warm-up (frequency scaling, lazy page faults,
    // branch predictors) so the first measured size is not penalised.
    let _ = measure(
        &DenseCityConfig::with_device_count(100, bicord_bench::BENCH_SEED),
        QUERIES,
        2,
    );

    let mut first: Option<QueryCost> = None;
    let mut last: Option<QueryCost> = None;
    for &n in sizes {
        let config = DenseCityConfig::with_device_count(n, bicord_bench::BENCH_SEED);
        let devices = config.device_count();

        let culled = measure(&config, QUERIES, PASSES);
        let nocull_config = DenseCityConfig {
            culling: bicord_mac::medium::CullingConfig::default(),
            ..config
        };
        let nocull = measure(&nocull_config, NOCULL_QUERIES, NOCULL_PASSES);

        let started = Instant::now();
        let results = config.run();
        let run_ms = started.elapsed().as_secs_f64() * 1e3;
        let total_seen = results.grid.tx_visited + results.grid.tx_culled;
        let culled_pct = if total_seen > 0 {
            100.0 * results.grid.tx_culled as f64 / total_seen as f64
        } else {
            0.0
        };

        perf.metric(&format!("sensed_ns_{devices}"), culled.sensed_ns);
        perf.metric(&format!("sensed_nocull_ns_{devices}"), nocull.sensed_ns);
        perf.metric(
            &format!("interference_ns_{devices}"),
            culled.interference_ns,
        );
        perf.metric(&format!("run_ms_{devices}"), run_ms);
        table.row(vec![
            devices.to_string(),
            fmt1(culled.sensed_ns),
            fmt1(nocull.sensed_ns),
            fmt1(culled.interference_ns),
            fmt1(run_ms),
            format!("{culled_pct:.1}%"),
        ]);

        if first.is_none() {
            first = Some(QueryCost {
                sensed_ns: culled.sensed_ns,
                interference_ns: culled.interference_ns,
            });
        }
        last = Some(culled);
    }

    let (first, last) = (first.unwrap(), last.unwrap());
    let sensed_flatness = last.sensed_ns / first.sensed_ns;
    let interference_flatness = last.interference_ns / first.interference_ns;
    perf.metric("sensed_flatness", sensed_flatness);
    perf.metric("interference_flatness", interference_flatness);
    perf.cells(sizes.len());
    perf.finish();

    println!("{table}");
    println!(
        "flatness (largest / smallest world): sensed {sensed_flatness:.2}x, \
         interference {interference_flatness:.2}x (target: ~flat, <2x)"
    );
}
