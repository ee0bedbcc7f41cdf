//! A timed replay of the dense-city run loop.
//!
//! [`replay`] repeats `DenseCityConfig::run`'s CCA-then-transmit loop
//! through the same public calls, in the same order and with the same
//! per-device RNG streams, and charges each call's host time to its
//! layer. Its results must equal `run()` field for field; the benchmark
//! counts a cell as failed when they do not.

use std::time::Instant;

use bicord_mac::frames::Payload;
use bicord_mac::medium::TxId;
use bicord_scenario::dense_city::{DenseCityConfig, DenseCityResults};
use bicord_sim::dist::exponential_duration;
use bicord_sim::event::EventQueue;
use bicord_sim::{stream_rng, SeedDomain, SimTime};

use crate::clock::{CallStat, Lap};

/// Host time per call of one replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayProfile {
    /// `Medium::sensed_power`.
    pub sensed_power: CallStat,
    /// `Medium::begin_transmission`.
    pub begin_transmission: CallStat,
    /// `Medium::end_transmission`.
    pub end_transmission: CallStat,
    /// `EventQueue::push`.
    pub push: CallStat,
    /// `EventQueue::pop`.
    pub pop: CallStat,
    /// `dist::exponential_duration`.
    pub exponential_duration: CallStat,
    /// Dispatched arrivals, charged like the protocol runtime's events:
    /// from the pop that yielded one to the pop that yields the next.
    pub arrival: CallStat,
    /// Dispatched transmission ends, charged the same way.
    pub tx_end: CallStat,
    /// Host time of the whole loop, from the first RNG draw to the last
    /// pop.
    pub wall_ns: u64,
}

impl ReplayProfile {
    /// The per-call layer statistics, named `crate.module.call`.
    pub fn calls(&self) -> [(&'static str, CallStat); 6] {
        [
            ("mac.medium.sensed_power", self.sensed_power),
            ("mac.medium.begin_transmission", self.begin_transmission),
            ("mac.medium.end_transmission", self.end_transmission),
            ("sim.event_queue.push", self.push),
            ("sim.event_queue.pop", self.pop),
            ("sim.dist.exponential_duration", self.exponential_duration),
        ]
    }

    /// Host time charged to timed calls.
    pub fn timed_ns(&self) -> u64 {
        self.calls().iter().map(|(_, s)| s.ns).sum()
    }
}

#[derive(Clone, Copy)]
enum Event {
    Arrival(u32),
    TxEnd(TxId),
}

/// Runs `config`'s dense-city loop with every layer call timed.
///
/// # Panics
///
/// Panics where `DenseCityConfig::run` does: an empty block or a zero
/// duration.
pub fn replay(config: &DenseCityConfig) -> (DenseCityResults, ReplayProfile) {
    assert!(config.device_count() > 0, "dense_city block has no devices");
    let (mut medium, devices) = config.build_medium();
    let end_at = SimTime::ZERO + config.duration;
    let mut p = ReplayProfile::default();

    let mut rngs: Vec<_> = (0..devices.len())
        .map(|i| stream_rng(config.seed, SeedDomain::Aux, i as u64))
        .collect();
    let mut queue: EventQueue<Event> = EventQueue::with_capacity(devices.len() * 2);
    let start = Instant::now();
    let mut lap = Lap::start();
    for (i, d) in devices.iter().enumerate() {
        let gap = exponential_duration(&mut rngs[i], d.mean_interval);
        lap.split(&mut p.exponential_duration);
        queue.push(SimTime::ZERO + gap, Event::Arrival(i as u32));
        lap.split(&mut p.push);
    }

    let mut results = DenseCityResults {
        devices: devices.len() as u32,
        attempts: 0,
        deferrals: 0,
        transmissions: 0,
        mean_sensed_dbm: 0.0,
        grid: Default::default(),
        cache: Default::default(),
        simulated: config.duration,
    };
    let mut sensed_sum_dbm = 0.0f64;
    // The event being handled, and the time charged to it since its pop.
    let mut current: Option<Event> = None;
    let mut event_ns = 0u64;

    loop {
        let popped = queue.pop();
        event_ns += lap.split(&mut p.pop);
        match current {
            Some(Event::Arrival(_)) => p.arrival.add(event_ns),
            Some(Event::TxEnd(_)) => p.tx_end.add(event_ns),
            None => {}
        }
        event_ns = 0;
        let Some((now, event)) = popped else { break };
        current = Some(event);
        match event {
            Event::Arrival(idx) => {
                if now >= end_at {
                    continue;
                }
                let d = &devices[idx as usize];
                results.attempts += 1;
                let sensed = medium.sensed_power(d.id, &d.band, now, None);
                event_ns += lap.split(&mut p.sensed_power);
                sensed_sum_dbm += sensed.to_dbm().value();
                if sensed.to_dbm() >= d.busy {
                    results.deferrals += 1;
                    let backoff = exponential_duration(&mut rngs[idx as usize], d.airtime / 2);
                    event_ns += lap.split(&mut p.exponential_duration);
                    queue.push(now + backoff, Event::Arrival(idx));
                    event_ns += lap.split(&mut p.push);
                } else {
                    let tx = medium.begin_transmission(
                        d.id,
                        d.power,
                        d.band,
                        now,
                        now + d.airtime,
                        Payload::Noise,
                    );
                    event_ns += lap.split(&mut p.begin_transmission);
                    results.transmissions += 1;
                    queue.push(now + d.airtime, Event::TxEnd(tx));
                    event_ns += lap.split(&mut p.push);
                    let next = exponential_duration(&mut rngs[idx as usize], d.mean_interval);
                    event_ns += lap.split(&mut p.exponential_duration);
                    queue.push(now + d.airtime + next, Event::Arrival(idx));
                    event_ns += lap.split(&mut p.push);
                }
            }
            Event::TxEnd(tx) => {
                medium.end_transmission(tx);
                event_ns += lap.split(&mut p.end_transmission);
            }
        }
    }
    p.wall_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);

    results.mean_sensed_dbm = if results.attempts > 0 {
        sensed_sum_dbm / results.attempts as f64
    } else {
        0.0
    };
    results.grid = medium.grid_stats();
    results.cache = medium.cache_stats();
    (results, p)
}
