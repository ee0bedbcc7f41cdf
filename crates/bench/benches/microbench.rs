//! Criterion micro-benchmarks of BiCord's hot paths: the CSI detector,
//! the white-space estimator, feature extraction, the decision tree,
//! k-means fingerprinting, the discrete-event queue, and RSSI trace
//! generation (allocating vs buffer-reusing).

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use bicord_core::allocation::{AllocatorConfig, WhiteSpaceAllocator};
use bicord_core::cti::{classify, extract_features, KMeans, KMeansConfig};
use bicord_core::signaling::{CsiDetector, DetectorConfig};
use bicord_mac::frames::{DeviceId, Payload};
use bicord_mac::medium::{ChannelConfig, Medium};
use bicord_phy::csi::{CsiModel, CsiSample, Disturbance};
use bicord_phy::interferers::{
    generate_trace, generate_trace_into, RssiTrace, TraceConfig, TraceScratch, TRACE_DURATION,
};
use bicord_phy::spectrum::{WifiChannel, ZigbeeChannel};
use bicord_phy::units::Dbm;
use bicord_sim::event::EventQueue;
use bicord_sim::obs::NoopSink;
use bicord_sim::{stream_rng, SeedDomain, SimTime};

fn bench_csi_detector(c: &mut Criterion) {
    let model = CsiModel::intel5300();
    let mut rng = stream_rng(1, SeedDomain::Csi, 50);
    // A realistic mixed stream: mostly quiet, some ZigBee overlap.
    let samples: Vec<CsiSample> = (0..10_000u64)
        .map(|i| {
            let disturbance = if i % 40 < 8 {
                Disturbance::Zigbee { sir_db: -14.0 }
            } else {
                Disturbance::None
            };
            model.sample(&mut rng, SimTime::from_micros(i * 500), disturbance)
        })
        .collect();
    c.bench_function("csi_detector_10k_samples", |b| {
        b.iter(|| {
            let mut det = CsiDetector::new(DetectorConfig::default(), model);
            let mut hits = 0u32;
            for s in &samples {
                if det.push(black_box(*s)).is_some() {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
}

fn bench_allocator(c: &mut Criterion) {
    c.bench_function("white_space_allocator_100_bursts", |b| {
        b.iter(|| {
            let mut alloc = WhiteSpaceAllocator::new(AllocatorConfig::default());
            let mut now = SimTime::from_millis(1);
            for _ in 0..100 {
                for _ in 0..3 {
                    let ws = alloc.on_request(now, &mut NoopSink);
                    now += ws;
                }
                now += bicord_sim::SimDuration::from_millis(25);
                alloc.on_burst_end(now, &mut NoopSink);
                now += bicord_sim::SimDuration::from_millis(200);
            }
            black_box(alloc.estimate())
        })
    });
}

fn bench_feature_extraction(c: &mut Criterion) {
    let mut rng = stream_rng(2, SeedDomain::Interferers, 60);
    let trace = generate_trace(&mut rng, &TraceConfig::wifi(-40.0), TRACE_DURATION);
    c.bench_function("rssi_feature_extraction", |b| {
        b.iter(|| black_box(extract_features(black_box(&trace), -80.0, -95.0)))
    });
    let features = extract_features(&trace, -80.0, -95.0);
    c.bench_function("decision_tree_classify", |b| {
        b.iter(|| black_box(classify(black_box(&features))))
    });
}

fn bench_kmeans(c: &mut Criterion) {
    let mut rng = stream_rng(3, SeedDomain::Interferers, 61);
    let mut data = Vec::new();
    for &p in &[-26.0, -34.3, -41.0] {
        for _ in 0..60 {
            let t = generate_trace(&mut rng, &TraceConfig::wifi(p), TRACE_DURATION);
            data.push(extract_features(&t, -80.0, -95.0).fingerprint().to_vec());
        }
    }
    c.bench_function("kmeans_fit_180_fingerprints", |b| {
        b.iter(|| {
            black_box(KMeans::fit(
                black_box(&data),
                KMeansConfig {
                    k: 3,
                    iterations: 25,
                    seed: 7,
                    ..KMeansConfig::default()
                },
            ))
        })
    });
    let model = KMeans::fit(
        &data,
        KMeansConfig {
            k: 3,
            iterations: 25,
            seed: 7,
            ..KMeansConfig::default()
        },
    );
    let point = data[0].clone();
    c.bench_function("kmeans_assign", |b| {
        b.iter(|| black_box(model.assign(black_box(&point))))
    });
}

fn bench_event_queue(c: &mut Criterion) {
    // The DES hot loop at a realistic backlog: 10k pending events, each
    // iteration pops the head and pushes a replacement.
    const PENDING: u64 = 10_000;
    c.bench_function("event_queue_push_pop_10k_pending", |b| {
        let mut queue = EventQueue::with_capacity(PENDING as usize + 1);
        for i in 0..PENDING {
            queue.push(SimTime::from_micros(i * 7), i);
        }
        let mut next = PENDING;
        b.iter(|| {
            let (time, event) = queue.pop().expect("queue is never drained");
            queue.push(time + bicord_sim::SimDuration::from_micros(70_000), next);
            next += 1;
            black_box(event)
        })
    });
    c.bench_function("event_queue_fill_drain_10k", |b| {
        b.iter(|| {
            let mut queue = EventQueue::with_capacity(PENDING as usize);
            for i in 0..PENDING {
                queue.push(SimTime::from_micros((i * 37) % 100_000), i);
            }
            let mut popped = 0u64;
            while queue.pop().is_some() {
                popped += 1;
            }
            black_box(popped)
        })
    });
}

fn bench_generate_trace(c: &mut Criterion) {
    let config = TraceConfig::wifi(-40.0);
    c.bench_function("generate_trace_alloc", |b| {
        let mut rng = stream_rng(4, SeedDomain::Interferers, 70);
        b.iter(|| black_box(generate_trace(&mut rng, &config, TRACE_DURATION)))
    });
    c.bench_function("generate_trace_into_reuse", |b| {
        let mut rng = stream_rng(4, SeedDomain::Interferers, 70);
        let mut scratch = TraceScratch::default();
        let mut trace = RssiTrace {
            sample_period: bicord_sim::SimDuration::from_micros(25),
            samples: Vec::new(),
        };
        b.iter(|| {
            generate_trace_into(&mut rng, &config, TRACE_DURATION, &mut scratch, &mut trace);
            black_box(trace.samples.len())
        })
    });
}

/// The innermost DES loop: every CCA poll and reception decision funnels
/// into `Medium::sensed_power` / `Medium::interference_against`. The
/// fixture mirrors a dense multi-node cell — 10 devices, 8 concurrent
/// transmissions on mixed Wi-Fi/ZigBee bands — and queries with warm
/// fading caches, which is the steady state the simulation spends its
/// time in.
fn bench_medium_queries(c: &mut Criterion) {
    use bicord_sim::SimTime;

    let wifi_band = WifiChannel::new(11).unwrap().band();
    let zigbee_band = ZigbeeChannel::new(24).unwrap().band();
    let mut medium = Medium::new(ChannelConfig::default(), 97);
    for d in 0..10u32 {
        medium.add_device(
            DeviceId::new(d),
            bicord_phy::geometry::Point::new(f64::from(d) * 1.5, f64::from(d % 3)),
        );
    }
    // 8 concurrent transmissions: devices 1..=8, alternating bands.
    let now = SimTime::from_micros(500);
    let mut signal = None;
    for d in 1..=8u32 {
        let band = if d % 2 == 0 { wifi_band } else { zigbee_band };
        let id = medium.begin_transmission(
            DeviceId::new(d),
            Dbm::new(10.0),
            band,
            SimTime::ZERO,
            SimTime::from_millis(2),
            Payload::Noise,
        );
        signal.get_or_insert(id);
    }
    let signal = signal.expect("at least one transmission");
    let observer = DeviceId::new(0);
    // Warm the lazy fading/shadowing draws so the benches measure the
    // steady-state query path, not first-touch RNG sampling.
    black_box(medium.sensed_power(observer, &zigbee_band, now, None));
    black_box(medium.interference_against(signal, observer, &zigbee_band));

    c.bench_function("medium_sensed_power_8tx", |b| {
        b.iter(|| {
            black_box(medium.sensed_power(
                black_box(observer),
                black_box(&zigbee_band),
                black_box(now),
                None,
            ))
        })
    });
    c.bench_function("medium_interference_8tx", |b| {
        b.iter(|| {
            black_box(medium.interference_against(
                black_box(signal),
                black_box(observer),
                black_box(&zigbee_band),
            ))
        })
    });

    // End cost under a dense medium: 2,048 live transmissions from 64
    // devices, each with a warmed fading draw at the device 8 slots on.
    // An iteration ends the oldest transmission and begins (and warms)
    // its replacement, so the population stays steady.
    let mut dense = Medium::new(ChannelConfig::default(), 98);
    for d in 0..64u32 {
        dense.add_device(
            DeviceId::new(d),
            bicord_phy::geometry::Point::new(f64::from(d % 8) * 2.0, f64::from(d / 8) * 2.0),
        );
    }
    let mut next = 0u32;
    let mut begin = |m: &mut Medium| {
        let source = next % 64;
        next += 1;
        let id = m.begin_transmission(
            DeviceId::new(source),
            Dbm::new(10.0),
            wifi_band,
            SimTime::ZERO,
            SimTime::from_millis(2),
            Payload::Noise,
        );
        black_box(m.received_power(id, DeviceId::new((source + 8) % 64)));
        id
    };
    let mut live: std::collections::VecDeque<_> = (0..2_048).map(|_| begin(&mut dense)).collect();
    c.bench_function("medium_end_transmission_dense", |b| {
        b.iter(|| {
            let oldest = live.pop_front().expect("steady population");
            black_box(dense.end_transmission(black_box(oldest)));
            live.push_back(begin(&mut dense));
        })
    });
}

/// The observability layer's zero-cost claim: pushing CSI samples through
/// the sink-generic `push_obs` with a [`NoopSink`] must cost the same as
/// the plain `push` path (both monomorphize to no emission), while a
/// recording [`VecSink`] shows the price of actually keeping records.
fn bench_sink_overhead(c: &mut Criterion) {
    use bicord_sim::obs::{NoopSink, VecSink};

    let model = CsiModel::intel5300();
    let mut rng = stream_rng(1, SeedDomain::Csi, 51);
    let samples: Vec<CsiSample> = (0..10_000u64)
        .map(|i| {
            let disturbance = if i % 40 < 8 {
                Disturbance::Zigbee { sir_db: -14.0 }
            } else {
                Disturbance::None
            };
            model.sample(&mut rng, SimTime::from_micros(i * 500), disturbance)
        })
        .collect();

    c.bench_function("csi_detector_10k_samples_noop_sink", |b| {
        b.iter(|| {
            let mut det = CsiDetector::new(DetectorConfig::default(), model);
            let mut sink = NoopSink;
            let mut hits = 0u32;
            for s in &samples {
                if det.push_obs(black_box(*s), &mut sink).is_some() {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    c.bench_function("csi_detector_10k_samples_vec_sink", |b| {
        b.iter(|| {
            let mut det = CsiDetector::new(DetectorConfig::default(), model);
            let mut sink = VecSink::new();
            let mut hits = 0u32;
            for s in &samples {
                if det.push_obs(black_box(*s), &mut sink).is_some() {
                    hits += 1;
                }
            }
            black_box((hits, sink.events.len()))
        })
    });
}

criterion_group!(
    benches,
    bench_csi_detector,
    bench_allocator,
    bench_feature_extraction,
    bench_kmeans,
    bench_event_queue,
    bench_generate_trace,
    bench_medium_queries,
    bench_sink_overhead
);
criterion_main!(benches);
