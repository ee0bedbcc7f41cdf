//! Byte-identity pins for the simulator paths the goldens and benchmark
//! digests do not reach: unprotected CSMA, the signaling trial, ECC with
//! lost notifications, the second Wi-Fi station (with faults), paced
//! Wi-Fi traffic under a priority schedule, and a Bluetooth interferer.
//!
//! Each case is one short run. Its fingerprint is the FNV-1a hash of the
//! `Debug` rendering of the [`RunResults`], the FNV-1a hash of the JSONL
//! trace body (every record, dequeues included, one line each) and the
//! dispatched event count. A refactor that claims "same bytes out" must
//! leave every pin unchanged; a behaviour change updates the pin in the
//! same commit and says which field moved.

use bicord::ctc::ecc::EccConfig;
use bicord::phy::units::Dbm;
use bicord::scenario::config::{BluetoothConfig, ExtraNodeConfig, Mode, RunResults, SimConfig};
use bicord::scenario::geometry::Location;
use bicord::scenario::sim::CoexistenceSim;
use bicord::sim::obs::{TraceEvent, VecSink};
use bicord::sim::{stream_rng, SeedDomain, SimDuration};
use bicord::sweep::contract::fnv1a;
use bicord::sweep::registry::coexist_config;
use bicord::sweep::{ScenarioRegistry, SweepSpec};
use bicord::workloads::priority::PrioritySchedule;
use bicord::workloads::traffic::ArrivalProcess;

/// One pinned run: `(results_hash, trace_hash, events)`.
type Pin = (u64, u64, u64);

fn fingerprint(config: SimConfig) -> (Pin, RunResults, VecSink) {
    let mut sink = VecSink::new();
    let results = CoexistenceSim::with_sink(config, &mut sink)
        .expect("valid fingerprint config")
        .run();
    let mut body = String::new();
    for event in &sink.events {
        event.write_jsonl(&mut body);
        body.push('\n');
    }
    let pin = (
        fnv1a(format!("{results:?}").as_bytes()),
        fnv1a(body.as_bytes()),
        results.events,
    );
    (pin, results, sink)
}

/// Runs `config`, asserts its fingerprint, and hands back the results and
/// records so the case can show it reached the path it pins.
fn check(name: &str, config: SimConfig, expected: Pin) -> (RunResults, VecSink) {
    assert!(
        config.duration <= SimDuration::from_secs(3),
        "{name}: fingerprint runs stay short"
    );
    let (pin, results, sink) = fingerprint(config);
    assert_eq!(
        pin, expected,
        "{name}: fingerprint drifted; actual (0x{:016x}, 0x{:016x}, {})",
        pin.0, pin.1, pin.2
    );
    (results, sink)
}

fn three_seconds(mut config: SimConfig) -> SimConfig {
    config.duration = SimDuration::from_secs(3);
    config
}

/// Paced Wi-Fi frames under a 30 % high-priority schedule (the Fig. 13
/// setup, shortened).
fn paced_priority(mut config: SimConfig, seed: u64) -> SimConfig {
    config.duration = SimDuration::from_secs(3);
    config.zigbee.arrivals = ArrivalProcess::Poisson(SimDuration::from_millis(200));
    config.wifi.enqueue_interval = Some(SimDuration::from_micros(1_600));
    let mut rng = stream_rng(seed, SeedDomain::Traffic, 77);
    config.priority = Some(PrioritySchedule::with_proportion(
        config.duration,
        0.3,
        SimDuration::from_millis(500),
        &mut rng,
    ));
    config
}

#[test]
fn unprotected_two_nodes() {
    let mut config = three_seconds(SimConfig::unprotected(Location::A, 31));
    config.extra_nodes.push(ExtraNodeConfig::at(Location::C));
    let (r, _) = check(
        "unprotected_two_nodes",
        config,
        (0x159138f7c85843f4, 0x226b00c4291d639b, 10171),
    );
    assert!(r
        .per_node
        .iter()
        .all(|n| n.generated > 0 && n.delivered > 0));
}

#[test]
fn signaling_trial() {
    let config = SimConfig::signaling_trial(Location::A, 32, 4, 25, Dbm::new(0.0));
    let (r, _) = check(
        "signaling_trial",
        config,
        (0xafa3e048df0ba061, 0x5f30d883c6c8e23a, 6489),
    );
    assert_eq!(r.detection.tp + r.detection.fn_count, 25);
}

#[test]
fn ecc_with_lost_notifications() {
    let mut config = three_seconds(SimConfig::bicord(Location::A, 33));
    config.mode = Mode::Ecc(EccConfig {
        notification_loss: 0.3,
        ..EccConfig::with_white_space(SimDuration::from_millis(30))
    });
    let (r, _) = check(
        "ecc_with_lost_notifications",
        config,
        (0x35b162731bb2e772, 0x784121a86eea6505, 6102),
    );
    assert!(r.wifi.reservations > 0 && r.zigbee.delivered > 0);
}

#[test]
fn second_wifi_station_with_faults() {
    // The robustness sweep's rate-0.2 cell: CTS loss and phantom CSI at
    // 0.2 × 0.5 and 0.2 × 0.1, written as the products' shortest forms.
    let spec = SweepSpec::parse(
        r#"{"scenario": "coexist", "seed": 34, "params": {"extra_wifi": true, "seconds": 3,
            "fault_profile": "control-loss=0.2,cts-loss=0.1,csi-fp=0.020000000000000004"}}"#,
    );
    let cell = ScenarioRegistry::builtin()
        .resolve(&spec.unwrap())
        .unwrap()
        .expand()
        .remove(0);
    let config = coexist_config(&cell).unwrap();
    assert!(config.extra_wifi.is_some());
    assert_eq!(config.fault.csi_false_positive, 0.2 * 0.1);
    let (r, sink) = check(
        "second_wifi_station_with_faults",
        config,
        (0xf650adecc279d19a, 0xb20325156eaf179d, 7239),
    );
    assert!(r.wifi.reservations > 0);
    // `frames_sent` counts both stations, like `frames_received`.
    assert!(r.wifi.frames_received <= r.wifi.frames_sent);
    assert!(!sink.of_kind("fault_cts_lost").is_empty());
}

#[test]
fn bicord_paced_wifi_under_priority() {
    let config = paced_priority(SimConfig::bicord(Location::A, 35), 35);
    let (r, _) = check(
        "bicord_paced_wifi_under_priority",
        config,
        (0x8de0f58740457557, 0x3f60909e40d3adef, 8278),
    );
    assert!(r.wifi.mean_delay_ms.is_some() && r.wifi.ignored_requests > 0);
}

#[test]
fn ecc_paced_wifi_under_priority() {
    let config = paced_priority(
        SimConfig::ecc(Location::A, 36, SimDuration::from_millis(20)),
        36,
    );
    let (r, _) = check(
        "ecc_paced_wifi_under_priority",
        config,
        (0xfbe4ca3f2ce9abf9, 0x80bd38709d753ab2, 7885),
    );
    assert!(r.wifi.mean_delay_ms.is_some() && r.wifi.reservations > 0);
}

#[test]
fn bicord_with_bluetooth() {
    let mut config = three_seconds(SimConfig::bicord(Location::A, 37));
    config.bluetooth = Some(BluetoothConfig::default());
    let (_, sink) = check(
        "bicord_with_bluetooth",
        config,
        (0x0263f9b18b5a2656, 0x96f4f6993abb7f8f, 10802),
    );
    assert!(sink.events.iter().any(|e| matches!(
        e,
        TraceEvent::Dequeue {
            kind: "bluetooth_slot",
            ..
        }
    )));
}
