//! Cross-crate integration tests: whole scenarios driven through the
//! umbrella crate's public API.

use bicord::phy::units::Dbm;
use bicord::scenario::config::{Mode, SimConfig};
use bicord::scenario::geometry::Location;
use bicord::scenario::sim::CoexistenceSim;
use bicord::sim::SimDuration;
use bicord::workloads::mobility::{DeviceMobility, PersonMobility};
use bicord::workloads::priority::PrioritySchedule;
use bicord::workloads::traffic::{ArrivalProcess, BurstSpec};

fn run_secs(mut config: SimConfig, secs: u64) -> bicord::scenario::config::RunResults {
    config.duration = SimDuration::from_secs(secs);
    CoexistenceSim::new(config).unwrap().run()
}

#[test]
fn coordination_ladder_holds() {
    // The paper's core ordering: BiCord >= ECC >> unprotected in delivery.
    // Single seeds occasionally draw a lucky unprotected run, so judge the
    // mean over a few seeds.
    let seeds = [301u64, 302, 303, 304, 305, 306];
    let mean_pdr = |make: &dyn Fn(u64) -> SimConfig| {
        let total: f64 = seeds
            .iter()
            .map(|&seed| run_secs(make(seed), 4).zigbee_pdr())
            .sum();
        total / seeds.len() as f64
    };
    let bicord = mean_pdr(&|seed| SimConfig::bicord(Location::A, seed));
    let ecc = mean_pdr(&|seed| SimConfig::ecc(Location::A, seed, SimDuration::from_millis(30)));
    let none = mean_pdr(&|seed| SimConfig::unprotected(Location::A, seed));
    assert!(bicord > 0.7, "BiCord PDR {bicord}");
    assert!(ecc > 0.5, "ECC PDR {ecc}");
    assert!(none < 0.4, "unprotected PDR {none}");
    assert!(bicord >= ecc - 0.05);
    assert!(
        ecc > none + 0.3,
        "ladder collapsed: ECC {ecc} vs none {none}"
    );
}

#[test]
fn bicord_works_at_every_location() {
    for (i, location) in Location::all().into_iter().enumerate() {
        let r = run_secs(SimConfig::bicord(location, 310 + i as u64), 4);
        assert!(
            r.zigbee_pdr() > 0.5,
            "{location}: PDR {} too low",
            r.zigbee_pdr()
        );
        assert!(r.zigbee.signaling_rounds > 0, "{location}: never signaled");
    }
}

#[test]
fn white_space_allocation_converges_to_burst_length() {
    let mut config = SimConfig::bicord(Location::A, 320);
    config.zigbee.burst = BurstSpec {
        n_packets: 10,
        mpdu_bytes: 50,
    };
    config.zigbee.arrivals = ArrivalProcess::Periodic(SimDuration::from_millis(200));
    let r = run_secs(config, 8);
    assert!(r.allocation.converged, "allocator failed to converge");
    // A 10-packet burst lasts ~60 ms; the steady-state white space must be
    // in the same ballpark — not the initial 30 ms step, not the 150 ms
    // cap. The estimate itself oscillates slightly (the opportunistic
    // shrink probes downward), so judge the mean of the last reservations.
    let hist = &r.allocation.white_space_history_ms;
    assert!(hist.len() > 3);
    let tail = &hist[hist.len().saturating_sub(8)..];
    let mean = tail.iter().sum::<f64>() / tail.len() as f64;
    assert!(
        (42.0..=130.0).contains(&mean),
        "steady-state white space {mean} ms (history tail {tail:?})"
    );
}

#[test]
fn priority_schedule_reduces_zigbee_service() {
    // The ZigBee share under refusal wobbles ± a point per seed; the claim
    // is about the mean, so aggregate a few seeds.
    let seeds = [330u64, 331, 332, 333];
    let make = |seed: u64, proportion: f64| {
        let mut config = SimConfig::bicord(Location::A, seed);
        config.duration = SimDuration::from_secs(5);
        let mut rng = bicord::sim::stream_rng(seed, bicord::sim::SeedDomain::Traffic, 9);
        config.priority = Some(PrioritySchedule::with_proportion(
            SimDuration::from_secs(5),
            proportion,
            SimDuration::from_millis(500),
            &mut rng,
        ));
        CoexistenceSim::new(config).unwrap().run()
    };
    let mut none_share = 0.0;
    let mut half_share = 0.0;
    for &seed in &seeds {
        let none = make(seed, 0.0);
        let half = make(seed, 0.5);
        assert_eq!(none.wifi.ignored_requests, 0);
        assert!(
            half.wifi.ignored_requests > 0,
            "high-priority segments must ignore requests (seed {seed})"
        );
        none_share += none.zigbee_utilization;
        half_share += half.zigbee_utilization;
    }
    assert!(
        half_share <= none_share + 0.01 * seeds.len() as f64,
        "ZigBee share should not grow when Wi-Fi refuses service: \
         {half_share} vs {none_share} (summed over {} seeds)",
        seeds.len()
    );
}

#[test]
fn mobility_degrades_gracefully() {
    let seed = 340;
    let base = run_secs(SimConfig::bicord(Location::A, seed), 5);

    let mut person = SimConfig::bicord(Location::A, seed);
    let mut rng = bicord::sim::stream_rng(seed, bicord::sim::SeedDomain::Mobility, 5);
    person.person = Some(PersonMobility::generate(
        SimDuration::from_secs(5),
        SimDuration::from_millis(100),
        &mut rng,
    ));
    let person_r = run_secs(person, 5);

    let mut device = SimConfig::bicord(Location::A, seed);
    device.device_mobility = Some(DeviceMobility::generate(
        Location::A.sender_position(),
        1.0,
        SimDuration::from_secs(5),
        SimDuration::from_millis(250),
        &mut rng,
    ));
    let device_r = run_secs(device, 5);

    // The paper: at most ~9 percentage points of utilization lost; the
    // system keeps working.
    for (label, r) in [("person", &person_r), ("device", &device_r)] {
        assert!(
            r.zigbee_pdr() > 0.4,
            "{label} mobility broke delivery: {}",
            r.zigbee_pdr()
        );
        assert!(
            r.utilization > base.utilization - 0.2,
            "{label} mobility collapsed utilization: {} vs {}",
            r.utilization,
            base.utilization
        );
    }
}

#[test]
fn signaling_trial_mode_is_detection_only() {
    let config = SimConfig::signaling_trial(Location::A, 350, 4, 40, Dbm::new(0.0));
    assert!(matches!(config.mode, Mode::SignalingTrial { .. }));
    let r = CoexistenceSim::new(config).unwrap().run();
    // No data traffic, no reservations — only detection statistics.
    assert_eq!(r.zigbee.generated, 0);
    assert_eq!(r.wifi.reservations, 0);
    assert_eq!(r.detection.tp + r.detection.fn_count, 40);
}

#[test]
fn results_are_reproducible_and_seed_sensitive() {
    let run = |seed| {
        let mut c = SimConfig::bicord(Location::C, seed);
        c.duration = SimDuration::from_secs(3);
        CoexistenceSim::new(c).unwrap().run()
    };
    let a = run(42);
    let b = run(42);
    assert_eq!(a, b, "identical seeds must reproduce bit-identical results");
    let c = run(43);
    assert_ne!(a, c, "different seeds must differ");
}

#[test]
fn utilization_metrics_are_consistent() {
    let r = run_secs(SimConfig::bicord(Location::A, 360), 4);
    assert!(r.utilization <= 1.0);
    assert!(r.zigbee_utilization <= r.utilization + 1e-9);
    assert!(r.wifi_utilization <= r.utilization + 1e-9);
    assert!(
        (r.wifi_utilization + r.zigbee_utilization - r.utilization).abs() < 0.05,
        "wifi + zigbee should approximately compose total utilization"
    );
    assert!(
        r.overhead_fraction < 0.2,
        "overhead {}",
        r.overhead_fraction
    );
    assert_eq!(
        r.zigbee.generated,
        r.zigbee.delivered + r.zigbee.undelivered
    );
}

#[test]
fn ecc_waste_grows_with_sparser_traffic() {
    // The blind-reservation pathology: with rare ZigBee traffic, ECC keeps
    // reserving white spaces nobody uses and utilization drops; BiCord
    // holds steady.
    let seed = 370;
    let at_interval = |scheme_ws: Option<u64>, interval_ms: u64| {
        let mut config = match scheme_ws {
            Some(ws) => SimConfig::ecc(Location::A, seed, SimDuration::from_millis(ws)),
            None => SimConfig::bicord(Location::A, seed),
        };
        config.zigbee.arrivals = ArrivalProcess::Poisson(SimDuration::from_millis(interval_ms));
        run_secs(config, 5).utilization
    };
    let ecc_dense = at_interval(Some(40), 200);
    let ecc_sparse = at_interval(Some(40), 2000);
    assert!(
        ecc_dense > ecc_sparse + 0.05,
        "ECC dense {ecc_dense} vs sparse {ecc_sparse}"
    );
    let bicord_dense = at_interval(None, 200);
    let bicord_sparse = at_interval(None, 2000);
    assert!(
        (bicord_dense - bicord_sparse).abs() < 0.1,
        "BiCord should be flat: dense {bicord_dense} vs sparse {bicord_sparse}"
    );
    assert!(bicord_sparse > ecc_sparse + 0.1);
}

#[test]
fn disjoint_channels_need_no_coordination() {
    // Wi-Fi channel 1 (2.401–2.423 GHz) and ZigBee channel 26 (2.480 GHz)
    // do not overlap: the ZigBee node never loses a packet to Wi-Fi, so
    // it never asks for a white space. Ambient-noise false detections
    // still make the Wi-Fi side reserve now and then, so its
    // reservations are not asserted.
    for seed in [1, 7, 20_210_705] {
        for location in Location::all() {
            let config = SimConfig::builder()
                .seed(seed)
                .location(location)
                .wifi_channel(1)
                .zigbee_channel(26)
                .build()
                .unwrap();
            let z = run_secs(config, 10).zigbee;
            let at = format!("seed {seed}, {location}");
            assert_eq!(z.signaling_rounds, 0, "{at}");
            assert_eq!(z.control_packets, 0, "{at}");
            assert_eq!(z.csma_fallbacks, 0, "{at}");
            assert_eq!(z.delivered, z.generated, "{at}");
        }
    }
}
