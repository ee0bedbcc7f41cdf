//! Quickstart: run BiCord in the paper's office scenario and print what
//! happened.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use bicord::prelude::*;

fn main() {
    // A saturated Wi-Fi link (100 B frames at 1 Mb/s) and a ZigBee node at
    // location A sending bursts of five 50 B packets every ~200 ms.
    let config = SimConfig::bicord(Location::A, 42);

    println!("Running BiCord for {} of virtual time...", config.duration);
    let results = CoexistenceSim::new(config).unwrap().run();

    println!();
    println!("=== BiCord quickstart ===");
    println!("events processed          {}", results.events);
    println!(
        "channel utilization       {:.1}%  (Wi-Fi {:.1}%, ZigBee {:.1}%, overhead {:.1}%)",
        results.utilization * 100.0,
        results.wifi_utilization * 100.0,
        results.zigbee_utilization * 100.0,
        results.overhead_fraction * 100.0,
    );
    println!(
        "ZigBee delivery           {}/{} packets ({:.1}% PDR)",
        results.zigbee.delivered,
        results.zigbee.generated,
        results.zigbee_pdr() * 100.0,
    );
    if let Some(delay) = results.zigbee.mean_delay_ms {
        println!(
            "ZigBee delay              mean {delay:.1} ms, p95 {:.1} ms",
            results.zigbee.p95_delay_ms.unwrap_or(f64::NAN),
        );
    }
    println!(
        "ZigBee throughput         {:.1} kb/s",
        results.zigbee.throughput_kbps
    );
    println!(
        "signaling                 {} rounds, {} control packets",
        results.zigbee.signaling_rounds, results.zigbee.control_packets,
    );
    println!(
        "Wi-Fi white spaces        {} reservations, final estimate {:.1} ms (converged: {})",
        results.wifi.reservations,
        results.allocation.final_estimate_ms,
        results.allocation.converged,
    );
}
