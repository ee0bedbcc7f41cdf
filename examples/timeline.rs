//! Render the channel timeline of a BiCord run — the picture the paper
//! draws in Fig. 2/4/5, regenerated from a live simulation.
//!
//! ```text
//! cargo run --example timeline
//! ```

use bicord::prelude::*;
use bicord::scenario::trace::SpanKind;
use bicord::sim::SimTime;

fn main() {
    let mut config = SimConfig::bicord(Location::A, 9);
    config.duration = SimDuration::from_secs(3);
    config.zigbee.burst.n_packets = 8;
    config.zigbee.arrivals = ArrivalProcess::Periodic(SimDuration::from_millis(250));
    config.record_trace = true;

    println!("Running BiCord with tracing for {}...", config.duration);
    // Capture the structured event stream alongside the channel trace.
    let mut sink = VecSink::new();
    let results = CoexistenceSim::with_sink(config, &mut sink)
        .expect("valid config")
        .run();
    let trace = results.trace.as_ref().expect("tracing was enabled");

    // Zoom into a window containing a full coordination round: find the
    // first white space after the allocator has had a burst to learn from.
    let ws = trace
        .spans()
        .iter()
        .filter(|s| s.kind == SpanKind::WhiteSpace)
        .nth(3)
        .expect("at least four reservations");
    let from = ws
        .start
        .saturating_since(SimTime::ZERO + SimDuration::from_millis(30));
    let from = SimTime::ZERO + from;
    let to = ws.end + SimDuration::from_millis(30);

    println!();
    println!("one coordination round (legend: # wifi data, ^ zigbee control,");
    println!("| CTS, _ white space, = zigbee data+ack):");
    println!();
    print!("{}", trace.render(from, to, 100));
    println!();
    println!(
        "full run: {} spans recorded; white-space airtime {} of {}",
        trace.len(),
        trace.airtime(
            SpanKind::WhiteSpace,
            SimTime::ZERO,
            SimTime::ZERO + results.simulated
        ),
        results.simulated,
    );
    println!(
        "utilization {:.1}%, ZigBee PDR {:.1}%, mean delay {:.1} ms",
        results.utilization * 100.0,
        results.zigbee_pdr() * 100.0,
        results.zigbee.mean_delay_ms.unwrap_or(f64::NAN),
    );
    println!(
        "event stream: {} records ({} detections, {} requests, {} reservations, {} estimates)",
        sink.events.len(),
        sink.of_kind("detection").len(),
        sink.of_kind("channel_request").len(),
        sink.of_kind("reservation").len(),
        sink.of_kind("estimate").len(),
    );
}
