//! Exhaustive record-kind round-trip: every `bicord-trace/1` kind the
//! sinks can emit must be consumed by the analyzer's parser.
//!
//! The `sample_events()` match below is **exhaustive over
//! `TraceEvent`** on purpose: adding a new variant to
//! `bicord_sim::obs::TraceEvent` breaks this test's build with a
//! missing-match-arm error right here, and the fix (adding a sample)
//! then fails at runtime with the kind's name until
//! `TraceEvent::KINDS` (and the summarizer's routing) learn the new kind
//! too. Either way, the trace schema cannot grow past the analyzer
//! silently.

use bicord_analyze::trace::TraceFile;
use bicord_sim::obs::{TraceEvent, TraceHeader};

/// One representative sample of every `TraceEvent` variant.
fn sample_events() -> Vec<TraceEvent> {
    // One arm per variant; `match` has no wildcard so this function
    // stops compiling the moment a variant is added or renamed.
    fn sample(prototype: &TraceEvent) -> TraceEvent {
        match *prototype {
            TraceEvent::Dequeue { .. } => TraceEvent::Dequeue {
                t_us: 10,
                kind: "Timer",
            },
            TraceEvent::CsiClassified { .. } => TraceEvent::CsiClassified {
                t_us: 20,
                deviation: 0.25,
                high: true,
            },
            TraceEvent::Detection { .. } => TraceEvent::Detection {
                t_us: 30,
                window_start_us: 25,
                highs: 4,
            },
            TraceEvent::ChannelRequest { .. } => TraceEvent::ChannelRequest { t_us: 40, node: 0 },
            TraceEvent::Reservation { .. } => TraceEvent::Reservation {
                t_us: 50,
                ws_us: 30_000,
            },
            TraceEvent::WhiteSpace { .. } => TraceEvent::WhiteSpace {
                t_us: 60,
                nav_us: 28_000,
            },
            TraceEvent::NRound { .. } => TraceEvent::NRound {
                t_us: 70,
                rounds: 2,
            },
            TraceEvent::Estimate { .. } => TraceEvent::Estimate {
                t_us: 80,
                estimate_us: 42_000,
                rounds: 3,
                phase: "learning",
            },
            TraceEvent::ReEstimate { .. } => TraceEvent::ReEstimate {
                t_us: 90,
                reason: "shrink-probe",
            },
            TraceEvent::BurstComplete { .. } => TraceEvent::BurstComplete {
                t_us: 100,
                node: 1,
                delivered: 5,
                failed: 0,
            },
            TraceEvent::PacketDelivered { .. } => TraceEvent::PacketDelivered {
                t_us: 110,
                node: 1,
                seq: 7,
            },
            TraceEvent::TrialResolved { .. } => TraceEvent::TrialResolved {
                t_us: 120,
                index: 1,
                detected: true,
            },
            TraceEvent::MediumCacheInvalidated { .. } => TraceEvent::MediumCacheInvalidated {
                t_us: 130,
                device: 3,
                dropped: 12,
            },
            TraceEvent::MediumCacheStats { .. } => TraceEvent::MediumCacheStats {
                t_us: 140,
                link_hits: 100,
                link_misses: 10,
                band_hits: 50,
                band_misses: 5,
            },
            TraceEvent::MediumGridStats { .. } => TraceEvent::MediumGridStats {
                t_us: 150,
                queries: 1000,
                cells: 90,
                visited: 400,
                culled: 600,
                out_of_range: 20,
            },
            TraceEvent::FaultControlLost { .. } => {
                TraceEvent::FaultControlLost { t_us: 160, node: 0 }
            }
            TraceEvent::FaultCtsLost { .. } => TraceEvent::FaultCtsLost {
                t_us: 170,
                nav_us: 28_000,
            },
            TraceEvent::FaultPhantomCsi { .. } => TraceEvent::FaultPhantomCsi { t_us: 180 },
            TraceEvent::FaultChurn { .. } => TraceEvent::FaultChurn {
                t_us: 190,
                device: 2,
                dropped: 8,
            },
            TraceEvent::SignalingBackoff { .. } => TraceEvent::SignalingBackoff {
                t_us: 200,
                node: 1,
                failures: 2,
            },
            TraceEvent::CsmaFallback { .. } => TraceEvent::CsmaFallback {
                t_us: 210,
                node: 1,
                failures: 3,
            },
            TraceEvent::LearningAbort { .. } => TraceEvent::LearningAbort {
                t_us: 220,
                rounds: 9,
            },
            TraceEvent::GuardStall { .. } => TraceEvent::GuardStall {
                t_us: 230,
                dequeues: 100_000,
            },
            TraceEvent::GuardLiveness { .. } => TraceEvent::GuardLiveness {
                t_us: 240,
                node: 0,
                started_us: 1,
            },
            TraceEvent::GuardConservation { .. } => TraceEvent::GuardConservation {
                t_us: 250,
                invariant: "airtime_accounting",
                expected: 4,
                actual: 5,
            },
        }
    }
    // Seed the exhaustive constructor with one dummy per known kind by
    // pattern — the prototypes below only select match arms.
    let prototypes = [
        TraceEvent::Dequeue { t_us: 0, kind: "" },
        TraceEvent::CsiClassified {
            t_us: 0,
            deviation: 0.0,
            high: false,
        },
        TraceEvent::Detection {
            t_us: 0,
            window_start_us: 0,
            highs: 0,
        },
        TraceEvent::ChannelRequest { t_us: 0, node: 0 },
        TraceEvent::Reservation { t_us: 0, ws_us: 0 },
        TraceEvent::WhiteSpace { t_us: 0, nav_us: 0 },
        TraceEvent::NRound { t_us: 0, rounds: 0 },
        TraceEvent::Estimate {
            t_us: 0,
            estimate_us: 0,
            rounds: 0,
            phase: "",
        },
        TraceEvent::ReEstimate {
            t_us: 0,
            reason: "",
        },
        TraceEvent::BurstComplete {
            t_us: 0,
            node: 0,
            delivered: 0,
            failed: 0,
        },
        TraceEvent::PacketDelivered {
            t_us: 0,
            node: 0,
            seq: 0,
        },
        TraceEvent::TrialResolved {
            t_us: 0,
            index: 0,
            detected: false,
        },
        TraceEvent::MediumCacheInvalidated {
            t_us: 0,
            device: 0,
            dropped: 0,
        },
        TraceEvent::MediumCacheStats {
            t_us: 0,
            link_hits: 0,
            link_misses: 0,
            band_hits: 0,
            band_misses: 0,
        },
        TraceEvent::MediumGridStats {
            t_us: 0,
            queries: 0,
            cells: 0,
            visited: 0,
            culled: 0,
            out_of_range: 0,
        },
        TraceEvent::FaultControlLost { t_us: 0, node: 0 },
        TraceEvent::FaultCtsLost { t_us: 0, nav_us: 0 },
        TraceEvent::FaultPhantomCsi { t_us: 0 },
        TraceEvent::FaultChurn {
            t_us: 0,
            device: 0,
            dropped: 0,
        },
        TraceEvent::SignalingBackoff {
            t_us: 0,
            node: 0,
            failures: 0,
        },
        TraceEvent::CsmaFallback {
            t_us: 0,
            node: 0,
            failures: 0,
        },
        TraceEvent::LearningAbort { t_us: 0, rounds: 0 },
        TraceEvent::GuardStall {
            t_us: 0,
            dequeues: 0,
        },
        TraceEvent::GuardLiveness {
            t_us: 0,
            node: 0,
            started_us: 0,
        },
        TraceEvent::GuardConservation {
            t_us: 0,
            invariant: "",
            expected: 0,
            actual: 0,
        },
    ];
    prototypes.iter().map(sample).collect()
}

/// Serializes events exactly like `JsonlSink` does (one `write_jsonl`
/// line each) under a real header, and parses the result back.
fn round_trip(events: &[TraceEvent]) -> TraceFile {
    let mut text = TraceHeader::new(7, "bicord", 1_000_000).to_json();
    text.push('\n');
    for event in events {
        let mut line = String::new();
        event.write_jsonl(&mut line);
        text.push_str(&line);
        text.push('\n');
    }
    match TraceFile::parse(&text) {
        Ok(trace) => trace,
        Err(e) => panic!(
            "the analyzer failed to consume a kind the sinks emit: {e}\n\
             (fix TraceEvent::KINDS and the summarizer routing)"
        ),
    }
}

#[test]
fn every_emitted_kind_parses_back() {
    let events = sample_events();
    let trace = round_trip(&events);
    assert_eq!(trace.records.len(), events.len());
    for (event, record) in events.iter().zip(&trace.records) {
        assert_eq!(record.kind, event.kind(), "kind label drifted");
        assert_eq!(record.t_us, event.time_us(), "timestamp drifted");
    }
}

#[test]
fn sample_set_covers_known_kinds_exactly() {
    // The analyzer's closed world and the emitters' variant set must be
    // the same set, in the same taxonomy order.
    let emitted: Vec<&str> = sample_events().iter().map(|e| e.kind()).collect();
    assert_eq!(
        emitted,
        TraceEvent::KINDS,
        "TraceEvent variants and TraceEvent::KINDS diverged"
    );
}

#[test]
fn every_kind_lands_in_a_summarizer_population() {
    let trace = round_trip(&sample_events());
    let populated: Vec<&str> = trace.populations().iter().map(|(k, _)| *k).collect();
    assert_eq!(
        populated,
        TraceEvent::KINDS,
        "a parsed kind vanished from the population report"
    );
}
