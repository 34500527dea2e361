//! End-to-end checks of the observability layer: a configuration known
//! to deadlock must leave a coherent story in the counters and the event
//! trace — detections precede recoveries, and every completed episode's
//! `RecoveryStart`/`RecoveryEnd` events pair by episode number and agree
//! on the rescued message.
//!
//! The mdd-obs layer is process-global, so everything runs inside one
//! `#[test]` (the other integration-test binaries are separate processes
//! and cannot interfere).

use mdd_sim::obs::{self, sink, Event, Json};
use mdd_sim::prelude::*;
use std::collections::HashMap;

fn deadlocking_config() -> SimConfig {
    // The same shape core's episode-log test uses: a small torus driven
    // far past saturation deadlocks quickly and recovers repeatedly.
    let mut cfg = SimConfig::small_test(Scheme::ProgressiveRecovery, PatternSpec::pat271(), 4, 0.8);
    cfg.warmup = 0;
    cfg.measure = 8_000;
    cfg
}

#[test]
fn deadlocking_run_traces_detection_and_paired_recovery() {
    // Without an installed layer, runs carry no report and sites are
    // inert.
    let r = Simulator::new(deadlocking_config()).unwrap().run();
    assert!(r.obs.is_none(), "no obs layer installed yet");
    assert!(obs::trace_snapshot().is_none());

    obs::install(1 << 20);
    let r = Simulator::new(deadlocking_config()).unwrap().run();
    let report = r.obs.as_ref().expect("installed layer yields a report");

    // The run deadlocked and the counters saw it (the obs counters
    // ignore the measurement window, so they are at least the windowed
    // SimResult numbers).
    assert!(r.deadlocks > 0, "config must deadlock: {r:?}");
    assert!(report.get(CounterId::DeadlocksDetected) >= r.deadlocks);
    assert!(report.get(CounterId::DeadlocksRecovered) > 0);
    assert!(report.get(CounterId::TokenHops) > 0);
    assert!(report.get(CounterId::MsgsInjected) > 0);
    assert!(report.get(CounterId::MsgsConsumed) > 0);
    assert!(report.get(CounterId::FlitsRouted) > 0);
    assert!(
        report.get(CounterId::VcStalls) > 0,
        "saturated networks stall"
    );
    assert_eq!(
        report.events_dropped, 0,
        "capacity chosen to keep everything"
    );

    let (events, recorded, _) = obs::trace_snapshot().unwrap();
    assert_eq!(recorded, report.events_recorded);

    // Cycle stamps are non-decreasing (events are recorded in simulation
    // order within this single-threaded run).
    for w in events.windows(2) {
        assert!(w[0].cycle() <= w[1].cycle());
    }

    // The first detection precedes the first recovery (true on this
    // pinned config because the NIC detector fires before the token's
    // first router-side timeout capture — router captures in general
    // need no preceding DeadlockDetected event), and every
    // RecoveryEnd pairs with the RecoveryStart of the same episode and
    // message. Trailing unmatched starts (episode still active at the
    // horizon) are allowed; ends without starts are not.
    let first_detect = events
        .iter()
        .position(|e| matches!(e, Event::DeadlockDetected { .. }))
        .expect("deadlocks were detected");
    let first_recovery = events
        .iter()
        .position(|e| matches!(e, Event::RecoveryStart { .. }))
        .expect("recoveries happened");
    assert!(first_detect < first_recovery, "detection precedes recovery");

    let mut starts: HashMap<u64, (u64, u64)> = HashMap::new(); // episode -> (msg, cycle)
    let mut pairs = 0u64;
    for e in &events {
        match *e {
            Event::RecoveryStart {
                cycle,
                episode,
                msg,
                ..
            } => {
                let prev = starts.insert(episode, (msg, cycle));
                assert!(prev.is_none(), "episode {episode} started twice");
            }
            Event::RecoveryEnd {
                cycle,
                episode,
                msg,
                ..
            } => {
                let (start_msg, start_cycle) = starts
                    .remove(&episode)
                    .unwrap_or_else(|| panic!("episode {episode} ended without starting"));
                assert_eq!(
                    start_msg, msg,
                    "episode {episode} changed its rescued message"
                );
                assert!(start_cycle <= cycle);
                pairs += 1;
            }
            _ => {}
        }
    }
    assert_eq!(pairs, report.get(CounterId::DeadlocksRecovered));
    assert!(
        starts.len() <= 1,
        "at most the final episode may be unfinished: {starts:?}"
    );

    // The trace round-trips through the JSON Lines sink.
    let mut jsonl = Vec::new();
    sink::write_trace_jsonl(&mut jsonl, &events).unwrap();
    let parsed = sink::parse_trace_jsonl(std::str::from_utf8(&jsonl).unwrap()).unwrap();
    assert_eq!(parsed, events);

    // The bytes `--counters-out` writes parse as one object that leads
    // with the artifact schema header and carries every counter.
    let mut buf = Vec::new();
    sink::write_counters_json(&mut buf, &obs::counters_snapshot()).unwrap();
    let text = String::from_utf8(buf).unwrap();
    let Some(Json::Obj(members)) = Json::parse(&text) else {
        panic!("counters file is not one JSON object: {text}");
    };
    assert_eq!(
        members[0],
        ("schema".to_string(), Json::from("mdd-artifact/1"))
    );
    assert_eq!(members.len(), 1 + obs::NUM_COUNTERS);
    let hops = members
        .iter()
        .find(|(k, _)| k == "token_hops")
        .map(|(_, v)| v);
    assert_eq!(
        hops.and_then(Json::as_u64),
        Some(report.get(CounterId::TokenHops))
    );

    // Tear-down returns the layer to its inert state.
    obs::uninstall().expect("was installed");
    assert!(!obs::enabled());
    let r = Simulator::new(deadlocking_config()).unwrap().run();
    assert!(r.obs.is_none());
}
