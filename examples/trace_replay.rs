//! The paper's trace-driven methodology end to end: record an
//! application's access trace (with timing, preserving burstiness), save
//! it to disk in the text format, reload it, and drive the network
//! simulator by replaying it through the MSI directory engine.
//!
//! Run with: `cargo run --release --example trace_replay`

use mdd_sim::coherence::TraceReplayTraffic;
use mdd_sim::prelude::*;
use mdd_sim::traffic::TraceLog;

fn main() {
    let horizon = 30_000u64;
    let app = AppModel::radix();
    println!(
        "recording {} for {horizon} cycles on 16 processors...",
        app.name
    );
    let log = mdd_sim::coherence::record_app_trace(&app, 16, horizon, 7);
    println!("  {} accesses recorded", log.len());

    // Round-trip through the on-disk format.
    let mut buf = Vec::new();
    log.save(&mut buf).expect("serialize trace");
    println!("  trace serializes to {} bytes", buf.len());
    let loaded = TraceLog::load(std::io::BufReader::new(&buf[..])).expect("parse trace");
    assert_eq!(loaded.events(), log.events());

    // Replay through the full simulator.
    let replay = TraceReplayTraffic::new(loaded, 16, 7);
    let mut cfg = SimConfig::paper_default(
        Scheme::ProgressiveRecovery,
        CoherenceEngine::msi_pattern(),
        4,
        0.0,
    );
    cfg.radix = vec![4, 4];
    cfg.warmup = 0;
    cfg.measure = horizon;
    let mut sim = Simulator::with_traffic(cfg, Box::new(replay)).expect("configurable");
    sim.set_measuring(true);
    sim.run_cycles(horizon);
    let agg = sim.aggregate_stats();
    println!(
        "\nreplay: {} transactions, {} messages, mean latency {:.1} cycles, \
         {} deadlocks",
        agg.transactions_completed,
        agg.messages_consumed,
        agg.msg_latency.mean(),
        agg.deadlocks_detected
    );
    let drained = sim.drain(500_000);
    println!("drained: {drained}");
    assert!(drained);
    assert_eq!(
        agg.deadlocks_detected, 0,
        "application loads never deadlock (Section 4.2.2)"
    );
    println!("\nSame trace + same seed would reproduce this run bit-for-bit.");
}
