//! Anatomy of a message-dependent deadlock: overdrive a tiny 2x2 torus
//! running PR (fully shared resources), watch the endpoint detectors fire,
//! the token get captured, and the Extended Disha Sequential rescue
//! resolve the situation — then confirm the system drains completely.
//!
//! Run with: `cargo run --release --example deadlock_anatomy`

use mdd_sim::prelude::*;

fn main() {
    // Two VCs (deliberately scarce) at load 1.5 on a 2x2 torus.
    let mut cfg =
        SimConfig::paper_default(Scheme::ProgressiveRecovery, PatternSpec::pat271(), 2, 1.5);
    cfg.radix = vec![2, 2];
    cfg.queue_capacity = 4; // tiny queues make coupling immediate
    cfg.service_time = 20;
    cfg.warmup = 0;
    cfg.measure = 0;

    let mut sim = Simulator::new(cfg).expect("PR is always configurable");
    sim.set_measuring(true);
    println!("2x2 torus, 2 VCs, 4-message queues, PAT271 at 1.5 flits/node/cycle\n");

    let mut last = Snapshot::default();
    for k in 1..=12 {
        sim.run_cycles(250);
        let agg = sim.aggregate_stats();
        let rec = sim.recovery().expect("PR scheme");
        let (laps, captures) = rec.token_stats();
        let snap = Snapshot {
            detections: agg.deadlocks_detected,
            rescues: agg.rescues,
            captures,
            episodes: rec.episodes_completed,
            lane: rec.lane_transfers(),
        };
        println!(
            "cycle {:>5}: detections {:>3} (+{}), token captures {:>3} (+{}), \
             rescues {:>3}, lane transfers {:>3}, episodes done {:>3}, laps {laps}",
            k * 250,
            snap.detections,
            snap.detections - last.detections,
            snap.captures,
            snap.captures - last.captures,
            snap.rescues,
            snap.lane,
            snap.episodes,
        );
        last = snap;
    }

    // Ground truth: inspect the wait-for graph right now. When a knot is
    // present, print the same formatted cycle trace the static verifier
    // (`mddsim --verify`) produces for unsafe configurations.
    let mut g = build_waitfor_graph(&sim);
    println!(
        "\nwait-for graph: {} vertices, {} edges, knots present: {}",
        g.len(),
        g.num_edges(),
        g.has_deadlock()
    );
    if let Some(witness) = deadlock_witness(&sim) {
        println!("deadlocked cycle:\n{witness}");
    }

    // Show the most recent rescue episodes in detail.
    let log = sim.recovery().unwrap().episode_log();
    if !log.is_empty() {
        println!("\nlast rescue episodes:");
        for e in log.iter().rev().take(5) {
            println!(
                "  {:?}: cycles {}..{} ({} cycles), {} message(s) moved, \
                 sender chain depth {}",
                e.origin,
                e.started_at,
                e.ended_at,
                e.duration(),
                e.messages_moved,
                e.max_depth
            );
        }
    }

    println!("\nStopping the source and draining through recovery...");
    let drained = sim.drain(2_000_000);
    let agg = sim.aggregate_stats();
    println!(
        "drained: {drained} | transactions completed: {} of {} generated",
        agg.transactions_completed,
        sim.generated(),
    );
    assert!(drained, "progressive recovery must resolve every deadlock");
    assert_eq!(agg.transactions_completed, sim.generated());
    println!("No transaction was lost: progressive recovery rescued every chain.");
}

#[derive(Default)]
struct Snapshot {
    detections: u64,
    rescues: u64,
    captures: u64,
    episodes: u64,
    lane: u64,
}
