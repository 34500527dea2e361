//! End-to-end integration tests through the facade crate, spanning every
//! workspace member: topology → routing → transport → endpoints → schemes
//! → measurement.

use mdd_sim::prelude::*;

const SA: Scheme = Scheme::StrictAvoidance {
    shared_adaptive: false,
};

fn quick(scheme: Scheme, pattern: PatternSpec, vcs: u8, load: f64) -> SimConfig {
    let mut cfg = SimConfig::paper_default(scheme, pattern, vcs, load);
    cfg.warmup = 1_500;
    cfg.measure = 4_000;
    cfg
}

#[test]
fn all_schemes_all_patterns_feasibility_matrix() {
    // The feasibility matrix of Section 4.3.2: which (scheme, pattern, vcs)
    // combinations are configurable. This is the gating the paper uses to
    // decide which curves appear in Figures 8-10.
    let patterns = PatternSpec::all_paper_patterns();
    for pattern in &patterns {
        let chain4 = pattern.protocol().num_partition_types() > 2;
        for vcs in [4u8, 8, 16] {
            for scheme in [SA, Scheme::DeflectiveRecovery, Scheme::ProgressiveRecovery] {
                let ok = Simulator::new(quick(scheme, pattern.clone(), vcs, 0.05)).is_ok();
                let expect = match scheme {
                    Scheme::StrictAvoidance { .. } => {
                        vcs as usize >= pattern.protocol().num_partition_types() * 2
                    }
                    Scheme::DeflectiveRecovery => vcs >= 4,
                    Scheme::ProgressiveRecovery => true,
                };
                assert_eq!(
                    ok,
                    expect,
                    "{} on {} with {} VCs (chain4={chain4})",
                    scheme.label(),
                    pattern.name(),
                    vcs
                );
            }
        }
    }
}

#[test]
fn full_stack_delivery_and_measurement() {
    let mut sim = Simulator::new(quick(
        Scheme::ProgressiveRecovery,
        PatternSpec::pat280(),
        4,
        0.15,
    ))
    .unwrap();
    let r = sim.run();
    // Below saturation: throughput tracks the applied load.
    assert!((r.throughput - 0.15).abs() < 0.04, "tput {}", r.throughput);
    assert!(r.avg_latency > 10.0 && r.avg_latency < 200.0);
    assert!(r.transactions > 500);
    assert_eq!(r.deadlocks, 0);
    // Messages per transaction matches PAT280's 2.8 average.
    let ratio = r.messages_delivered as f64 / r.transactions as f64;
    assert!((ratio - 2.8).abs() < 0.2, "messages per txn: {ratio}");
}

#[test]
fn coherence_driven_simulation_end_to_end() {
    let horizon = 20_000u64;
    let traffic = CoherentTraffic::new(AppModel::radix(), 16, horizon, 9);
    let mut cfg = SimConfig::paper_default(
        Scheme::ProgressiveRecovery,
        CoherenceEngine::msi_pattern(),
        4,
        0.0,
    );
    cfg.radix = vec![4, 4];
    cfg.warmup = 0;
    cfg.measure = horizon;
    let mut sim = Simulator::with_traffic(cfg, Box::new(traffic)).unwrap();
    sim.set_measuring(true);
    sim.run_cycles(horizon);
    let agg = sim.aggregate_stats();
    assert!(
        agg.transactions_completed > 200,
        "Radix generates real traffic: {}",
        agg.transactions_completed
    );
    assert_eq!(
        agg.deadlocks_detected, 0,
        "application loads are far below saturation (Section 4.2.2)"
    );
    // The system must drain cleanly afterwards.
    assert!(sim.drain(300_000));
}

#[test]
fn queue_separation_helps_shared_schemes_at_many_vcs() {
    // Figure 11's mechanism at reduced scale: with plentiful VCs, PR with
    // per-type queues (QA) sustains at least as much throughput as PR with
    // a single shared queue pair, because inter-message coupling at the
    // endpoints is removed.
    let load = 0.40;
    let mut shared = quick(Scheme::ProgressiveRecovery, PatternSpec::pat271(), 16, load);
    shared.measure = 6_000;
    let mut qa = shared.clone();
    qa.queue_org = Some(QueueOrg::PerType);
    let r_shared = Simulator::new(shared).unwrap().run();
    let r_qa = Simulator::new(qa).unwrap().run();
    assert!(
        r_qa.throughput >= r_shared.throughput * 0.98,
        "QA ({:.4}) should not lose to shared queues ({:.4})",
        r_qa.throughput,
        r_shared.throughput
    );
}

#[test]
fn wait_for_graph_spans_network_and_endpoints() {
    let mut sim = Simulator::new(quick(
        Scheme::ProgressiveRecovery,
        PatternSpec::pat271(),
        4,
        0.35,
    ))
    .unwrap();
    sim.run_cycles(3_000);
    let g = build_waitfor_graph(&sim);
    // 64 routers x 5 ports x 4 VCs + 64 NICs x 2 x 1 queue.
    assert_eq!(g.len(), 64 * 5 * 4 + 64 * 2);
    assert!(g.num_edges() > 0, "a loaded network has wait relations");
}

#[test]
fn token_statistics_exposed() {
    let mut sim = Simulator::new(quick(
        Scheme::ProgressiveRecovery,
        PatternSpec::pat271(),
        4,
        0.05,
    ))
    .unwrap();
    sim.run_cycles(2_000);
    let rec = sim.recovery().expect("PR exposes its recovery machinery");
    let (laps, captures) = rec.token_stats();
    assert!(
        laps >= 10,
        "token circulates freely at light load: {laps} laps"
    );
    assert_eq!(captures, 0, "nothing to rescue at light load");
    assert!(!rec.episode_active());
}

#[test]
fn sa_plus_shared_adaptive_runs() {
    let r = Simulator::new(quick(
        Scheme::StrictAvoidance {
            shared_adaptive: true,
        },
        PatternSpec::pat271(),
        16,
        0.2,
    ))
    .unwrap()
    .run();
    assert!(r.throughput > 0.15);
    assert_eq!(r.deadlocks, 0);
}

#[test]
fn facade_prelude_reexports_are_usable() {
    // Types from every layer, reached through the facade alone.
    let topo = Topology::new(TopologyKind::Torus, &[4, 4], 2);
    assert_eq!(topo.num_nics(), 32);
    let proto = ProtocolSpec::origin2000();
    assert_eq!(proto.chain_length(), 3);
    let mut stats = OnlineStats::new();
    stats.add(1.0);
    assert_eq!(stats.count(), 1);
    let mut h = Histogram::new(0.0, 1.0, 4);
    h.add(0.3);
    assert_eq!(h.total(), 1);
    let mut ids = IdAlloc::new();
    assert_eq!(ids.next_msg(), MessageId(0));
}

#[test]
fn multicast_invalidations_flow_and_drain() {
    // Water under the MSI engine produces real multi-sharer invalidations
    // (fan-out at the home, per-branch acks joining before the final
    // reply). Everything must complete and drain.
    let horizon = 15_000u64;
    let traffic = CoherentTraffic::new(AppModel::water(), 16, horizon, 21);
    let mut cfg = SimConfig::paper_default(
        Scheme::ProgressiveRecovery,
        CoherenceEngine::msi_pattern(),
        4,
        0.0,
    );
    cfg.radix = vec![4, 4];
    cfg.warmup = 0;
    cfg.measure = horizon;
    let mut sim = Simulator::with_traffic(cfg, Box::new(traffic)).unwrap();
    sim.set_measuring(true);
    sim.run_cycles(horizon);
    let agg = sim.aggregate_stats();
    assert!(agg.transactions_completed > 50);
    assert!(
        sim.drain(400_000),
        "multicast joins must not wedge the drain"
    );
    let agg = sim.aggregate_stats();
    assert_eq!(agg.transactions_completed, sim.generated());
    // Water is invalidation-heavy: more messages than 2x transactions
    // proves chains longer than request/reply (including fan-out) ran.
    assert!(
        agg.messages_consumed as f64 > 2.2 * agg.transactions_completed as f64,
        "messages {} vs txns {}",
        agg.messages_consumed,
        agg.transactions_completed
    );
}
