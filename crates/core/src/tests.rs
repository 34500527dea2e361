//! Integration tests of the assembled simulator: functional correctness,
//! liveness under every scheme, avoidance guarantees, determinism, and the
//! headline qualitative result (PR sustains more throughput than DR/SA
//! when virtual channels are scarce).

use crate::*;

const SA: Scheme = Scheme::StrictAvoidance {
    shared_adaptive: false,
};

fn small(scheme: Scheme, pattern: PatternSpec, vcs: u8, load: f64) -> SimConfig {
    SimConfig::small_test(scheme, pattern, vcs, load)
}

#[test]
fn sa_delivers_at_light_load() {
    let mut sim = Simulator::new(small(SA, PatternSpec::pat100(), 4, 0.05)).unwrap();
    let r = sim.run();
    assert!(
        r.transactions > 50,
        "transactions completed: {}",
        r.transactions
    );
    assert!(r.throughput > 0.02, "throughput {}", r.throughput);
    assert!(r.avg_latency > 0.0);
    assert_eq!(r.deflections, 0, "SA never deflects");
    assert_eq!(r.rescues, 0, "SA never rescues");
}

#[test]
fn dr_delivers_at_light_load() {
    let mut sim = Simulator::new(small(
        Scheme::DeflectiveRecovery,
        PatternSpec::pat271(),
        4,
        0.05,
    ))
    .unwrap();
    let r = sim.run();
    assert!(r.transactions > 50);
    assert!(r.throughput > 0.02);
}

#[test]
fn pr_delivers_at_light_load() {
    let mut sim = Simulator::new(small(
        Scheme::ProgressiveRecovery,
        PatternSpec::pat271(),
        4,
        0.05,
    ))
    .unwrap();
    let r = sim.run();
    assert!(r.transactions > 50);
    assert!(r.throughput > 0.02);
    assert_eq!(
        r.deadlocks, 0,
        "no message-dependent deadlocks at 5% load (the paper's key \
         characterization result)"
    );
}

#[test]
fn sa_infeasible_configs_rejected() {
    // Figure 8: no SA curves for chain-4 patterns at 4 VCs.
    assert!(Simulator::new(small(SA, PatternSpec::pat271(), 4, 0.1)).is_err());
    assert!(Simulator::new(small(SA, PatternSpec::pat271(), 8, 0.1)).is_ok());
}

/// Liveness: under every scheme, stopping the source drains the system
/// completely — even from deep saturation. For PR this exercises the full
/// token/lane/rescue machinery; a lost message or an unresolved deadlock
/// leaves the system non-quiescent and fails the test.
#[test]
fn drain_liveness_all_schemes() {
    let cases = vec![
        (SA, PatternSpec::pat100(), 4u8),
        (SA, PatternSpec::pat271(), 8),
        (Scheme::DeflectiveRecovery, PatternSpec::pat271(), 4),
        (Scheme::DeflectiveRecovery, PatternSpec::pat280(), 4),
        (Scheme::ProgressiveRecovery, PatternSpec::pat100(), 4),
        (Scheme::ProgressiveRecovery, PatternSpec::pat271(), 4),
        (Scheme::ProgressiveRecovery, PatternSpec::pat280(), 4),
    ];
    for (scheme, pattern, vcs) in cases {
        let name = format!("{}/{}/{vcs}vc", scheme.label(), pattern.name());
        // Overdrive the network well past saturation.
        let mut cfg = small(scheme, pattern, vcs, 0.8);
        cfg.warmup = 0;
        cfg.measure = 0;
        let mut sim = Simulator::new(cfg).unwrap();
        sim.set_measuring(true);
        sim.run_cycles(6_000);
        let drained = sim.drain(400_000);
        assert!(drained, "{name}: system failed to drain");
        let agg = sim.aggregate_stats();
        assert!(
            agg.transactions_completed > 0,
            "{name}: no transactions completed"
        );
    }
}

/// Transaction conservation: after a drain, every generated transaction
/// has completed (none lost by recovery, deflection or extraction).
#[test]
fn transaction_conservation_through_recovery() {
    for scheme in [Scheme::ProgressiveRecovery, Scheme::DeflectiveRecovery] {
        let mut cfg = small(scheme, PatternSpec::pat271(), 4, 0.6);
        cfg.warmup = 0;
        cfg.measure = 0;
        let mut sim = Simulator::new(cfg).unwrap();
        sim.set_measuring(true);
        sim.run_cycles(5_000);
        assert!(sim.drain(400_000), "{}: drain failed", scheme.label());
        let agg = sim.aggregate_stats();
        assert_eq!(
            agg.transactions_completed,
            sim.generated(),
            "{}: every generated transaction must complete",
            scheme.label()
        );
    }
}

/// The avoidance guarantee, checked against the ground-truth wait-for
/// graph: SA never exhibits a knot, sampled across heavy-load execution.
#[test]
fn sa_never_deadlocks_cwg_oracle() {
    let mut cfg = small(SA, PatternSpec::pat271(), 8, 0.7);
    cfg.warmup = 0;
    cfg.measure = 0;
    let mut sim = Simulator::new(cfg).unwrap();
    for i in 0..8_000u64 {
        sim.step();
        if i % 50 == 0 {
            let g = build_waitfor_graph(&sim);
            assert!(
                !g.has_deadlock(),
                "knot found in SA wait-for graph at cycle {i}"
            );
        }
    }
}

#[test]
fn sa_pat100_never_deadlocks_cwg_oracle() {
    let mut cfg = small(SA, PatternSpec::pat100(), 4, 0.8);
    cfg.warmup = 0;
    cfg.measure = 0;
    let mut sim = Simulator::new(cfg).unwrap();
    for i in 0..8_000u64 {
        sim.step();
        if i % 50 == 0 {
            assert!(!build_waitfor_graph(&sim).has_deadlock(), "cycle {i}");
        }
    }
}

#[test]
fn determinism_same_seed_same_result() {
    let cfg = small(Scheme::ProgressiveRecovery, PatternSpec::pat271(), 4, 0.3);
    let r1 = Simulator::new(cfg.clone()).unwrap().run();
    let r2 = Simulator::new(cfg).unwrap().run();
    assert_eq!(r1.messages_delivered, r2.messages_delivered);
    assert_eq!(r1.transactions, r2.transactions);
    assert!((r1.avg_latency - r2.avg_latency).abs() < 1e-12);
    assert!((r1.throughput - r2.throughput).abs() < 1e-12);
    assert_eq!(r1.deadlocks, r2.deadlocks);
}

#[test]
fn different_seeds_differ() {
    let cfg = small(Scheme::ProgressiveRecovery, PatternSpec::pat271(), 4, 0.3);
    let mut cfg2 = cfg.clone();
    cfg2.seed ^= 0xdead_beef;
    let r1 = Simulator::new(cfg).unwrap().run();
    let r2 = Simulator::new(cfg2).unwrap().run();
    assert_ne!(
        r1.messages_delivered, r2.messages_delivered,
        "different seeds should perturb the run"
    );
}

/// The headline qualitative result at scarce VCs (Figure 8): at the
/// paper's scale (8x8 torus, 4 VCs, Table 2 parameters) and a load just
/// beyond DR's saturation point, PR sustains clearly more delivered
/// throughput than DR.
#[test]
fn pr_beats_dr_at_4_vcs_saturation() {
    let load = 0.35;
    let mut pr =
        SimConfig::paper_default(Scheme::ProgressiveRecovery, PatternSpec::pat721(), 4, load);
    let mut dr =
        SimConfig::paper_default(Scheme::DeflectiveRecovery, PatternSpec::pat721(), 4, load);
    for cfg in [&mut pr, &mut dr] {
        cfg.warmup = 3_000;
        cfg.measure = 6_000;
    }
    let rp = Simulator::new(pr).unwrap().run();
    let rd = Simulator::new(dr).unwrap().run();
    assert!(
        rp.throughput > rd.throughput * 1.15,
        "PR ({:.4}) should clearly beat DR ({:.4}) with scarce VCs",
        rp.throughput,
        rd.throughput
    );
}

#[test]
fn throughput_tracks_load_below_saturation() {
    let base = small(Scheme::ProgressiveRecovery, PatternSpec::pat100(), 4, 0.0);
    for load in [0.05, 0.10] {
        let r = run_point(&base, load).unwrap();
        assert!(
            (r.throughput - load).abs() < load * 0.25,
            "delivered {:.4} vs applied {load:.4}: below saturation the \
             network should deliver what is applied",
            r.throughput
        );
    }
}

#[test]
fn sweep_produces_monotone_applied_loads() {
    let base = small(Scheme::ProgressiveRecovery, PatternSpec::pat100(), 4, 0.0);
    let loads = default_loads(0.05, 0.25, 3);
    let results: Vec<SimResult> = loads
        .iter()
        .map(|&l| run_point(&base, l).expect("PR is feasible"))
        .collect();
    let curve = BnfCurve::assemble("PR", results.iter().map(SimResult::bnf_point));
    assert_eq!(curve.points.len(), 3);
    assert!(curve
        .points
        .windows(2)
        .all(|w| w[0].applied_load < w[1].applied_load));
    assert!(curve.saturation_throughput() > 0.0);
    // Latency grows with load.
    assert!(curve.points[2].latency >= curve.points[0].latency);
}

#[test]
fn deadlocks_appear_only_beyond_saturation_for_pr() {
    // At light load: zero detections. Deep saturation with shared queues:
    // recovery activity appears (detections and possibly rescues).
    let light = small(Scheme::ProgressiveRecovery, PatternSpec::pat271(), 4, 0.05);
    let r = Simulator::new(light).unwrap().run();
    assert_eq!(r.deadlocks, 0);

    let mut heavy = small(Scheme::ProgressiveRecovery, PatternSpec::pat271(), 4, 0.9);
    heavy.measure = 12_000;
    let r = Simulator::new(heavy).unwrap().run();
    // Normalized deadlock frequency stays small even past saturation
    // (the paper's Section 4.2/4.3 characterization).
    let norm = r.normalized_deadlocks();
    assert!(
        norm < 0.2,
        "normalized deadlocks should remain rare, got {norm}"
    );
}

#[test]
fn qa_queue_org_override_applies() {
    let mut cfg = small(Scheme::ProgressiveRecovery, PatternSpec::pat271(), 4, 0.05);
    cfg.queue_org = Some(QueueOrg::PerType);
    let sim = Simulator::new(cfg).unwrap();
    assert_eq!(sim.nics()[0].num_queues(), 4, "QA: one queue pair per type");
    let mut cfg = small(Scheme::ProgressiveRecovery, PatternSpec::pat271(), 4, 0.05);
    cfg.queue_org = None;
    let sim = Simulator::new(cfg).unwrap();
    assert_eq!(sim.nics()[0].num_queues(), 1, "PR default: shared");
}

#[test]
fn bristled_torus_runs() {
    // The Section 4.2.2 bristling configurations: 2x4 and 2x2 tori with 2
    // and 4 NICs per router (16 processors throughout).
    for (radix, bristle) in [(vec![2u32, 4], 2u32), (vec![2, 2], 4)] {
        let mut cfg = small(Scheme::ProgressiveRecovery, PatternSpec::pat100(), 4, 0.05);
        cfg.radix = radix;
        cfg.bristle = bristle;
        let mut sim = Simulator::new(cfg).unwrap();
        assert_eq!(sim.topo().num_nics(), 16);
        let r = sim.run();
        assert!(r.transactions > 20, "bristled config must deliver");
    }
}

#[test]
fn mesh_topology_runs() {
    let mut cfg = small(SA, PatternSpec::pat100(), 2, 0.05);
    cfg.mesh = true;
    cfg.vcs = 2; // E_r = 1 on a mesh: 2 types x 1 escape
    let r = Simulator::new(cfg).unwrap().run();
    assert!(r.transactions > 20);
}

#[test]
fn mc_utilization_bounded() {
    let mut sim = Simulator::new(small(
        Scheme::ProgressiveRecovery,
        PatternSpec::pat271(),
        4,
        0.4,
    ))
    .unwrap();
    let r = sim.run();
    assert!(r.mc_utilization > 0.0 && r.mc_utilization <= 1.0);
}

#[test]
fn token_loss_is_survived_by_regeneration() {
    // Drive PR into a regime where rescues are needed, lose the token,
    // and verify the watchdog regenerates it and recovery still resolves
    // everything (the drain succeeds).
    let mut cfg = small(Scheme::ProgressiveRecovery, PatternSpec::pat271(), 4, 0.7);
    cfg.warmup = 0;
    cfg.measure = 0;
    let mut sim = Simulator::new(cfg).unwrap();
    sim.set_measuring(true);
    sim.run_cycles(1_000);
    // Inject losses repeatedly until one lands while circulating.
    let mut injected = 0;
    for _ in 0..2_000 {
        let now = sim.cycle();
        if sim.recovery_mut().unwrap().inject_token_loss(now) {
            injected += 1;
        }
        sim.step();
        if injected >= 3 {
            break;
        }
    }
    assert!(injected >= 1, "at least one loss must be injectable");
    sim.run_cycles(3_000);
    let rec = sim.recovery().unwrap();
    assert!(
        rec.token_regenerations() >= 1,
        "watchdog must regenerate the token"
    );
    assert!(sim.drain(400_000), "recovery must still work after losses");
    let agg = sim.aggregate_stats();
    assert_eq!(agg.transactions_completed, sim.generated());
}

#[test]
fn token_loss_rejected_mid_episode() {
    let mut cfg = small(Scheme::ProgressiveRecovery, PatternSpec::pat271(), 4, 0.05);
    cfg.warmup = 0;
    cfg.measure = 0;
    let mut sim = Simulator::new(cfg).unwrap();
    sim.run_cycles(100);
    // No episode: loss succeeds.
    let now = sim.cycle();
    assert!(sim.recovery_mut().unwrap().inject_token_loss(now));
    // Already lost: second injection is refused (not circulating).
    assert!(!sim.recovery_mut().unwrap().inject_token_loss(now));
}

#[test]
fn cwg_oracle_counts_checks() {
    let mut cfg = small(SA, PatternSpec::pat100(), 4, 0.3);
    cfg.cwg_interval = Some(50);
    cfg.warmup = 0;
    cfg.measure = 2_000;
    let r = Simulator::new(cfg).unwrap().run();
    assert_eq!(r.cwg_checks, 2_000 / 50);
    assert_eq!(
        r.cwg_deadlocked_checks, 0,
        "strict avoidance never shows a knot to the oracle"
    );
}

/// The oracle's endpoint edges are the NIC's own rule
/// (`Nic::head_blocker`): a deflective-recovery head that cannot start
/// for want of a return-reply earmark waits, in the CWG, on the input
/// queue it must earmark a slot in.
#[test]
fn cwg_earmark_wait_is_an_input_queue_edge() {
    use mdd_nic::Blocker;
    let cfg = small(Scheme::DeflectiveRecovery, PatternSpec::pat271(), 4, 0.6);
    let mut sim = Simulator::new(cfg).unwrap();
    let layout = crate::validate::resource_layout(&sim);
    for _ in 0..20_000 {
        sim.run_cycles(1);
        let earmark_wait = sim.nics().iter().find_map(|nic| {
            (0..nic.num_queues()).find_map(|q| match nic.head_blocker(q, sim.store()) {
                Some(Blocker::Earmark { rq }) => Some((nic.id(), q, rq)),
                _ => None,
            })
        });
        if let Some((nic, q, rq)) = earmark_wait {
            let g = build_waitfor_graph(&sim);
            assert!(
                g.has_edge(
                    layout.in_queue_vertex(nic, q),
                    layout.in_queue_vertex(nic, rq)
                ),
                "NIC {} input queue {q} waits on an earmark in queue {rq} at cycle {}, \
                 but the CWG has no edge between them",
                nic.index(),
                sim.cycle()
            );
            return;
        }
    }
    panic!("no head waited on a return-reply earmark in 20,000 cycles");
}

/// The paper's Section 4.3.2 mechanism, quantified: strict avoidance's
/// per-type partitioning uses the virtual channels far less evenly than
/// PR's fully shared routing at the same load.
#[test]
fn sa_partitioning_is_less_balanced_than_pr() {
    let load = 0.25;
    let mut sa = SimConfig::paper_default(SA, PatternSpec::pat721(), 8, load);
    let mut pr =
        SimConfig::paper_default(Scheme::ProgressiveRecovery, PatternSpec::pat721(), 8, load);
    for cfg in [&mut sa, &mut pr] {
        cfg.warmup = 2_000;
        cfg.measure = 5_000;
    }
    let rs = Simulator::new(sa).unwrap().run();
    let rp = Simulator::new(pr).unwrap().run();
    assert!(
        rs.vc_util_cv > rp.vc_util_cv * 1.3,
        "SA channel-utilization imbalance (CV {:.3}) should clearly exceed \
         PR's ({:.3})",
        rs.vc_util_cv,
        rp.vc_util_cv
    );
    assert!(rp.vc_util_mean > 0.0 && rs.vc_util_mean > 0.0);
    assert!(rs.vc_util_max <= 1.0 + 1e-9 && rp.vc_util_max <= 1.0 + 1e-9);
}

#[test]
fn episode_log_records_rescues() {
    let mut cfg = small(Scheme::ProgressiveRecovery, PatternSpec::pat271(), 4, 0.8);
    cfg.warmup = 0;
    cfg.measure = 0;
    let mut sim = Simulator::new(cfg).unwrap();
    sim.set_measuring(true);
    sim.run_cycles(8_000);
    sim.drain(400_000);
    let rec = sim.recovery().unwrap();
    let log = rec.episode_log();
    assert_eq!(log.len() as u64, rec.episodes_completed.min(4096));
    for e in log {
        assert!(e.ended_at >= e.started_at);
        assert!(e.max_depth >= 1);
        // NIC episodes move at least the rescued head's subordinate(s);
        // router episodes carry the extracted packet itself.
        match e.origin {
            EpisodeOrigin::Nic(_) => {}
            EpisodeOrigin::Router(_) => assert!(e.messages_moved >= 1),
        }
    }
    assert!(
        !log.is_empty(),
        "an overdriven 4x4 PR network must have needed rescues"
    );
}

// ---------------------------------------------------------------------
// `validate` is the only gate: `Ok` must mean `Simulator::new` succeeds.
// ---------------------------------------------------------------------

mod validate_gate {
    use crate::*;
    use proptest::prelude::*;

    /// Small valid field values (radices of at most 4, so every accepted
    /// network is cheap to build), then `broken < 15` plants one value
    /// `validate` must reject: a zero, a NaN or negative load, an empty,
    /// 5-dimension or radix-1 topology, an oversize slot budget or buffer
    /// depth. Scheme feasibility varies on its own with the VC count.
    fn arb_config() -> impl Strategy<Value = (SimConfig, usize)> {
        let net = (
            proptest::collection::vec(2u32..5, 1..4),
            0u8..2,
            1u32..3,
            1u8..9,
            prop_oneof![1u32..4, 65_533u32..65_536],
        );
        let endpoint = (1u32..5, 1u32..5, 1u64..40, 1u64..4, 1u64..4);
        let run = (0usize..4, 0usize..3, 0usize..3, 0.0f64..1.0, 0usize..20);
        (net, endpoint, run).prop_map(
            |(
                (radix, mesh, bristle, vcs, flit_buf),
                (queue_capacity, mshr_limit, detect_threshold, token_hop, lane_hop),
                (scheme, pattern, org, load, broken),
            )| {
                let pattern = [
                    PatternSpec::pat100(),
                    PatternSpec::pat271(),
                    PatternSpec::pat280(),
                ][pattern]
                    .clone();
                let mut cfg = SimConfig::paper_default(Scheme::ALL[scheme], pattern, vcs, load);
                cfg.radix = radix;
                cfg.mesh = mesh == 1;
                cfg.bristle = bristle;
                cfg.flit_buf = flit_buf;
                cfg.queue_org = [None, Some(QueueOrg::Shared), Some(QueueOrg::PerType)][org];
                cfg.queue_capacity = queue_capacity;
                cfg.mshr_limit = mshr_limit;
                cfg.detect_threshold = detect_threshold;
                cfg.token_hop = token_hop;
                cfg.lane_hop = lane_hop;
                match broken {
                    0 => cfg.radix = Vec::new(),
                    1 => cfg.radix = vec![2; 5],
                    2 => cfg.radix[0] = 1,
                    3 => cfg.bristle = 0,
                    4 => cfg.vcs = 0,
                    5 => cfg.vcs = 43, // at least 3 ports: over 128 slots
                    6 => cfg.flit_buf = 0,
                    7 => cfg.flit_buf = 65_536,
                    8 => cfg.queue_capacity = 0,
                    9 => cfg.mshr_limit = 0,
                    10 => cfg.detect_threshold = 0,
                    11 => cfg.token_hop = 0,
                    12 => cfg.lane_hop = 0,
                    13 => cfg.load = f64::NAN,
                    14 => cfg.load = -0.5,
                    _ => {}
                }
                (cfg, broken)
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `validate` never panics, rejects every planted value, and
        /// whatever it accepts the simulator constructor accepts too.
        #[test]
        fn validate_ok_implies_simulator_builds((cfg, broken) in arb_config()) {
            let verdict = cfg.validate();
            prop_assert!(broken >= 15 || verdict.is_err(), "accepted broken {cfg:?}");
            if verdict.is_ok() {
                let built = std::panic::catch_unwind(|| Simulator::new(cfg.clone()).is_ok());
                prop_assert!(matches!(built, Ok(true)), "validate accepted {cfg:?}");
            }
        }
    }

    #[test]
    fn hop_times_and_buffer_depth_are_typed_errors() {
        let pr =
            || SimConfig::small_test(Scheme::ProgressiveRecovery, PatternSpec::pat271(), 4, 0.1);
        let mut cfg = pr();
        cfg.token_hop = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroTokenHop));
        let mut cfg = pr();
        cfg.lane_hop = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroLaneHop));
        let mut cfg = pr();
        cfg.flit_buf = 65_536;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::FlitBufTooLarge { flit_buf: 65_536 })
        );
        cfg.flit_buf = 65_535;
        assert_eq!(cfg.validate(), Ok(()));
    }
}

// ---------------------------------------------------------------------
// A hand-built PR episode: a local deposit after a lane round trip.
// ---------------------------------------------------------------------

mod dispatch_deposit {
    use crate::*;
    use mdd_protocol::{IdAlloc, Message, MessageStore, MsgHandle, MsgType, ShapeId};
    use mdd_topology::NicId;
    use mdd_traffic::TrafficSource;
    use std::collections::VecDeque;

    /// Requests issued at fixed cycles, nothing else.
    struct Script {
        /// `(cycle, message)`, in cycle order; ids are assigned on issue.
        events: VecDeque<(u64, Message)>,
        pending: Vec<VecDeque<MsgHandle>>,
        generated: u64,
    }

    impl TrafficSource for Script {
        fn tick(&mut self, cycle: u64, ids: &mut IdAlloc, store: &mut MessageStore) {
            while self.events.front().is_some_and(|(c, _)| *c == cycle) {
                let (_, mut m) = self.events.pop_front().expect("checked");
                m.id = ids.next_msg();
                m.txn = ids.next_txn();
                m.created = cycle;
                let src = m.src.index();
                self.pending[src].push_back(store.insert(m));
                self.generated += 1;
            }
        }
        fn pending_head(&self, nic: NicId) -> Option<MsgHandle> {
            self.pending[nic.index()].front().copied()
        }
        fn pop_pending(&mut self, nic: NicId) -> Option<MsgHandle> {
            self.pending[nic.index()].pop_front()
        }
        fn backlog(&self) -> usize {
            self.pending.iter().map(VecDeque::len).sum()
        }
        fn generated(&self) -> u64 {
            self.generated
        }
    }

    /// An original request (`RQ`, chain position 0) of `shape`.
    fn request(shape: u16, src: u32, home: u32, sharers: u64) -> Message {
        Message {
            id: mdd_protocol::MessageId(0),
            txn: mdd_protocol::TransactionId(0),
            mtype: MsgType(0),
            shape: ShapeId(shape),
            chain_pos: 0,
            src: NicId(src),
            dst: NicId(home),
            requester: NicId(src),
            home: NicId(home),
            owner: NicId(home),
            length_flits: 4,
            created: 0,
            is_backoff: false,
            rescued: false,
            sharers,
        }
    }

    /// A 20-flit terminating reply from `nic` to itself: it cannot eject
    /// while `nic`'s input queue is full, so it holds an output slot.
    fn self_reply(nic: u32) -> Message {
        Message {
            mtype: MsgType(3),
            chain_pos: 1,
            dst: NicId(nic),
            length_flits: 20,
            ..request(0, nic, nic, 0)
        }
    }

    /// The one dispatch the PR orchestrator makes in a step that has not
    /// otherwise acted on the holder: a multicast rescue whose first
    /// subordinate finds the holder's output queue full and crosses the
    /// lane, after which a later subordinate is deposited locally. Debug
    /// builds check every step's touch list (`check_touch_list`), so a
    /// deposit that skipped `touch` would fail here.
    #[test]
    fn holder_deposits_locally_after_a_lane_round_trip() {
        const H: usize = 5;
        let mut cfg = SimConfig::paper_default(
            Scheme::ProgressiveRecovery,
            mdd_coherence::CoherenceEngine::msi_pattern(),
            4,
            0.0,
        );
        cfg.radix = vec![4, 4];
        cfg.queue_capacity = 2;
        cfg.service_time = 10;
        cfg.detect_threshold = 5;
        let events = vec![
            // An invalidation to three sharers: H can never find output
            // room for all three copies.
            (1, request(1, 0, H as u32, 1 << 10 | 1 << 11 | 1 << 15)),
            // Fills H's input queue behind it.
            (20, request(0, 1, H as u32, 0)),
            // Fill H's output queue and stay there until the rescue
            // frees an input slot, so the detector fires.
            (30, self_reply(H as u32)),
            (31, self_reply(H as u32)),
        ];
        let script = Script {
            events: events.into(),
            pending: vec![VecDeque::new(); 16],
            generated: 0,
        };
        let mut sim = Simulator::with_traffic(cfg, Box::new(script)).unwrap();
        let mut picked_up = false;
        while sim.recovery().unwrap().episodes_completed == 0 {
            assert!(sim.cycle() < 1_000, "no rescue episode completed");
            let before = sim.nics()[H].dmb_occupancy();
            sim.step();
            let nic = &sim.nics()[H];
            if before > 0 && nic.dmb_occupancy() == 0 {
                // The orchestrator took the three copies this step with
                // H's output queue full: the first crossed the lane.
                assert_eq!(nic.out_queue(0).free(), 0);
                picked_up = true;
            }
        }
        let rec = sim.recovery().unwrap();
        let episode = rec.episode_log()[0];
        assert!(picked_up);
        assert_eq!(episode.origin, EpisodeOrigin::Nic(NicId(H as u32)));
        // Three copies moved, two over the lane: the other one was
        // deposited at H after the first one's round trip.
        assert_eq!((episode.messages_moved, rec.lane_transfers()), (3, 2));
        assert!(sim.drain(10_000));
    }
}
