//! Unit tests for the wormhole transport substrate.

use crate::*;
use mdd_protocol::{Message, MessageId, MessageStore, MsgHandle, MsgType, ShapeId, TransactionId};
use mdd_topology::{MinimalHops, NicId, NodeId, Topology, TopologyKind};

/// Minimal dimension-order routing with dateline classes on VCs {0,1},
/// enough to exercise the transport machinery.
struct TestDor;

impl Routing for TestDor {
    fn candidates(
        &self,
        topo: &Topology,
        node: NodeId,
        pkt: &PacketState,
        _hint: u64,
        out: &mut Vec<RouteCandidate>,
    ) {
        if node == pkt.dst_router {
            let local = topo.nic_local_index(pkt.dst);
            out.push(RouteCandidate {
                port: topo.local_port(local),
                vc: 0,
            });
            return;
        }
        let mh = MinimalHops::new(topo, node, pkt.dst_router);
        let d = mh.first_unaligned().expect("not at destination");
        let dir = mh.dim(d).dor_direction().unwrap();
        let class = (pkt.crossed_dateline >> d) & 1;
        out.push(RouteCandidate {
            port: topo.port(d, dir),
            vc: class,
        });
    }

    fn injection_vcs(&self, _pkt: &PacketState, out: &mut Vec<u8>) {
        out.push(0);
    }
}

fn msg(id: u64, src: u32, dst: u32, len: u32) -> Message {
    Message {
        id: MessageId(id),
        txn: TransactionId(id),
        mtype: MsgType(0),
        shape: ShapeId(0),
        chain_pos: 0,
        src: NicId(src),
        dst: NicId(dst),
        requester: NicId(src),
        home: NicId(dst),
        owner: NicId(dst),
        length_flits: len,
        created: 0,
        is_backoff: false,
        rescued: false,
        sharers: 0,
    }
}

/// Drive `net` until idle or `max` cycles. Each source NIC injects its
/// messages serially (one packet at a time on VC 0, as a real NIC does —
/// flits of distinct packets must never interleave within one VC).
fn run(
    net: &mut Network,
    store: &mut MessageStore,
    msgs: Vec<Message>,
    ej: &mut (dyn EjectControl + Send),
    max: u64,
) -> u64 {
    use std::collections::HashMap;
    let mut per_nic: HashMap<u32, Vec<(MsgHandle, u32)>> = HashMap::new();
    for m in msgs {
        let src = m.src;
        let h = store.insert(m);
        net.begin_packet(h, store.get(h), 0);
        per_nic.entry(src.0).or_default().push((h, 0));
    }
    let mut cycle = 0;
    while cycle < max {
        for queue in per_nic.values_mut() {
            let Some((h, sent)) = queue.first_mut() else {
                continue;
            };
            let m = store.get(*h);
            if net.injection_free(m.src, 0) > 0 {
                let ok = net.inject_flit(
                    m.src,
                    0,
                    Flit {
                        msg: *h,
                        seq: *sent as u16,
                        is_tail: *sent + 1 == m.length_flits,
                    },
                );
                if ok {
                    *sent += 1;
                    if *sent == m.length_flits {
                        queue.remove(0);
                    }
                }
            }
        }
        net.step(cycle, &TestDor, ej);
        cycle += 1;
        let all_sent = per_nic.values().all(Vec::is_empty);
        if all_sent && net.flits_in_network() == 0 {
            break;
        }
    }
    cycle
}

fn torus44() -> Network {
    Network::new(Topology::new(TopologyKind::Torus, &[4, 4], 1), 2, 2)
}

#[test]
fn single_packet_delivered_to_correct_nic() {
    let mut net = torus44();
    let mut store = MessageStore::new();
    let mut ej = AcceptAll::default();
    let m = msg(1, 0, 5, 4);
    let cycles = run(&mut net, &mut store, vec![m], &mut ej, 200);
    assert_eq!(ej.delivered.len(), 1);
    let (nic, h, _) = ej.delivered[0];
    assert_eq!(nic, NicId(5));
    assert_eq!(store.get(h).id, MessageId(1));
    assert!(
        cycles < 60,
        "short packet should arrive quickly, took {cycles}"
    );
    assert_eq!(net.counters().packets_delivered, 1);
    assert_eq!(net.counters().flits_delivered, 4);
    assert!(net.packets().is_empty());
}

#[test]
fn latency_scales_with_distance_plus_length() {
    // On an idle network, tail delivery time ≈ injection + per-hop routing
    // pipeline + streaming of the remaining flits.
    let topo = Topology::new(TopologyKind::Torus, &[8, 8], 1);
    let mut net = Network::new(topo, 2, 2);
    let mut store = MessageStore::new();
    let mut ej = AcceptAll::default();
    let m = msg(1, 0, 3, 20); // 3 hops in dim 0
    let cycles = run(&mut net, &mut store, vec![m], &mut ej, 400);
    // Lower bound: 20 flits serialized + 3 hops.
    assert!(cycles >= 23, "impossibly fast: {cycles}");
    assert!(cycles <= 60, "idle-network delivery too slow: {cycles}");
}

#[test]
fn many_packets_conserved_and_delivered() {
    let mut net = torus44();
    let mut store = MessageStore::new();
    let mut ej = AcceptAll::default();
    let msgs: Vec<Message> = (0..32)
        .map(|i| {
            msg(
                i,
                (i % 16) as u32,
                ((i * 7 + 3) % 16) as u32,
                4 + (i as u32 % 3) * 8,
            )
        })
        .collect();
    let total_flits: u64 = msgs.iter().map(|m| m.length_flits as u64).sum();
    run(&mut net, &mut store, msgs, &mut ej, 5_000);
    assert_eq!(ej.delivered.len(), 32, "all packets must arrive");
    assert_eq!(net.counters().flits_delivered, total_flits);
    assert_eq!(net.counters().flits_injected, total_flits);
    assert_eq!(net.flits_in_network(), 0);
}

#[test]
fn self_delivery_via_local_port() {
    // Destination NIC on the same router: the packet enters and immediately
    // ejects without using network links.
    let mut net = torus44();
    let mut store = MessageStore::new();
    let mut ej = AcceptAll::default();
    run(&mut net, &mut store, vec![msg(1, 3, 3, 4)], &mut ej, 100);
    assert_eq!(ej.delivered.len(), 1);
}

/// Ejection refusal backpressures into the network and the head is flagged
/// as blocked; releasing the gate drains everything.
struct GateUntil {
    open_at: u64,
    inner: AcceptAll,
}

impl EjectControl for GateUntil {
    fn can_accept(&mut self, _nic: NicId, _msg: MsgHandle, cycle: u64) -> bool {
        cycle >= self.open_at
    }
    fn deliver_flit(&mut self, nic: NicId, msg: MsgHandle, cycle: u64) {
        self.inner.deliver_flit(nic, msg, cycle);
    }
    fn deliver_packet(&mut self, nic: NicId, msg: MsgHandle, injected_at: u64, cycle: u64) {
        self.inner.deliver_packet(nic, msg, injected_at, cycle);
    }
}

#[test]
fn ejection_gating_blocks_then_drains() {
    let mut net = torus44();
    let mut store = MessageStore::new();
    let mut ej = GateUntil {
        open_at: 120,
        inner: AcceptAll::default(),
    };
    let cycles = run(&mut net, &mut store, vec![msg(1, 0, 5, 4)], &mut ej, 500);
    assert_eq!(ej.inner.delivered.len(), 1);
    assert!(cycles > 120, "packet cannot finish before the gate opens");
}

/// The blocked timers hold cycles in 32 bits: the last cycle below the
/// sentinel still times a stalled head, and the step refuses any later one.
#[test]
fn blocked_timer_holds_the_last_32_bit_cycle() {
    let mut net = torus44();
    let mut store = MessageStore::new();
    let h = store.insert(msg(1, 3, 3, 4));
    net.begin_packet(h, store.get(h), 0);
    let head = Flit {
        msg: h,
        seq: 0,
        is_tail: false,
    };
    assert!(net.inject_flit(NicId(3), 0, head));
    let mut ej = GateUntil {
        open_at: u64::MAX,
        inner: AcceptAll::default(),
    };
    let last = u64::from(u32::MAX) - 1;
    net.step(last, &TestDor, &mut ej);
    let since: Vec<u64> = net
        .router(NodeId(3))
        .iter_vcs()
        .filter_map(|(_, _, vc)| vc.blocked_since())
        .collect();
    assert_eq!(since, [last], "the refused head times from the last cycle");
}

#[test]
#[should_panic(expected = "32-bit blocked-timer range")]
fn step_rejects_cycles_past_the_blocked_timer_range() {
    let mut net = torus44();
    net.step(u64::from(u32::MAX), &TestDor, &mut AcceptAll::default());
}

#[test]
fn blocked_heads_flagged_after_threshold() {
    let mut net = torus44();
    let mut store = MessageStore::new();
    let mut ej = GateUntil {
        open_at: u64::MAX,
        inner: AcceptAll::default(),
    };
    let h = store.insert(msg(1, 0, 5, 4));
    net.begin_packet(h, store.get(h), 0);
    let mut sent = 0;
    for cycle in 0..100 {
        if sent < 4 && net.injection_free(NicId(0), 0) > 0 {
            let ok = net.inject_flit(
                NicId(0),
                0,
                Flit {
                    msg: h,
                    seq: sent,
                    is_tail: sent == 3,
                },
            );
            if ok {
                sent += 1;
            }
        }
        net.step(cycle, &TestDor, &mut ej);
    }
    // The head waits at the destination router for an ejection the gate
    // never grants.
    let dst = net.topo().nic_router(NicId(5));
    let mut flagged = Vec::new();
    net.blocked_heads_at(dst, 25, 100, &mut flagged);
    assert_eq!(flagged.len(), 1, "the head must be flagged as blocked");
    let (node, fh) = flagged[0];
    assert_eq!(node, dst);
    assert_eq!(fh, h);
    assert_eq!(store.get(fh).id, MessageId(1));
    // No other router flags anything: the body flits behind the head are
    // not heads.
    for r in 0..net.topo().num_routers() {
        net.blocked_heads_at(NodeId(r), 25, 100, &mut flagged);
        assert_eq!(flagged.len(), usize::from(NodeId(r) == dst), "router {r}");
    }
    // A longer threshold flags nothing (scratch vector is reusable).
    net.blocked_heads_at(dst, 1000, 100, &mut flagged);
    assert_eq!(flagged.len(), 0);
}

#[test]
fn extraction_reclaims_buffers_and_restores_credits() {
    let mut net = torus44();
    let mut store = MessageStore::new();
    let mut ej = GateUntil {
        open_at: u64::MAX,
        inner: AcceptAll::default(),
    };
    // Long packet wedges across several routers against a closed gate.
    let h = store.insert(msg(1, 0, 2, 12));
    net.begin_packet(h, store.get(h), 0);
    let mut sent = 0u16;
    for cycle in 0..60 {
        if sent < 12
            && net.injection_free(NicId(0), 0) > 0
            && net.inject_flit(
                NicId(0),
                0,
                Flit {
                    msg: h,
                    seq: sent,
                    is_tail: sent == 11,
                },
            )
        {
            sent += 1;
        }
        net.step(cycle, &TestDor, &mut ej);
    }
    let in_net = net.flits_in_network();
    assert!(in_net > 0, "packet must be wedged in network buffers");
    let ex = net.extract_packet(h).expect("packet in flight");
    assert_eq!(ex.flits_in_network as u64, in_net);
    assert_eq!(ex.msg, h);
    assert_eq!(store.get(ex.msg).id, MessageId(1));
    assert_eq!(ex.head_router, net.topo().nic_router(NicId(2)));
    assert_eq!(net.flits_in_network(), 0);
    assert!(net.packets().is_empty());
    // The network must be fully usable afterwards: run fresh traffic
    // through the same links and VCs.
    let mut ej2 = AcceptAll::default();
    run(
        &mut net,
        &mut store,
        vec![msg(2, 0, 2, 12), msg(3, 1, 2, 4)],
        &mut ej2,
        500,
    );
    assert_eq!(
        ej2.delivered.len(),
        2,
        "network must be clean after extraction"
    );
}

#[test]
fn extract_unknown_packet_is_none() {
    let mut net = torus44();
    let mut store = MessageStore::new();
    // A live message that was never injected is not in the packet table.
    let h = store.insert(msg(99, 0, 5, 4));
    assert!(net.extract_packet(h).is_none());
}

#[test]
fn wormhole_vc_exclusivity() {
    // Two long packets from different sources crossing the same router
    // column must both arrive (one waits for the VC, no interleaving
    // corruption).
    let mut net = torus44();
    let mut store = MessageStore::new();
    let mut ej = AcceptAll::default();
    let a = msg(1, 0, 2, 16);
    let b = msg(2, 4, 2, 16); // different row, same destination column
    run(&mut net, &mut store, vec![a, b], &mut ej, 2_000);
    assert_eq!(ej.delivered.len(), 2);
}

#[test]
fn injection_vc_idle_tracks_tails() {
    let mut net = torus44();
    let mut store = MessageStore::new();
    assert!(net.injection_vc_idle(NicId(0), 0));
    let h = store.insert(msg(1, 0, 5, 2));
    net.begin_packet(h, store.get(h), 0);
    net.inject_flit(
        NicId(0),
        0,
        Flit {
            msg: h,
            seq: 0,
            is_tail: false,
        },
    );
    assert!(!net.injection_vc_idle(NicId(0), 0), "mid-packet: not idle");
    net.inject_flit(
        NicId(0),
        0,
        Flit {
            msg: h,
            seq: 1,
            is_tail: true,
        },
    );
    assert!(
        net.injection_vc_idle(NicId(0), 0),
        "tail buffered: idle again"
    );
}

#[test]
fn dateline_bits_set_on_wrap() {
    let topo = Topology::new(TopologyKind::Torus, &[4, 4], 1);
    let mut net = Network::new(topo, 2, 2);
    let mut store = MessageStore::new();
    let mut ej = AcceptAll::default();
    // 0 -> 3 in dim 0: minimal route is Minus through the wraparound.
    let h = store.insert(msg(1, 0, 3, 6));
    net.begin_packet(h, store.get(h), 0);
    let mut sent = 0u16;
    let mut saw_crossed = false;
    for cycle in 0..100 {
        if sent < 6
            && net.injection_free(NicId(0), 0) > 0
            && net.inject_flit(
                NicId(0),
                0,
                Flit {
                    msg: h,
                    seq: sent,
                    is_tail: sent == 5,
                },
            )
        {
            sent += 1;
        }
        net.step(cycle, &TestDor, &mut ej);
        if let Some(pkt) = net.packets().get(h) {
            saw_crossed |= pkt.crossed_dateline & 1 != 0;
        }
    }
    assert_eq!(ej.delivered.len(), 1);
    assert!(
        saw_crossed,
        "wraparound traversal must set the dateline bit"
    );
}

// ---------------------------------------------------------------------
// Randomized stress properties.
// ---------------------------------------------------------------------

mod stress {
    use super::*;
    use proptest::prelude::*;

    /// Random many-packet workloads on random torus sizes: every packet is
    /// delivered exactly once to the right NIC, flits are conserved, and
    /// each packet's flits arrive in order (wormhole never interleaves or
    /// reorders a packet's own flits).
    #[derive(Default)]
    struct OrderCheck {
        body_flits: std::collections::HashMap<u32, u32>,
        delivered: Vec<(NicId, MsgHandle, u32)>,
    }

    impl EjectControl for OrderCheck {
        fn can_accept(&mut self, _n: NicId, _m: MsgHandle, _c: u64) -> bool {
            true
        }
        fn deliver_flit(&mut self, _n: NicId, msg: MsgHandle, _c: u64) {
            // deliver_flit carries non-tail flits; just count — the tail
            // check (count must equal len-1 at tail) happens post-run.
            *self.body_flits.entry(msg.slot()).or_insert(0) += 1;
        }
        fn deliver_packet(&mut self, nic: NicId, msg: MsgHandle, _i: u64, _c: u64) {
            let body = self.body_flits.remove(&msg.slot()).unwrap_or(0);
            self.delivered.push((nic, msg, body));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn random_traffic_conserved(k in 2u32..6,
                                    n_msgs in 1usize..40,
                                    seed in 0u64..10_000) {
            let topo = Topology::new(TopologyKind::Torus, &[k, k], 1);
            let n = topo.num_nics();
            let mut net = Network::new(topo, 2, 2);
            let mut store = MessageStore::new();
            // Simple deterministic PRNG for message parameters.
            let mut x = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
            let mut rnd = move |m: u32| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((x >> 33) as u32) % m
            };
            let msgs: Vec<Message> = (0..n_msgs)
                .map(|i| {
                    let src = rnd(n);
                    let mut dst = rnd(n);
                    if dst == src {
                        dst = (dst + 1) % n;
                    }
                    msg(i as u64, src, dst, 1 + rnd(24))
                })
                .collect();
            let total_flits: u64 = msgs.iter().map(|m| m.length_flits as u64).sum();
            let expect: Vec<(u32, u64)> =
                msgs.iter().map(|m| (m.dst.0, m.id.0)).collect();
            let mut ej = OrderCheck::default();
            run(&mut net, &mut store, msgs, &mut ej, 60_000);
            for (_, h, body) in &ej.delivered {
                prop_assert_eq!(body + 1, store.get(*h).length_flits,
                                "flit count mismatch at some tail");
            }
            prop_assert_eq!(ej.delivered.len(), n_msgs, "every packet delivered");
            prop_assert_eq!(net.counters().flits_delivered, total_flits);
            prop_assert_eq!(net.flits_in_network(), 0);
            // Delivered to the right NICs (as multiset).
            let mut got: Vec<(u32, u64)> = ej
                .delivered
                .iter()
                .map(|(nic, h, _)| (nic.0, store.get(*h).id.0))
                .collect();
            let mut want = expect;
            got.sort_unstable();
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }

        /// Credits never exceed buffer depth and ownership is exclusive,
        /// sampled mid-flight under random load.
        #[test]
        fn credit_and_ownership_invariants(seed in 0u64..5_000) {
            let topo = Topology::new(TopologyKind::Torus, &[4, 4], 1);
            let mut net = Network::new(topo, 2, 2);
            let mut store = MessageStore::new();
            let mut x = seed.wrapping_add(7);
            let mut rnd = move |m: u32| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(99);
                ((x >> 33) as u32) % m
            };
            let msgs: Vec<Message> = (0..24)
                .map(|i| {
                    let src = rnd(16);
                    let mut dst = rnd(16);
                    if dst == src { dst = (dst + 1) % 16; }
                    msg(i as u64, src, dst, 4 + rnd(16))
                })
                .collect();
            // Drive manually so we can inspect between cycles.
            use std::collections::HashMap;
            let mut per_nic: HashMap<u32, Vec<(MsgHandle, u32)>> = HashMap::new();
            for m in msgs {
                let src = m.src;
                let h = store.insert(m);
                net.begin_packet(h, store.get(h), 0);
                per_nic.entry(src.0).or_default().push((h, 0));
            }
            let mut ej = AcceptAll::default();
            for cycle in 0..400u64 {
                for q in per_nic.values_mut() {
                    let Some((h, sent)) = q.first_mut() else { continue };
                    let m = store.get(*h);
                    if net.injection_free(m.src, 0) > 0 {
                        let f = Flit { msg: *h, seq: *sent as u16,
                                       is_tail: *sent + 1 == m.length_flits };
                        if net.inject_flit(m.src, 0, f) {
                            *sent += 1;
                            if *sent == m.length_flits { q.remove(0); }
                        }
                    }
                }
                net.step(cycle, &TestDor, &mut ej);
                if cycle % 37 == 0 {
                    for node in net.topo().routers() {
                        let router = net.router(node);
                        for p in 0..router.ports() {
                            for v in 0..router.vcs() {
                                let ovc = router.out_vc(mdd_topology::PortId(p as u8), v);
                                prop_assert!(ovc.credits <= net.buf_depth());
                            }
                        }
                    }
                }
            }
        }
    }
}

mod sharded {
    use super::*;
    use proptest::prelude::*;

    /// The plan partitions `[0, n)` into contiguous, word-aligned ranges
    /// that cover every router exactly once, at any shard count —
    /// including counts exceeding the wake-set word count, where trailing
    /// shards degenerate to empty ranges.
    #[test]
    fn shard_plan_partitions_exactly() {
        for n in [1u32, 63, 64, 65, 256, 300, 4096] {
            for shards in [1u32, 2, 3, 4, 7, 16, 64] {
                let plan = ShardPlan::new(n, shards);
                assert_eq!(plan.shards(), shards as usize);
                assert_eq!(plan.num_routers(), n, "n={n} shards={shards}");
                let mut covered = 0u32;
                for s in 0..plan.shards() {
                    let (lo, hi) = plan.range(s);
                    assert_eq!(lo, covered, "ranges must be contiguous");
                    assert!(hi >= lo);
                    // Interior boundaries land on wake-set word edges so a
                    // shard's active_bits slice is whole words.
                    if hi < n {
                        assert_eq!(hi % 64, 0, "n={n} shards={shards} s={s}");
                    }
                    for r in lo..hi {
                        assert_eq!(plan.shard_of(r), s, "router {r}");
                    }
                    covered = hi;
                }
                assert_eq!(covered, n, "every router covered");
            }
        }
    }

    /// End-state twin: the same workload driven through `step_sharded`
    /// at 2 and 4 shards finishes with counters, deliveries and residual
    /// network state identical to the one-shard run. (Debug
    /// builds additionally shadow-check every sharded cycle against the
    /// phased reference pass, so a mid-run divergence panics long before
    /// this final comparison.)
    fn run_sharded(
        net: &mut Network,
        store: &mut MessageStore,
        msgs: Vec<Message>,
        shards: u32,
        max: u64,
    ) -> (Vec<(u32, u64, u64)>, u64) {
        use std::collections::HashMap;
        let plan = ShardPlan::new(net.topo().num_routers(), shards);
        let mut ejs: Vec<AcceptAll> = (0..plan.shards()).map(|_| AcceptAll::default()).collect();
        let mut per_nic: HashMap<u32, Vec<(MsgHandle, u32)>> = HashMap::new();
        for m in msgs {
            let src = m.src;
            let h = store.insert(m);
            net.begin_packet(h, store.get(h), 0);
            per_nic.entry(src.0).or_default().push((h, 0));
        }
        let mut cycle = 0;
        while cycle < max {
            for queue in per_nic.values_mut() {
                let Some((h, sent)) = queue.first_mut() else {
                    continue;
                };
                let m = store.get(*h);
                if net.injection_free(m.src, 0) > 0 {
                    let f = Flit {
                        msg: *h,
                        seq: *sent as u16,
                        is_tail: *sent + 1 == m.length_flits,
                    };
                    if net.inject_flit(m.src, 0, f) {
                        *sent += 1;
                        if *sent == m.length_flits {
                            queue.remove(0);
                        }
                    }
                }
            }
            net.step_sharded(cycle, &TestDor, &plan, &mut ejs);
            cycle += 1;
            if per_nic.values().all(Vec::is_empty) && net.flits_in_network() == 0 {
                break;
            }
        }
        let mut delivered: Vec<(u32, u64, u64)> = ejs
            .iter()
            .flat_map(|e| e.delivered.iter())
            .map(|&(nic, h, c)| (nic.0, store.get(h).id.0, c))
            .collect();
        delivered.sort_unstable();
        (delivered, cycle)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]
        #[test]
        fn sharded_step_matches_one_shard(k in 3u32..9,
                                          n_msgs in 1usize..48,
                                          seed in 0u64..10_000) {
            let topo = Topology::new(TopologyKind::Torus, &[k, k], 1);
            let n = topo.num_nics();
            let mut x = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(3);
            let mut rnd = move |m: u32| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((x >> 33) as u32) % m
            };
            let msgs: Vec<Message> = (0..n_msgs)
                .map(|i| {
                    let src = rnd(n);
                    let mut dst = rnd(n);
                    if dst == src {
                        dst = (dst + 1) % n;
                    }
                    msg(i as u64, src, dst, 1 + rnd(20))
                })
                .collect();

            // One-shard reference: the same pass with no cross-shard
            // traffic.
            let mut ref_net = Network::new(topo.clone(), 2, 2);
            let mut ref_store = MessageStore::new();
            let (ref_delivered, ref_cycles) =
                run_sharded(&mut ref_net, &mut ref_store, msgs.clone(), 1, 60_000);
            let rc = ref_net.counters();

            for shards in [2u32, 4] {
                let mut net = Network::new(topo.clone(), 2, 2);
                let mut store = MessageStore::new();
                let (delivered, cycles) =
                    run_sharded(&mut net, &mut store, msgs.clone(), shards, 60_000);
                prop_assert_eq!(cycles, ref_cycles, "wall clock at {} shards", shards);
                prop_assert_eq!(&delivered, &ref_delivered, "deliveries at {} shards", shards);
                prop_assert_eq!(net.counters(), rc, "counters at {} shards", shards);
                prop_assert_eq!(net.flits_in_network(), 0);
            }
        }
    }
}
