//! Unit tests for the network-interface substrate.

use crate::nic::Blocker;
use crate::*;
use mdd_protocol::{
    HopTarget, IdAlloc, Message, MessageId, MessageStore, MsgHandle, MsgType, PatternSpec,
    QueueOrg, ShapeId, TransactionId,
};
use mdd_topology::NicId;
use std::sync::Arc;

fn pat() -> Arc<PatternSpec> {
    Arc::new(PatternSpec::pat271())
}

fn cfg(org: QueueOrg) -> NicConfig {
    NicConfig {
        queue_capacity: 4,
        service_time: 10,
        mshr_limit: 2,
        detect_threshold: 5,
        queue_org: org,
        preallocate: org != QueueOrg::Shared,
    }
}

/// A message of `mtype` at `chain_pos` within shape `shape` of PAT271.
fn msg(id: u64, mtype: u8, shape: u16, pos: u8, src: u32, dst: u32, requester: u32) -> Message {
    Message {
        id: MessageId(id),
        txn: TransactionId(id),
        mtype: MsgType(mtype),
        shape: ShapeId(shape),
        chain_pos: pos,
        src: NicId(src),
        dst: NicId(dst),
        requester: NicId(requester),
        home: NicId(dst),
        owner: NicId(2),
        length_flits: 4,
        created: 0,
        is_backoff: false,
        rescued: false,
        sharers: 0,
    }
}

/// An original request (RQ at chain position 0) from `src` to home `dst`,
/// following the chain-2 shape (RQ -> RP).
fn request(id: u64, src: u32, dst: u32) -> Message {
    msg(id, 0, 0, 0, src, dst, src)
}

/// Eject `m` into the NIC the way the network would: insert into the
/// store, check acceptance, then deliver the tail.
fn eject(nic: &mut Nic, store: &mut MessageStore, m: Message) -> MsgHandle {
    assert!(nic.can_accept(&m));
    let h = store.insert(m);
    nic.on_packet(h, store.get(h));
    h
}

/// Issue a fresh request through the store.
fn issue(nic: &mut Nic, store: &mut MessageStore, m: Message) -> MsgHandle {
    let h = store.insert(m);
    nic.issue_request(h, store);
    h
}

#[test]
fn issue_request_consumes_mshr_and_earmark() {
    let mut store = MessageStore::new();
    let mut nic = Nic::new(NicId(0), cfg(QueueOrg::PerType), pat(), 4);
    assert!(nic.can_issue_request(MsgType(0)));
    issue(&mut nic, &mut store, request(1, 0, 5));
    assert_eq!(nic.outstanding(), 1);
    // PerType org: terminating RP lands in queue index sa_partition(RP)=3.
    assert_eq!(nic.in_queue(3).earmarked(), 1);
    issue(&mut nic, &mut store, request(2, 0, 5));
    assert!(
        !nic.can_issue_request(MsgType(0)),
        "MSHR limit of 2 reached"
    );
}

#[test]
fn queue_org_counts() {
    let p = pat();
    assert_eq!(
        Nic::new(NicId(0), cfg(QueueOrg::Shared), p.clone(), 4).num_queues(),
        1
    );
    assert_eq!(
        Nic::new(NicId(0), cfg(QueueOrg::PerNetwork), p.clone(), 4).num_queues(),
        2
    );
    assert_eq!(
        Nic::new(NicId(0), cfg(QueueOrg::PerType), p, 4).num_queues(),
        4
    );
}

#[test]
fn mc_services_head_and_generates_subordinate() {
    let mut store = MessageStore::new();
    let mut nic = Nic::new(NicId(5), cfg(QueueOrg::Shared), pat(), 4);
    let mut ids = IdAlloc::new();
    ids.next_msg(); // keep ids distinct from the test message's id 0
                    // An RQ (chain-2 shape) arrives at home node 5 from requester 0.
    eject(&mut nic, &mut store, request(0, 0, 5));
    assert_eq!(nic.in_queue(0).len(), 1);
    // Service takes 10 cycles; subordinate RP appears afterwards.
    for c in 0..12 {
        nic.tick(c, &mut ids, &mut store);
    }
    assert_eq!(nic.in_queue(0).len(), 0);
    assert_eq!(nic.out_queue(0).len(), 1);
    let sub = store.get(*nic.out_queue(0).front().unwrap());
    assert_eq!(sub.mtype, MsgType(3), "chain-2 subordinate is RP");
    assert_eq!(sub.dst, NicId(0), "reply goes to the requester");
    assert_eq!(sub.chain_pos, 1);
    assert_eq!(nic.stats.messages_consumed, 1);
}

#[test]
fn terminating_reply_sinks_instantly_and_frees_mshr() {
    let mut store = MessageStore::new();
    let mut nic = Nic::new(NicId(0), cfg(QueueOrg::PerType), pat(), 4);
    let mut ids = IdAlloc::new();
    issue(&mut nic, &mut store, request(1, 0, 5));
    assert_eq!(nic.outstanding(), 1);
    // The terminating RP comes back.
    let rp = msg(2, 3, 0, 1, 5, 0, 0);
    assert!(nic.can_accept(&rp), "earmarked slot guarantees acceptance");
    assert_eq!(nic.in_queue(3).earmarked(), 0, "earmark claimed");
    let h = store.insert(rp);
    nic.on_packet(h, store.get(h));
    nic.tick(100, &mut ids, &mut store);
    assert_eq!(nic.outstanding(), 0, "transaction complete");
    assert_eq!(nic.in_queue(3).len(), 0, "reply drained");
    assert_eq!(nic.stats.transactions_completed, 1);
    assert!((nic.stats.msg_latency.mean() - 100.0).abs() < 1e-9);
}

#[test]
fn mc_blocked_when_output_full() {
    let mut store = MessageStore::new();
    let mut nic = Nic::new(NicId(5), cfg(QueueOrg::Shared), pat(), 4);
    let mut ids = IdAlloc::new();
    // Fill the (shared) output queue with 4 unrelated requests.
    for i in 0..4 {
        let h = store.insert(request(100 + i, 5, 1));
        assert!(nic.try_deposit_output(h, &store).is_ok());
    }
    eject(&mut nic, &mut store, request(0, 0, 5));
    for c in 0..50 {
        nic.tick(c, &mut ids, &mut store);
    }
    assert_eq!(
        nic.in_queue(0).len(),
        1,
        "head cannot be serviced: no output space for its subordinate"
    );
}

#[test]
fn detector_fires_after_threshold() {
    let mut store = MessageStore::new();
    let mut nic = Nic::new(NicId(5), cfg(QueueOrg::Shared), pat(), 4);
    let mut ids = IdAlloc::new();
    // Fill output queue (4 slots) and input queue (4 requests).
    for i in 0..4 {
        let h = store.insert(request(100 + i, 5, 1));
        nic.try_deposit_output(h, &store).unwrap();
    }
    for i in 0..4 {
        eject(&mut nic, &mut store, request(i, 0, 5));
    }
    nic.tick(0, &mut ids, &mut store);
    assert!(!nic.detection_fired(0), "time-out not yet elapsed");
    for c in 1..=6 {
        nic.tick(c, &mut ids, &mut store);
    }
    assert!(nic.detection_fired(6), "condition persisted past T=5");
    assert_eq!(nic.stats.deadlocks_detected, 1, "one episode counted once");
}

#[test]
fn deflection_generates_backoff_reply() {
    // Home node 5 under DR with a stuck FRQ-generating head (chain-3 shape).
    let mut store = MessageStore::new();
    let mut nic = Nic::new(NicId(5), cfg(QueueOrg::PerNetwork), pat(), 4);
    let mut ids = IdAlloc::new();
    // Fill the request output queue (network 0) so FRQ cannot be deposited.
    for i in 0..4 {
        let h = store.insert(request(100 + i, 5, 1));
        nic.try_deposit_output(h, &store).unwrap();
    }
    // Fill the request input queue with chain-3 RQs (subordinate FRQ).
    for i in 0..4 {
        eject(&mut nic, &mut store, msg(i, 0, 1, 0, 0, 5, 0)); // shape 1 = chain-3
    }
    for c in 0..6 {
        nic.tick(c, &mut ids, &mut store);
    }
    assert!(nic.detection_fired(5));
    assert!(nic.try_deflect(6, &mut ids, &mut store));
    assert_eq!(nic.stats.deflections, 1);
    assert_eq!(nic.in_queue(0).len(), 3, "stuck head removed");
    // The backoff reply sits in the reply output queue (network 1).
    assert_eq!(nic.out_queue(1).len(), 1);
    let bkf = store.get(*nic.out_queue(1).front().unwrap());
    assert!(bkf.is_backoff);
    assert_eq!(bkf.dst, NicId(0), "backoff goes to the requester");
    assert_eq!(bkf.mtype, pat().protocol().backoff_type().unwrap());
}

#[test]
fn backoff_reply_resumes_chain_at_requester() {
    let mut store = MessageStore::new();
    let mut nic = Nic::new(NicId(0), cfg(QueueOrg::PerNetwork), pat(), 4);
    let mut ids = IdAlloc::new();
    // Requester receives a backoff reply for a chain-3 transaction whose
    // deflected message was FRQ (chain position 1).
    let mut bkf = msg(7, 4, 1, 0, 5, 0, 0); // BKF = type 4
    bkf.is_backoff = true;
    eject(&mut nic, &mut store, bkf);
    nic.tick(0, &mut ids, &mut store);
    // The requester now issues the FRQ itself, to the owner.
    let frq_q = QueueOrg::PerNetwork.queue_index(pat().protocol(), MsgType(1));
    assert_eq!(nic.out_queue(frq_q).len(), 1);
    let frq = store.get(*nic.out_queue(frq_q).front().unwrap());
    assert_eq!(frq.mtype, MsgType(1));
    assert_eq!(frq.dst, NicId(2), "forwarded request goes to the owner");
    assert_eq!(frq.src, NicId(0), "sent by the requester, not the home");
}

#[test]
fn rescue_from_input_produces_subordinate_for_dmb() {
    let mut store = MessageStore::new();
    let mut nic = Nic::new(NicId(5), cfg(QueueOrg::Shared), pat(), 4);
    let mut ids = IdAlloc::new();
    for i in 0..4 {
        let h = store.insert(request(100 + i, 5, 1));
        nic.try_deposit_output(h, &store).unwrap();
    }
    for i in 0..4 {
        eject(&mut nic, &mut store, request(i, 0, 5));
    }
    for c in 0..6 {
        nic.tick(c, &mut ids, &mut store);
    }
    assert!(nic.detection_fired(5));
    assert!(nic.begin_rescue_from_input(6, &store).is_some());
    assert!(nic.rescue_busy());
    assert_eq!(nic.in_queue(0).len(), 3, "head removed for rescue");
    // MC processes the rescued head; subordinate emerges for the DMB.
    let mut out = None;
    for c in 6..30 {
        nic.tick(c, &mut ids, &mut store);
        if let Some(subs) = nic.take_rescue_output() {
            out = Some((c, subs));
            break;
        }
    }
    let (c, subs) = out.expect("rescue processing must complete");
    assert!(c >= 16, "service time of 10 cycles applies");
    assert_eq!(subs.len(), 1);
    assert_eq!(
        store.get(subs[0]).mtype,
        MsgType(3),
        "RQ's subordinate is RP"
    );
    assert!(!nic.rescue_busy());
    assert_eq!(nic.stats.rescues, 1);
}

#[test]
fn rescue_process_waits_for_current_mc_operation() {
    let mut store = MessageStore::new();
    let mut nic = Nic::new(NicId(5), cfg(QueueOrg::Shared), pat(), 4);
    let mut ids = IdAlloc::new();
    // Normal work first.
    eject(&mut nic, &mut store, request(0, 0, 5));
    nic.tick(0, &mut ids, &mut store); // MC starts servicing at cycle 0
                                       // A lane-delivered message needing preemption.
    let lane = store.insert(msg(50, 0, 1, 0, 1, 5, 1));
    assert_eq!(nic.rescue_process(lane), RescueOutcome::Scheduled);
    // Completion of the normal op happens at cycle 10; rescue runs after.
    let mut done_at = None;
    for c in 1..40 {
        nic.tick(c, &mut ids, &mut store);
        if let Some(_subs) = nic.take_rescue_output() {
            done_at = Some(c);
            break;
        }
    }
    let c = done_at.expect("rescue completes");
    assert!(c >= 20, "current op (10) then rescue op (10): got {c}");
    // The normal subordinate was also produced.
    assert_eq!(nic.out_queue(0).len(), 1);
}

#[test]
fn deposit_paths() {
    let mut store = MessageStore::new();
    let mut nic = Nic::new(NicId(0), cfg(QueueOrg::Shared), pat(), 4);
    // Input deposit succeeds until the queue is full.
    for i in 0..4 {
        let h = store.insert(request(i, 1, 0));
        assert!(nic.try_deposit_input(h, &store).is_ok());
    }
    let h = store.insert(request(9, 1, 0));
    assert!(nic.try_deposit_input(h, &store).is_err());
    // Output deposit likewise.
    for i in 0..4 {
        let h = store.insert(request(10 + i, 0, 1));
        assert!(nic.try_deposit_output(h, &store).is_ok());
    }
    let h = store.insert(request(19, 0, 1));
    assert!(nic.try_deposit_output(h, &store).is_err());
}

#[test]
fn sink_terminating_via_preemption() {
    let mut store = MessageStore::new();
    let mut nic = Nic::new(NicId(0), cfg(QueueOrg::Shared), pat(), 4);
    issue(&mut nic, &mut store, request(1, 0, 5));
    let rp = store.insert(msg(2, 3, 0, 1, 5, 0, 0));
    nic.sink_terminating(rp, 44, &mut store);
    assert_eq!(nic.outstanding(), 0);
    assert_eq!(nic.stats.transactions_completed, 1);
}

#[test]
fn injection_streams_one_flit_per_cycle() {
    use mdd_router::{AcceptAll, Network, PacketState, RouteCandidate, Routing};
    use mdd_topology::{MinimalHops, NodeId, Topology};

    struct Dor;
    impl Routing for Dor {
        fn candidates(
            &self,
            topo: &Topology,
            node: NodeId,
            pkt: &PacketState,
            _hint: u64,
            out: &mut Vec<RouteCandidate>,
        ) {
            if node == pkt.dst_router {
                out.push(RouteCandidate {
                    port: topo.local_port(topo.nic_local_index(pkt.dst)),
                    vc: 0,
                });
                return;
            }
            let mh = MinimalHops::new(topo, node, pkt.dst_router);
            let d = mh.first_unaligned().unwrap();
            let dir = mh.dim(d).dor_direction().unwrap();
            out.push(RouteCandidate {
                port: topo.port(d, dir),
                vc: (pkt.crossed_dateline >> d) & 1,
            });
        }
        fn injection_vcs(&self, _pkt: &PacketState, out: &mut Vec<u8>) {
            out.push(0);
        }
    }

    let mut store = MessageStore::new();
    let topo = Topology::new(&[4, 4], 1);
    let mut net = Network::new(topo, 2, 2);
    let mut nic = Nic::new(NicId(0), cfg(QueueOrg::Shared), pat(), 2);
    let mut delivered = 0;
    // Two requests queued for injection.
    issue(&mut nic, &mut store, request(1, 0, 5));
    // Second transaction is allowed (mshr_limit = 2).
    assert!(nic.can_issue_request(MsgType(0)));
    issue(&mut nic, &mut store, request(2, 0, 6));
    for c in 0..120 {
        nic.injection_tick(&mut net, &Dor, c, &store);
        net.step(c, &Dor, &mut AcceptAll);
        delivered += net.delivered().len();
    }
    assert_eq!(delivered, 2, "both requests traverse the network");
    assert_eq!(net.counters().flits_injected, 8, "two 4-flit packets");
    assert_eq!(nic.buffered_messages(), 0);
}

#[test]
fn abort_injection_removes_active_head() {
    use mdd_router::{Network, PacketState, RouteCandidate, Routing};
    use mdd_topology::{NodeId, Topology};
    struct Stub;
    impl Routing for Stub {
        fn candidates(
            &self,
            _t: &Topology,
            _n: NodeId,
            _p: &PacketState,
            _h: u64,
            out: &mut Vec<RouteCandidate>,
        ) {
            out.push(RouteCandidate {
                port: mdd_topology::PortId(0),
                vc: 0,
            });
        }
        fn injection_vcs(&self, _p: &PacketState, out: &mut Vec<u8>) {
            out.push(0);
        }
    }
    let mut store = MessageStore::new();
    let topo = Topology::new(&[4, 4], 1);
    let mut net = Network::new(topo, 2, 2);
    let mut nic = Nic::new(NicId(0), cfg(QueueOrg::Shared), pat(), 2);
    let h = issue(&mut nic, &mut store, request(1, 0, 5));
    nic.injection_tick(&mut net, &Stub, 0, &store); // starts injection, sends one flit
    assert!(nic.abort_injection(h));
    assert_eq!(nic.out_queue(0).len(), 0, "aborted message left the queue");
    assert!(!nic.abort_injection(h), "already aborted");
}

// ---------------------------------------------------------------------
// Multicast / join semantics (Appendix Case 4 machinery).
// ---------------------------------------------------------------------

/// A pattern with one multicast shape: RQ -> INV (x sharers) -> ACK
/// (joined at home) -> RP.
fn multicast_pat() -> Arc<PatternSpec> {
    use mdd_protocol::{ProtocolSpec, TransactionShape};
    let p = ProtocolSpec::s1_generic();
    let (rq, inv, ack, rp) = (MsgType(0), MsgType(1), MsgType(2), MsgType(3));
    Arc::new(PatternSpec::new(
        "MCAST",
        p,
        vec![(
            1.0,
            TransactionShape::new(
                vec![rq, inv, ack, rp],
                vec![
                    HopTarget::Home,
                    HopTarget::Owner,
                    HopTarget::Home,
                    HopTarget::Requester,
                ],
            )
            .with_multicast(1),
        )],
    ))
}

/// A write request carrying a 3-sharer invalidation set.
fn mcast_request(id: u64, src: u32, home: u32, sharers: u64) -> Message {
    let mut m = msg(id, 0, 0, 0, src, home, src);
    m.sharers = sharers;
    m
}

#[test]
fn multicast_generates_one_inv_per_sharer() {
    let mut store = MessageStore::new();
    let mut nic = Nic::new(NicId(5), cfg(QueueOrg::Shared), multicast_pat(), 4);
    let mut ids = IdAlloc::new();
    ids.next_msg();
    eject(&mut nic, &mut store, mcast_request(0, 0, 5, 0b1110)); // sharers 1, 2, 3
    for c in 0..12 {
        nic.tick(c, &mut ids, &mut store);
    }
    assert_eq!(nic.out_queue(0).len(), 3, "one INV per sharer");
    let dsts: Vec<u32> = nic
        .out_queue(0)
        .iter()
        .map(|h| store.get(*h).dst.0)
        .collect();
    assert_eq!(dsts, vec![1, 2, 3]);
    for h in nic.out_queue(0).iter() {
        let s = store.get(*h);
        assert_eq!(s.mtype, MsgType(1));
        assert_eq!(s.chain_pos, 1);
        assert_eq!(s.sharers, 0b1110, "branch count travels with the chain");
    }
}

#[test]
fn multicast_blocked_without_room_for_all_branches() {
    // Queue capacity 4; 3 slots already used: only 1 left but fanout 3.
    let mut store = MessageStore::new();
    let mut nic = Nic::new(NicId(5), cfg(QueueOrg::Shared), multicast_pat(), 4);
    let mut ids = IdAlloc::new();
    for i in 0..3 {
        let h = store.insert(mcast_request(100 + i, 5, 1, 0));
        nic.try_deposit_output(h, &store).unwrap();
    }
    eject(&mut nic, &mut store, mcast_request(0, 0, 5, 0b1110));
    for c in 0..30 {
        nic.tick(c, &mut ids, &mut store);
    }
    assert_eq!(
        nic.in_queue(0).len(),
        1,
        "partial reservations must be rolled back, head stays queued"
    );
    assert_eq!(nic.out_queue(0).len(), 3, "no partial fan-out");
    assert_eq!(
        nic.out_queue(0).committed(),
        3,
        "no reservation left behind"
    );
    assert_eq!(
        nic.head_blocker(0, &store),
        Some(Blocker::Output {
            sub: MsgType(1),
            free: 1,
            need: 3
        }),
        "the head waits on output room for all three INV branches"
    );
}

#[test]
fn return_earmark_blocks_service_when_reply_queue_full() {
    // DR home node 5: a chain-4 RQ (RQ -> FRQ -> FRP -> RP) whose FRP
    // returns here, so service must earmark a reply-queue slot first.
    let mut store = MessageStore::new();
    let mut nic = Nic::new(NicId(5), cfg(QueueOrg::PerNetwork), pat(), 4);
    let mut ids = IdAlloc::new();
    // Commit all four reply input slots (network 1) to FRPs that are
    // still ejecting.
    for i in 0..4 {
        assert!(nic.can_accept(&msg(100 + i, 2, 2, 2, 2, 5, 1)));
    }
    assert!(nic.in_queue(1).is_full());
    eject(&mut nic, &mut store, msg(0, 0, 2, 0, 0, 5, 0));
    assert!(nic.out_queue(0).has_space(), "the FRQ has output room");
    assert_eq!(
        nic.head_blocker(0, &store),
        Some(Blocker::Earmark { rq: 1 }),
        "the head waits on the return-reply earmark"
    );
    for c in 0..30 {
        nic.tick(c, &mut ids, &mut store);
    }
    assert_eq!(nic.in_queue(0).len(), 1, "the MC did not start the head");
    assert_eq!(nic.out_queue(0).committed(), 0, "no output reserved");
    assert_eq!(nic.in_queue(1).earmarked(), 0, "no earmark taken");
    assert_eq!(nic.stats.messages_consumed, 0);
}

#[test]
fn deflection_skips_stuck_head_with_reply_subordinate() {
    // Owner node 5 under per-type queues: FRQs of chain-4 shapes generate
    // the reply FRP, which a backoff cannot replace.
    let mut store = MessageStore::new();
    let mut nic = Nic::new(NicId(5), cfg(QueueOrg::PerType), pat(), 4);
    let mut ids = IdAlloc::new();
    let p = pat();
    let frp_q = QueueOrg::PerType.queue_index(p.protocol(), MsgType(2));
    let frq_q = QueueOrg::PerType.queue_index(p.protocol(), MsgType(1));
    let bkf_q = QueueOrg::PerType.queue_index(p.protocol(), p.protocol().backoff_type().unwrap());
    assert_ne!(bkf_q, frp_q, "the backoff reply would have room");
    for i in 0..4 {
        let h = store.insert(msg(100 + i, 2, 2, 2, 5, 1, 1));
        nic.try_deposit_output(h, &store).unwrap();
    }
    for i in 0..4 {
        eject(&mut nic, &mut store, msg(i, 1, 2, 1, 1, 5, 0));
    }
    for c in 0..6 {
        nic.tick(c, &mut ids, &mut store);
    }
    assert_eq!(
        nic.head_blocker(frq_q, &store),
        Some(Blocker::Output {
            sub: MsgType(2),
            free: 0,
            need: 1
        })
    );
    assert!(nic.detection_fired(5), "the head is stuck");
    assert!(!nic.try_deflect(6, &mut ids, &mut store));
    assert_eq!(nic.in_queue(frq_q).len(), 4, "the stuck head stays queued");
    assert!(nic.out_queue(bkf_q).is_empty(), "no backoff reply sent");
    assert_eq!(nic.stats.deflections, 0);
}

#[test]
fn join_waits_for_all_branch_replies() {
    let mut store = MessageStore::new();
    let mut nic = Nic::new(NicId(5), cfg(QueueOrg::Shared), multicast_pat(), 4);
    let mut ids = IdAlloc::new();
    ids.next_msg();
    // Three ACKs (chain position 2) arrive at the home for one txn.
    let mut cycle = 0u64;
    for (k, src) in [1u32, 2, 3].iter().enumerate() {
        let mut ack = msg(10 + k as u64, 2, 0, 2, *src, 5, 0);
        ack.txn = TransactionId(77); // all branches belong to one transaction
        ack.sharers = 0b1110;
        eject(&mut nic, &mut store, ack);
        // Service this ack fully before delivering the next.
        for _ in 0..15 {
            nic.tick(cycle, &mut ids, &mut store);
            cycle += 1;
        }
        let rp_count = nic.out_queue(0).len();
        if k < 2 {
            assert_eq!(
                rp_count, 0,
                "no reply until the last ack (got one after ack {k})"
            );
        } else {
            assert_eq!(rp_count, 1, "final ack releases the terminating reply");
            let rp = store.get(*nic.out_queue(0).front().unwrap());
            assert_eq!(rp.mtype, MsgType(3));
            assert_eq!(rp.dst, NicId(0));
        }
    }
}

#[test]
fn rescue_of_multicast_head_yields_all_branches() {
    let mut store = MessageStore::new();
    let mut nic = Nic::new(NicId(5), cfg(QueueOrg::Shared), multicast_pat(), 4);
    let mut ids = IdAlloc::new();
    ids.next_msg();
    // Wedge: output full, input full of multicast-generating heads.
    for i in 0..4 {
        let h = store.insert(mcast_request(100 + i, 5, 1, 0));
        nic.try_deposit_output(h, &store).unwrap();
    }
    for i in 0..4 {
        eject(&mut nic, &mut store, mcast_request(i, 0, 5, 0b0110));
    }
    for c in 0..6 {
        nic.tick(c, &mut ids, &mut store);
    }
    assert!(nic.detection_fired(5));
    assert!(nic.begin_rescue_from_input(6, &store).is_some());
    let mut subs = None;
    for c in 6..40 {
        nic.tick(c, &mut ids, &mut store);
        if let Some(v) = nic.take_rescue_output() {
            subs = Some(v);
            break;
        }
    }
    let subs = subs.expect("rescue completes");
    assert_eq!(
        subs.len(),
        2,
        "Appendix Case 4: all branch subordinates rescued"
    );
    let dsts: Vec<u32> = subs.iter().map(|h| store.get(*h).dst.0).collect();
    assert_eq!(dsts, vec![1, 2]);
}

// ---------------------------------------------------------------------
// Queue accounting properties.
// ---------------------------------------------------------------------

mod queue_properties {
    use super::*;
    use proptest::prelude::*;

    /// Random interleavings of reservations, earmarks and pushes never
    /// violate the capacity invariant, and the queue accepts exactly while
    /// committed occupancy is below capacity.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        Reserve,
        ReserveFanout,
        PushReserved,
        PushNew,
        Earmark,
        ClaimEarmark,
        Pop,
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            Just(Op::Reserve),
            Just(Op::ReserveFanout),
            Just(Op::PushReserved),
            Just(Op::PushNew),
            Just(Op::Earmark),
            Just(Op::ClaimEarmark),
            Just(Op::Pop),
        ]
    }

    proptest! {
        #[test]
        fn capacity_invariant_holds(cap in 1u32..12,
                                    ops in proptest::collection::vec(arb_op(), 0..200)) {
            let mut store = MessageStore::new();
            let mut q = MsgQueue::new(cap);
            let mut next_id = 0u64;
            for op in ops {
                match op {
                    Op::Reserve => {
                        let had_space = q.has_space();
                        prop_assert_eq!(q.reserve(1), had_space,
                            "reserve must succeed iff space existed");
                    }
                    Op::ReserveFanout => {
                        let (free, committed) = (q.free(), q.committed());
                        let ok = q.reserve(3);
                        prop_assert_eq!(ok, free >= 3, "all three slots or none");
                        prop_assert_eq!(q.committed(), committed + if ok { 3 } else { 0 });
                    }
                    Op::PushReserved => {
                        if q.inflight() > 0 {
                            next_id += 1;
                            let h = store.insert(super::request(next_id, 0, 1));
                            q.push_reserved(h);
                        }
                    }
                    Op::PushNew => {
                        next_id += 1;
                        let had_space = q.has_space();
                        let h = store.insert(super::request(next_id, 0, 1));
                        let r = q.push_new(h);
                        prop_assert_eq!(r.is_ok(), had_space);
                    }
                    Op::Earmark => {
                        let had_space = q.has_space();
                        prop_assert_eq!(q.earmark(), had_space);
                    }
                    Op::ClaimEarmark => {
                        let had = q.earmarked() > 0;
                        prop_assert_eq!(q.claim_earmark(), had);
                    }
                    Op::Pop => {
                        let _ = q.pop();
                    }
                }
                prop_assert!(q.committed() <= cap, "capacity invariant violated");
                prop_assert_eq!(q.free(), cap - q.committed());
                prop_assert_eq!(q.is_full(), !q.has_space());
                prop_assert!(q.len() as u32 + q.inflight() + q.earmarked() == q.committed());
            }
        }
    }
}
