//! `vc_stalls` on a stalled router, counted by hand.
//!
//! Every pass of a router counts each waiting head it cannot route once,
//! whether the head takes a full allocation attempt or the stall memo
//! short-cuts it. This case builds that state directly: two transit heads
//! stalled behind an owned output VC. The router holds flits, so it stays
//! on the wake set and runs its pass every cycle, and the counter rises by
//! exactly two per cycle of the stall.
//!
//! The observability layer is process-global, so this case has its own
//! test binary.

use mdd_obs::CounterId;
use mdd_protocol::{Message, MessageId, MessageStore, MsgType, ShapeId, TransactionId};
use mdd_router::{AcceptAll, Flit, Network, PacketState, RouteCandidate, Routing};
use mdd_topology::{MinimalHops, NicId, NodeId, Topology, TopologyKind};

/// Dimension-order routing on VC 0 only (the case never wraps a ring).
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
        let port = if node == pkt.dst_router {
            topo.local_port(topo.nic_local_index(pkt.dst))
        } else {
            let mh = MinimalHops::new(topo, node, pkt.dst_router);
            let d = mh.first_unaligned().expect("not at destination");
            topo.port(d, mh.dim(d).dor_direction().expect("unaligned dimension"))
        };
        out.push(RouteCandidate { port, vc: 0 });
    }

    fn injection_vcs(&self, _pkt: &PacketState, out: &mut Vec<u8>) {
        out.push(0);
    }
}

fn msg(id: u64, src: NicId, dst: NicId, len: u32) -> Message {
    Message {
        id: MessageId(id),
        txn: TransactionId(id),
        mtype: MsgType(0),
        shape: ShapeId(0),
        chain_pos: 0,
        src,
        dst,
        requester: src,
        home: dst,
        owner: dst,
        length_flits: len,
        created: 0,
        is_backoff: false,
        rescued: false,
        sharers: 0,
    }
}

fn vc_stalls() -> u64 {
    mdd_obs::counters_snapshot().get(CounterId::VcStalls)
}

/// Transit heads at router 1 waiting for the output VC toward router 2.
fn waiting_heads(net: &Network) -> usize {
    net.router(NodeId(1))
        .iter_vcs()
        .filter(|(_, _, vc)| vc.awaiting_route())
        .count()
}

#[test]
fn stalled_router_counts_every_stalled_head_every_cycle() {
    mdd_obs::install(16);
    // An 8×8 torus with two NICs per router, one VC and two-flit buffers.
    let mut net = Network::new(Topology::new(TopologyKind::Torus, &[8, 8], 2), 1, 2);
    let nics_at = |r: u32| -> Vec<NicId> {
        (0..net.topo().num_nics())
            .map(NicId)
            .filter(|&n| net.topo().nic_router(n) == NodeId(r))
            .collect()
    };
    let (at0, at1, at3) = (nics_at(0), nics_at(1), nics_at(3));
    let dst_a = nics_at(2)[0];
    let mut store = MessageStore::new();
    let mut ej = AcceptAll::default();
    let mut cycle = 0u64;
    let mut step = |net: &mut Network, cycle: &mut u64| {
        net.step(*cycle, &Dor, &mut ej);
        *cycle += 1;
    };
    let flit = |h, seq, len| Flit {
        msg: h,
        seq,
        is_tail: seq + 1 == len,
    };

    // Packet A (router 0 → router 2, four flits) sends everything but its
    // tail. Its three flits eject, and A keeps the output VC from router
    // 1 toward router 2 until the tail passes.
    let a = store.insert(msg(1, at0[0], dst_a, 4));
    net.begin_packet(a, store.get(a), 0);
    let mut sent = 0;
    while sent < 3 || net.flits_in_network() > 0 {
        if sent < 3 && net.inject_flit(at0[0], 0, flit(a, sent, 4)) {
            sent += 1;
        }
        step(&mut net, &mut cycle);
        assert!(cycle < 100, "A's first three flits must drain");
    }

    // Packets B and C (router 1's two NICs → router 3) both need that
    // output VC: their heads stall behind A at router 1, in transit.
    for (id, (&src, &dst)) in at1.iter().zip(&at3).enumerate() {
        let h = store.insert(msg(2 + id as u64, src, dst, 2));
        net.begin_packet(h, store.get(h), cycle);
        for seq in 0..2 {
            assert!(net.inject_flit(src, 0, flit(h, seq, 2)), "buffer has room");
        }
    }

    // K cycles of stall. The first pass makes a full allocation attempt
    // for each head and memoizes the stall; every later pass takes the
    // memo. Either way each head counts once per cycle, and router 1,
    // holding all four flits, stays the one router on the wake set.
    const K: u64 = 50;
    for _ in 0..K {
        let before = vc_stalls();
        step(&mut net, &mut cycle);
        assert_eq!(
            vc_stalls() - before,
            2,
            "two stalled heads at cycle {cycle}"
        );
        assert_eq!(waiting_heads(&net), 2);
        assert_eq!(net.flits_in_network(), 4);
        assert_eq!(
            net.active_routers(),
            1,
            "router 1 holds flits, so it stays awake"
        );
    }

    // A's tail crosses router 1 and frees the VC only as it leaves, so
    // every pass until then counts both heads. The next pass routes one
    // head onto the freed VC and counts the other, stalled behind it.
    assert!(net.inject_flit(at0[0], 0, flit(a, 3, 4)));
    loop {
        let before = vc_stalls();
        step(&mut net, &mut cycle);
        if waiting_heads(&net) < 2 {
            assert_eq!(waiting_heads(&net), 1);
            assert_eq!(vc_stalls() - before, 1, "one stalled head at cycle {cycle}");
            break;
        }
        assert_eq!(
            vc_stalls() - before,
            2,
            "two stalled heads at cycle {cycle}"
        );
        assert!(cycle < K + 200, "the tail must reach router 1");
    }

    // Everything then drains: A's tail, then B and C.
    let freed_at = cycle;
    while net.flits_in_network() > 0 {
        step(&mut net, &mut cycle);
        assert!(net.active_routers() > 0, "routers holding flits stay awake");
        assert!(cycle < freed_at + 100, "the network must drain");
    }
    assert_eq!(ej.delivered.len(), 3);
    mdd_obs::uninstall();
}
