//! `DegradedRouting`'s delegation property: away from a fault, fault-aware
//! routing offers exactly what the scheme's own routing offers.
//!
//! At every router, for every destination and message type, the
//! candidate vector of `DegradedRouting` equals `SchemeRouting`'s under
//! the same rotation hint and dateline mask wherever the destination's
//! distance field is unchanged at the router and at each of its
//! neighbours and no link of the router is down. The static verifier
//! relies on this: it analyses faulted networks with `DegradedRouting`
//! and pristine ones with `SchemeRouting`.

use mdd_protocol::{
    Message, MessageId, MessageStore, MsgType, PatternSpec, ShapeId, TransactionId,
};
use mdd_router::{PacketState, Routing};
use mdd_routing::{DegradedRouting, Scheme, SchemeRouting, VcMap};
use mdd_topology::{Direction, FaultSet, NicId, NodeId, Topology};

#[test]
fn degraded_routing_delegates_away_from_the_fault() {
    let mut store = MessageStore::new();
    let handle = store.insert(Message {
        id: MessageId(1),
        txn: TransactionId(1),
        mtype: MsgType(0),
        shape: ShapeId(0),
        chain_pos: 0,
        src: NicId(0),
        dst: NicId(0),
        requester: NicId(0),
        home: NicId(0),
        owner: NicId(0),
        length_flits: 1,
        created: 0,
        is_backoff: false,
        rescued: false,
        sharers: 0,
    });
    let (mut checked, mut skipped) = (0u64, 0u64);
    for radix in [[4u32, 4], [8, 8]] {
        let topo = Topology::new(&radix, 1);
        let mut faults = FaultSet::new(&topo);
        faults.fail_link(&topo, NodeId(1), 0, Direction::Plus);
        let fields = faults.distance_fields(&topo);
        let untouched = |node: NodeId, dst: NodeId| {
            let same = |x: NodeId| fields[dst.index()][x.index()] == topo.distance(x, dst);
            same(node)
                && (0..topo.dims()).all(|d| {
                    [Direction::Plus, Direction::Minus].into_iter().all(|dir| {
                        !faults.link_down(node, d, dir) && same(topo.neighbor(node, d, dir))
                    })
                })
        };
        for scheme in Scheme::ALL {
            for vcs in [2u8, 4, 8] {
                for pattern in [PatternSpec::pat100(), PatternSpec::pat271()] {
                    let protocol = pattern.protocol();
                    let base = SchemeRouting::new(VcMap::build_degraded(scheme, protocol, vcs));
                    let degraded = DegradedRouting::new(&base, &faults, &fields);
                    let (mut want, mut got) = (Vec::new(), Vec::new());
                    for node in topo.routers() {
                        for dst in topo.routers() {
                            if !untouched(node, dst) {
                                skipped += 1;
                                continue;
                            }
                            for t in protocol.msg_types() {
                                let pkt = PacketState {
                                    msg: handle,
                                    mtype: t,
                                    src: NicId(0),
                                    dst: NicId(dst.0),
                                    dst_router: dst,
                                    crossed_dateline: ((node.0 + dst.0) % 4) as u8,
                                };
                                let hint = u64::from(node.0) * 31 + u64::from(dst.0);
                                want.clear();
                                got.clear();
                                base.candidates(&topo, node, &pkt, hint, &mut want);
                                degraded.candidates(&topo, node, &pkt, hint, &mut got);
                                assert_eq!(
                                    got,
                                    want,
                                    "{radix:?} {} vcs={vcs} {} type {} at {node} to {dst}",
                                    scheme.label(),
                                    pattern.name(),
                                    t.0
                                );
                                checked += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(
        checked > 0 && skipped > 0,
        "{checked} checked, {skipped} skipped"
    );
}
