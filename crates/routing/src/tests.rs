//! Tests for VC maps and the scheme routing function, including the
//! paper's channel-availability arithmetic from Sections 2.1 and 4.3.2.

use crate::*;
use mdd_protocol::{
    Message, MessageId, MessageStore, MsgType, ProtocolSpec, ShapeId, TransactionId,
};
use mdd_router::{PacketState, RouteCandidate, Routing};
use mdd_topology::{NicId, NodeId, Topology};

const SA: Scheme = Scheme::StrictAvoidance {
    shared_adaptive: false,
};
const SAP: Scheme = Scheme::StrictAvoidance {
    shared_adaptive: true,
};

fn pkt(mtype: u8, src: u32, dst: u32, crossed: u8) -> PacketState {
    // Routing reads only the fields cached in PacketState; the handle is
    // minted from a throwaway store to keep it well-formed.
    let mut store = MessageStore::new();
    let h = store.insert(Message {
        id: MessageId(1),
        txn: TransactionId(1),
        mtype: MsgType(mtype),
        shape: ShapeId(0),
        chain_pos: 0,
        src: NicId(src),
        dst: NicId(dst),
        requester: NicId(src),
        home: NicId(dst),
        owner: NicId(dst),
        length_flits: 4,
        created: 0,
        is_backoff: false,
        rescued: false,
        sharers: 0,
    });
    PacketState {
        msg: h,
        mtype: MsgType(mtype),
        src: NicId(src),
        dst: NicId(dst),
        dst_router: NodeId(dst),
        crossed_dateline: crossed,
    }
}

#[test]
fn sa_infeasible_with_4_vcs_and_chain_4() {
    // Figure 8 omits SA for all patterns except PAT100 at 4 VCs.
    let p = ProtocolSpec::s1_generic();
    assert!(matches!(
        VcMap::build(SA, &p, 4),
        Err(SchemeConfigError::TooFewVirtualChannels {
            needed: 8,
            available: 4
        })
    ));
    // PAT100's two-type protocol is feasible at 4 VCs.
    assert!(VcMap::build(SA, &ProtocolSpec::two_type(), 4).is_ok());
}

#[test]
fn dr_feasible_with_4_vcs() {
    let p = ProtocolSpec::s1_generic();
    let map = VcMap::build(Scheme::DeflectiveRecovery, &p, 4).unwrap();
    // 2 VCs per network, all escape: DOR-only, availability 1.
    for t in p.msg_types() {
        let tv = map.for_type(t);
        assert_eq!(tv.escape.len(), 2);
        assert_eq!(tv.adaptive.len(), 0);
        assert_eq!(tv.paper_availability(), 1);
    }
    // Request and reply types use disjoint VC sets.
    let req = map.for_type(MsgType(0)).all();
    let rep = map.for_type(MsgType(3)).all();
    assert!(req.iter().all(|v| !rep.contains(v)));
}

/// Figure 9 discussion: with 8 VCs, SA on a chain-4 protocol has only the
/// escape pair per type (availability 1); on PAT100's chain-2 protocol,
/// availability is 3 (or 5 with the shared-adaptive variant).
#[test]
fn paper_availability_8_vcs() {
    let p4 = ProtocolSpec::s1_generic();
    let map = VcMap::build(SA, &p4, 8).unwrap();
    assert_eq!(map.for_type(MsgType(0)).paper_availability(), 1);

    let p2 = ProtocolSpec::two_type();
    let map = VcMap::build(SA, &p2, 8).unwrap();
    assert_eq!(map.for_type(MsgType(0)).paper_availability(), 3);
    let map = VcMap::build(SAP, &p2, 8).unwrap();
    assert_eq!(map.for_type(MsgType(0)).paper_availability(), 5);
}

/// Figure 10 discussion: with 16 VCs and chain length 4, three (or nine
/// with [21]) VCs are available per type for SA, seven for DR, sixteen for
/// PR.
#[test]
fn paper_availability_16_vcs() {
    let p = ProtocolSpec::s1_generic();
    let sa = VcMap::build(SA, &p, 16).unwrap();
    assert_eq!(sa.for_type(MsgType(0)).paper_availability(), 3);
    let sap = VcMap::build(SAP, &p, 16).unwrap();
    assert_eq!(sap.for_type(MsgType(0)).paper_availability(), 9);
    let dr = VcMap::build(Scheme::DeflectiveRecovery, &p, 16).unwrap();
    assert_eq!(dr.for_type(MsgType(0)).paper_availability(), 7);
    let pr = VcMap::build(Scheme::ProgressiveRecovery, &p, 16).unwrap();
    assert_eq!(pr.for_type(MsgType(0)).paper_availability(), 16);
    assert!(pr.for_type(MsgType(0)).escape.is_empty());
}

#[test]
fn sa_partitions_are_disjoint_and_cover() {
    let p = ProtocolSpec::s1_generic();
    let map = VcMap::build(SA, &p, 16).unwrap();
    let mut used = [false; 16];
    for t in p.msg_types() {
        if Some(t) == p.backoff_type() {
            continue; // shares the terminating type's set
        }
        for v in map.for_type(t).all() {
            assert!(!used[v as usize], "VC {v} assigned to two partitions");
            used[v as usize] = true;
        }
    }
    assert!(used.iter().all(|&u| u), "all 16 VCs must be assigned");
    // The backoff type's set equals the terminating type's set.
    let bkf = p.backoff_type().unwrap();
    assert_eq!(map.for_type(bkf), map.for_type(p.terminating_type()));
}

#[test]
fn shared_adaptive_pool_is_common() {
    let p = ProtocolSpec::s1_generic();
    let map = VcMap::build(SAP, &p, 16).unwrap();
    let pool = &map.for_type(MsgType(0)).adaptive;
    assert_eq!(pool.len(), 16 - 4 * 2);
    for t in p.msg_types() {
        assert_eq!(&map.for_type(t).adaptive, pool, "pool shared by all types");
    }
    // Escape pairs remain disjoint per partition.
    assert_ne!(
        map.for_type(MsgType(0)).escape,
        map.for_type(MsgType(1)).escape
    );
}

#[test]
fn dr_split_rejects_single_kind_protocols() {
    let p = ProtocolSpec::new(
        "all-req",
        vec![
            mdd_protocol::MsgTypeSpec::request("A"),
            mdd_protocol::MsgTypeSpec::request("T")
                .terminating()
                .with_length(4),
        ],
        &[(0, 1)],
        None,
    );
    // Both types are requests: the reply network would be empty... but the
    // terminating type here is Request-kind, so the split is degenerate.
    assert!(matches!(
        VcMap::build(Scheme::DeflectiveRecovery, &p, 8),
        Err(SchemeConfigError::DegenerateNetworkSplit)
    ));
}

#[test]
fn scheme_labels_and_defaults() {
    use mdd_protocol::QueueOrg;
    assert_eq!(SA.label(), "SA");
    assert_eq!(SAP.label(), "SA+");
    assert_eq!(Scheme::DeflectiveRecovery.label(), "DR");
    assert_eq!(Scheme::ProgressiveRecovery.label(), "PR");
    assert_eq!(SA.default_queue_org(), QueueOrg::PerType);
    assert_eq!(
        Scheme::DeflectiveRecovery.default_queue_org(),
        QueueOrg::PerNetwork
    );
    assert_eq!(
        Scheme::ProgressiveRecovery.default_queue_org(),
        QueueOrg::Shared
    );
}

fn candidates(
    routing: &SchemeRouting,
    topo: &Topology,
    node: u32,
    p: &PacketState,
) -> Vec<RouteCandidate> {
    let mut out = Vec::new();
    routing.candidates(topo, NodeId(node), p, 0, &mut out);
    out
}

#[test]
fn pr_offers_all_vcs_in_all_productive_directions() {
    let topo = Topology::new(&[8, 8], 1);
    let proto = ProtocolSpec::s1_generic();
    let map = VcMap::build(Scheme::ProgressiveRecovery, &proto, 4).unwrap();
    let routing = SchemeRouting::new(map);
    // From router 0 to router 27 = (3, 3): Plus in both dims.
    let p = pkt(0, 0, 27, 0);
    let cands = candidates(&routing, &topo, 0, &p);
    // 2 productive directions x 4 VCs, no escape.
    assert_eq!(cands.len(), 8);
    let ports: std::collections::HashSet<u8> = cands.iter().map(|c| c.port.0).collect();
    assert_eq!(ports.len(), 2);
}

#[test]
fn sa_dor_only_uses_escape_class_by_dateline() {
    let topo = Topology::new(&[8, 8], 1);
    let proto = ProtocolSpec::two_type();
    let map = VcMap::build(SA, &proto, 4).unwrap();
    let routing = SchemeRouting::new(map.clone());
    // Type 0 owns VCs {0,1} (escape only): DOR.
    let p0 = pkt(0, 0, 3, 0);
    let c = candidates(&routing, &topo, 0, &p0);
    assert_eq!(c.len(), 1, "DOR-only: single candidate");
    assert_eq!(c[0].vc, map.for_type(MsgType(0)).escape[0]);
    // After crossing the dim-0 dateline, class 1 is used.
    let p1 = pkt(0, 0, 3, 0b01);
    let c = candidates(&routing, &topo, 0, &p1);
    assert_eq!(c[0].vc, map.for_type(MsgType(0)).escape[1]);
    // Reply type uses the other partition.
    let pr = pkt(1, 0, 3, 0);
    let c = candidates(&routing, &topo, 0, &pr);
    assert_eq!(c[0].vc, map.for_type(MsgType(1)).escape[0]);
}

#[test]
fn duato_orders_adaptive_before_escape() {
    let topo = Topology::new(&[8, 8], 1);
    let proto = ProtocolSpec::two_type();
    let map = VcMap::build(SA, &proto, 8).unwrap(); // 4 per type: 2 escape + 2 adaptive
    let routing = SchemeRouting::new(map.clone());
    let p = pkt(0, 0, 9, 0); // (1,1): both dims productive
    let c = candidates(&routing, &topo, 0, &p);
    // 2 dirs x 2 adaptive + 1 escape.
    assert_eq!(c.len(), 5);
    let tv = map.for_type(MsgType(0));
    for cand in &c[..4] {
        assert!(tv.adaptive.contains(&cand.vc), "adaptive candidates first");
    }
    assert_eq!(c[4].vc, tv.escape[0], "escape candidate last");
}

#[test]
fn destination_router_routes_to_local_port() {
    let topo = Topology::new(&[4, 4], 2);
    let proto = ProtocolSpec::s1_generic();
    let map = VcMap::build(Scheme::ProgressiveRecovery, &proto, 4).unwrap();
    let routing = SchemeRouting::new(map);
    // NIC 7 lives on router 3, local index 1.
    let p = pkt(0, 0, 7, 0);
    let mut p = p;
    p.dst_router = topo.nic_router(NicId(7));
    let c = candidates(&routing, &topo, p.dst_router.0, &p);
    assert_eq!(c.len(), 1);
    assert_eq!(c[0].port, topo.local_port(1));
}

#[test]
fn injection_vcs_respect_partitions() {
    let proto = ProtocolSpec::s1_generic();
    let map = VcMap::build(SA, &proto, 16).unwrap();
    let routing = SchemeRouting::new(map.clone());
    let p = pkt(1, 0, 5, 0); // FRQ: partition 1 owns VCs 4..8
    let mut vcs = Vec::new();
    routing.injection_vcs(&p, &mut vcs);
    // 2 adaptive + escape class 0.
    let tv = map.for_type(MsgType(1));
    assert_eq!(vcs.len(), tv.adaptive.len() + 1);
    assert!(vcs.contains(&tv.escape[0]));
    assert!(
        !vcs.contains(&tv.escape[1]),
        "class-1 escape not for injection"
    );
    for v in &vcs {
        assert!(tv.all().contains(v));
    }
}

#[test]
fn rotation_hint_rotates_adaptive_candidates() {
    let topo = Topology::new(&[8, 8], 1);
    let proto = ProtocolSpec::s1_generic();
    let map = VcMap::build(Scheme::ProgressiveRecovery, &proto, 4).unwrap();
    let routing = SchemeRouting::new(map);
    let p = pkt(0, 0, 27, 0);
    let mut a = Vec::new();
    let mut b = Vec::new();
    routing.candidates(&topo, NodeId(0), &p, 0, &mut a);
    routing.candidates(&topo, NodeId(0), &p, 3, &mut b);
    assert_eq!(a.len(), b.len());
    assert_ne!(a[0], b[0], "hint must rotate the preferred candidate");
    // Same multiset either way.
    let key = |c: &RouteCandidate| (c.port.0, c.vc);
    let mut ka: Vec<_> = a.iter().map(key).collect();
    let mut kb: Vec<_> = b.iter().map(key).collect();
    ka.sort_unstable();
    kb.sort_unstable();
    assert_eq!(ka, kb);
}

#[test]
fn min_vcs_matches_paper_formulas() {
    let p = ProtocolSpec::s1_generic();
    // E_m = L * E_r with L=4 partition types, E_r=2.
    assert_eq!(SA.min_vcs(&p), 8);
    assert_eq!(Scheme::DeflectiveRecovery.min_vcs(&p), 4);
    assert_eq!(Scheme::ProgressiveRecovery.min_vcs(&p), 1);
    // Origin2000: three partitions (BRP shares TRP's).
    let o = ProtocolSpec::origin2000();
    assert_eq!(SA.min_vcs(&o), 6);
}

#[test]
fn truncated_escape_ignores_dateline_class() {
    let topo = Topology::new(&[4, 4], 1);
    let proto = ProtocolSpec::two_type();
    // Three VCs over two partitions: the reply partition keeps one VC,
    // so its escape set is truncated to a single class.
    let map = VcMap::build_degraded(SA, &proto, 3);
    assert_eq!(map.for_type(MsgType(1)).escape.len(), 1);
    let routing = SchemeRouting::new(map.clone());
    // Even with both crossed-dateline bits set, a single-entry escape
    // set always uses class 0, and the mask is never consulted.
    let p = pkt(1, 0, 3, 0b11);
    let c = candidates(&routing, &topo, 0, &p);
    assert_eq!(c.len(), 1);
    assert_eq!(c[0].vc, map.for_type(MsgType(1)).escape[0]);
    assert!(!routing.dateline_sensitive(MsgType(1)));
    assert!(routing.dateline_sensitive(MsgType(0)));
}

/// `cli_name` and `from_cli_name` are one table read both ways, and the
/// names are pinned: they are also the canonical-config spelling that
/// every committed result key hashes.
#[test]
fn scheme_cli_names_round_trip() {
    let names: Vec<&str> = Scheme::ALL.iter().map(|s| s.cli_name()).collect();
    assert_eq!(names, ["sa", "sa+", "dr", "pr"]);
    for s in Scheme::ALL {
        assert_eq!(Scheme::from_cli_name(s.cli_name()), Some(s));
    }
    assert_eq!(Scheme::from_cli_name("SA"), None);
}
