//! Tests for the deadlock machinery.

use crate::*;
use mdd_protocol::{Message, MessageId, MessageStore, MsgType, ShapeId, TransactionId};
use mdd_topology::{NicId, NodeId, RecoveryRing, Topology, TopologyKind, TourStop};

fn ring44() -> RecoveryRing {
    RecoveryRing::new(&Topology::new(TopologyKind::Torus, &[4, 4], 1))
}

fn msg(id: u64, len: u32) -> Message {
    Message {
        id: MessageId(id),
        txn: TransactionId(id),
        mtype: MsgType(0),
        shape: ShapeId(0),
        chain_pos: 0,
        src: NicId(0),
        dst: NicId(5),
        requester: NicId(0),
        home: NicId(5),
        owner: NicId(5),
        length_flits: len,
        created: 0,
        is_backoff: false,
        rescued: true,
        sharers: 0,
    }
}

// ---------------------------------------------------------------------
// Wait-for graph / knots.
// ---------------------------------------------------------------------

#[test]
fn acyclic_graph_has_no_deadlock() {
    let mut g = WaitForGraph::new(5);
    g.add_edge(0, 1);
    g.add_edge(1, 2);
    g.add_edge(2, 3);
    g.add_edge(0, 4);
    assert!(!g.has_deadlock());
    assert_eq!(g.sccs().len(), 5, "every vertex its own SCC");
}

#[test]
fn simple_cycle_is_a_knot() {
    let mut g = WaitForGraph::new(4);
    g.add_edge(0, 1);
    g.add_edge(1, 2);
    g.add_edge(2, 0);
    let knots = g.knots();
    assert_eq!(knots, vec![vec![0, 1, 2]]);
}

#[test]
fn cycle_with_escape_is_not_a_knot() {
    // 0 -> 1 -> 2 -> 0, but 1 also waits on 3, which is free (no
    // out-edges): OR-semantics escape — not a deadlock.
    let mut g = WaitForGraph::new(4);
    g.add_edge(0, 1);
    g.add_edge(1, 2);
    g.add_edge(2, 0);
    g.add_edge(1, 3);
    assert!(!g.has_deadlock());
}

#[test]
fn self_loop_is_a_knot() {
    let mut g = WaitForGraph::new(2);
    g.add_edge(0, 0);
    assert_eq!(g.knots(), vec![vec![0]]);
}

#[test]
fn two_disjoint_knots_detected() {
    let mut g = WaitForGraph::new(6);
    g.add_edge(0, 1);
    g.add_edge(1, 0);
    g.add_edge(2, 3);
    g.add_edge(3, 4);
    g.add_edge(4, 2);
    let mut knots = g.knots();
    knots.sort();
    assert_eq!(knots, vec![vec![0, 1], vec![2, 3, 4]]);
}

#[test]
fn upstream_cycle_draining_into_knot_is_single_knot() {
    // SCC {0,1} has an arc into knot {2,3}: only {2,3} is a knot, but a
    // deadlock exists and {0,1} is deadlock-dependent.
    let mut g = WaitForGraph::new(4);
    g.add_edge(0, 1);
    g.add_edge(1, 0);
    g.add_edge(1, 2);
    g.add_edge(2, 3);
    g.add_edge(3, 2);
    assert_eq!(g.knots(), vec![vec![2, 3]]);
}

#[test]
fn dense_graph_scc_correctness() {
    // Two SCCs connected in a chain plus isolated vertices.
    let mut g = WaitForGraph::new(8);
    for (a, b) in [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)] {
        g.add_edge(a, b);
    }
    let sccs = g.sccs();
    let mut sizes: Vec<usize> = sccs.iter().map(Vec::len).collect();
    sizes.sort_unstable();
    assert_eq!(sizes, vec![1, 1, 3, 3]);
    // {3,4,5} is the sink SCC: the only knot.
    assert_eq!(g.knots(), vec![vec![3, 4, 5]]);
}

// ---------------------------------------------------------------------
// Recovery lane.
// ---------------------------------------------------------------------

#[test]
fn lane_transfer_timing() {
    let ring = ring44();
    let mut lane = RecoveryLane::new(ring, 1);
    let a = lane.ring().at(2);
    let b = lane.ring().at(7);
    let mut store = MessageStore::new();
    let h = store.insert(msg(1, 8));
    let arrive = lane.send(h, 8, a, b, 100);
    assert_eq!(arrive, 100 + 5 + 8, "5 ring hops + 8 flits");
    assert!(lane.busy());
    assert!(lane.poll(arrive - 1).is_none());
    let d = lane.poll(arrive).expect("arrives on time");
    assert_eq!(store.get(d.msg).id, MessageId(1));
    assert!(!lane.busy());
    assert_eq!(lane.transfers, 1);
    assert_eq!(lane.flits_carried, 8);
}

#[test]
fn lane_wraps_backward_destinations() {
    let ring = ring44();
    let mut lane = RecoveryLane::new(ring, 2);
    let a = lane.ring().at(10);
    let b = lane.ring().at(3); // 9 forward hops on a 16-ring
    let mut store = MessageStore::new();
    let h = store.insert(msg(1, 4));
    let arrive = lane.send(h, 4, a, b, 0);
    assert_eq!(arrive, 9 * 2 + 4);
}

#[test]
#[should_panic(expected = "exclusive")]
fn lane_rejects_concurrent_transfers() {
    let ring = ring44();
    let mut lane = RecoveryLane::new(ring, 1);
    let a = lane.ring().at(0);
    let b = lane.ring().at(1);
    let mut store = MessageStore::new();
    let h1 = store.insert(msg(1, 4));
    let h2 = store.insert(msg(2, 4));
    lane.send(h1, 4, a, b, 0);
    lane.send(h2, 4, a, b, 0);
}

#[test]
fn control_delay_is_ring_distance() {
    let ring = ring44();
    let lane = RecoveryLane::new(ring, 1);
    let a = lane.ring().at(0);
    let b = lane.ring().at(6);
    assert_eq!(lane.control_delay(a, b), 7);
    assert_eq!(lane.control_delay(b, a), 11);
    assert_eq!(lane.control_delay(a, a), 1);
}

// ---------------------------------------------------------------------
// Circulating token.
// ---------------------------------------------------------------------

#[test]
fn token_tours_all_stops() {
    let topo = Topology::new(TopologyKind::Torus, &[4, 4], 1);
    let ring = RecoveryRing::new(&topo);
    let mut token = CirculatingToken::new(&ring, 1);
    let mut routers_seen = 0;
    let mut nics_seen = 0;
    for now in 0..ring.tour_len() as u64 {
        match token.advance(&ring, now) {
            Some(TourStop::Router(_)) => routers_seen += 1,
            Some(TourStop::Nic(_)) => nics_seen += 1,
            None => panic!("token must move every cycle at hop=1"),
        }
    }
    assert_eq!(routers_seen + nics_seen, ring.tour_len());
    assert_eq!(routers_seen, 16);
    assert_eq!(nics_seen, 16);
    assert_eq!(token.laps, 1);
}

#[test]
fn token_hop_cycles_throttle_movement() {
    let topo = Topology::new(TopologyKind::Torus, &[4, 4], 1);
    let ring = RecoveryRing::new(&topo);
    let mut token = CirculatingToken::new(&ring, 4);
    let mut moves = 0;
    for now in 0..40 {
        if token.advance(&ring, now).is_some() {
            moves += 1;
        }
    }
    assert_eq!(moves, 10, "one move per 4 cycles");
}

#[test]
fn captured_token_does_not_circulate() {
    let topo = Topology::new(TopologyKind::Torus, &[4, 4], 1);
    let ring = RecoveryRing::new(&topo);
    let mut token = CirculatingToken::new(&ring, 1);
    token.advance(&ring, 0);
    let stop = token.current_stop(&ring);
    token.capture();
    assert_eq!(token.state(), TokenState::Captured);
    for now in 1..10 {
        assert!(token.advance(&ring, now).is_none());
    }
    // Released at the same stop; circulation resumes afterwards.
    token.release(10);
    assert_eq!(token.current_stop(&ring), stop);
    assert!(
        token.advance(&ring, 10).is_none(),
        "one hop delay after release"
    );
    assert!(token.advance(&ring, 11).is_some());
    assert_eq!(token.captures, 1);
}

// ---------------------------------------------------------------------
// Property tests.
// ---------------------------------------------------------------------

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// SCCs partition the vertex set.
        #[test]
        fn sccs_partition(n in 1usize..30,
                          edges in proptest::collection::vec((0u32..30, 0u32..30), 0..120)) {
            let mut g = WaitForGraph::new(n);
            for (a, b) in edges {
                g.add_edge(a % n as u32, b % n as u32);
            }
            let sccs = g.sccs();
            let mut seen = vec![false; n];
            for comp in &sccs {
                for &v in comp {
                    prop_assert!(!seen[v as usize], "vertex in two SCCs");
                    seen[v as usize] = true;
                }
            }
            prop_assert!(seen.iter().all(|&s| s), "every vertex in some SCC");
        }

        /// Every knot is closed: no edges leave it, and it contains a cycle.
        #[test]
        fn knots_are_closed_and_cyclic(n in 1usize..25,
                                       edges in proptest::collection::vec((0u32..25, 0u32..25), 0..100)) {
            let mut g = WaitForGraph::new(n);
            let mut adj = vec![vec![]; n];
            for (a, b) in edges {
                let (a, b) = (a % n as u32, b % n as u32);
                g.add_edge(a, b);
                adj[a as usize].push(b);
            }
            for knot in g.knots() {
                prop_assert!(knot.len() > 1 || adj[knot[0] as usize].contains(&knot[0]));
                for &v in &knot {
                    for &w in &adj[v as usize] {
                        prop_assert!(knot.contains(&w), "edge escapes the knot");
                    }
                }
            }
        }

        /// Lane timing: arrival = now + hops*h + flits, for any endpoints.
        #[test]
        fn lane_timing_formula(src in 0usize..16, dst in 0usize..16,
                               len in 1u32..32, h in 1u64..4, now in 0u64..1000) {
            let ring = ring44();
            let mut lane = RecoveryLane::new(ring, h);
            let a = lane.ring().at(src);
            let b = lane.ring().at(dst);
            let d = lane.ring().ring_distance(a, b) as u64;
            let mut store = MessageStore::new();
            let hm = store.insert(msg(1, len));
            let arrive = lane.send(hm, len, a, b, now);
            prop_assert_eq!(arrive, now + d * h + len as u64);
            prop_assert!(lane.poll(arrive).is_some());
        }
    }
}

// Silence an unused-import warning for NodeId used only in type positions
// above on some toolchains.
#[allow(dead_code)]
fn _types(_: NodeId) {}

/// Naive reference implementation of knot detection: a vertex set is
/// deadlocked iff some cyclic vertex's reachable set contains no vertex
/// with out-degree zero. Cross-checked against the Tarjan-based detector
/// on random graphs.
fn naive_has_deadlock(n: usize, edges: &[(u32, u32)]) -> bool {
    let mut adj = vec![vec![]; n];
    for &(a, b) in edges {
        adj[a as usize].push(b as usize);
    }
    let reach = |start: usize| -> Vec<usize> {
        let mut seen = vec![false; n];
        let mut stack = vec![start];
        seen[start] = true;
        let mut out = vec![start];
        while let Some(v) = stack.pop() {
            for &w in &adj[v] {
                if !seen[w] {
                    seen[w] = true;
                    out.push(w);
                    stack.push(w);
                }
            }
        }
        out
    };
    for v in 0..n {
        // v on a cycle: v reaches itself through at least one edge.
        let on_cycle = adj[v].iter().any(|&w| reach(w).contains(&v));
        if !on_cycle {
            continue;
        }
        // Deadlocked if every reachable vertex still has a way to wait —
        // i.e. no reachable vertex has out-degree 0 (an escape).
        if reach(v).iter().all(|&w| !adj[w].is_empty()) {
            return true;
        }
    }
    false
}

mod oracle_properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The fast knot detector agrees with the naive reachability-based
        /// oracle on random graphs.
        #[test]
        fn knots_match_naive_oracle(n in 1usize..14,
                                    edges in proptest::collection::vec((0u32..14, 0u32..14), 0..40)) {
            let edges: Vec<(u32, u32)> = edges
                .into_iter()
                .map(|(a, b)| (a % n as u32, b % n as u32))
                .collect();
            let mut g = WaitForGraph::new(n);
            for &(a, b) in &edges {
                g.add_edge(a, b);
            }
            prop_assert_eq!(
                g.has_deadlock(),
                super::naive_has_deadlock(n, &edges),
                "detector disagrees with the naive oracle on {:?}",
                edges
            );
        }
    }
}
