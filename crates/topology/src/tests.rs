//! Unit and property tests for the topology substrate.

use crate::*;

fn torus88() -> Topology {
    Topology::new(&[8, 8], 1)
}

#[test]
fn paper_default_is_8x8_torus() {
    let t = Topology::paper_default();
    assert_eq!(t.num_routers(), 64);
    assert_eq!(t.num_nics(), 64);
    assert_eq!(t.dims(), 2);
}

#[test]
fn coord_roundtrip() {
    let t = Topology::new(&[4, 3, 2], 1);
    assert_eq!(t.num_routers(), 24);
    for node in t.routers() {
        let c = t.coord(node);
        assert_eq!(t.node(&c), node);
        for d in 0..t.dims() {
            assert_eq!(t.coord_along(node, d), c.get(d));
        }
    }
}

#[test]
fn neighbor_symmetry_torus() {
    let t = torus88();
    for node in t.routers() {
        for d in 0..t.dims() {
            for dir in [Direction::Plus, Direction::Minus] {
                let n = t.neighbor(node, d, dir);
                let back = t.neighbor(n, d, dir.opposite());
                assert_eq!(back, node, "neighbor relation must be symmetric");
            }
        }
    }
}

#[test]
fn dateline_only_at_wrap() {
    let t = torus88();
    for node in t.routers() {
        for d in 0..2 {
            let c = t.coord_along(node, d);
            assert_eq!(t.crosses_dateline(node, d, Direction::Plus), c == 7);
            assert_eq!(t.crosses_dateline(node, d, Direction::Minus), c == 0);
        }
    }
}

#[test]
fn bristling_nic_mapping() {
    let t = Topology::new(&[2, 4], 4);
    assert_eq!(t.num_routers(), 8);
    assert_eq!(t.num_nics(), 32);
    for nic in t.nics() {
        let r = t.nic_router(nic);
        let l = t.nic_local_index(nic);
        assert_eq!(t.nic_at(r, l), nic);
        assert!(l < 4);
    }
    assert_eq!(t.ports_per_router(), 4 + 4);
    assert_eq!(t.port_local_index(PortId(4)), Some(0));
    assert_eq!(t.port_local_index(PortId(7)), Some(3));
    assert_eq!(t.port_local_index(PortId(3)), None);
}

#[test]
fn port_dim_dir_roundtrip() {
    let t = torus88();
    for d in 0..t.dims() {
        for dir in [Direction::Plus, Direction::Minus] {
            let p = t.port(d, dir);
            assert_eq!(t.port_dim_dir(p), Some((d, dir)));
        }
    }
    assert_eq!(t.port_dim_dir(t.local_port(0)), None);
}

#[test]
fn distance_matches_minimal_hops() {
    let t = torus88();
    for a in t.routers().step_by(7) {
        for b in t.routers().step_by(5) {
            let mh = MinimalHops::new(&t, a, b);
            assert_eq!(mh.total_distance(), t.distance(a, b));
            assert_eq!(mh.arrived(), a == b);
        }
    }
}

#[test]
fn dor_direction_is_minimal() {
    let t = torus88();
    let a = t.node(&Coord(vec![0, 0]));
    let b = t.node(&Coord(vec![3, 6]));
    let mh = MinimalHops::new(&t, a, b);
    // dim 0: +3 is shorter than -5.
    assert_eq!(mh.dim(0).dor_direction(), Some(Direction::Plus));
    // dim 1: -2 is shorter than +6.
    assert_eq!(mh.dim(1).dor_direction(), Some(Direction::Minus));
    assert_eq!(mh.total_distance(), 5);
}

#[test]
fn even_radix_halfway_both_productive() {
    let t = torus88();
    let a = t.node(&Coord(vec![0, 0]));
    let b = t.node(&Coord(vec![4, 0]));
    let mh = MinimalHops::new(&t, a, b);
    let g = mh.dim(0);
    assert_eq!(g.plus, Some(4));
    assert_eq!(g.minus, Some(4));
    assert_eq!(g.dor_direction(), Some(Direction::Plus), "ties break Plus");
    assert_eq!(g.productive().count(), 2);
}

#[test]
fn ring_visits_every_router_once() {
    for radix in [[4u32, 4], [8, 8], [2, 4]] {
        let t = Topology::new(&radix, 1);
        let ring = RecoveryRing::new(&t);
        assert_eq!(ring.len(), t.num_routers() as usize);
        let mut seen = vec![false; t.num_routers() as usize];
        for i in 0..ring.len() {
            let r = ring.at(i);
            assert!(!seen[r.index()], "router visited twice");
            seen[r.index()] = true;
            assert_eq!(ring.position(r) as usize, i);
        }
        assert!(seen.iter().all(|&s| s));
    }
}

#[test]
fn ring_consecutive_routers_adjacent_within_snake() {
    // All consecutive pairs except the final wrap should be physical
    // neighbors in a 2D torus snake order.
    let t = torus88();
    let ring = RecoveryRing::new(&t);
    for i in 0..ring.len() - 1 {
        let a = ring.at(i);
        let b = ring.at(i + 1);
        assert_eq!(t.distance(a, b), 1, "snake step {i} not adjacent");
    }
}

#[test]
fn ring_distance_is_forward_steps() {
    let t = torus88();
    let ring = RecoveryRing::new(&t);
    let a = ring.at(3);
    let b = ring.at(10);
    assert_eq!(ring.ring_distance(a, b), 7);
    assert_eq!(ring.ring_distance(b, a), 64 - 7);
    assert_eq!(ring.ring_distance(a, a), 0);
    assert_eq!(ring.next(a), ring.at(4));
}

#[test]
fn tour_interleaves_nics() {
    let t = Topology::new(&[2, 2], 2);
    let ring = RecoveryRing::new(&t);
    assert_eq!(ring.tour_len(), 4 * 3);
    // Stops per router: router itself, then NIC 0, then NIC 1.
    match ring.tour_stop(0) {
        TourStop::Router(r) => assert_eq!(r, ring.at(0)),
        _ => panic!("first stop must be a router"),
    }
    match ring.tour_stop(1) {
        TourStop::Nic(n) => assert_eq!(t.nic_router(n), ring.at(0)),
        _ => panic!("second stop must be a NIC"),
    }
    match ring.tour_stop(2) {
        TourStop::Nic(n) => {
            assert_eq!(t.nic_router(n), ring.at(0));
            assert_eq!(t.nic_local_index(n), 1);
        }
        _ => panic!("third stop must be a NIC"),
    }
    // Tour wraps around.
    assert_eq!(ring.tour_stop(12), ring.tour_stop(0));
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    fn arb_topo() -> impl Strategy<Value = Topology> {
        (proptest::collection::vec(2u32..9, 1..4), 1u32..4)
            .prop_map(|(radix, b)| Topology::new(&radix, b))
    }

    proptest! {
        #[test]
        fn coord_roundtrip_any(topo in arb_topo(), raw in 0u32..10_000) {
            let node = NodeId(raw % topo.num_routers());
            prop_assert_eq!(topo.node(&topo.coord(node)), node);
        }

        #[test]
        fn distance_symmetric_and_triangle(topo in arb_topo(),
                                           ra in 0u32..10_000,
                                           rb in 0u32..10_000,
                                           rc in 0u32..10_000) {
            let n = topo.num_routers();
            let (a, b, c) = (NodeId(ra % n), NodeId(rb % n), NodeId(rc % n));
            prop_assert_eq!(topo.distance(a, b), topo.distance(b, a));
            prop_assert!(topo.distance(a, c) <= topo.distance(a, b) + topo.distance(b, c));
            prop_assert_eq!(topo.distance(a, a), 0);
        }

        #[test]
        fn walking_dor_directions_reaches_destination(topo in arb_topo(),
                                                      ra in 0u32..10_000,
                                                      rb in 0u32..10_000) {
            let n = topo.num_routers();
            let (src, dst) = (NodeId(ra % n), NodeId(rb % n));
            let mut cur = src;
            let mut steps = 0u32;
            loop {
                let mh = MinimalHops::new(&topo, cur, dst);
                if mh.arrived() { break; }
                let d = mh.first_unaligned().unwrap();
                let dir = mh.dim(d).dor_direction().unwrap();
                cur = topo.neighbor(cur, d, dir);
                steps += 1;
                prop_assert!(steps <= topo.distance(src, dst),
                    "DOR walk exceeded the minimal distance");
            }
            prop_assert_eq!(steps, topo.distance(src, dst));
        }

        #[test]
        fn productive_moves_reduce_distance(topo in arb_topo(),
                                            ra in 0u32..10_000,
                                            rb in 0u32..10_000) {
            let n = topo.num_routers();
            let (src, dst) = (NodeId(ra % n), NodeId(rb % n));
            let mh = MinimalHops::new(&topo, src, dst);
            for d in 0..topo.dims() {
                for dir in mh.dim(d).productive() {
                    let next = topo.neighbor(src, d, dir);
                    prop_assert_eq!(topo.distance(next, dst) + 1, topo.distance(src, dst));
                }
            }
        }

        #[test]
        fn ring_covers_all(topo in arb_topo()) {
            let ring = RecoveryRing::new(&topo);
            prop_assert_eq!(ring.len() as u32, topo.num_routers());
            let mut seen = vec![false; ring.len()];
            for i in 0..ring.len() {
                seen[ring.at(i).index()] = true;
            }
            prop_assert!(seen.iter().all(|&s| s));
            // Tour covers all NICs exactly once per circulation.
            let mut nic_seen = vec![0u32; topo.num_nics() as usize];
            for i in 0..ring.tour_len() {
                if let TourStop::Nic(nic) = ring.tour_stop(i) {
                    nic_seen[nic.index()] += 1;
                }
            }
            prop_assert!(nic_seen.iter().all(|&c| c == 1));
        }
    }
}
