use crate::{classify, verify, VerifyInput};
use mdd_protocol::PatternSpec;
use mdd_routing::{Scheme, SchemeRouting, VcMap};
use mdd_topology::Topology;

const SA: Scheme = Scheme::StrictAvoidance {
    shared_adaptive: false,
};

struct Fixture {
    topo: Topology,
    routing: SchemeRouting,
    pattern: PatternSpec,
    scheme: Scheme,
}

impl Fixture {
    fn torus(radix: &[u32], scheme: Scheme, pattern: PatternSpec, vcs: u8) -> Self {
        let topo = Topology::new(radix, 1);
        let map = VcMap::build_degraded(scheme, pattern.protocol(), vcs);
        Fixture {
            topo,
            routing: SchemeRouting::new(map),
            pattern,
            scheme,
        }
    }

    fn base(&self) -> crate::BaseAnalysis {
        crate::BaseAnalysis::analyze(crate::AnalysisConfig::new(
            self.topo.clone(),
            self.scheme,
            self.routing.clone(),
            self.pattern.clone(),
            self.scheme.default_queue_org(),
        ))
    }

    /// The full enumeration of the pristine CDG, unfolded.
    fn full(&self) -> crate::Verdict {
        classify(&self.input(), &self.topo)
    }

    fn input(&self) -> VerifyInput<'_> {
        VerifyInput {
            topo: &self.topo,
            scheme: self.scheme,
            routing: &self.routing,
            pattern: &self.pattern,
            queue_org: self.scheme.default_queue_org(),
        }
    }
}

#[test]
fn sa_with_full_partitions_is_proven_free() {
    let fx = Fixture::torus(&[4, 4], SA, PatternSpec::pat271(), 8);
    let v = verify(&fx.input());
    assert!(v.is_proven_free(), "got {v}");
    assert!(v.witness().is_none());
}

#[test]
fn sa_two_type_protocol_is_proven_free() {
    let fx = Fixture::torus(&[4, 4], SA, PatternSpec::pat100(), 4);
    assert!(verify(&fx.input()).is_proven_free());
}

#[test]
fn sa_paper_torus_is_proven_free() {
    // The paper's 8x8 configuration; also the speed target (< 100 ms).
    let fx = Fixture::torus(&[8, 8], SA, PatternSpec::pat271(), 8);
    let t0 = std::time::Instant::now();
    let v = verify(&fx.input());
    assert!(v.is_proven_free(), "got {v}");
    assert!(
        t0.elapsed() < std::time::Duration::from_millis(100),
        "verification took {:?}",
        t0.elapsed()
    );
}

#[test]
fn sa_with_one_vc_short_is_unsafe_with_witness() {
    // 7 VCs cannot hold 4 partitions x 2 dateline classes: the degraded
    // map truncates one escape set, losing the torus dateline break.
    let fx = Fixture::torus(&[4, 4], SA, PatternSpec::pat271(), 7);
    let v = verify(&fx.input());
    assert!(v.is_unsafe(), "got {v}");
    let w = v.witness().expect("unsafe carries a witness");
    assert!(!w.vertices.is_empty());
    assert!(
        w.rendered.contains("router") && w.rendered.contains("vc"),
        "unexpected witness rendering:\n{}",
        w.rendered
    );
}

#[test]
fn sa_with_merged_partitions_is_unsafe() {
    // 4 VCs force the degraded map to merge `≺`-ordered types into
    // shared partitions: a message-dependent cycle, not just a routing one.
    let fx = Fixture::torus(&[4, 4], SA, PatternSpec::pat271(), 4);
    assert!(verify(&fx.input()).is_unsafe());
}

#[test]
fn dr_forwarding_protocol_has_recoverable_cycles() {
    // Request-network cycles through forwarded requests remain, but every
    // blocked request head is convertible into a backoff reply.
    let fx = Fixture::torus(
        &[4, 4],
        Scheme::DeflectiveRecovery,
        PatternSpec::pat271(),
        4,
    );
    let v = verify(&fx.input());
    assert_eq!(v.name(), "RecoverableCycles", "got {v}");
    assert!(v.witness().is_some());
}

#[test]
fn dr_preallocated_two_type_protocol_is_proven_free() {
    // With reply preallocation and no forwarding, the 1-0-0 protocol's
    // extended CDG has no cycle at all under DR's two-network split.
    let fx = Fixture::torus(
        &[4, 4],
        Scheme::DeflectiveRecovery,
        PatternSpec::pat100(),
        4,
    );
    assert!(verify(&fx.input()).is_proven_free());
}

#[test]
fn pr_relies_on_token_recovery() {
    // True fully adaptive routing cycles on a torus by design; the
    // recovery ring tours every router and NIC, so cycles are drainable.
    let fx = Fixture::torus(
        &[4, 4],
        Scheme::ProgressiveRecovery,
        PatternSpec::pat271(),
        4,
    );
    let v = verify(&fx.input());
    assert_eq!(v.name(), "RecoverableCycles", "got {v}");
}

#[test]
fn witness_renders_the_shared_trace_format() {
    let fx = Fixture::torus(&[4, 4], SA, PatternSpec::pat271(), 4);
    let v = verify(&fx.input());
    let w = v.witness().expect("unsafe carries a witness");
    assert!(w.rendered.contains("(cycle closes)"));
    assert_eq!(w.rendered, w.to_string());
    for line in w.rendered.lines().skip(1).take(w.vertices.len() - 1) {
        assert!(line.trim_start().starts_with("->"), "bad line: {line}");
    }
}

#[test]
fn witnesses_are_pinned() {
    // The exact witness each verdict path prints. Its vertex order comes
    // from Tarjan's visit order and the first-inside-arc walk over the
    // residual graph, so any change in that graph's arc order shows here.
    // (The debug reverify cross-check and `tests/incremental_agreement.rs`
    // cannot see it: both of their sides draw the witness from the same
    // residual graph.)
    use mdd_topology::{Direction, FaultSet, NodeId};
    let dr = Scheme::DeflectiveRecovery;
    let on_8x8 =
        |scheme, vcs| verify(&Fixture::torus(&[8, 8], scheme, PatternSpec::pat271(), vcs).input());
    // DR at 4 VCs on 4×4 loses deflection credit when one link fails.
    let degraded = {
        let fx = Fixture::torus(&[4, 4], dr, PatternSpec::pat271(), 4);
        let mut f = FaultSet::new(&fx.topo);
        f.fail_link(&fx.topo, NodeId(5), 1, Direction::Plus);
        let base = fx.base();
        assert_eq!(base.base_verdict().name(), "RecoverableCycles");
        base.reverify(&f)
    };
    let cases: [(&str, crate::Verdict, &str, &[u32], &str); 5] = [
        (
            "8x8 PR vcs=4",
            on_8x8(Scheme::ProgressiveRecovery, 4),
            "RecoverableCycles",
            &[24, 1282, 1283, 36, 0, 1280, 1281, 16],
            concat!(
                "  router 1 (1,0) port -x vc 0 [RQ to nic 1]\n",
                "  -> nic 1 input queue 0 [head RQ -> RP]\n",
                "  -> nic 1 output queue 0 [RQ awaiting injection vc 0]\n",
                "  -> router 1 (1,0) port local 0 vc 0 [RQ to nic 0]\n",
                "  -> router 0 (0,0) port +x vc 0 [RQ to nic 0]\n",
                "  -> nic 0 input queue 0 [head RQ -> RP]\n",
                "  -> nic 0 output queue 0 [RQ awaiting injection vc 0]\n",
                "  -> router 0 (0,0) port local 0 vc 0 [RQ to nic 1]\n",
                "  -> router 1 (1,0) port -x vc 0  (cycle closes)\n",
            ),
        ),
        (
            "8x8 DR vcs=4",
            on_8x8(dr, 4),
            "RecoverableCycles",
            &[1280, 1282, 16, 24, 1284, 1286, 36, 0],
            concat!(
                "  nic 0 input queue 0 [head RQ -> FRQ]\n",
                "  -> nic 0 output queue 0 [RQ awaiting injection vc 0]\n",
                "  -> router 0 (0,0) port local 0 vc 0 [RQ to nic 1]\n",
                "  -> router 1 (1,0) port -x vc 0 [RQ to nic 1]\n",
                "  -> nic 1 input queue 0 [head RQ -> FRQ]\n",
                "  -> nic 1 output queue 0 [RQ awaiting injection vc 0]\n",
                "  -> router 1 (1,0) port local 0 vc 0 [RQ to nic 0]\n",
                "  -> router 0 (0,0) port +x vc 0 [RQ to nic 0]\n",
                "  -> nic 0 input queue 0  (cycle closes)\n",
            ),
        ),
        (
            "8x8 SA vcs=7",
            on_8x8(SA, 7),
            "Unsafe",
            &[27, 307, 587, 867, 1147, 1427, 1707, 1987],
            concat!(
                "  router 0 (0,0) port -y vc 6 [RP to nic 8]\n",
                "  -> router 8 (0,1) port -y vc 6 [RP to nic 16]\n",
                "  -> router 16 (0,2) port -y vc 6 [RP to nic 24]\n",
                "  -> router 24 (0,3) port -y vc 6 [RP to nic 32]\n",
                "  -> router 32 (0,4) port -y vc 6 [RP to nic 40]\n",
                "  -> router 40 (0,5) port -y vc 6 [RP to nic 0]\n",
                "  -> router 48 (0,6) port -y vc 6 [RP to nic 0]\n",
                "  -> router 56 (0,7) port -y vc 6 [RP to nic 0]\n",
                "  -> router 0 (0,0) port -y vc 6  (cycle closes)\n",
            ),
        ),
        (
            // The credited peel leaves a residue, so the witness is drawn
            // from a graph that carries the deflection overlay's arcs.
            "8x8 DR vcs=3",
            on_8x8(dr, 3),
            "Unsafe",
            &[11, 131, 251, 371, 491, 611, 731, 851],
            concat!(
                "  router 0 (0,0) port -y vc 2 [RP to nic 8]\n",
                "  -> router 8 (0,1) port -y vc 2 [RP to nic 16]\n",
                "  -> router 16 (0,2) port -y vc 2 [RP to nic 24]\n",
                "  -> router 24 (0,3) port -y vc 2 [RP to nic 32]\n",
                "  -> router 32 (0,4) port -y vc 2 [RP to nic 40]\n",
                "  -> router 40 (0,5) port -y vc 2 [RP to nic 0]\n",
                "  -> router 48 (0,6) port -y vc 2 [RP to nic 0]\n",
                "  -> router 56 (0,7) port -y vc 2 [RP to nic 0]\n",
                "  -> router 0 (0,0) port -y vc 2  (cycle closes)\n",
            ),
        ),
        (
            "4x4 DR vcs=4, link r5+d1 down",
            degraded,
            "Unsafe",
            &[86, 174, 186, 206, 226, 166, 90, 106, 126, 146],
            concat!(
                "  router 4 (0,1) port -x vc 2 [RP to nic 8 (crossed dateline)]\n",
                "  -> router 8 (0,2) port -y vc 2 [RP to nic 9]\n",
                "  -> router 9 (1,2) port -x vc 2 [RP to nic 2]\n",
                "  -> router 10 (2,2) port -x vc 2 [RP to nic 3]\n",
                "  -> router 11 (3,2) port -x vc 2 [RP to nic 0]\n",
                "  -> router 8 (0,2) port -x vc 2 [RP to nic 4 (crossed dateline)]\n",
                "  -> router 4 (0,1) port +y vc 2 [RP to nic 5]\n",
                "  -> router 5 (1,1) port -x vc 2 [RP to nic 2]\n",
                "  -> router 6 (2,1) port -x vc 2 [RP to nic 3]\n",
                "  -> router 7 (3,1) port -x vc 2 [RP to nic 0]\n",
                "  -> router 4 (0,1) port -x vc 2  (cycle closes)\n",
            ),
        ),
    ];
    for (label, verdict, name, vertices, rendered) in cases {
        assert_eq!(verdict.name(), name, "{label}");
        let w = verdict
            .witness()
            .expect("a cyclic verdict carries a witness");
        assert_eq!(w.vertices, vertices, "{label}");
        assert_eq!(w.rendered, rendered, "{label}");
    }
}

#[test]
fn residual_graph_holds_each_distinct_arc_once_in_scan_order() {
    use crate::analyze::residual_graph;
    use crate::{cdg, graph_outcome};
    use std::collections::HashSet;
    let patterns = [
        PatternSpec::pat100(),
        PatternSpec::pat271(),
        mdd_coherence::CoherenceEngine::msi_pattern(),
    ];
    let schemes = [SA, Scheme::DeflectiveRecovery, Scheme::ProgressiveRecovery];
    let (mut residues, mut overlay_arcs) = (0, 0);
    for scheme in schemes {
        for pattern in &patterns {
            // 3 VCs leave DR/PAT271 a residue after the credited peel, so
            // the deflection overlay contributes arcs.
            for vcs in [3, 4] {
                let fx = Fixture::torus(&[4, 4], scheme, pattern.clone(), vcs);
                let input = fx.input();
                let graph = cdg::cdg(&input, input.routing);
                let Some((peel, overlay)) = graph_outcome(&input, &graph).1 else {
                    continue;
                };
                residues += 1;
                let unsafe_v = |v: u32| !peel.vertex_safe[v as usize];
                let unsafe_c = |c: u32| !peel.class_safe[c as usize];
                // Every arc the definition yields, in the order the build
                // scans them: sources ascending, their classes, the
                // classes' candidates, then the overlay.
                let mut scan: Vec<(u32, u32)> = Vec::new();
                for v in (0..graph.num_vertices() as u32).filter(|&v| unsafe_v(v)) {
                    for &c in graph.classes_at(v).iter().filter(|&&c| unsafe_c(c)) {
                        scan.extend(
                            graph
                                .cands(c)
                                .iter()
                                .filter(|&&w| unsafe_v(w))
                                .map(|&w| (v, w)),
                        );
                    }
                }
                for &(c, w) in overlay.iter().filter(|&&(c, w)| unsafe_c(c) && unsafe_v(w)) {
                    let from = graph.members(c).iter().filter(|&&v| unsafe_v(v));
                    overlay_arcs += from.clone().count();
                    scan.extend(from.map(|&v| (v, w)));
                }
                // The same set, brute force from the classes' side.
                let mut by_class: HashSet<(u32, u32)> = HashSet::new();
                for c in (0..graph.num_classes() as u32).filter(|&c| unsafe_c(c)) {
                    for &v in graph.members(c).iter().filter(|&&v| unsafe_v(v)) {
                        for &w in graph.cands(c).iter().filter(|&&w| unsafe_v(w)) {
                            by_class.insert((v, w));
                        }
                    }
                }
                for &(c, w) in overlay.iter().filter(|&&(c, w)| unsafe_c(c) && unsafe_v(w)) {
                    for &v in graph.members(c).iter().filter(|&&v| unsafe_v(v)) {
                        by_class.insert((v, w));
                    }
                }

                let g = residual_graph(&graph, &peel, overlay);
                let label = format!("{scheme:?} {} vcs={vcs}", pattern.name());
                let arcs: Vec<(u32, u32)> = (0..g.len() as u32)
                    .flat_map(|v| g.successors(v).map(move |w| (v, w)))
                    .collect();
                let distinct: HashSet<(u32, u32)> = arcs.iter().copied().collect();
                assert_eq!(arcs.len(), g.num_edges(), "{label}");
                assert_eq!(distinct.len(), arcs.len(), "{label}: a parallel arc");
                assert_eq!(distinct, by_class, "{label}: arc set");
                let mut seen = HashSet::new();
                let mut first_order: Vec<Vec<u32>> = vec![Vec::new(); g.len()];
                for &(v, w) in &scan {
                    if seen.insert((v, w)) {
                        first_order[v as usize].push(w);
                    }
                }
                for (v, targets) in first_order.iter().enumerate() {
                    let got: Vec<u32> = g.successors(v as u32).collect();
                    assert_eq!(&got, targets, "{label}: out-arcs of {v}");
                }
            }
        }
    }
    assert!(residues >= 9, "only {residues} cases left a residue");
    assert!(overlay_arcs > 0, "no case exercised the overlay");

    // The 8×8 pre-flight graphs. With one arc per (vertex, class,
    // candidate) triple they would hold 1,447,296 (PR) and 18,590 (DR).
    for (scheme, arcs) in [
        (Scheme::ProgressiveRecovery, 17_728),
        (Scheme::DeflectiveRecovery, 1_360),
    ] {
        let fx = Fixture::torus(&[8, 8], scheme, PatternSpec::pat271(), 4);
        let input = fx.input();
        let graph = cdg::cdg(&input, input.routing);
        let (peel, overlay) = graph_outcome(&input, &graph).1.expect("a residue");
        let g = residual_graph(&graph, &peel, overlay);
        assert_eq!(g.num_edges(), arcs, "8x8 {scheme:?}/PAT271 vcs=4");
    }
}

#[test]
fn verify_agreement_quotient_matches_full_enumeration() {
    // The orbit quotient must agree with exhaustive enumeration wherever
    // the latter is affordable: every scheme at 8×8 and 16×16. (8×8 is
    // the identity quotient; 16×16 folds to 8×8 and is the first size
    // where the quotient actually discards states.)
    let cases: &[(Scheme, u8)] = &[
        (SA, 8),
        (SA, 7),
        (Scheme::DeflectiveRecovery, 8),
        (Scheme::ProgressiveRecovery, 4),
    ];
    for radix in [&[8u32, 8][..], &[16, 16][..]] {
        for &(scheme, vcs) in cases {
            let fx = Fixture::torus(radix, scheme, PatternSpec::pat271(), vcs);
            let full = fx.full();
            let quot = verify(&fx.input());
            assert_eq!(
                quot.name(),
                full.name(),
                "quotient disagrees with full enumeration: {radix:?} {scheme:?} vcs={vcs}"
            );
        }
    }
}

#[test]
fn quotiented_verifier_classifies_64x64_fast() {
    // The scale-ladder acceptance bar: SA/DR/PR verdicts on a 64×64
    // torus in under a second total, via the orbit quotient. The folded
    // representative is 8×8, so each classification is milliseconds; the
    // only O(N) work left is progressive recovery's ring-coverage tour.
    let t0 = std::time::Instant::now();
    let fx = Fixture::torus(&[64, 64], SA, PatternSpec::pat271(), 8);
    assert!(verify(&fx.input()).is_proven_free());
    let fx = Fixture::torus(
        &[64, 64],
        Scheme::DeflectiveRecovery,
        PatternSpec::pat271(),
        8,
    );
    assert_eq!(verify(&fx.input()).name(), "RecoverableCycles");
    let fx = Fixture::torus(
        &[64, 64],
        Scheme::ProgressiveRecovery,
        PatternSpec::pat271(),
        4,
    );
    assert_eq!(verify(&fx.input()).name(), "RecoverableCycles");
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(1),
        "64×64 ladder verification took {:?}",
        t0.elapsed()
    );
}

#[test]
fn quotiented_verifier_handles_3d_and_odd_radices() {
    // 8×8×8 folds to itself (radix ≤ 9 is kept verbatim) and must still
    // classify; an odd oversized radix folds to 9, keeping tie-freedom.
    let fx = Fixture::torus(&[8, 8, 8], SA, PatternSpec::pat271(), 8);
    assert!(verify(&fx.input()).is_proven_free());
    let fx = Fixture::torus(&[15, 15], SA, PatternSpec::pat271(), 8);
    let v = verify(&fx.input());
    assert_eq!(v.name(), fx.full().name());
}

#[test]
fn verdict_accessors_are_consistent() {
    let fx = Fixture::torus(&[4, 4], SA, PatternSpec::pat100(), 4);
    let free = verify(&fx.input());
    assert_eq!(free.name(), "ProvenFree");
    assert!(!free.is_unsafe());

    let fx = Fixture::torus(&[4, 4], SA, PatternSpec::pat271(), 4);
    let bad = verify(&fx.input());
    assert_eq!(bad.name(), "Unsafe");
    assert!(!bad.is_proven_free());
}

#[test]
#[ignore]
fn timing_full_16x16() {
    for (scheme, vcs) in [
        (
            Scheme::StrictAvoidance {
                shared_adaptive: false,
            },
            8,
        ),
        (Scheme::DeflectiveRecovery, 8),
        (Scheme::ProgressiveRecovery, 4),
    ] {
        let fx = Fixture::torus(&[16, 16], scheme, PatternSpec::pat271(), vcs);
        let t0 = std::time::Instant::now();
        let v = fx.full();
        println!(
            "{scheme:?} vcs{vcs} 16x16 full: {:?} -> {}",
            t0.elapsed(),
            v.name()
        );
        let t0 = std::time::Instant::now();
        let v = fx.full();
        println!(
            "{scheme:?} vcs{vcs} 16x16 full(2): {:?} -> {}",
            t0.elapsed(),
            v.name()
        );
    }
}

#[test]
#[ignore]
fn orbit_invariance_experiment() {
    use crate::{fault_orbit_key, AnalysisConfig, BaseAnalysis};
    use mdd_topology::single_link_faults;
    for (scheme, vcs) in [
        (
            Scheme::StrictAvoidance {
                shared_adaptive: false,
            },
            8,
        ),
        (
            Scheme::StrictAvoidance {
                shared_adaptive: false,
            },
            7,
        ),
        (Scheme::DeflectiveRecovery, 8),
        (Scheme::DeflectiveRecovery, 4),
        (Scheme::ProgressiveRecovery, 4),
    ] {
        let fx = Fixture::torus(&[8, 8], scheme, PatternSpec::pat271(), vcs);
        let base = BaseAnalysis::analyze(AnalysisConfig::new(
            fx.topo.clone(),
            scheme,
            fx.routing.clone(),
            PatternSpec::pat271(),
            fx.input().queue_org,
        ));
        let t0 = std::time::Instant::now();
        let mut by_dim: std::collections::BTreeMap<String, Vec<(String, &'static str)>> =
            Default::default();
        for f in single_link_faults(&fx.topo) {
            let v = base.reverify(&f);
            let key = fault_orbit_key(&fx.topo, &f);
            by_dim.entry(key).or_default().push((f.label(), v.name()));
        }
        println!(
            "{scheme:?} vcs{vcs} 8x8 base={} elapsed={:?}",
            base.base_verdict().name(),
            t0.elapsed()
        );
        for (key, vs) in &by_dim {
            let names: std::collections::BTreeSet<_> = vs.iter().map(|(_, n)| *n).collect();
            println!("  orbit {key}: {} faults, verdicts {names:?}", vs.len());
            if names.len() > 1 {
                for (l, n) in vs {
                    println!("    {l}: {n}");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Fault-aware analysis
// ---------------------------------------------------------------------------

#[test]
fn reverify_matches_from_scratch_on_torus_faults() {
    // Every reverify below runs the debug cross-check against the
    // from-scratch degraded build internally; this test exercises it
    // across schemes and fault shapes.
    use mdd_topology::{Direction, FaultSet};
    for (scheme, vcs) in [
        (SA, 8),
        (Scheme::DeflectiveRecovery, 4),
        (Scheme::ProgressiveRecovery, 4),
    ] {
        let fx = Fixture::torus(&[4, 4], scheme, PatternSpec::pat271(), vcs);
        let base = fx.base();
        // Single link, double link.
        let mut single = FaultSet::new(&fx.topo);
        single.fail_link(&fx.topo, mdd_topology::NodeId(5), 0, Direction::Plus);
        let mut double = single.clone();
        double.fail_link(&fx.topo, mdd_topology::NodeId(10), 1, Direction::Minus);
        for f in [&single, &double] {
            let v = base.reverify(f);
            assert_eq!(v.name(), crate::verify_faulted(&fx.input(), f).name());
        }
        // Empty fault set returns the base verdict verbatim.
        let empty = FaultSet::new(&fx.topo);
        assert_eq!(base.reverify(&empty), *base.base_verdict());
    }
}

#[test]
fn isolated_router_strands_all_schemes() {
    // Cut all four links of one 4x4 torus router: traffic to its
    // endpoint is undeliverable, which is Unsafe under every scheme (no
    // drain mechanism can conjure a live route).
    use mdd_topology::{Direction, FaultSet, NodeId};
    for (scheme, vcs) in [
        (SA, 8),
        (Scheme::DeflectiveRecovery, 4),
        (Scheme::ProgressiveRecovery, 4),
    ] {
        let fx = Fixture::torus(&[4, 4], scheme, PatternSpec::pat100(), vcs);
        let base = fx.base();
        let mut f = FaultSet::new(&fx.topo);
        for d in 0..2 {
            for dir in [Direction::Plus, Direction::Minus] {
                f.fail_link(&fx.topo, NodeId(0), d, dir);
            }
        }
        let v = base.reverify(&f);
        assert!(
            v.is_unsafe(),
            "{scheme:?}: stranded endpoint must be Unsafe, got {v}"
        );
        let w = v.witness().expect("strand verdict carries a witness");
        assert!(w.rendered.contains("stranded"), "witness: {}", w.rendered);
    }
}

// ---------------------------------------------------------------------------
// Minimal-VC synthesis
// ---------------------------------------------------------------------------

#[test]
fn min_safe_vcs_finds_sa_partition_boundary() {
    // SA with pat271 needs one 2-VC escape partition per message type:
    // 8 VCs exactly. The probes at 7 and below are Unsafe.
    let fx = Fixture::torus(&[4, 4], SA, PatternSpec::pat271(), 8);
    let org = SA.default_queue_org();
    let report = crate::min_safe_vcs(&fx.topo, SA, &fx.pattern, org, 8);
    assert_eq!(report.min_vcs, Some(8), "probes: {:?}", report.probes);
    // Exhaustively confirm against a linear scan.
    for vcs in 1..8u8 {
        let probe = crate::min_safe_vcs(&fx.topo, SA, &fx.pattern, org, vcs);
        assert_eq!(probe.min_vcs, None, "vcs {vcs} should be unsafe");
    }
}

#[test]
fn min_safe_vcs_schemes_are_cheaper_than_sa() {
    let fx = Fixture::torus(&[4, 4], SA, PatternSpec::pat271(), 8);
    let sa = crate::min_safe_vcs(&fx.topo, SA, &fx.pattern, SA.default_queue_org(), 8);
    let dr = crate::min_safe_vcs(
        &fx.topo,
        Scheme::DeflectiveRecovery,
        &fx.pattern,
        Scheme::DeflectiveRecovery.default_queue_org(),
        8,
    );
    let pr = crate::min_safe_vcs(
        &fx.topo,
        Scheme::ProgressiveRecovery,
        &fx.pattern,
        Scheme::ProgressiveRecovery.default_queue_org(),
        8,
    );
    let (sa_min, dr_min, pr_min) = (
        sa.min_vcs.unwrap(),
        dr.min_vcs.unwrap(),
        pr.min_vcs.unwrap(),
    );
    assert!(dr_min <= sa_min, "DR {dr_min} vs SA {sa_min}");
    assert!(pr_min <= sa_min, "PR {pr_min} vs SA {sa_min}");
}

#[test]
#[ignore]
fn fault_experiment_4x4() {
    use mdd_topology::single_link_faults;
    for (scheme, vcs) in [
        (SA, 8u8),
        (Scheme::DeflectiveRecovery, 4),
        (Scheme::ProgressiveRecovery, 4),
    ] {
        let fx = Fixture::torus(&[4, 4], scheme, PatternSpec::pat271(), vcs);
        let base = fx.base();
        println!("== {scheme:?} base {}", base.base_verdict().name());
        for f in single_link_faults(&fx.topo) {
            let v = crate::verify_faulted(&fx.input(), &f);
            let key = crate::fault_orbit_key(&fx.topo, &f);
            println!("  {:14} {:20} orbit {}", f.label(), v.name(), key);
        }
    }
}

#[test]
#[ignore]
fn timing_outcomes_16x16() {
    use mdd_topology::{Direction, FaultSet, NodeId};
    use std::time::Instant;
    for (scheme, vcs) in [
        (SA, 8u8),
        (Scheme::DeflectiveRecovery, 8),
        (Scheme::ProgressiveRecovery, 4),
    ] {
        let fx = Fixture::torus(&[16, 16], scheme, PatternSpec::pat271(), vcs);
        let t0 = Instant::now();
        let base = fx.base();
        let t_base = t0.elapsed();
        let mut f = FaultSet::new(&fx.topo);
        f.fail_link(&fx.topo, NodeId(17), 0, Direction::Plus);
        let t1 = Instant::now();
        let o = base.reverify_outcome(&f);
        let t_out = t1.elapsed();
        println!(
            "{scheme:?} vcs{vcs}: base {:?} in {t_base:?}; outcome {o:?} in {t_out:?}",
            base.base_verdict().name()
        );
    }
}
