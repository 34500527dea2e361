//! The static verifier's witnesses, pinned through the public API.
//!
//! Each cyclic verdict carries the first simple cycle of the first cyclic
//! SCC of the residual graph. Its vertex order comes from Tarjan's visit
//! order and the first-inside-arc walk, so any change in the residual
//! graph's arcs or their order, or in which occupant class a vertex
//! reports first, shows here as a changed vertex list or rendering. The
//! same cases are pinned inside `mdd-verify`'s own unit tests; this copy
//! runs with the facade's tests.

use mdd_sim::protocol::PatternSpec;
use mdd_sim::routing::{Scheme, SchemeRouting, VcMap};
use mdd_sim::topology::{Direction, FaultSet, NodeId, Topology};
use mdd_sim::verify::{verify, AnalysisConfig, BaseAnalysis, Verdict, VerifyInput};

const SA: Scheme = Scheme::StrictAvoidance {
    shared_adaptive: false,
};

/// The verdict of `scheme` on PAT271 over a `radix` torus at `vcs` VCs
/// (the degraded map where the budget is infeasible) with the scheme's
/// default queue organization.
fn pat271_verdict(radix: &[u32], scheme: Scheme, vcs: u8) -> Verdict {
    let topo = Topology::new(radix, 1);
    let pattern = PatternSpec::pat271();
    let routing = SchemeRouting::new(VcMap::build_degraded(scheme, pattern.protocol(), vcs));
    verify(&VerifyInput {
        topo: &topo,
        scheme,
        routing: &routing,
        pattern: &pattern,
        queue_org: scheme.default_queue_org(),
    })
}

/// DR at 4 VCs on a 4×4 torus with router 5's `+y` link down: the base
/// configuration has recoverable cycles, the degraded one loses its
/// deflection credit.
fn degraded_dr_verdict() -> Verdict {
    let scheme = Scheme::DeflectiveRecovery;
    let topo = Topology::new(&[4, 4], 1);
    let pattern = PatternSpec::pat271();
    let routing = SchemeRouting::new(VcMap::build_degraded(scheme, pattern.protocol(), 4));
    let mut faults = FaultSet::new(&topo);
    faults.fail_link(&topo, NodeId(5), 1, Direction::Plus);
    let base = BaseAnalysis::analyze(AnalysisConfig::new(
        topo,
        scheme,
        routing,
        pattern,
        scheme.default_queue_org(),
    ));
    assert_eq!(base.base_verdict().name(), "RecoverableCycles");
    base.reverify(&faults)
}

#[test]
fn verifier_witnesses_are_pinned() {
    let dr = Scheme::DeflectiveRecovery;
    let cases: [(&str, Verdict, &str, &[u32], &str); 5] = [
        (
            "8x8 PR vcs=4",
            pat271_verdict(&[8, 8], Scheme::ProgressiveRecovery, 4),
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
            pat271_verdict(&[8, 8], dr, 4),
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
            pat271_verdict(&[8, 8], SA, 7),
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
            pat271_verdict(&[8, 8], dr, 3),
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
            degraded_dr_verdict(),
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
