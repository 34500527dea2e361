//! Re-verdicts agree with the from-scratch oracle.
//!
//! The acceptance property for the analyzer: for any configuration and
//! any fault set, the empty set included, [`BaseAnalysis::reverify`]
//! (which builds the CDG with the one segment builder, deriving
//! routing-interchangeable message types by relabeling) must produce the
//! same verdict *and the same rendered witness* as [`verify_faulted`],
//! which builds every segment from scratch and never derives anything.
//! `verify_faulted` is the honest oracle; any orbit, dateline-mask, or
//! retype bug shows up here, on the pristine path as on degraded ones.
//!
//! Configurations deliberately include infeasible VC budgets (via
//! [`VcMap::build_degraded`], e.g. SA at 2 VCs), because the fault
//! frontier and `mddsim --verify` both analyze such degraded maps.

use mdd_protocol::{PatternSpec, QueueOrg};
use mdd_routing::{Scheme, SchemeRouting, VcMap};
use mdd_topology::{Direction, FaultSet, NodeId, Topology, TopologyKind};
use mdd_verify::{verify_faulted, AnalysisConfig, BaseAnalysis};
use proptest::prelude::*;

const SCHEMES: [Scheme; 4] = [
    Scheme::StrictAvoidance {
        shared_adaptive: false,
    },
    Scheme::StrictAvoidance {
        shared_adaptive: true,
    },
    Scheme::DeflectiveRecovery,
    Scheme::ProgressiveRecovery,
];

const QUEUE_ORGS: [QueueOrg; 3] = [QueueOrg::Shared, QueueOrg::PerNetwork, QueueOrg::PerType];

fn topology(idx: usize) -> Topology {
    match idx {
        0 => Topology::new(TopologyKind::Torus, &[4, 4], 1),
        1 => Topology::new(TopologyKind::Mesh, &[4, 4], 1),
        // Odd radix: no minimal-offset ties, unlike the even radices.
        2 => Topology::new(TopologyKind::Torus, &[5, 5], 1),
        _ => Topology::new(TopologyKind::Torus, &[8, 8], 1),
    }
}

fn config(
    topo_idx: usize,
    scheme_idx: usize,
    vcs: u8,
    pat_idx: usize,
    org_idx: usize,
) -> AnalysisConfig {
    let topo = topology(topo_idx);
    let scheme = SCHEMES[scheme_idx];
    let pattern = if pat_idx == 0 {
        PatternSpec::pat100()
    } else {
        PatternSpec::pat271()
    };
    let escape = if topo.kind() == TopologyKind::Mesh {
        1
    } else {
        2
    };
    // build_degraded never fails for vcs > 0: infeasible budgets get the
    // best map the budget allows, which is exactly what --verify falls
    // back to and what the fault frontier sweeps.
    let map = VcMap::build_degraded(scheme, pattern.protocol(), vcs, escape);
    AnalysisConfig::new(
        topo,
        scheme,
        SchemeRouting::new(map),
        pattern,
        QUEUE_ORGS[org_idx],
    )
}

fn fault_set(topo: &Topology, links: &[(usize, usize, usize)]) -> FaultSet {
    let nr = topo.num_routers() as usize;
    let mut f = FaultSet::new(topo);
    for &(node, d, dir_bit) in links {
        let dir = if dir_bit == 0 {
            Direction::Plus
        } else {
            Direction::Minus
        };
        f.fail_link(topo, NodeId((node % nr) as u32), d % topo.dims(), dir);
    }
    f
}

fn assert_agreement(
    cfg: &AnalysisConfig,
    base: &BaseAnalysis,
    faults: &FaultSet,
) -> Result<(), TestCaseError> {
    let incremental = base.reverify(faults);
    let scratch = verify_faulted(&cfg.input(), faults);
    let label = format!(
        "scheme {:?} topo {:?} {}x{} vcs {} faults [{}]",
        cfg.scheme(),
        cfg.topo().kind(),
        cfg.topo().radix(0),
        cfg.topo().radix(1),
        cfg.input().routing.map().num_vcs(),
        faults.label(),
    );
    prop_assert_eq!(
        incremental.name(),
        scratch.name(),
        "verdict diverged: {}",
        label
    );
    prop_assert_eq!(
        incremental.witness().map(|w| w.rendered.clone()),
        scratch.witness().map(|w| w.rendered.clone()),
        "witness diverged: {}",
        label
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn incremental_reverify_matches_from_scratch(
        topo_idx in 0usize..4,
        scheme_idx in 0usize..4,
        vcs_idx in 0usize..3,
        pat_idx in 0usize..2,
        org_idx in 0usize..3,
        links in proptest::collection::vec((0usize..64, 0usize..2, 0usize..2), 0..3),
    ) {
        let vcs = [2u8, 4, 8][vcs_idx];
        let cfg = config(topo_idx, scheme_idx, vcs, pat_idx, org_idx);
        let faults = fault_set(cfg.topo(), &links);
        let base = BaseAnalysis::analyze(cfg.clone());
        assert_agreement(&cfg, &base, &faults)?;
    }
}

/// The empty fault set on every configuration the proptest draws from:
/// `reverify` then returns the pristine verdict, whose graph the one
/// segment builder derives by retyping, and `verify_faulted` must
/// reproduce it from scratch. Exhaustive because sampling misses the few
/// configurations where a wrongly retyped ejection vertex changes the
/// verdict (SA at 2 VCs under per-type queues, where the degraded map
/// merges the types).
#[test]
fn empty_fault_set_matches_from_scratch_on_every_config() {
    for cfg in every_config() {
        let base = BaseAnalysis::analyze(cfg.clone());
        assert_agreement(&cfg, &base, &FaultSet::new(cfg.topo())).unwrap();
    }
}

/// The degraded path on every configuration: one fixed link fault,
/// re-verdicted over `DegradedRouting` and checked against the oracle.
/// Exhaustive for the same reason as the empty-set test: the sampled
/// proptest rarely draws the configurations where a retype bug shows.
#[test]
fn single_link_fault_matches_from_scratch_on_every_config() {
    for cfg in every_config() {
        let base = BaseAnalysis::analyze(cfg.clone());
        // Router 1's `Plus` link in dimension 0 exists on every grid
        // topology, the 4×4 mesh included.
        let link = fault_set(cfg.topo(), &[(1, 0, 0)]);
        assert_agreement(&cfg, &base, &link).unwrap();
    }
}

/// Every configuration the proptest draws from: 4 topologies × 4
/// schemes × 3 VC budgets × 2 patterns × 3 queue organizations = 288.
fn every_config() -> impl Iterator<Item = AnalysisConfig> {
    (0..4).flat_map(|topo_idx| {
        (0..4).flat_map(move |scheme_idx| {
            [2u8, 4, 8].into_iter().flat_map(move |vcs| {
                (0..2).flat_map(move |pat_idx| {
                    (0..3).map(move |org_idx| config(topo_idx, scheme_idx, vcs, pat_idx, org_idx))
                })
            })
        })
    })
}

/// The 16x16 requirement, pinned deterministically: one base analysis,
/// re-verdicted under no fault, a link fault, and a compound fault of
/// two links in different dimensions.
/// At 256 routers the debug-build internal cross-check inside `reverify`
/// fires too, so in debug each fault is checked twice against the oracle.
#[test]
fn sixteen_by_sixteen_reverify_matches_from_scratch() {
    let topo = Topology::new(TopologyKind::Torus, &[16, 16], 1);
    let scheme = Scheme::StrictAvoidance {
        shared_adaptive: false,
    };
    let pattern = PatternSpec::pat271();
    let map = VcMap::build_degraded(scheme, pattern.protocol(), 8, 2);
    let cfg = AnalysisConfig::new(
        topo,
        scheme,
        SchemeRouting::new(map),
        pattern,
        QueueOrg::PerType,
    );
    let base = BaseAnalysis::analyze(cfg.clone());

    let mut link = FaultSet::new(cfg.topo());
    link.fail_link(cfg.topo(), NodeId(37), 1, Direction::Plus);
    let mut compound = FaultSet::new(cfg.topo());
    compound.fail_link(cfg.topo(), NodeId(0), 0, Direction::Minus);
    compound.fail_link(cfg.topo(), NodeId(129), 1, Direction::Plus);

    let empty = FaultSet::new(cfg.topo());

    for faults in [&empty, &link, &compound] {
        let incremental = base.reverify(faults);
        let scratch = verify_faulted(&cfg.input(), faults);
        assert_eq!(
            incremental.name(),
            scratch.name(),
            "faults [{}]",
            faults.label()
        );
        assert_eq!(
            incremental.witness().map(|w| &w.rendered),
            scratch.witness().map(|w| &w.rendered),
            "faults [{}]",
            faults.label()
        );
    }
}
