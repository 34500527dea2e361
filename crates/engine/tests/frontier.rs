//! Fault-frontier classification through the engine's sweep
//! (`Engine::fault_frontier`) on 4×4 tori. In debug builds
//! `FrontierReport::assemble` re-derives every point's rank from a full
//! re-verdict, so these sweeps also check the orbit memoization point by
//! point.

use mdd_core::{PatternSpec, Scheme, SimConfig};
use mdd_engine::Engine;
use mdd_verify::{sampled_double_link_faults, single_link_faults, AnalysisConfig, FaultSet};

/// The analysis configuration of `scheme` at `vcs` on a 4×4 torus
/// running PAT271.
fn analysis(scheme: Scheme, vcs: u8) -> AnalysisConfig {
    let mut cfg = SimConfig::paper_default(scheme, PatternSpec::pat271(), vcs, 0.0);
    cfg.radix = vec![4, 4];
    mdd_core::analysis_config(&cfg).expect("feasible configuration")
}

fn frontier(cfg: AnalysisConfig, faults: Vec<FaultSet>) -> mdd_verify::FrontierReport {
    let engine = Engine::builder().jobs(2).build().expect("engine");
    engine.fault_frontier(cfg, faults)
}

#[test]
fn sa_frontier_finds_degrading_faults() {
    let cfg = analysis(
        Scheme::StrictAvoidance {
            shared_adaptive: false,
        },
        8,
    );
    let faults = single_link_faults(cfg.topo());
    let report = frontier(cfg, faults);
    assert_eq!(report.points.len(), 32);
    assert_eq!(report.base_verdict, "ProvenFree");
    assert!(
        report.degrading >= 1,
        "crippling a ProvenFree SA config must degrade somewhere"
    );
    assert_eq!(report.preserving + report.degrading, report.points.len());
    let json = report.to_json(Vec::new());
    let points = json.get("points").and_then(mdd_obs::Json::as_arr).unwrap();
    assert_eq!(points.len(), report.points.len());
    let degrading = json.get("degrading").and_then(mdd_obs::Json::as_u64);
    assert_eq!(degrading, Some(report.degrading as u64));
}

#[test]
fn pr_frontier_ring_faults_are_position_dependent() {
    // PR's recovery-lane check is the one *position-dependent* mechanism
    // check: wrap-around links sit off the boustrophedon snake and keep
    // the lane walkable, while in-row links break it. The orbit
    // memoization must therefore split on ring liveness — this is what
    // the debug cross-check in FrontierReport::assemble enforces.
    let cfg = analysis(Scheme::ProgressiveRecovery, 4);
    let faults = single_link_faults(cfg.topo());
    let report = frontier(cfg, faults);
    assert!(report.degrading >= 1);
    assert!(
        report.preserving >= 1,
        "off-snake wrap links must preserve PR's verdict"
    );
}

#[test]
fn double_link_sampling_is_deterministic_and_classifiable() {
    let cfg = analysis(
        Scheme::StrictAvoidance {
            shared_adaptive: false,
        },
        8,
    );
    let a = sampled_double_link_faults(cfg.topo(), 5, 42);
    let b = sampled_double_link_faults(cfg.topo(), 5, 42);
    assert_eq!(a.len(), 5);
    assert_eq!(
        a.iter().map(FaultSet::label).collect::<Vec<_>>(),
        b.iter().map(FaultSet::label).collect::<Vec<_>>(),
    );
    assert!(a.iter().all(|f| f.num_failed_links() == 2));
    let report = frontier(cfg, a);
    assert_eq!(report.points.len(), 5);
}
