//! Size-ladder work check: at fixed per-node activity, the fused router
//! pass must do work per router that does not grow with the network.
//!
//! PR runs PAT100 (pure request-reply) with `Neighbor` destinations and
//! sparse geometric arrivals at a fixed per-node load on every
//! [`SimConfig::scale_ladder`] rung, so the hop count — and with it the
//! activity per node — is the same on every rung. Lazily-materialized
//! router state and the wake set must then keep the number of
//! routers the pass visits per router-cycle flat: a dense per-router
//! term (a walk over every router, materialized or not) shows up as a
//! visit rate near one instead of the sparse rate measured at 8×8.
//!
//! The counts are deterministic, unlike the wall-clock cost this check
//! replaces. The obs counters are process-global, so this file holds a
//! single test: its own binary, with no concurrent simulation to inflate
//! the counts.

use mdd_sim::obs;
use mdd_sim::prelude::*;

/// Per-node offered load (flits/node/cycle): big but sparse, the regime
/// the lazy state and wake sets exist for.
const LOAD: f64 = 0.005;
const WARMUP: u64 = 500;
const CYCLES: u64 = 1_500;

/// Fused-pass router visits per router-cycle over `CYCLES` steady-state
/// cycles on the torus `radix`.
fn visits_per_router_cycle(radix: &[u32]) -> f64 {
    let routers: u32 = radix.iter().product();
    let mut cfg =
        SimConfig::paper_default(Scheme::ProgressiveRecovery, PatternSpec::pat100(), 4, LOAD);
    cfg.radix = radix.to_vec();
    cfg.dest = DestPattern::Neighbor;
    cfg.sparse_arrivals = true;
    // Gauge sampling walks every NIC; one sample per router-count cycles
    // keeps its amortized cost per router-cycle equal on every rung and
    // the 64x64 debug run short. Gauges never affect results or counts.
    cfg.obs_sample_every = u64::from(routers);
    cfg.warmup = 0;
    cfg.measure = 0;
    let mut sim = Simulator::new(cfg).expect("ladder config is feasible");
    sim.run_cycles(WARMUP);
    let before = ObsReport::capture();
    sim.run_cycles(CYCLES);
    let after = ObsReport::capture();
    let visits = after.get(CounterId::FusedPassRouters) - before.get(CounterId::FusedPassRouters);
    visits as f64 / (f64::from(routers) * CYCLES as f64)
}

#[test]
fn fused_pass_work_per_router_is_flat_across_the_ladder() {
    obs::install(1 << 10);
    let [base, rungs @ ..] = SimConfig::scale_ladder();
    let base_rate = visits_per_router_cycle(base);
    assert!(
        base_rate > 0.0 && base_rate < 0.5,
        "8x8: {base_rate:.4} visits per router-cycle; the pass must visit \
         only active routers"
    );
    for rung in rungs {
        let rate = visits_per_router_cycle(rung);
        assert!(
            rate > 0.0 && rate <= 2.0 * base_rate,
            "{rung:?}: {rate:.4} visits per router-cycle vs {base_rate:.4} \
             at 8x8 — per-router work grew with the network"
        );
    }
    obs::uninstall();
}
