//! Load-sweep primitives: the default load schedule and one simulation
//! point. A whole sweep runs through the `mdd-engine` crate
//! (`Engine::submit_sweep`), which schedules these points in parallel
//! with per-point panic isolation, a persistent result cache and
//! progress counters.

use crate::config::{SimConfig, SimResult};
use crate::sim::Simulator;
use mdd_routing::SchemeConfigError;

/// The default applied-load schedule used by the figure harnesses:
/// `n` points from `lo` to `hi` flits/node/cycle.
pub fn default_loads(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(n >= 2 && hi > lo);
    (0..n)
        .map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64)
        .collect()
}

/// Run one configuration at one load (seed decorrelated per point via
/// [`SimConfig::at_load`]).
pub fn run_point(base: &SimConfig, load: f64) -> Result<SimResult, SchemeConfigError> {
    let mut sim = Simulator::new(base.at_load(load))?;
    Ok(sim.run())
}
