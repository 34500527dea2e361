//! The default load schedule. One point is
//! `Simulator::new(base.at_load(load))?.run()`; a whole sweep runs
//! through the `mdd-engine` crate (`Engine::submit_sweep`), which
//! schedules the points in parallel with per-point panic isolation, a
//! persistent result cache and progress counters.

/// The default applied-load schedule used by the figure harnesses:
/// `n` points from `lo` to `hi` flits/node/cycle.
pub fn default_loads(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(n >= 2 && hi > lo);
    (0..n)
        .map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64)
        .collect()
}
