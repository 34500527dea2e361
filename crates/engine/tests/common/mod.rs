//! Shared helpers for the mdd-engine integration tests.
// Each test binary compiles its own copy of this module and not every
// binary uses every helper.
#![allow(dead_code)]

use mdd_core::{PatternSpec, Scheme, SimConfig, SimResult};
use std::fs;
use std::path::{Path, PathBuf};

/// A unique scratch directory removed on drop. No tempfile crate in the
/// offline container, so the name is derived from pid + test name.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(name: &str) -> Self {
        let p = std::env::temp_dir().join(format!("mdd-engine-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&p);
        fs::create_dir_all(&p).expect("create scratch dir");
        TempDir(p)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// A configuration small enough that real simulation points finish in
/// well under a second.
pub fn small_cfg() -> SimConfig {
    let mut cfg =
        SimConfig::paper_default(Scheme::ProgressiveRecovery, PatternSpec::pat271(), 4, 0.0);
    cfg.radix = vec![4, 4];
    cfg.warmup = 100;
    cfg.measure = 300;
    cfg.validate()
        .expect("PR on a 4x4 torus is always feasible");
    cfg
}

/// A synthetic result for tests that never run the simulator.
pub fn fake_result(load: f64) -> SimResult {
    SimResult {
        applied_load: load,
        throughput: load * 0.9,
        avg_latency: 42.5,
        latency_quantiles: (30.0, 90.5, 120.25),
        messages_delivered: 1_000,
        transactions: 250,
        deadlocks: 3,
        router_rescues: 1,
        deflections: 0,
        rescues: 2,
        generated: 260,
        mc_utilization: 0.5,
        cwg_checks: 7,
        cwg_deadlocked_checks: 1,
        vc_util_mean: 0.25,
        vc_util_max: 0.75,
        vc_util_cv: 0.1,
        obs: None,
    }
}
