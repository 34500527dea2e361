//! The unit of engine work: one configuration to simulate.

use mdd_core::SimConfig;

/// One schedulable simulation point: a fully resolved [`SimConfig`] plus
/// the curve label and point id it reports under. The configuration is
/// final — for sweep points the load and the per-point seed derivation
/// of [`SimConfig::at_load`] have already been applied — so the job's
/// cache key is simply the config's content hash.
#[derive(Clone, Debug)]
pub struct Job {
    /// Position of this point within its batch (used to keep report
    /// order stable and to name failed points).
    pub id: usize,
    /// The label of the curve/series this point belongs to ("PR",
    /// "DR-QA", ...).
    pub label: String,
    /// The exact configuration to simulate.
    pub cfg: SimConfig,
}

impl Job {
    /// A job from its parts.
    pub fn new(id: usize, label: impl Into<String>, cfg: SimConfig) -> Self {
        Job {
            id,
            label: label.into(),
            cfg,
        }
    }

    /// The jobs of a load sweep: `base` evaluated at each load, each seed
    /// decorrelated per point by [`SimConfig::at_load`].
    pub fn points(base: &SimConfig, loads: &[f64], label: &str) -> Vec<Job> {
        loads
            .iter()
            .enumerate()
            .map(|(id, &l)| Job::new(id, label, base.at_load(l)))
            .collect()
    }

    /// The content-addressed cache key of this job (the configuration's
    /// canonical hash, in hex).
    pub fn key(&self) -> String {
        self.cfg.content_hash_hex()
    }

    /// The applied load of this point.
    pub fn load(&self) -> f64 {
        self.cfg.load
    }
}
