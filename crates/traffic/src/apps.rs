//! Calibrated Splash-2 application models.
//!
//! The paper drives its characterization (Section 4.2) with RSIM execution
//! traces of FFT, LU, Radix and Water on 16 processors. Those traces are
//! not available, so each application is modelled by (a) a *load profile* —
//! a piecewise-constant schedule of network load levels calibrated to the
//! published Figure 6 histograms — and (b) a *sharing model* — the mix of
//! private accesses, reads to shared data and writes to shared data,
//! calibrated so the directory engine reproduces the Table 1 response mix.
//! DESIGN.md records this substitution.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One phase of an application's execution: a fraction of total runtime
/// spent at a given network load level.
#[derive(Clone, Copy, Debug)]
pub struct AppPhase {
    /// Fraction of the execution time (phases sum to 1).
    pub time_fraction: f64,
    /// Network load during the phase, as a fraction of network capacity.
    pub load_fraction: f64,
}

/// A synthetic application model.
#[derive(Clone, Debug)]
pub struct AppModel {
    /// Application name (matches the Splash-2 benchmark it models).
    pub name: &'static str,
    /// The load schedule (Figure 6 calibration).
    pub phases: Vec<AppPhase>,
    /// Probability an access touches private data (home-owned: a direct
    /// reply).
    pub p_private: f64,
    /// Probability an access is a *write* given it touches shared data
    /// (writes to shared lines invalidate sharers).
    pub p_write_shared: f64,
    /// Size of the shared working set in cache lines.
    pub shared_lines: u64,
    /// Size of each processor's private region in cache lines.
    pub private_lines: u64,
    /// Producer-consumer structure: `Some(p_produce)` gives each shared
    /// line a designated producer that writes it while other processors
    /// only read it — the access pattern of Water's per-molecule updates.
    /// With probability `p_produce` a shared access is the producer
    /// updating one of its own lines; otherwise it is a consumer read.
    /// `None` falls back to unstructured sharing.
    pub owner_affinity: Option<f64>,
    /// Probability a Modified line has been capacity-evicted (written
    /// back) at its owner by the time another node accesses it.
    pub writeback_rate: f64,
}

impl AppModel {
    /// FFT: nearly all accesses private / home-owned (Table 1: 98.7%
    /// direct replies), very low load (under 5% of capacity ~96% of time).
    pub fn fft() -> Self {
        AppModel {
            name: "FFT",
            phases: vec![
                AppPhase {
                    time_fraction: 0.96,
                    load_fraction: 0.02,
                },
                AppPhase {
                    time_fraction: 0.04,
                    load_fraction: 0.08,
                },
            ],
            p_private: 0.985,
            p_write_shared: 0.45,
            shared_lines: 64,
            private_lines: 4096,
            owner_affinity: None,
            writeback_rate: 0.2,
        }
    }

    /// LU: 96.5% direct replies, low load.
    pub fn lu() -> Self {
        AppModel {
            name: "LU",
            phases: vec![
                AppPhase {
                    time_fraction: 0.97,
                    load_fraction: 0.02,
                },
                AppPhase {
                    time_fraction: 0.03,
                    load_fraction: 0.06,
                },
            ],
            p_private: 0.960,
            p_write_shared: 0.50,
            shared_lines: 64,
            private_lines: 4096,
            owner_affinity: None,
            writeback_rate: 0.2,
        }
    }

    /// Radix: 95.5% direct replies but the highest load of the four
    /// (bursts to ~30% of capacity, average ~19%).
    pub fn radix() -> Self {
        AppModel {
            name: "Radix",
            phases: vec![
                AppPhase {
                    time_fraction: 0.40,
                    load_fraction: 0.045,
                },
                AppPhase {
                    time_fraction: 0.30,
                    load_fraction: 0.27,
                },
                AppPhase {
                    time_fraction: 0.30,
                    load_fraction: 0.30,
                },
            ],
            p_private: 0.950,
            p_write_shared: 0.55,
            shared_lines: 96,
            private_lines: 4096,
            owner_affinity: None,
            writeback_rate: 0.2,
        }
    }

    /// Water: heavy sharing — only 15.2% direct replies, 50.1%
    /// invalidations, 34.7% forwardings; low load.
    pub fn water() -> Self {
        AppModel {
            name: "Water",
            phases: vec![
                AppPhase {
                    time_fraction: 0.92,
                    load_fraction: 0.025,
                },
                AppPhase {
                    time_fraction: 0.08,
                    load_fraction: 0.06,
                },
            ],
            p_private: 0.05,
            p_write_shared: 0.05,
            shared_lines: 64,
            private_lines: 1024,
            owner_affinity: Some(0.55),
            writeback_rate: 0.05,
        }
    }

    /// The four modelled applications in the paper's order.
    pub fn all() -> Vec<AppModel> {
        vec![Self::fft(), Self::lu(), Self::radix(), Self::water()]
    }

    /// Expected (time-averaged) network load fraction.
    pub fn avg_load(&self) -> f64 {
        self.phases
            .iter()
            .map(|p| p.time_fraction * p.load_fraction)
            .sum()
    }

    /// The load fraction in force at `progress` ∈ [0,1) of execution.
    pub fn load_at(&self, progress: f64) -> f64 {
        let mut acc = 0.0;
        for p in &self.phases {
            acc += p.time_fraction;
            if progress < acc {
                return p.load_fraction;
            }
        }
        self.phases.last().map_or(0.0, |p| p.load_fraction)
    }

    /// Sample one memory access for processor `proc` out of `nprocs`:
    /// returns `(cache line address, is_write)`. Private lines live in a
    /// per-processor region; shared lines are drawn from a common pool
    /// with a mild Zipf-like skew.
    pub fn sample_access(&self, proc: u32, nprocs: u32, rng: &mut StdRng) -> (u64, bool) {
        if rng.random::<f64>() < self.p_private {
            let line = rng.random_range(0..self.private_lines);
            // Private regions are disjoint per processor and placed after
            // the shared pool.
            let addr = self.shared_lines + proc as u64 * self.private_lines + line;
            // Private data: write ratio is irrelevant to coherence traffic
            // classification; use a typical 30%.
            (addr, rng.random::<f64>() < 0.3)
        } else if let Some(p_produce) = self.owner_affinity {
            if rng.random::<f64>() < p_produce {
                // The producer updates one of its own lines. Producer of
                // line `l` is `(l + shift) % nprocs` with a shift that
                // decorrelates producers from home nodes.
                let per = (self.shared_lines / nprocs as u64).max(1);
                let k = rng.random_range(0..per);
                let shift = nprocs as u64 / 2 + 1;
                let line = (k * nprocs as u64
                    + ((proc as u64 + nprocs as u64 - shift % nprocs as u64) % nprocs as u64))
                    % self.shared_lines;
                (line, true)
            } else {
                // A consumer reads (occasionally writes) a line chosen
                // uniformly, so reads and producer updates stay balanced
                // per line (each update is consumed roughly once).
                let line = rng.random_range(0..self.shared_lines);
                (line, rng.random::<f64>() < self.p_write_shared)
            }
        } else {
            // Zipf-ish skew: squaring a uniform variate favours low lines.
            let u: f64 = rng.random();
            let line = ((u * u) * self.shared_lines as f64) as u64;
            let _ = nprocs;
            (
                line.min(self.shared_lines - 1),
                rng.random::<f64>() < self.p_write_shared,
            )
        }
    }

    /// A seeded RNG for this application (deterministic per name).
    pub fn rng(&self, seed: u64) -> StdRng {
        let mix = self
            .name
            .bytes()
            .fold(seed, |a, b| a.wrapping_mul(31).wrapping_add(b as u64));
        StdRng::seed_from_u64(mix)
    }
}
