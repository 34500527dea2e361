//! Theoretical capacity analysis: average distance, bisection width, and
//! the uniform-traffic saturation bound used to express loads as a
//! fraction of network capacity (the paper's Figure 6 axis).

use crate::coord::NodeId;
use crate::torus::{Topology, TopologyKind};

/// Capacity figures for a topology under uniform random traffic.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CapacityReport {
    /// Mean minimal hop distance between distinct router pairs.
    pub avg_distance: f64,
    /// Unidirectional channels crossing the worst-dimension bisection.
    pub bisection_channels: u32,
    /// Upper bound on sustainable uniform-traffic throughput in
    /// flits/node/cycle, from the bisection argument
    /// (`2·B / N` for traffic where half the packets cross the cut).
    pub bisection_bound: f64,
    /// Upper bound from total link bandwidth: `links / (N · avg_distance)`
    /// flits/node/cycle.
    pub link_bound: f64,
}

impl CapacityReport {
    /// The binding bound (minimum of the two).
    pub fn throughput_bound(&self) -> f64 {
        self.bisection_bound.min(self.link_bound)
    }
}

impl Topology {
    /// Mean minimal hop distance over ordered pairs of distinct routers.
    pub fn average_distance(&self) -> f64 {
        // Per-dimension mean distances are independent and additive.
        let mut total = 0.0;
        for d in 0..self.dims() {
            let k = self.radix(d) as f64;
            let mean_d = match self.kind() {
                // Ring of k nodes: mean over all ordered pairs including
                // self (k^2 pairs) is k/4 for even k; use the exact sum.
                TopologyKind::Torus => {
                    let k_int = self.radix(d);
                    let sum: u32 = (0..k_int).map(|delta| delta.min(k_int - delta)).sum();
                    sum as f64 / k
                }
                // Path of k nodes: mean |i-j| over ordered pairs incl. self.
                TopologyKind::Mesh => {
                    let k_int = self.radix(d) as i64;
                    let sum: i64 = (0..k_int)
                        .flat_map(|i| (0..k_int).map(move |j| (i - j).abs()))
                        .sum();
                    sum as f64 / (k * k)
                }
            };
            total += mean_d;
        }
        // Rescale from "including self pairs" to distinct pairs.
        let n = self.num_routers() as f64;
        total * n / (n - 1.0)
    }

    /// Unidirectional channel count across the bisection of the widest
    /// dimension cut (the standard worst-case middle cut).
    pub fn bisection_channels(&self) -> u32 {
        // Cut the largest dimension in half: the number of crossing
        // unidirectional links is (routers / k) * (wrap ? 2 : 1) * 2 dirs.
        let (dmax, kmax) = (0..self.dims())
            .map(|d| (d, self.radix(d)))
            .max_by_key(|&(_, k)| k)
            .expect("at least one dimension");
        let _ = dmax;
        let rows = self.num_routers() / kmax;
        let cuts = match self.kind() {
            TopologyKind::Torus => 2,
            TopologyKind::Mesh => 1,
        };
        rows * cuts * 2
    }

    /// Full capacity report for uniform random traffic.
    pub fn capacity(&self) -> CapacityReport {
        let n = self.num_nics() as f64;
        let avg = self.average_distance();
        let b = self.bisection_channels();
        CapacityReport {
            avg_distance: avg,
            bisection_channels: b,
            bisection_bound: 2.0 * b as f64 / n,
            link_bound: self.num_links() as f64 / (n * avg.max(1e-9)),
        }
    }

    /// Exhaustive (O(N²)) mean distance, for validating the closed form in
    /// tests and for irregular analyses.
    pub fn average_distance_exhaustive(&self) -> f64 {
        let n = self.num_routers();
        let mut sum = 0u64;
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    sum += self.distance(NodeId(a), NodeId(b)) as u64;
                }
            }
        }
        sum as f64 / (n as f64 * (n as f64 - 1.0))
    }
}
