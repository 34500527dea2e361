//! Fault-frontier sweeps: a scheme's static robustness margin.
//!
//! For a base configuration and a set of fault points (single failed
//! links, sampled double links), classify each point as
//! *verdict-preserving* (the degraded verdict keeps the base verdict's
//! rank) or *verdict-degrading* (the rank drops — e.g. `ProvenFree` →
//! `Unsafe`). The aggregate is the configuration's fault frontier: how
//! much static safety margin the scheme carries.
//!
//! ## Fault-orbit memoization
//!
//! A full single-link sweep of a 16×16 torus is 512 degraded re-verdicts;
//! at ~1 s per 16×16 build that is far outside interactive budgets. What
//! collapses the sweep is the same symmetry the orbit quotient of
//! [`verify`](crate::verify) exploits, applied to fault points:
//! torus routing is translation-equivariant up to dateline relabeling, so
//! two fault sets related by a torus translation produce isomorphic
//! degraded dependency structures and identical verdict ranks. Fault
//! points are therefore grouped by a translation-canonical orbit key and
//! one representative per orbit is re-verified; a 512-point single-link
//! sweep costs `dims` representative verdicts.
//!
//! The guardrails mirror the orbit quotient's: in debug builds every
//! memoized replication (on topologies small enough to afford it) is
//! re-derived individually and must agree, and meshes — which have no
//! translation symmetry — get per-point keys, i.e. no memoization at
//! all. A frontier report therefore
//! *claims* exactly what was computed: every point's verdict equals the
//! representative's, which equals a from-scratch degraded analysis in
//! every cross-checked build.

use crate::incremental::{BaseAnalysis, FaultOutcome};
use mdd_obs::{counter_add, CounterId, Json};
use mdd_topology::{Direction, FaultSet, NodeId, Topology, TopologyKind};

/// Whether a fault point keeps or lowers the base verdict's rank.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultClass {
    /// The degraded verdict has the same rank as (or better than) the
    /// base verdict.
    Preserving,
    /// The degraded verdict's rank is strictly lower than the base's.
    Degrading,
}

/// One classified fault point.
#[derive(Clone, Debug)]
pub struct FaultPoint {
    /// Stable human-readable fault label ([`FaultSet::label`]).
    pub label: String,
    /// Verdict name of the degraded configuration.
    pub verdict: &'static str,
    /// Verdict rank of the degraded configuration.
    pub rank: u8,
    /// Preserving or degrading, relative to the base verdict.
    pub class: FaultClass,
}

/// A classified fault sweep for one configuration.
#[derive(Clone, Debug)]
pub struct FrontierReport {
    /// The pristine configuration's verdict name.
    pub base_verdict: &'static str,
    /// The pristine configuration's verdict rank.
    pub base_rank: u8,
    /// Every classified fault point, in enumeration order.
    pub points: Vec<FaultPoint>,
    /// Number of verdict-preserving points.
    pub preserving: usize,
    /// Number of verdict-degrading points.
    pub degrading: usize,
}

/// The verdict name corresponding to a rank (the frontier never carries
/// witnesses, so the rank determines the name).
fn rank_name(rank: u8) -> &'static str {
    match rank {
        0 => "Unsafe",
        1 => "RecoverableCycles",
        _ => "ProvenFree",
    }
}

impl FrontierReport {
    /// Assemble a report from evaluated `(fault, outcome)` pairs and bump
    /// the `fault_points_classified` counter: the assembly step of the
    /// engine's pool-parallel sweep. Each point's rank is its outcome
    /// judged by [`FaultOutcome::rank`] with its own ring check. In debug
    /// builds on topologies with ≤ 64 routers, every point's rank is
    /// re-derived by the full re-verdict (itself cross-checked from
    /// scratch) and must agree — the guardrail that keeps orbit
    /// memoization honest.
    pub fn assemble(
        base: &BaseAnalysis,
        evaluated: Vec<(FaultSet, FaultOutcome)>,
    ) -> FrontierReport {
        let base_rank = base.base_verdict().rank();
        let mut report = FrontierReport {
            base_verdict: base.base_verdict().name(),
            base_rank,
            points: Vec::with_capacity(evaluated.len()),
            preserving: 0,
            degrading: 0,
        };
        let cfg = base.config();
        for (fault, outcome) in evaluated {
            let rank = outcome.rank(cfg.scheme(), || {
                crate::pr_ring_intact(cfg.topo(), Some(&fault))
            });
            #[cfg(debug_assertions)]
            if cfg.topo().num_routers() <= 64 {
                let full = base.reverify(&fault);
                assert_eq!(
                    (full.rank(), full.name()),
                    (rank, rank_name(rank)),
                    "fault-orbit outcome diverged from the full re-verdict for {}",
                    fault.label(),
                );
            }
            let class = if rank < base_rank {
                FaultClass::Degrading
            } else {
                FaultClass::Preserving
            };
            match class {
                FaultClass::Preserving => report.preserving += 1,
                FaultClass::Degrading => report.degrading += 1,
            }
            report.points.push(FaultPoint {
                label: fault.label(),
                verdict: rank_name(rank),
                rank,
                class,
            });
        }
        counter_add(CounterId::FaultPointsClassified, report.points.len() as u64);
        report
    }

    /// The report as one JSON object: the caller's `head` fields (e.g.
    /// the configuration), the base verdict and rank, the class counts,
    /// then every point in enumeration order.
    pub fn to_json(&self, mut head: Vec<(String, Json)>) -> Json {
        let text = |s: &str| Json::Str(s.to_string());
        let points = self.points.iter().map(|p| {
            let class = match p.class {
                FaultClass::Preserving => "preserving",
                FaultClass::Degrading => "degrading",
            };
            Json::Obj(vec![
                ("fault".to_string(), text(&p.label)),
                ("verdict".to_string(), text(p.verdict)),
                ("rank".to_string(), Json::Int(p.rank.into())),
                ("class".to_string(), text(class)),
            ])
        });
        head.extend([
            ("base_verdict".to_string(), text(self.base_verdict)),
            ("base_rank".to_string(), Json::Int(self.base_rank.into())),
            ("preserving".to_string(), Json::Int(self.preserving as u64)),
            ("degrading".to_string(), Json::Int(self.degrading as u64)),
            ("points".to_string(), Json::Arr(points.collect())),
        ]);
        Json::Obj(head)
    }
}

/// Translate `node` by `t` steps along dimension `d` (mod radix).
fn translate_along(topo: &Topology, node: NodeId, d: usize, t: u32) -> NodeId {
    let mut id = node.index() as u32;
    let k = topo.radix(d);
    let mut stride = 1u32;
    for e in 0..d {
        stride *= topo.radix(e);
    }
    let c = topo.coord_along(node, d);
    id -= c * stride;
    id += ((c + t) % k) * stride;
    NodeId(id)
}

/// The orbit key of a fault set under the symmetry the degraded analysis
/// actually has: translation along the failed links' own dimension. For a
/// torus fault set whose failed links all lie in one dimension `d`, the
/// key is the lexicographically smallest rendering over all `radix(d)`
/// slides along `d`. Everything else — meshes, links spanning several
/// dimensions — is its own orbit (`FaultSet::label`): full translation
/// is *not* used because the dateline-classed escape VCs make the
/// outcome depend on the fault's position relative to the datelines of
/// every other dimension.
pub fn fault_orbit_key(topo: &Topology, fault: &FaultSet) -> String {
    let links = fault.failed_links();
    if topo.kind() != TopologyKind::Torus
        || links.is_empty()
        || links.iter().any(|&(_, d, _)| d != links[0].1)
    {
        return fault.label();
    }
    let d = links[0].1;
    let mut best: Option<String> = None;
    for t in 0..topo.radix(d) {
        let mut parts: Vec<String> = links
            .iter()
            .map(|&(n, ld, dir)| {
                let sign = if dir == Direction::Plus { '+' } else { '-' };
                format!("L{}{}d{}", translate_along(topo, n, d, t).index(), sign, ld)
            })
            .collect();
        parts.sort();
        let key = parts.join("|");
        if best.as_ref().is_none_or(|b| key < *b) {
            best = Some(key);
        }
    }
    best.expect("non-empty link set yields a key")
}

/// Deterministically sample `count` distinct double-link fault sets from
/// `topo`'s canonical link enumeration (a tiny multiplicative PRNG keyed
/// by `seed`; no external RNG dependency).
pub fn sampled_double_link_faults(topo: &Topology, count: usize, seed: u64) -> Vec<FaultSet> {
    let singles = mdd_topology::single_link_faults(topo);
    let n = singles.len();
    if n < 2 {
        return Vec::new();
    }
    let mut state = seed | 1;
    let mut next = move || {
        // SplitMix64 finalizer: full-period, deterministic, dependency-free.
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut seen: Vec<(usize, usize)> = Vec::new();
    let mut out = Vec::new();
    let max_pairs = n * (n - 1) / 2;
    while out.len() < count.min(max_pairs) {
        let i = (next() % n as u64) as usize;
        let j = (next() % n as u64) as usize;
        if i == j {
            continue;
        }
        let pair = (i.min(j), i.max(j));
        if seen.contains(&pair) {
            continue;
        }
        seen.push(pair);
        let mut f = singles[pair.0].clone();
        let &(node, d, dir) = &singles[pair.1].failed_links()[0];
        f.fail_link(topo, node, d, dir);
        out.push(f);
    }
    out
}
