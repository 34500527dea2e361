//! # mdd-verify
//!
//! Static deadlock-safety verification of scheme/routing/protocol
//! configurations — no simulator instance, no traffic, no cycles burned.
//!
//! The paper's taxonomy (strict avoidance, deflective recovery,
//! progressive recovery) is at heart a claim about which *resource
//! dependency graphs* can close a cycle. The simulator discovers this
//! dynamically: `mdd-core` builds the extended channel wait-for graph
//! (CWG) from live state and looks for knots. This crate answers the same
//! question *before* any cycle is simulated, from configuration alone:
//!
//! 1. **Static CDG construction** (`cdg`): the routing function is
//!    enumerated over every (message type, destination) pair by a
//!    breadth-first sweep over `(router, dateline-crossing mask)` states,
//!    invoking the scheme's real [`Routing`](mdd_router::Routing)
//!    implementation — so the graph reflects exactly the candidates the
//!    router would offer at simulation time. Vertices are the same
//!    resources the dynamic CWG uses ([`ResourceLayout`]): router input
//!    VCs plus per-NIC endpoint input/output queues, with the paper's `≺`
//!    message-dependency edges (non-terminating input-queue head → the
//!    subordinate type's output queue → its injection channels).
//! 2. **Escape peeling** (`analyze`): a least-fixpoint computation in
//!    the style of Duato's sufficient condition. Each vertex carries its
//!    possible *occupant classes*; a class is safe when any of its
//!    OR-wait candidates is safe (or it sinks unconditionally), and a
//!    vertex is safe when every class that can occupy it is safe. Safety
//!    propagates backwards through the acyclic dateline-class escape
//!    structure; if everything peels, no reachable configuration of
//!    occupants can deadlock.
//! 3. **Classification**: residual (unpeelable) vertices are analyzed
//!    with Tarjan SCC shared with the runtime detector
//!    ([`WaitForGraph`](mdd_deadlock::WaitForGraph)) and judged against
//!    the scheme's drain mechanism, yielding a typed [`Verdict`] with a
//!    human-readable cycle witness: the first simple cycle of the first
//!    cyclic SCC, not necessarily a shortest one.
//!
//! On the paper's 8x8 torus at 4 VCs the whole analysis takes about
//! 1.5 ms for SA/PAT100, 3 ms for DR/PAT271 and 9 ms for PR/PAT271
//! (release build, medians on a 2-core x86-64 host; EXPERIMENTS.md
//! "Static pre-flight witness, measured"), so the experiment engine runs
//! it as a pre-flight on every sweep point.

#![warn(missing_docs)]

mod analyze;
mod cdg;
mod frontier;
mod incremental;
mod synthesis;

use std::fmt;

use mdd_deadlock::ResourceLayout;
use mdd_obs::{counter_add, CounterId};
use mdd_protocol::{PatternSpec, QueueOrg};
use mdd_routing::{Scheme, SchemeRouting};
use mdd_topology::{Direction, RecoveryRing, Topology, UNREACHABLE};

pub use frontier::{
    fault_orbit_key, sampled_double_link_faults, FaultClass, FaultPoint, FrontierReport,
};
pub use incremental::{verify_faulted, AnalysisConfig, BaseAnalysis, FaultOutcome};
pub use synthesis::{min_safe_vcs, MinVcReport};

// Re-exported so fault-sweep callers (the engine, the analysis CLI) can
// name fault sets without a direct topology dependency.
pub use mdd_topology::{single_link_faults, FaultSet};

/// Everything the static analysis needs to know about a configuration.
///
/// Mirrors what `Simulator::new` derives from a `SimConfig`, without
/// depending on `mdd-core` (the dependency points the other way: the
/// config builder calls into this crate for its strict mode).
#[derive(Clone, Copy, Debug)]
pub struct VerifyInput<'a> {
    /// The network topology.
    pub topo: &'a Topology,
    /// The deadlock-handling scheme under analysis.
    pub scheme: Scheme,
    /// The scheme's routing function (wrapping its [`VcMap`]).
    ///
    /// [`VcMap`]: mdd_routing::VcMap
    pub routing: &'a SchemeRouting,
    /// The workload pattern (transaction shapes and their protocol).
    pub pattern: &'a PatternSpec,
    /// Endpoint queue organization.
    pub queue_org: QueueOrg,
}

/// A dependency cycle found in the static CDG, renderable as the same
/// trace format the runtime deadlock oracle prints.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CycleWitness {
    /// The cycle's vertex ids in [`ResourceLayout`] numbering.
    pub vertices: Vec<u32>,
    /// Human-readable rendering: one resource per line with the blocked
    /// occupant (message type, destination) in brackets.
    pub rendered: String,
}

impl fmt::Display for CycleWitness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.rendered)
    }
}

/// The outcome of static verification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// No reachable occupant configuration can deadlock: the extended CDG
    /// peels completely (in particular, any acyclic extended CDG). This is
    /// what strict avoidance achieves by construction.
    ProvenFree,
    /// Dependency cycles exist, but every residual cycle is covered by
    /// the scheme's drain mechanism — backoff-reply convertibility for
    /// deflective recovery, token/lane reachability for progressive
    /// recovery. The witness shows one such recoverable cycle.
    RecoverableCycles {
        /// A representative cycle the mechanism must (and can) drain.
        witness: CycleWitness,
    },
    /// A dependency cycle exists that no configured mechanism can drain:
    /// the configuration can wedge permanently.
    Unsafe {
        /// A cycle demonstrating the problem: the first simple cycle of
        /// the first cyclic SCC of the residual graph, not necessarily a
        /// shortest one.
        witness: CycleWitness,
    },
}

/// The verdict names, indexed by [`Verdict::rank`]: the one table that
/// [`Verdict::name`] and [`Verdict::rank_name`] both read.
const NAMES_BY_RANK: [&str; 3] = ["Unsafe", "RecoverableCycles", "ProvenFree"];

impl Verdict {
    /// The stable one-word name (`ProvenFree` / `RecoverableCycles` /
    /// `Unsafe`) used by CLI output and CI assertions.
    pub fn name(&self) -> &'static str {
        Self::rank_name(self.rank())
    }

    /// The name of the verdict of safety rank `rank` (a rank determines
    /// the name; reports that carry no witness store only the rank).
    ///
    /// # Panics
    /// Panics if `rank` is not a rank [`Verdict::rank`] returns.
    pub fn rank_name(rank: u8) -> &'static str {
        NAMES_BY_RANK[usize::from(rank)]
    }

    /// The witness cycle, when the verdict carries one.
    pub fn witness(&self) -> Option<&CycleWitness> {
        match self {
            Verdict::ProvenFree => None,
            Verdict::RecoverableCycles { witness } | Verdict::Unsafe { witness } => Some(witness),
        }
    }

    /// True for [`Verdict::ProvenFree`].
    pub fn is_proven_free(&self) -> bool {
        matches!(self, Verdict::ProvenFree)
    }

    /// True for [`Verdict::Unsafe`].
    pub fn is_unsafe(&self) -> bool {
        matches!(self, Verdict::Unsafe { .. })
    }

    /// Safety rank for comparisons across perturbed configurations:
    /// `Unsafe` < `RecoverableCycles` < `ProvenFree`. A fault point is
    /// *verdict-degrading* exactly when it lowers the rank.
    pub fn rank(&self) -> u8 {
        match self {
            Verdict::Unsafe { .. } => 0,
            Verdict::RecoverableCycles { .. } => 1,
            Verdict::ProvenFree => 2,
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Statically classify a configuration.
///
/// Builds the extended static CDG, runs the escape-peel fixpoint, and —
/// when cycles remain — judges them against the scheme's drain
/// mechanism. Bumps the `verify_proven_free` / `verify_unsafe`
/// observability counters for the terminal verdicts.
///
/// Large tori are classified through their orbit quotient. Torus routing
/// here is *vertex-transitive*: the candidate set a scheme offers depends
/// only on the offset to the destination (via
/// [`MinimalHops`](mdd_topology::MinimalHops)), the packet's
/// dateline-crossing mask, and the message type — never on absolute
/// coordinates. Two torus configurations that agree per dimension on (a)
/// whether any minimal offset can tie (even radix) and (b) whether a
/// dateline can sit on a minimal path (radix ≥ 2) therefore produce CDGs
/// with identical local dependency structure, and the escape-peel verdict
/// is a property of that structure, not of the router count. So instead
/// of enumerating every `(router, dateline-mask)` state of a 64×64 torus
/// (~hundreds of millions of occupant classes), each dimension's radix is
/// folded down to the smallest radix with the same parity (capped at
/// 8/9), the folded representative is verified exhaustively, and its
/// verdict is replicated. The fold is the identity on radix ≤ 9.
///
/// Two soundness guards:
/// - the progressive-recovery ring coverage check runs against the *full*
///   topology (it is O(routers), cheap at any size, and genuinely
///   size-dependent);
/// - in debug builds, folded configurations small enough to enumerate
///   fully (≤ 256 routers) are cross-checked against the full enumeration
///   and must agree.
pub fn verify(input: &VerifyInput<'_>) -> Verdict {
    let topo = input.topo;
    let folded_radix: Vec<u32> = (0..topo.dims())
        .map(|d| fold_radix(topo.radix(d)))
        .collect();
    if (0..topo.dims()).all(|d| folded_radix[d] == topo.radix(d)) {
        return classify(input, topo);
    }
    let folded = Topology::new(&folded_radix, topo.bristle());
    counter_add(
        CounterId::VerifyOrbitReduction,
        u64::from(topo.num_routers() - folded.num_routers()),
    );
    let folded_input = VerifyInput {
        topo: &folded,
        ..*input
    };
    // Ring coverage (the PR branch) stays on the full topology.
    let verdict = classify(&folded_input, topo);
    #[cfg(debug_assertions)]
    if topo.num_routers() <= 256 {
        let full = classify(input, topo);
        assert_eq!(
            verdict.name(),
            full.name(),
            "orbit quotient diverged from full enumeration on {:?}",
            (0..topo.dims()).map(|d| topo.radix(d)).collect::<Vec<_>>(),
        );
    }
    verdict
}

/// Fold one dimension's radix to the smallest torus radix with the same
/// local dependency structure: identical tie behavior (parity — even radii
/// admit equidistant minimal directions, odd radii never do) and a
/// dateline reachable on minimal paths. Radices ≤ 9 are already minimal
/// enough to enumerate cheaply and are kept verbatim, which also keeps
/// the quotient the identity on the paper's 8×8 baseline.
fn fold_radix(k: u32) -> u32 {
    if k <= 9 {
        k
    } else if k.is_multiple_of(2) {
        8
    } else {
        9
    }
}

/// Full enumeration of `input`'s pristine CDG, with the ring checked on
/// `ring_topo`: the body of [`verify`] on the input or folded topology,
/// and the reference its orbit quotient is checked against.
fn classify(input: &VerifyInput<'_>, ring_topo: &Topology) -> Verdict {
    classify_graph(input, ring_topo, None, &cdg::cdg(input, input.routing))
}

/// Classify an assembled CDG: the one verdict for the pristine path
/// ([`classify`]) and the degraded ones (`BaseAnalysis`,
/// `verify_faulted`). The rank is [`graph_outcome`] judged by
/// [`FaultOutcome::rank`], the same decision the fault-frontier sweep
/// makes without a witness; this adds only the witness.
fn classify_graph(
    input: &VerifyInput<'_>,
    ring_topo: &Topology,
    faults: Option<&FaultSet>,
    graph: &cdg::StaticCdg<'_>,
) -> Verdict {
    let (outcome, residue) = graph_outcome(input, graph);
    let witness = match outcome {
        FaultOutcome::AllSafe => {
            counter_add(CounterId::VerifyProvenFree, 1);
            return Verdict::ProvenFree;
        }
        FaultOutcome::Stranded => strand_witness(graph),
        FaultOutcome::Residue { .. } => {
            residue.and_then(|(peel, overlay)| analyze::witness(graph, &peel, overlay))
        }
    }
    .expect("a strand-free unsafe residue always contains a cycle");
    if outcome.rank(input.scheme, || pr_ring_intact(ring_topo, faults)) == 1 {
        Verdict::RecoverableCycles { witness }
    } else {
        counter_add(CounterId::VerifyUnsafe, 1);
        Verdict::Unsafe { witness }
    }
}

/// The residue a witness cycle is drawn from: the last peel that left
/// vertices unsafe and the OR-wait overlay it ran with.
type Residue<'g> = (analyze::PeelOutcome, &'g [(u32, u32)]);

/// What the dependency graph itself says, before a scheme's drain
/// mechanism is consulted, plus the residue of a [`FaultOutcome::Residue`].
///
/// A stranded occupant — a non-sink class that can hold a resource but
/// has *no* admissible wait candidate — wedges its channel permanently
/// regardless of scheme: no drain mechanism can conjure a live route.
/// (Only degraded topologies produce these; a pristine routing function
/// always offers at least the escape channel.) Otherwise the escape peel
/// decides, and under deflective recovery with a backoff type a second
/// peel credits backoff-reply convertibility: a blocked head whose
/// subordinate is a *request* may instead be deflected into a backoff
/// reply, so it alternatively waits on the backoff type's output queue
/// (which drains through the statically safe reply network). The credited
/// pass re-peels the *same* graph with its `deflection_extra` overlay
/// instead of assembling a second copy.
fn graph_outcome<'g>(
    input: &VerifyInput<'_>,
    graph: &'g cdg::StaticCdg<'_>,
) -> (FaultOutcome, Option<Residue<'g>>) {
    if strand_witness(graph).is_some() {
        return (FaultOutcome::Stranded, None);
    }
    let peel = analyze::peel(graph);
    if peel.all_safe {
        return (FaultOutcome::AllSafe, None);
    }
    let credited = matches!(input.scheme, Scheme::DeflectiveRecovery)
        && input.pattern.protocol().backoff_type().is_some();
    if credited {
        let overlay = graph.deflection_extra.as_slice();
        let credited_peel = analyze::peel_with(graph, overlay);
        if !credited_peel.all_safe {
            let residue = (credited_peel, overlay);
            return (FaultOutcome::Residue { deflectable: false }, Some(residue));
        }
    }
    let outcome = FaultOutcome::Residue {
        deflectable: credited,
    };
    (outcome, Some((peel, &[])))
}

/// Find a stranded occupant class: non-sink, occupiable, with an empty
/// OR-wait candidate set (the degraded routing offered no admissible
/// hop). Rendered as a single-resource witness rather than a cycle.
fn strand_witness(graph: &cdg::StaticCdg<'_>) -> Option<CycleWitness> {
    let c = (0..graph.num_classes() as u32).find(|&c| {
        !graph.sink[c as usize] && graph.cands(c).is_empty() && !graph.members(c).is_empty()
    })?;
    let v = graph.members(c)[0];
    let rendered = format!(
        "  {} [{}]\n  (stranded: no live route to its destination over the degraded topology)\n",
        graph.layout.describe(v),
        graph.note(c),
    );
    Some(CycleWitness {
        vertices: vec![v],
        rendered,
    })
}

/// Progressive recovery's lane check, fault-aware. The recovery ring must
/// tour every router and NIC, and — under faults — every consecutive pair
/// of the snake order must still be joined: physically adjacent pairs by
/// their own live link (the lane VC rides that exact channel), the
/// closing wrap-around pair by any live path (the token is re-homed over
/// the network).
fn pr_ring_intact(ring_topo: &Topology, faults: Option<&FaultSet>) -> bool {
    let ring = RecoveryRing::new(ring_topo);
    let routers_covered = ring.len() == ring_topo.num_routers() as usize;
    let tour_covers_nics = ring.tour_len() == ring.len() * (1 + ring_topo.bristle() as usize);
    if !(routers_covered && tour_covers_nics) {
        return false;
    }
    let Some(f) = faults else { return true };
    if f.is_empty() {
        return true;
    }
    let n = ring.len();
    for i in 0..n {
        let a = ring.at(i);
        let b = ring.at(i + 1);
        let mut direct = None;
        'find: for d in 0..ring_topo.dims() {
            for dir in [Direction::Plus, Direction::Minus] {
                if ring_topo.neighbor(a, d, dir) == b {
                    direct = Some((d, dir));
                    break 'find;
                }
            }
        }
        match direct {
            Some((d, dir)) => {
                if f.link_down(a, d, dir) {
                    return false;
                }
            }
            None => {
                if f.distance_field(ring_topo, b)[a.index()] == UNREACHABLE {
                    return false;
                }
            }
        }
    }
    true
}

/// The shared vertex layout for `input`'s configuration (identical to the
/// one the dynamic CWG uses).
pub fn layout_for(input: &VerifyInput<'_>) -> ResourceLayout {
    ResourceLayout::new(
        input.topo,
        input.routing.map().num_vcs() as usize,
        input.queue_org.queue_count(input.pattern.protocol()),
    )
}

#[cfg(test)]
mod tests;
