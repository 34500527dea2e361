//! Re-verdicts over degraded topologies.
//!
//! A fault set is a *delta* over the base topology. [`BaseAnalysis`]
//! holds one configuration and its pristine verdict;
//! [`BaseAnalysis::reverify`] classifies the configuration with a fault
//! set applied by building the degraded CDG with the same builder as the
//! pristine analysis (`cdg::cdg`), over the fault-steered
//! [`DegradedRouting`](mdd_routing::DegradedRouting).
//!
//! [`verify_faulted`] is the reference: it builds every segment from
//! scratch and never derives one type's segments from another's. Debug
//! builds cross-check every `reverify` against it (verdict *and*
//! rendered witness), and `tests/incremental_agreement.rs` holds the two
//! equal in every build, the empty fault set included. The fault-frontier
//! sweep (`crate::frontier`) keeps full sweeps fast with fault-orbit
//! memoization on top.

use crate::cdg;
use crate::{classify_graph, layout_for, Verdict, VerifyInput};
use mdd_protocol::{PatternSpec, QueueOrg};
use mdd_router::Routing;
use mdd_routing::{DegradedRouting, Scheme, SchemeRouting};
use mdd_topology::{FaultSet, Topology};

/// An owned configuration for the analysis engine: everything
/// [`VerifyInput`] borrows, in one movable bundle (the engine and CLI
/// hold analyses across calls, so borrowing from a `SimConfig` is too
/// restrictive).
#[derive(Clone, Debug)]
pub struct AnalysisConfig {
    topo: Topology,
    scheme: Scheme,
    routing: SchemeRouting,
    pattern: PatternSpec,
    queue_org: QueueOrg,
}

impl AnalysisConfig {
    /// Bundle an owned analysis configuration.
    pub fn new(
        topo: Topology,
        scheme: Scheme,
        routing: SchemeRouting,
        pattern: PatternSpec,
        queue_org: QueueOrg,
    ) -> Self {
        AnalysisConfig {
            topo,
            scheme,
            routing,
            pattern,
            queue_org,
        }
    }

    /// The borrowed [`VerifyInput`] view of this configuration.
    pub fn input(&self) -> VerifyInput<'_> {
        VerifyInput {
            topo: &self.topo,
            scheme: self.scheme,
            routing: &self.routing,
            pattern: &self.pattern,
            queue_org: self.queue_org,
        }
    }

    /// The configuration's topology.
    pub fn topo(&self) -> &Topology {
        &self.topo
    }

    /// The configuration's scheme.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }
}

/// A configuration and its pristine verdict, the base that fault sets
/// are re-verdicted against.
#[derive(Debug)]
pub struct BaseAnalysis {
    cfg: AnalysisConfig,
    base_verdict: Verdict,
}

impl BaseAnalysis {
    /// Classify the pristine configuration by full enumeration.
    pub fn analyze(cfg: AnalysisConfig) -> BaseAnalysis {
        let input = cfg.input();
        let base_verdict = crate::classify(&input, input.topo);
        BaseAnalysis { cfg, base_verdict }
    }

    /// The configuration this analysis was built for.
    pub fn config(&self) -> &AnalysisConfig {
        &self.cfg
    }

    /// The verdict of the pristine (fault-free) configuration.
    pub fn base_verdict(&self) -> &Verdict {
        &self.base_verdict
    }

    /// The CDG of the configuration with `faults` applied, routed by the
    /// fault-steered [`DegradedRouting`].
    fn degraded_cdg(&self, faults: &FaultSet) -> cdg::StaticCdg<'_> {
        let fields = faults.distance_fields(&self.cfg.topo);
        let degraded = DegradedRouting::new(&self.cfg.routing, faults, &fields);
        cdg::cdg(&self.cfg.input(), &degraded)
    }

    /// Re-classify the configuration with `faults` applied. In debug
    /// builds (≤ 256 routers) the result is cross-checked for full
    /// verdict and witness equality against [`verify_faulted`]'s
    /// from-scratch degraded build.
    pub fn reverify(&self, faults: &FaultSet) -> Verdict {
        if faults.is_empty() {
            return self.base_verdict.clone();
        }
        let input = self.cfg.input();
        let topo = &self.cfg.topo;
        let verdict = classify_graph(&input, topo, Some(faults), &self.degraded_cdg(faults));

        #[cfg(debug_assertions)]
        if topo.num_routers() <= 256 {
            let scratch = verify_faulted(&input, faults);
            assert_eq!(
                (verdict.name(), verdict.witness().map(|w| &w.rendered)),
                (scratch.name(), scratch.witness().map(|w| &w.rendered)),
                "re-verdict diverged from the from-scratch degraded analysis for {}",
                faults.label(),
            );
        }
        verdict
    }

    /// The mechanism-independent graph outcome of the degraded analysis,
    /// *without* witness construction — the fast path the fault-frontier
    /// sweep memoizes per fault orbit. The position-dependent mechanism
    /// check (progressive recovery's ring liveness) is applied per fault
    /// by [`FaultOutcome::rank`]; everything computed here is
    /// translation-equivariant.
    pub fn reverify_outcome(&self, faults: &FaultSet) -> FaultOutcome {
        crate::graph_outcome(&self.cfg.input(), &self.degraded_cdg(faults)).0
    }
}

/// The mechanism-independent outcome of a degraded dependency-graph
/// analysis (see [`BaseAnalysis::reverify_outcome`]): what the graph
/// itself says before a scheme's drain mechanism is consulted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultOutcome {
    /// Some occupant has no admissible wait candidate (a destination is
    /// unreachable): permanently wedged regardless of scheme.
    Stranded,
    /// The escape peel discharges the whole graph: provably free.
    AllSafe,
    /// Dependency cycles remain; `deflectable` records whether the
    /// deflection-credited re-peel discharges them (deflective recovery
    /// only; always `false` otherwise).
    Residue {
        /// Whether every residual cycle is deflectable into a backoff
        /// reply.
        deflectable: bool,
    },
}

impl FaultOutcome {
    /// The verdict rank ([`Verdict::rank`]) this outcome earns under
    /// `scheme`: the one rank decision, read by the full classifier and
    /// the fault-frontier sweep alike. Strict avoidance has no drain
    /// mechanism, so a residue is fatal; deflective recovery drains it
    /// when every cycle is deflectable; progressive recovery drains any
    /// blocked resource its token can reach, so it asks `ring_intact`
    /// (the recovery ring tours every router and NIC, and under faults
    /// its lane is still walkable).
    pub fn rank(self, scheme: Scheme, ring_intact: impl FnOnce() -> bool) -> u8 {
        match self {
            FaultOutcome::Stranded => 0,
            FaultOutcome::AllSafe => 2,
            FaultOutcome::Residue { deflectable } => match scheme {
                Scheme::StrictAvoidance { .. } => 0,
                Scheme::DeflectiveRecovery => u8::from(deflectable),
                Scheme::ProgressiveRecovery => u8::from(ring_intact()),
            },
        }
    }
}

/// From-scratch static classification of `input` with `faults` applied:
/// every segment is built over the fault-steered routing (the scheme's
/// own routing for an empty set), none derived from another. This is the
/// oracle the segment builder's retype derivation is checked against,
/// pristine and degraded.
pub fn verify_faulted(input: &VerifyInput<'_>, faults: &FaultSet) -> Verdict {
    let topo = input.topo;
    let layout = layout_for(input);
    let fields = faults.distance_fields(topo);
    let degraded = DegradedRouting::new(input.routing, faults, &fields);
    // An empty set routes by the scheme's own function, as the pristine
    // analysis does.
    let routing: &dyn Routing = if faults.is_empty() {
        input.routing
    } else {
        &degraded
    };
    let guaranteed = cdg::guaranteed_ejection(input);
    let mut packet = Vec::new();
    for t in cdg::net_types(input) {
        for dst in topo.nics() {
            packet.push(cdg::packet_segment(
                input,
                routing,
                &layout,
                t,
                dst,
                guaranteed[t.index()],
            ));
        }
    }
    let ep = cdg::endpoint_segment(input, &layout);
    let graph = cdg::assemble(input, packet.iter().chain(std::iter::once(&ep)));
    classify_graph(input, topo, Some(faults), &graph)
}
