//! Incremental re-verdicts over degraded topologies.
//!
//! A fault set is a *delta* over the base topology, and most of the
//! static CDG does not depend on the faulted channels: the per-(message
//! type, destination) packet segments (`cdg::Segment`) are independent
//! constructions, and a segment whose destination provably cannot observe
//! the fault set is **byte-identical** between the base and the degraded
//! analysis. [`BaseAnalysis`] therefore caches the base segments once and
//! [`BaseAnalysis::reverify`] rebuilds only the dirty ones with the
//! fault-steered [`DegradedRouting`], splicing clean base segments in
//! unchanged (counted by `analyze_incremental_hits`).
//!
//! ## When is a destination clean?
//!
//! A destination router `r` is clean under fault set `F` when:
//!
//! 1. no router failed (a dead endpoint changes seeding everywhere);
//! 2. the degraded BFS distance field to `r` equals the closed-form
//!    minimal distance at *every* router (no detours toward `r`); and
//! 3. no failed directed link is minimally productive toward `r` (no
//!    router near the fault loses a candidate toward `r`).
//!
//! Under 1–3, [`DegradedRouting`] emits exactly the base
//! `SchemeRouting`'s candidate vector at every state of `r`'s sweep
//! (strictly-distance-decreasing directions coincide with minimal
//! directions, and the degraded escape — first productive direction in
//! dimension order, `Plus` on ties — reproduces `dor_direction`), so the
//! segment a fresh degraded build would produce is the cached one. The
//! debug build re-derives every degraded analysis from scratch and
//! asserts full verdict *and witness* equality (the same guardrail
//! pattern as the orbit quotient's cross-check).
//!
//! Note the honest failure mode of this cleanness rule: on meshes and
//! even-radix tori every link is minimally productive toward every
//! destination in one of its two directions (on a mesh trivially; on an
//! even torus because wrap distances never tie strictly), so a link fault
//! dirties *all* segments and the incremental path degrades gracefully to
//! a from-scratch degraded build. Odd-radix tori, whose wrap ties leave
//! whole coordinate slabs minimally indifferent to a given link, see real
//! reuse. The fault-frontier sweep (`crate::frontier`) layers a second,
//! orthogonal reduction (fault-orbit memoization along the failed link's
//! dimension) on top to keep full sweeps fast either way.

use crate::cdg::{self, Segment};
use crate::{classify_graph, layout_for, Verdict, VerifyInput};
use mdd_obs::{counter_add, CounterId};
use mdd_protocol::{MsgType, PatternSpec, QueueOrg};
use mdd_routing::{Scheme, SchemeRouting};
use mdd_topology::{Direction, FaultSet, NodeId, Topology};

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

/// A fully-built base analysis: the pristine verdict plus the cached
/// segments incremental re-verdicts splice from.
#[derive(Debug)]
pub struct BaseAnalysis {
    cfg: AnalysisConfig,
    base_verdict: Verdict,
    net_types: Vec<MsgType>,
    guaranteed: Vec<bool>,
    /// Packet segments, indexed `type_index * num_nics + dst.index()`.
    packet: Vec<Segment>,
    /// Endpoint segment (carries the deflection-credit overlay).
    endpoint: Segment,
}

impl BaseAnalysis {
    /// Build the base analysis: one full enumeration, after which every
    /// [`BaseAnalysis::reverify`] call pays only for what a fault set
    /// actually perturbs.
    pub fn analyze(cfg: AnalysisConfig) -> BaseAnalysis {
        let (net_types, guaranteed, packet, endpoint, base_verdict) = {
            let input = cfg.input();
            let layout = layout_for(&input);
            let net_types = cdg::net_types(&input);
            let guaranteed = cdg::guaranteed_ejection(&input);
            let nnics = input.topo.num_nics() as usize;
            let mut packet: Vec<Segment> = Vec::with_capacity(net_types.len() * nnics);
            for (ti, &t) in net_types.iter().enumerate() {
                let twin = interchangeable_earlier_type(&input, &net_types[..ti], t, &guaranteed);
                for (di, dst) in input.topo.nics().enumerate() {
                    let seg = match twin {
                        Some((t0i, t0)) => cdg::retype_segment(
                            &packet[t0i * nnics + di],
                            t,
                            eject_patch(&input, &layout, t0, t, dst),
                        ),
                        None => cdg::packet_segment(
                            &input,
                            input.routing,
                            &layout,
                            t,
                            dst,
                            guaranteed[t.index()],
                            None,
                            None,
                        ),
                    };
                    packet.push(seg);
                }
            }
            let endpoint = cdg::endpoint_segment(&input, &layout, None);
            let graph = cdg::assemble(&input, packet.iter().chain(std::iter::once(&endpoint)));
            let base_verdict = classify_graph(&input, input.topo, None, &graph);
            (net_types, guaranteed, packet, endpoint, base_verdict)
        };
        BaseAnalysis {
            cfg,
            base_verdict,
            net_types,
            guaranteed,
            packet,
            endpoint,
        }
    }

    /// The configuration this analysis was built for.
    pub fn config(&self) -> &AnalysisConfig {
        &self.cfg
    }

    /// The verdict of the pristine (fault-free) configuration.
    pub fn base_verdict(&self) -> &Verdict {
        &self.base_verdict
    }

    /// Splice the degraded segment set: rebuild the dirty packet
    /// segments over the fault-steered routing, keep the clean ones as
    /// `None` (use the cached base segment), and bump
    /// `analyze_incremental_hits` for every reuse.
    fn rebuild_dirty(&self, faults: &FaultSet, fields: &[Vec<u32>]) -> Vec<Option<Segment>> {
        let input = self.cfg.input();
        let topo = &self.cfg.topo;
        let layout = layout_for(&input);
        let degraded = mdd_routing::DegradedRouting::new(&self.cfg.routing, faults, fields);
        let nnics = topo.num_nics() as usize;
        let mut reused = 0u64;
        let mut rebuilt: Vec<Option<Segment>> = Vec::with_capacity(self.packet.len());
        let mut dst_router_clean: Vec<Option<bool>> = vec![None; topo.num_routers() as usize];
        for (ti, &t) in self.net_types.iter().enumerate() {
            let twin =
                interchangeable_earlier_type(&input, &self.net_types[..ti], t, &self.guaranteed);
            for (di, dst) in topo.nics().enumerate() {
                let r = topo.nic_router(dst);
                let clean = *dst_router_clean[r.index()]
                    .get_or_insert_with(|| dst_clean(topo, faults, &fields[r.index()], r));
                if clean {
                    reused += 1;
                    rebuilt.push(None);
                    continue;
                }
                // A dirty destination is dirty for every type, so an
                // interchangeable earlier type's rebuilt segment is
                // always present to derive from.
                let seg = match twin {
                    Some((t0i, t0)) => cdg::retype_segment(
                        rebuilt[t0i * nnics + di]
                            .as_ref()
                            .expect("dst cleanliness is type-independent"),
                        t,
                        eject_patch(&input, &layout, t0, t, dst),
                    ),
                    None => cdg::packet_segment(
                        &input,
                        &degraded,
                        &layout,
                        t,
                        dst,
                        self.guaranteed[t.index()],
                        Some(faults),
                        Some(&self.packet[ti * nnics + di]),
                    ),
                };
                rebuilt.push(Some(seg));
            }
        }
        if faults.num_failed_routers() == 0 {
            reused += 1;
        }
        counter_add(CounterId::AnalyzeIncrementalHits, reused);
        rebuilt
    }

    /// Assemble the degraded CDG from the spliced segment set produced by
    /// [`BaseAnalysis::rebuild_dirty`] (deflection-credit overlay edges
    /// ride along in the graph's `deflection_extra`).
    fn assemble_degraded<'s>(
        &'s self,
        input: &VerifyInput<'s>,
        faults: &FaultSet,
        rebuilt: &[Option<Segment>],
    ) -> cdg::StaticCdg<'s> {
        let ep = if faults.num_failed_routers() == 0 {
            self.endpoint.clone()
        } else {
            let layout = layout_for(input);
            cdg::endpoint_segment(input, &layout, Some(faults))
        };
        let segs = self
            .packet
            .iter()
            .zip(rebuilt)
            .map(|(base, re)| re.as_ref().unwrap_or(base));
        let all: Vec<&Segment> = segs.chain(std::iter::once(&ep)).collect();
        cdg::assemble(input, all)
    }

    /// Re-classify the configuration with `faults` applied, reusing every
    /// base segment the fault set provably cannot have changed. In debug
    /// builds (≤ 256 routers) the result is cross-checked for full
    /// verdict and witness equality against [`verify_faulted`]'s
    /// from-scratch degraded build.
    pub fn reverify(&self, faults: &FaultSet) -> Verdict {
        if faults.is_empty() {
            return self.base_verdict.clone();
        }
        let input = self.cfg.input();
        let topo = &self.cfg.topo;
        let fields = faults.distance_fields(topo);
        let rebuilt = self.rebuild_dirty(faults, &fields);
        let graph = self.assemble_degraded(&input, faults, &rebuilt);
        let verdict = classify_graph(&input, topo, Some(faults), &graph);
        drop(graph);

        #[cfg(debug_assertions)]
        if topo.num_routers() <= 256 {
            let scratch = verify_faulted(&input, faults);
            assert_eq!(
                (verdict.name(), verdict.witness().map(|w| &w.rendered)),
                (scratch.name(), scratch.witness().map(|w| &w.rendered)),
                "incremental re-verdict diverged from from-scratch degraded analysis for {}",
                faults.label(),
            );
        }
        verdict
    }

    /// The mechanism-independent graph outcome of the degraded analysis,
    /// *without* witness construction — the fast path the fault-frontier
    /// sweep memoizes per fault orbit. The position-dependent mechanism
    /// checks (progressive recovery's ring liveness) are applied per
    /// fault by the caller; everything computed here is
    /// translation-equivariant.
    pub fn reverify_outcome(&self, faults: &FaultSet) -> FaultOutcome {
        let input = self.cfg.input();
        let topo = &self.cfg.topo;
        if faults.is_empty() {
            return match self.base_verdict.rank() {
                2 => FaultOutcome::AllSafe,
                _ => FaultOutcome::Residue {
                    deflectable: self.base_verdict.rank() == 1
                        && matches!(self.cfg.scheme, Scheme::DeflectiveRecovery),
                },
            };
        }
        let fields = faults.distance_fields(topo);
        let rebuilt = self.rebuild_dirty(faults, &fields);
        let graph = self.assemble_degraded(&input, faults, &rebuilt);
        if crate::strand_witness(&graph).is_some() {
            return FaultOutcome::Stranded;
        }
        if crate::analyze::peel(&graph).all_safe {
            return FaultOutcome::AllSafe;
        }
        let deflectable = matches!(self.cfg.scheme, Scheme::DeflectiveRecovery)
            && self.cfg.pattern.protocol().backoff_type().is_some()
            && crate::analyze::peel_with(&graph, &graph.deflection_extra).all_safe;
        FaultOutcome::Residue { deflectable }
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

/// The earliest already-built net type whose packet segments can stand in
/// for `t`'s via [`cdg::retype_segment`]: identical [`mdd_routing::TypeVcs`]
/// (the BFS visits the same states and emits the same candidate VCs, both
/// pristine and degraded — `DegradedRouting` consults only the type's VC
/// set) and identical guaranteed-ejection status (same sink structure).
/// Under PR's uniform fully adaptive map every type collapses onto the
/// first; partitioned maps (SA, DR) never match.
fn interchangeable_earlier_type(
    input: &VerifyInput<'_>,
    earlier: &[MsgType],
    t: MsgType,
    guaranteed: &[bool],
) -> Option<(usize, MsgType)> {
    let map = input.routing.map();
    earlier.iter().copied().enumerate().find(|&(_, t0)| {
        guaranteed[t0.index()] == guaranteed[t.index()] && *map.for_type(t0) == *map.for_type(t)
    })
}

/// The ejection-wait vertex substitution between two interchangeable
/// types' segments for `dst` (`None` when the queue organization maps
/// both types to the same destination input queue).
fn eject_patch(
    input: &VerifyInput<'_>,
    layout: &mdd_deadlock::ResourceLayout,
    t0: MsgType,
    t: MsgType,
    dst: mdd_topology::NicId,
) -> Option<(u32, u32)> {
    let proto = input.pattern.protocol();
    let q0 = input.queue_org.queue_index(proto, t0);
    let q1 = input.queue_org.queue_index(proto, t);
    (q0 != q1).then(|| {
        (
            layout.in_queue_vertex(dst, q0),
            layout.in_queue_vertex(dst, q1),
        )
    })
}

/// Is destination router `r` provably unaffected by `faults`? See the
/// module docs for the three conditions and why they make the cached
/// base segment byte-identical to a fresh degraded build.
fn dst_clean(topo: &Topology, faults: &FaultSet, field: &[u32], r: NodeId) -> bool {
    if faults.num_failed_routers() > 0 {
        return false;
    }
    if topo
        .routers()
        .any(|n| field[n.index()] != topo.distance(n, r))
    {
        return false;
    }
    // A directed link (a -> b) participates in minimal routing toward `r`
    // exactly when stepping to `b` decreases the (per-dimension
    // decomposable) minimal distance.
    let productive_toward = |a: NodeId, d: usize, dir: Direction| -> bool {
        match topo.neighbor(a, d, dir) {
            Some(b) => topo.distance(b, r) < topo.distance(a, r),
            None => false,
        }
    };
    !faults.failed_links().iter().any(|&(u, d, dir)| {
        let v = topo
            .neighbor(u, d, dir)
            .expect("failed links exist in the topology");
        productive_toward(u, d, dir) || productive_toward(v, d, dir.opposite())
    })
}

/// From-scratch static classification of `input` with `faults` applied:
/// every segment is rebuilt over the fault-steered routing. This is the
/// oracle the incremental path is cross-checked against; it is also the
/// entry point when no [`BaseAnalysis`] is worth amortizing.
pub fn verify_faulted(input: &VerifyInput<'_>, faults: &FaultSet) -> Verdict {
    if faults.is_empty() {
        return crate::verify(input);
    }
    let topo = input.topo;
    let layout = layout_for(input);
    let fields = faults.distance_fields(topo);
    let degraded = mdd_routing::DegradedRouting::new(input.routing, faults, &fields);
    let guaranteed = cdg::guaranteed_ejection(input);
    let mut packet = Vec::new();
    for t in cdg::net_types(input) {
        for dst in topo.nics() {
            packet.push(cdg::packet_segment(
                input,
                &degraded,
                &layout,
                t,
                dst,
                guaranteed[t.index()],
                Some(faults),
                None,
            ));
        }
    }
    let ep = cdg::endpoint_segment(input, &layout, Some(faults));
    let graph = cdg::assemble(input, packet.iter().chain(std::iter::once(&ep)));
    classify_graph(input, topo, Some(faults), &graph)
}
