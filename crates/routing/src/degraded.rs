//! Routing over a degraded (faulted) topology.
//!
//! [`DegradedRouting`] wraps a scheme's [`SchemeRouting`] and reroutes
//! around a [`FaultSet`] by steering along precomputed BFS distance
//! fields: a direction is *productive* when its link is live and it
//! strictly decreases the degraded-topology distance to the destination
//! router. The scheme's VC discipline (adaptive sets, escape sets,
//! dateline classes) is preserved — only the admissible directions
//! change.
//!
//! Two properties the static analyzer depends on:
//!
//! * **Delegation at zero faults.** With an empty fault set (or for any
//!   destination whose distance field and incident links are unaffected),
//!   the candidate vector is *identical* to the base [`SchemeRouting`]'s:
//!   BFS distances equal minimal-hop distances, so the productive
//!   directions coincide, and the escape choice (first productive
//!   direction in dimension order, ties toward `Plus`) reproduces
//!   dimension-order routing's `dor_direction` exactly.
//! * **No candidates when stranded.** A packet at a router with no live
//!   path to its destination gets an *empty* candidate set rather than a
//!   panic; the verifier turns such stranded occupants into an `Unsafe`
//!   verdict (an undeliverable message wedges its channel permanently).
//!
//! Note the degraded escape is *not* deadlock-free by construction the
//! way dimension-order routing is: a detour can revisit a dimension and
//! reuse an escape channel out of dateline order. That is deliberate —
//! the verifier's job is to discover exactly when a fault breaks a
//! scheme's static argument, not to mask it.

use crate::function::SchemeRouting;
use mdd_router::{PacketState, RouteCandidate, Routing};
use mdd_topology::{Direction, FaultSet, NodeId, PortId, Topology, UNREACHABLE};

/// A fault-aware routing function borrowing the base scheme routing, the
/// fault set, and the per-destination-router distance fields
/// ([`FaultSet::distance_fields`]).
#[derive(Clone, Copy, Debug)]
pub struct DegradedRouting<'a> {
    base: &'a SchemeRouting,
    faults: &'a FaultSet,
    /// `fields[r][n]` = live hops from router `n` to router `r`.
    fields: &'a [Vec<u32>],
}

impl<'a> DegradedRouting<'a> {
    /// Wrap `base` with `faults` and its distance fields. `fields` must
    /// come from [`FaultSet::distance_fields`] on the same topology.
    pub fn new(base: &'a SchemeRouting, faults: &'a FaultSet, fields: &'a [Vec<u32>]) -> Self {
        DegradedRouting {
            base,
            faults,
            fields,
        }
    }

    /// The wrapped base routing.
    pub fn base(&self) -> &'a SchemeRouting {
        self.base
    }

    /// True when `src` has a live path to router `dst`.
    pub fn reachable(&self, src: NodeId, dst: NodeId) -> bool {
        self.fields[dst.index()][src.index()] != UNREACHABLE
    }
}

impl Routing for DegradedRouting<'_> {
    fn candidates(
        &self,
        topo: &Topology,
        node: NodeId,
        pkt: &PacketState,
        rr_hint: u64,
        out: &mut Vec<RouteCandidate>,
    ) {
        if self.faults.is_empty() {
            return self.base.candidates(topo, node, pkt, rr_hint, out);
        }
        if node == pkt.dst_router {
            let local = topo.nic_local_index(pkt.dst);
            out.push(RouteCandidate {
                port: topo.local_port(local),
                vc: 0,
            });
            return;
        }
        let dist = &self.fields[pkt.dst_router.index()];
        let here = dist[node.index()];
        if here == UNREACHABLE {
            return; // stranded: no admissible hop exists
        }

        // Productive directions on the degraded topology, in the same
        // (dimension ascending, Plus before Minus) order the base routing
        // enumerates minimal directions.
        let mut dirs = [(PortId(0), 0usize, Direction::Plus); 8];
        let mut ndirs = 0usize;
        debug_assert!(2 * topo.dims() <= dirs.len());
        for d in 0..topo.dims() {
            for dir in [Direction::Plus, Direction::Minus] {
                if self.faults.link_down(node, d, dir) {
                    continue;
                }
                let Some(nbr) = topo.neighbor(node, d, dir) else {
                    continue;
                };
                if dist[nbr.index()] >= here {
                    continue;
                }
                dirs[ndirs] = (topo.port(d, dir), d, dir);
                ndirs += 1;
            }
        }
        let dirs = &dirs[..ndirs];
        debug_assert!(
            !dirs.is_empty(),
            "reachable node must have a productive hop"
        );

        let tv = self.base.map().for_type(pkt.mtype);
        if !tv.adaptive.is_empty() && !dirs.is_empty() {
            let n = dirs.len() * tv.adaptive.len();
            let rot = (rr_hint % n as u64) as usize;
            for i in 0..n {
                let k = (rot + i) % n;
                out.push(RouteCandidate {
                    port: dirs[k / tv.adaptive.len()].0,
                    vc: tv.adaptive[k % tv.adaptive.len()],
                });
            }
        }
        if !tv.escape.is_empty() {
            if let Some(&(port, d, _)) = dirs.first() {
                let class = if tv.escape.len() > 1 {
                    ((pkt.crossed_dateline >> d) & 1) as usize
                } else {
                    0
                };
                out.push(RouteCandidate {
                    port,
                    vc: tv.escape[class],
                });
            }
        }
    }

    fn injection_vcs(&self, pkt: &PacketState, out: &mut Vec<u8>) {
        self.base.injection_vcs(pkt, out);
    }

    fn dateline_sensitive(&self, mtype: mdd_protocol::MsgType) -> bool {
        // The degraded escape reads the mask under exactly the same
        // condition as the base routing (`tv.escape.len() > 1`).
        self.base.dateline_sensitive(mtype)
    }
}
