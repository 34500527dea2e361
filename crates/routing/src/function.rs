//! The routing function shared by all schemes: fully adaptive minimal
//! candidates from the type's adaptive VC set, then the dimension-order
//! escape candidate (Duato's protocol), or only one of the two depending on
//! the scheme's VC map.

use crate::vcmap::{TypeVcs, VcMap};
use mdd_router::{PacketState, RouteCandidate, Routing};
use mdd_topology::{Direction, MinimalHops, NodeId, PortId, Topology, MAX_DIMS};

/// Routing-function object for one scheme configuration. Implements
/// `mdd-router`'s [`Routing`] trait:
///
/// * at the destination router, the only candidate is the destination
///   NIC's local port;
/// * otherwise, all `(productive direction, adaptive VC)` pairs of the
///   message type's adaptive set are offered first (rotated by the
///   router-supplied hint for load balance), followed by the
///   dimension-order escape channel of the correct dateline class;
/// * under PR's true fully adaptive routing the escape set is empty, and
///   under DOR-only configurations (partition size = `E_r`) the adaptive
///   set is empty.
#[derive(Clone, Debug)]
pub struct SchemeRouting {
    map: VcMap,
}

impl SchemeRouting {
    /// Wrap a VC map (see [`VcMap::build`]).
    pub fn new(map: VcMap) -> Self {
        SchemeRouting { map }
    }

    /// The underlying VC map.
    pub fn map(&self) -> &VcMap {
        &self.map
    }
}

/// Emit `pkt`'s candidates at `node`, most preferred first: at the
/// destination router the destination NIC's local port; elsewhere every
/// `(productive direction, adaptive VC)` pair of `tv`, rotated by
/// `rr_hint`, then `tv`'s escape VC of the packet's dateline class on the
/// first productive direction.
///
/// `productive` is called once, away from the destination, and returns
/// the test for one hop `(dimension, direction)`. Directions are tried
/// dimension ascending, `Plus` before `Minus`, so under minimal routing
/// the first productive one is dimension-order routing's (the lowest
/// unaligned dimension, ties toward `Plus`). A packet with no productive
/// direction (stranded on a faulted topology) gets no candidate.
#[inline]
pub(crate) fn emit_candidates<P: Fn(usize, Direction) -> bool>(
    topo: &Topology,
    node: NodeId,
    pkt: &PacketState,
    tv: &TypeVcs,
    rr_hint: u64,
    out: &mut Vec<RouteCandidate>,
    productive: impl FnOnce() -> P,
) {
    if node == pkt.dst_router {
        let local = topo.nic_local_index(pkt.dst);
        out.push(RouteCandidate {
            port: topo.local_port(local),
            vc: 0,
        });
        return;
    }
    let productive = productive();
    // At most two productive directions per dimension; a fixed-size
    // scratch keeps this allocation-free.
    let mut dirs = [(PortId(0), 0usize); 2 * MAX_DIMS];
    let mut ndirs = 0usize;
    for d in 0..topo.dims() {
        for dir in [Direction::Plus, Direction::Minus] {
            if productive(d, dir) {
                dirs[ndirs] = (topo.port(d, dir), d);
                ndirs += 1;
            }
        }
    }
    let dirs = &dirs[..ndirs];

    // Adaptive candidates: every productive direction x adaptive VC.
    let n = dirs.len() * tv.adaptive.len();
    if n > 0 {
        let rot = (rr_hint % n as u64) as usize;
        for i in 0..n {
            let k = (rot + i) % n;
            out.push(RouteCandidate {
                port: dirs[k / tv.adaptive.len()].0,
                vc: tv.adaptive[k % tv.adaptive.len()],
            });
        }
    }

    // Escape candidate: first productive direction, dateline class (a
    // single-entry escape set has one class).
    if let Some(&(port, d)) = dirs.first() {
        let class = if tv.escape.len() > 1 {
            ((pkt.crossed_dateline >> d) & 1) as usize
        } else {
            0
        };
        if let Some(&vc) = tv.escape.get(class) {
            out.push(RouteCandidate { port, vc });
        }
    }
}

impl Routing for SchemeRouting {
    fn candidates(
        &self,
        topo: &Topology,
        node: NodeId,
        pkt: &PacketState,
        rr_hint: u64,
        out: &mut Vec<RouteCandidate>,
    ) {
        let tv = self.map.for_type(pkt.mtype);
        emit_candidates(topo, node, pkt, tv, rr_hint, out, || {
            let mh = MinimalHops::new(topo, node, pkt.dst_router);
            move |d, dir| {
                let g = mh.dim(d);
                match dir {
                    Direction::Plus => g.plus.is_some(),
                    Direction::Minus => g.minus.is_some(),
                }
            }
        });
    }

    fn injection_vcs(&self, pkt: &PacketState, out: &mut Vec<u8>) {
        let tv = self.map.for_type(pkt.mtype);
        out.extend_from_slice(&tv.adaptive);
        // Injection may also use the class-0 escape channel (a packet has
        // crossed no datelines at injection). Class-1 escape is reserved to
        // preserve the dateline ordering invariant.
        if let Some(&e0) = tv.escape.first() {
            out.push(e0);
        }
    }

    /// The dateline mask is consulted exactly when the type has more than
    /// one dateline-classed escape channel (see `candidates`); fully
    /// adaptive maps (PR) and the single-escape sets of degraded maps
    /// ([`VcMap::build_degraded`]) never read it.
    fn dateline_sensitive(&self, mtype: mdd_protocol::MsgType) -> bool {
        self.map.for_type(mtype).escape.len() > 1
    }
}
