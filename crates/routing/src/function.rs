//! The routing function shared by all schemes: fully adaptive minimal
//! candidates from the type's adaptive VC set, then the dimension-order
//! escape candidate (Duato's protocol), or only one of the two depending on
//! the scheme's VC map.

use crate::vcmap::VcMap;
use mdd_router::{PacketState, RouteCandidate, Routing};
use mdd_topology::{MinimalHops, NodeId, Topology};

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

impl Routing for SchemeRouting {
    fn candidates(
        &self,
        topo: &Topology,
        node: NodeId,
        pkt: &PacketState,
        rr_hint: u64,
        out: &mut Vec<RouteCandidate>,
    ) {
        if node == pkt.dst_router {
            let local = topo.nic_local_index(pkt.dst);
            out.push(RouteCandidate {
                port: topo.local_port(local),
                vc: 0,
            });
            return;
        }
        let tv = self.map.for_type(pkt.mtype);
        let mh = MinimalHops::new(topo, node, pkt.dst_router);

        // Adaptive candidates: every productive direction x adaptive VC.
        if !tv.adaptive.is_empty() {
            // At most two productive directions per dimension under
            // minimal routing; a fixed-size scratch keeps this
            // allocation-free.
            let mut dirs = [mdd_topology::PortId(0); 8];
            let mut ndirs = 0usize;
            debug_assert!(2 * topo.dims() <= dirs.len());
            for d in 0..topo.dims() {
                for dir in mh.dim(d).productive() {
                    dirs[ndirs] = topo.port(d, dir);
                    ndirs += 1;
                }
            }
            let dirs = &dirs[..ndirs];
            let n = dirs.len() * tv.adaptive.len();
            if n > 0 {
                let rot = (rr_hint % n as u64) as usize;
                for i in 0..n {
                    let k = (rot + i) % n;
                    let port = dirs[k / tv.adaptive.len()];
                    let vc = tv.adaptive[k % tv.adaptive.len()];
                    out.push(RouteCandidate { port, vc });
                }
            }
        }

        // Escape candidate: dimension-order direction, dateline class.
        if !tv.escape.is_empty() {
            let d = mh
                .first_unaligned()
                .expect("not at destination, so some dimension is unaligned");
            let dir = mh.dim(d).dor_direction().expect("unaligned dimension");
            let class = if tv.escape.len() > 1 {
                ((pkt.crossed_dateline >> d) & 1) as usize
            } else {
                0
            };
            out.push(RouteCandidate {
                port: topo.port(d, dir),
                vc: tv.escape[class],
            });
        }
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
