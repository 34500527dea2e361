//! Fault sets: degraded-topology deltas for the static analyzer.
//!
//! A [`FaultSet`] is a sparse delta over a base [`Topology`]: a bitset of
//! failed unidirectional inter-router links. The base topology object is
//! never mutated — every consumer (degraded routing, the verifier)
//! interprets the pair `(topology, faults)` together, which is what makes
//! fault sweeps cheap: one immutable topology, hundreds of tiny deltas.
//!
//! Conventions:
//! * links fail **bidirectionally**: [`FaultSet::fail_link`] takes one
//!   directed end `(node, dim, dir)` and downs both directions of the
//!   physical channel;
//! * [`FaultSet::distance_field`] is the degraded-topology BFS distance
//!   to a destination router ([`UNREACHABLE`] when disconnected) — the
//!   geometry that degraded routing steers by.

use crate::coord::NodeId;
use crate::geometry::Direction;
use crate::torus::Topology;

/// Distance-field value for a router that cannot reach the destination
/// over the degraded topology.
pub const UNREACHABLE: u32 = u32::MAX;

/// A set of failed links over a base [`Topology`].
///
/// ```
/// use mdd_topology::{Direction, FaultSet, NodeId, Topology};
/// let topo = Topology::new(&[4, 4], 1);
/// let mut f = FaultSet::new(&topo);
/// assert!(f.is_empty());
/// f.fail_link(&topo, NodeId(0), 0, Direction::Plus);
/// assert!(f.link_down(NodeId(0), 0, Direction::Plus));
/// assert!(f.link_down(NodeId(1), 0, Direction::Minus), "links fail bidirectionally");
/// assert_eq!(f.distance_field(&topo, NodeId(1))[0], 3, "detour around the cut");
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultSet {
    /// Network ports per router (`2 * dims`), for link indexing.
    net_ports: usize,
    /// Bitset over `node * net_ports + port`: failed directed links.
    links: Vec<u64>,
    /// Failed links, in failure order (for labels and orbit keys).
    failed_links: Vec<(NodeId, usize, Direction)>,
}

impl FaultSet {
    /// An empty fault set over `topo` (nothing failed).
    pub fn new(topo: &Topology) -> Self {
        let net_ports = topo.network_ports();
        let nbits = topo.num_routers() as usize * net_ports;
        FaultSet {
            net_ports,
            links: vec![0; nbits.div_ceil(64)],
            failed_links: Vec::new(),
        }
    }

    /// True when nothing has failed: the degraded topology *is* the base
    /// topology, and every consumer short-circuits to the base behavior.
    pub fn is_empty(&self) -> bool {
        self.failed_links.is_empty()
    }

    /// Number of failed bidirectional links.
    pub fn num_failed_links(&self) -> usize {
        self.failed_links.len()
    }

    fn link_bit(&self, node: NodeId, d: usize, dir: Direction) -> usize {
        let port = 2 * d + usize::from(dir == Direction::Minus);
        node.index() * self.net_ports + port
    }

    fn set_link_bit(&mut self, node: NodeId, d: usize, dir: Direction) {
        let b = self.link_bit(node, d, dir);
        self.links[b / 64] |= 1 << (b % 64);
    }

    /// Fail the physical channel leaving `node` in direction `dir` along
    /// dimension `d` — both directions go down.
    pub fn fail_link(&mut self, topo: &Topology, node: NodeId, d: usize, dir: Direction) {
        if self.link_down(node, d, dir) {
            return;
        }
        self.set_link_bit(node, d, dir);
        self.set_link_bit(topo.neighbor(node, d, dir), d, dir.opposite());
        self.failed_links.push((node, d, dir));
    }

    /// True when the directed link leaving `node` in `dir` along `d` is
    /// down.
    #[inline]
    pub fn link_down(&self, node: NodeId, d: usize, dir: Direction) -> bool {
        let b = self.link_bit(node, d, dir);
        (self.links[b / 64] >> (b % 64)) & 1 == 1
    }

    /// The failed links, in failure order (one entry per
    /// bidirectional channel, as passed to [`FaultSet::fail_link`]).
    pub fn failed_links(&self) -> &[(NodeId, usize, Direction)] {
        &self.failed_links
    }

    /// A short stable label for reports: `link r12+d0`, `+`-joined for
    /// compound fault sets, `none` when empty.
    pub fn label(&self) -> String {
        if self.is_empty() {
            return "none".to_string();
        }
        let parts: Vec<String> = self
            .failed_links
            .iter()
            .map(|&(n, d, dir)| {
                let sign = if dir == Direction::Plus { '+' } else { '-' };
                format!("link r{}{}d{}", n.index(), sign, d)
            })
            .collect();
        parts.join(" + ")
    }

    /// BFS hop distances to `dst` over the degraded topology: entry `n`
    /// is the minimum number of live hops from router `n` to `dst`, or
    /// [`UNREACHABLE`] when no live path exists. With an empty fault set this equals
    /// [`Topology::distance`] everywhere.
    pub fn distance_field(&self, topo: &Topology, dst: NodeId) -> Vec<u32> {
        let nr = topo.num_routers() as usize;
        let mut dist = vec![UNREACHABLE; nr];
        dist[dst.index()] = 0;
        let mut frontier = vec![dst];
        let mut next = Vec::new();
        let mut hops = 0u32;
        while !frontier.is_empty() {
            hops += 1;
            for &x in &frontier {
                // In-neighbors of `x`: a router `y = neighbor(x, d, dir)`
                // reaches `x` over its own directed link `(y, d, !dir)`.
                for d in 0..topo.dims() {
                    for dir in [Direction::Plus, Direction::Minus] {
                        let y = topo.neighbor(x, d, dir);
                        if dist[y.index()] != UNREACHABLE || self.link_down(y, d, dir.opposite()) {
                            continue;
                        }
                        dist[y.index()] = hops;
                        next.push(y);
                    }
                }
            }
            std::mem::swap(&mut frontier, &mut next);
            next.clear();
        }
        dist
    }

    /// Distance fields to every destination router, indexed by router id
    /// (entry `r` is [`FaultSet::distance_field`] for `NodeId(r)`).
    pub fn distance_fields(&self, topo: &Topology) -> Vec<Vec<u32>> {
        topo.routers()
            .map(|r| self.distance_field(topo, r))
            .collect()
    }
}

/// Every single-bidirectional-link fault of `topo`, one [`FaultSet`] per
/// physical channel. Channels are enumerated canonically as `(node, d,
/// Plus)` — each bidirectional channel has exactly one positive-direction
/// end, so this covers all of them exactly once.
pub fn single_link_faults(topo: &Topology) -> Vec<FaultSet> {
    let mut out = Vec::new();
    for node in topo.routers() {
        for d in 0..topo.dims() {
            let mut f = FaultSet::new(topo);
            f.fail_link(topo, node, d, Direction::Plus);
            out.push(f);
        }
    }
    out
}
