//! The bidirectional k-ary n-cube torus with bristling: every dimension
//! has wraparound links, as in every network the paper simulates
//! (Table 2).

use crate::coord::{Coord, NicId, NodeId};
use crate::geometry::Direction;

/// A router port. Ports `2d` / `2d+1` are the positive / negative direction
/// of dimension `d`; ports `2n..2n+b` attach the router's `b` local NICs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PortId(pub u8);

impl PortId {
    /// The raw index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A bidirectional k-ary n-cube torus with a configurable bristling factor.
///
/// The radix may differ per dimension, which is how the paper's bristled
/// 2x4 and 2x2 networks are expressed.
///
/// ```
/// use mdd_topology::{Topology, NodeId};
/// let t = Topology::new(&[4, 4], 2);
/// assert_eq!(t.num_routers(), 16);
/// assert_eq!(t.num_nics(), 32);
/// assert_eq!(t.distance(NodeId(0), NodeId(3)), 1, "wraparound shortcut");
/// ```
#[derive(Clone, Debug)]
pub struct Topology {
    radix: Vec<u32>,
    bristle: u32,
    num_routers: u32,
    /// Precomputed strides for coordinate <-> id conversion.
    stride: Vec<u32>,
}

impl Topology {
    /// Create a topology with per-dimension radices `radix` and `bristle`
    /// NICs attached to every router.
    ///
    /// # Panics
    /// Panics if `radix` is empty, any radix is < 2, or `bristle` is 0.
    pub fn new(radix: &[u32], bristle: u32) -> Self {
        assert!(!radix.is_empty(), "topology needs at least one dimension");
        assert!(
            radix.iter().all(|&k| k >= 2),
            "every dimension must have radix >= 2"
        );
        assert!(bristle >= 1, "bristling factor must be >= 1");
        let mut stride = Vec::with_capacity(radix.len());
        let mut acc = 1u32;
        for &k in radix {
            stride.push(acc);
            acc = acc.checked_mul(k).expect("router count overflow");
        }
        Topology {
            radix: radix.to_vec(),
            bristle,
            num_routers: acc,
            stride,
        }
    }

    /// Convenience constructor for the paper's default 8x8 bidirectional
    /// torus with bristling factor 1 (Table 2).
    pub fn paper_default() -> Self {
        Topology::new(&[8, 8], 1)
    }

    /// Number of dimensions.
    #[inline]
    pub fn dims(&self) -> usize {
        self.radix.len()
    }

    /// Radix of dimension `d`.
    #[inline]
    pub fn radix(&self, d: usize) -> u32 {
        self.radix[d]
    }

    /// Number of routers in the network.
    #[inline]
    pub fn num_routers(&self) -> u32 {
        self.num_routers
    }

    /// Bristling factor: NICs per router.
    #[inline]
    pub fn bristle(&self) -> u32 {
        self.bristle
    }

    /// Total number of network interfaces (processing nodes).
    #[inline]
    pub fn num_nics(&self) -> u32 {
        self.num_routers * self.bristle
    }

    /// Number of network (inter-router) ports on each router: two per
    /// dimension, every one of them linked.
    #[inline]
    pub fn network_ports(&self) -> usize {
        2 * self.dims()
    }

    /// Total ports per router: network ports plus one local port per NIC.
    #[inline]
    pub fn ports_per_router(&self) -> usize {
        self.network_ports() + self.bristle as usize
    }

    /// The port id for travelling in `dir` along dimension `d`.
    #[inline]
    pub fn port(&self, d: usize, dir: Direction) -> PortId {
        debug_assert!(d < self.dims());
        PortId((2 * d + usize::from(dir == Direction::Minus)) as u8)
    }

    /// The local port attaching NIC `local` (0-based within the router).
    #[inline]
    pub fn local_port(&self, local: u32) -> PortId {
        debug_assert!(local < self.bristle);
        PortId((self.network_ports() + local as usize) as u8)
    }

    /// If `port` is a network port, returns `(dimension, direction)`.
    #[inline]
    pub fn port_dim_dir(&self, port: PortId) -> Option<(usize, Direction)> {
        let p = port.index();
        if p < self.network_ports() {
            let dir = if p.is_multiple_of(2) {
                Direction::Plus
            } else {
                Direction::Minus
            };
            Some((p / 2, dir))
        } else {
            None
        }
    }

    /// If `port` is a local port, returns the local NIC index.
    #[inline]
    pub fn port_local_index(&self, port: PortId) -> Option<u32> {
        let p = port.index();
        if p >= self.network_ports() && p < self.ports_per_router() {
            Some((p - self.network_ports()) as u32)
        } else {
            None
        }
    }

    /// Convert a router id to its coordinate.
    pub fn coord(&self, node: NodeId) -> Coord {
        debug_assert!(node.0 < self.num_routers);
        let mut v = Vec::with_capacity(self.dims());
        let mut rest = node.0;
        for &k in &self.radix {
            v.push(rest % k);
            rest /= k;
        }
        Coord(v)
    }

    /// Convert a coordinate to a router id.
    pub fn node(&self, coord: &Coord) -> NodeId {
        debug_assert_eq!(coord.dims(), self.dims());
        let mut id = 0;
        for (d, &c) in coord.0.iter().enumerate() {
            debug_assert!(c < self.radix[d]);
            id += c * self.stride[d];
        }
        NodeId(id)
    }

    /// Position of `node` along dimension `d` without materializing the full
    /// coordinate vector.
    #[inline]
    pub fn coord_along(&self, node: NodeId, d: usize) -> u32 {
        (node.0 / self.stride[d]) % self.radix[d]
    }

    /// The neighbor of `node` in direction `dir` along dimension `d`
    /// (across the wraparound link at the dateline).
    pub fn neighbor(&self, node: NodeId, d: usize, dir: Direction) -> NodeId {
        let k = self.radix[d];
        let c = self.coord_along(node, d);
        let nc = match dir {
            Direction::Plus => (c + 1) % k,
            Direction::Minus => (c + k - 1) % k,
        };
        let delta = (nc as i64 - c as i64) * self.stride[d] as i64;
        NodeId((node.0 as i64 + delta) as u32)
    }

    /// True if travelling from `node` in direction `dir` along dimension `d`
    /// crosses that dimension's dateline (the wraparound link). Dateline
    /// crossings switch the dimension-order escape channel class from 0 to 1
    /// (Dally & Seitz).
    #[inline]
    pub fn crosses_dateline(&self, node: NodeId, d: usize, dir: Direction) -> bool {
        let c = self.coord_along(node, d);
        match dir {
            Direction::Plus => c == self.radix[d] - 1,
            Direction::Minus => c == 0,
        }
    }

    /// The router hosting NIC `nic`.
    #[inline]
    pub fn nic_router(&self, nic: NicId) -> NodeId {
        NodeId(nic.0 / self.bristle)
    }

    /// The local index of NIC `nic` within its router.
    #[inline]
    pub fn nic_local_index(&self, nic: NicId) -> u32 {
        nic.0 % self.bristle
    }

    /// The NIC with local index `local` on router `node`.
    #[inline]
    pub fn nic_at(&self, node: NodeId, local: u32) -> NicId {
        debug_assert!(local < self.bristle);
        NicId(node.0 * self.bristle + local)
    }

    /// Iterate over all router ids.
    pub fn routers(&self) -> impl Iterator<Item = NodeId> {
        (0..self.num_routers).map(NodeId)
    }

    /// Iterate over all NIC ids.
    pub fn nics(&self) -> impl Iterator<Item = NicId> {
        (0..self.num_nics()).map(NicId)
    }

    /// Minimal hop distance between two routers.
    pub fn distance(&self, a: NodeId, b: NodeId) -> u32 {
        let mut dist = 0;
        for d in 0..self.dims() {
            let k = self.radix[d];
            let ca = self.coord_along(a, d);
            let cb = self.coord_along(b, d);
            let fwd = (cb + k - ca) % k;
            dist += fwd.min(k - fwd);
        }
        dist
    }
}
