//! Minimal-routing geometry: productive directions, hop offsets, tie
//! handling on even-radix tori.

use crate::coord::NodeId;
use crate::torus::Topology;

/// Direction of travel along one dimension.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Direction {
    /// Increasing coordinate (wrapping from `k-1` to `0` on a torus).
    Plus,
    /// Decreasing coordinate (wrapping from `0` to `k-1` on a torus).
    Minus,
}

impl Direction {
    /// The opposite direction.
    #[inline]
    pub fn opposite(self) -> Direction {
        match self {
            Direction::Plus => Direction::Minus,
            Direction::Minus => Direction::Plus,
        }
    }
}

/// The remaining minimal hops in one dimension: which direction(s) are
/// productive and how many hops remain.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HopGeometry {
    /// Hops remaining if travelling in the positive direction (`None` if the
    /// positive direction is not minimal).
    pub plus: Option<u32>,
    /// Hops remaining if travelling in the negative direction.
    pub minus: Option<u32>,
}

impl HopGeometry {
    /// True if the packet is already aligned in this dimension.
    #[inline]
    pub fn aligned(&self) -> bool {
        self.plus.is_none() && self.minus.is_none()
    }

    /// The deterministic direction used by dimension-order routing: the
    /// strictly shorter direction, with ties (radix/2 on an even torus)
    /// broken toward `Plus`.
    #[inline]
    pub fn dor_direction(&self) -> Option<Direction> {
        match (self.plus, self.minus) {
            (None, None) => None,
            (Some(_), None) => Some(Direction::Plus),
            (None, Some(_)) => Some(Direction::Minus),
            (Some(p), Some(m)) => Some(if p <= m {
                Direction::Plus
            } else {
                Direction::Minus
            }),
        }
    }

    /// All productive (minimal) directions, for adaptive routing.
    pub fn productive(&self) -> impl Iterator<Item = Direction> {
        self.plus
            .map(|_| Direction::Plus)
            .into_iter()
            .chain(self.minus.map(|_| Direction::Minus))
    }
}

/// Maximum supported torus dimensionality. Inline storage in
/// [`MinimalHops`] keeps the per-hop routing geometry allocation-free —
/// it is rebuilt on every route-computation attempt.
pub const MAX_DIMS: usize = 4;

/// All per-dimension minimal-hop information from `src` to `dst`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MinimalHops {
    per_dim: [HopGeometry; MAX_DIMS],
    ndims: u8,
}

impl MinimalHops {
    /// Compute the minimal-hop geometry between two routers.
    pub fn new(topo: &Topology, src: NodeId, dst: NodeId) -> Self {
        let ndims = topo.dims();
        assert!(ndims <= MAX_DIMS, "topology exceeds MAX_DIMS");
        let mut per_dim = [HopGeometry {
            plus: None,
            minus: None,
        }; MAX_DIMS];
        for (d, g) in per_dim.iter_mut().enumerate().take(ndims) {
            let k = topo.radix(d);
            let cs = topo.coord_along(src, d);
            let cd = topo.coord_along(dst, d);
            if cs == cd {
                continue;
            }
            // Hops going Plus and going Minus; both directions are minimal
            // exactly half-way round an even-radix ring.
            let fwd = (cd + k - cs) % k;
            let bwd = k - fwd;
            g.plus = (fwd <= bwd).then_some(fwd);
            g.minus = (bwd <= fwd).then_some(bwd);
        }
        MinimalHops {
            per_dim,
            ndims: ndims as u8,
        }
    }

    /// Geometry for dimension `d`.
    #[inline]
    pub fn dim(&self, d: usize) -> HopGeometry {
        debug_assert!(d < self.ndims as usize);
        self.per_dim[d]
    }

    /// Number of dimensions.
    #[inline]
    pub fn dims(&self) -> usize {
        self.ndims as usize
    }

    #[inline]
    fn live(&self) -> &[HopGeometry] {
        &self.per_dim[..self.ndims as usize]
    }

    /// True if source equals destination (no hops remain in any dimension).
    pub fn arrived(&self) -> bool {
        self.live().iter().all(HopGeometry::aligned)
    }

    /// The lowest unaligned dimension, which dimension-order routing
    /// corrects first.
    pub fn first_unaligned(&self) -> Option<usize> {
        self.live().iter().position(|g| !g.aligned())
    }

    /// Total minimal distance (taking the shorter way in each dimension).
    pub fn total_distance(&self) -> u32 {
        self.live()
            .iter()
            .map(|g| match (g.plus, g.minus) {
                (None, None) => 0,
                (Some(p), None) => p,
                (None, Some(m)) => m,
                (Some(p), Some(m)) => p.min(m),
            })
            .sum()
    }
}
