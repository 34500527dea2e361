//! # mdd-topology
//!
//! Topology substrate for the message-dependent deadlock simulation
//! workspace: k-ary n-cube tori, node/port addressing,
//! bristling (multiple network interfaces per router), minimal-routing
//! geometry with dateline bookkeeping, and the Hamiltonian-style ring used
//! by the Disha token tour and recovery lane.
//!
//! The paper (Song & Pinkston, IPPS 2001) evaluates 8x8 and 4x4 bidirectional
//! tori with bristling factors of 1, 2 and 4; everything here is general over
//! radix, dimension and bristling so those configurations (and the 2x4 / 2x2
//! bristled variants of Section 4.2.2) are all instances of one type.
//!
//! ## Addressing conventions
//!
//! * Routers are identified by [`NodeId`]; node 0 has coordinate (0, .., 0)
//!   and coordinates are mixed-radix little-endian (dimension 0 varies
//!   fastest).
//! * Router ports: for dimension `d`, the positive-direction port is `2*d`
//!   and the negative-direction port is `2*d + 1`. Local (NIC) ports follow
//!   the network ports: local port `l` is `2*n + l`.
//! * Network interfaces are identified globally by [`NicId`];
//!   `NicId = router * bristle + local_index`.

#![warn(missing_docs)]

mod coord;
mod fault;
mod geometry;
mod ring;
mod torus;

pub use coord::{Coord, NicId, NodeId};
pub use fault::{single_link_faults, FaultSet, UNREACHABLE};
pub use geometry::{Direction, HopGeometry, MinimalHops, MAX_DIMS};
pub use ring::{RecoveryRing, TourStop};
pub use torus::{PortId, Topology};

#[cfg(test)]
mod tests;
