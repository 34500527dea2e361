//! # mdd-router
//!
//! The flit-level wormhole router/network substrate (the FlexSim-equivalent
//! transport layer). It models, cycle by cycle:
//!
//! * per-input-port virtual channels with finite flit buffers (default 2
//!   flits, Table 2) and credit-based backpressure,
//! * the canonical router pipeline — route computation for head flits,
//!   virtual-channel allocation (round-robin), switch allocation (at most
//!   one flit per input port and per output port per cycle) and link
//!   traversal,
//! * wormhole semantics: an output virtual channel is held by one packet
//!   from its head flit until its tail flit passes,
//! * injection from and ejection to network interfaces, where *ejection is
//!   gated by endpoint message-queue space* — the mechanism that transfers
//!   protocol-level message dependencies onto network resources and makes
//!   message-dependent deadlock possible,
//! * per-VC blocked timers used by the recovery schemes to flag potentially
//!   deadlocked packets, and
//! * packet extraction, used by Disha-style progressive recovery to move a
//!   blocked packet onto the dedicated recovery lane.
//!
//! Routing policy is pluggable via the [`Routing`] trait (implementations
//! live in `mdd-routing`). Endpoint admission is pluggable via
//! [`EjectControl`] (implemented over `mdd-nic`'s NIC array in the
//! simulator and by lightweight stubs in this crate's tests); it is the
//! network's only call into the endpoints. Each step hands back the
//! packets whose tails ejected as data, through [`Network::delivered`].

#![warn(missing_docs)]

mod flit;
mod network;
mod router;
mod traits;
mod vc;

pub use flit::{Flit, PacketState, PacketTable};
pub use network::{ExtractedPacket, Network, NetworkCounters};
pub use router::Router;
pub use traits::{AcceptAll, EjectControl, RouteCandidate, Routing};
pub use vc::{OutVc, VcRef};

#[cfg(test)]
mod tests;
