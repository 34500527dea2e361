//! # mdd-coherence
//!
//! A full-map directory-based MSI cache-coherence engine (Figure 5), used
//! by the trace-driven characterization experiments (Section 4.2). It
//! tracks per-line directory state (Invalid / Shared / Modified, the owner
//! and the sharer set) across processor accesses and classifies each
//! resulting transaction the way Table 1 does:
//!
//! * **Direct Reply** — the home node satisfies the request itself,
//! * **Invalidation** — a write hits a line shared by other caches; the
//!   home invalidates a sharer before replying,
//! * **Forwarding** — the line is owned Modified by a third node; the home
//!   forwards the request to the owner.
//!
//! The engine maps each classified transaction onto the matching message
//! dependency chain of the generic protocol, which the network simulator
//! then carries flit by flit. As in the paper's synthetic patterns,
//! multi-sharer invalidations are serialized through one representative
//! sharer ("it is assumed that there is only one sharer node for each
//! block in a shared state; more sharers could be modeled with the effect
//! of increasing the network load").

#![warn(missing_docs)]

mod directory;
mod engine;
mod traffic;

pub use directory::{BlockState, Directory, LineState, TxnClass};
pub use engine::{CoherenceEngine, CoherentAccess};
pub use traffic::CoherentTraffic;

#[cfg(test)]
mod tests;
