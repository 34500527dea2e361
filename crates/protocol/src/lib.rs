//! # mdd-protocol
//!
//! Communication-protocol substrate: message types and kinds, message
//! dependency chains (the paper's `≺` partial order), concrete protocol
//! descriptions (the S-1/MSI-style generic four-type protocol of Figure 7,
//! the Origin2000 protocol of Figure 2, and a plain two-type
//! request/reply protocol), transaction shapes, and the five synthetic
//! message-type distributions of Table 3 (PAT100 .. PAT280).
//!
//! A *message dependency chain* is a totally ordered list of message types
//! `m1 ≺ m2 ≺ ... ≺ mL` where `mi ≺ mj` means a node receiving `mi` may
//! generate `mj`. The final type is *terminating*: it is always consumed on
//! arrival (sunk against a preallocated MSHR at the requester). Everything
//! downstream — logical-network partitioning for strict avoidance, the
//! request/reply split for deflective recovery, and the rescue recursion of
//! progressive recovery — is driven by the structures defined here.

#![warn(missing_docs)]

mod message;
mod pattern;
mod queue_org;
mod shape;
mod spec;
mod store;
mod types;

pub use message::{IdAlloc, Message, MessageId, TransactionId};
pub use pattern::{PatternSpec, ShapeId};
pub use queue_org::QueueOrg;
pub use shape::{HopTarget, TransactionShape};
pub use spec::{ProtocolError, ProtocolSpec};
pub use store::{MessageStore, MsgHandle};
pub use types::{MsgKind, MsgType, MsgTypeSpec};

#[cfg(test)]
mod tests;
