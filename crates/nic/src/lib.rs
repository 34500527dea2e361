//! # mdd-nic
//!
//! The network-interface (endpoint) substrate: the part of the system where
//! message-dependent deadlock is born. Each NIC models (Figure 3):
//!
//! * finite input/output **message queues** (16 messages each by default,
//!   Table 2) in one of three organizations — shared, per logical network,
//!   or per message type ([`mdd_protocol::QueueOrg`]),
//! * a **memory controller** that services the non-terminating message at
//!   a queue head for `service_time` cycles (40 by default) and only
//!   begins when the output queue can hold the subordinate message(s) it
//!   will generate (the paper's explicit assumption in Section 3),
//! * an **MSHR table** bounding outstanding transactions and, for the
//!   avoidance-style configurations, *preallocating* input-queue space for
//!   terminating replies so they always sink,
//! * **packetization and injection** onto the router's local input virtual
//!   channels (one flit per cycle of link bandwidth), and reassembly on
//!   ejection,
//! * the **potential-deadlock detector** of Section 2.2: input and output
//!   queues full, head would generate a subordinate it cannot deposit,
//!   persisting beyond a time-out,
//! * the **deflective backoff** action used by DR (Origin2000-style), and
//! * the **deadlock message buffer (DMB)** plus rescue-processing hooks
//!   used by the Extended Disha Sequential progressive recovery.

#![warn(missing_docs)]

mod config;
mod nic;
mod queue;
mod stats;

pub use config::NicConfig;
pub use nic::{Blocker, Mc, Nic, RescueOutcome, ServicePlan};
pub use queue::MsgQueue;
pub use stats::NicStats;

#[cfg(test)]
mod tests;
