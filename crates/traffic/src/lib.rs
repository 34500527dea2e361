//! # mdd-traffic
//!
//! Workload substrate: the open-loop synthetic request generators used for
//! the performance evaluation (Section 4.3) and the calibrated application
//! models that stand in for the paper's RSIM/Splash-2 execution traces
//! (Section 4.2) — see DESIGN.md for the substitution rationale.
//!
//! The synthetic generator injects original requests (the first message
//! type of every dependency chain) at a configurable rate; all subordinate
//! messages are produced by the endpoints as transactions unfold, exactly
//! as in FlexSim. Applied load is specified in flits/node/cycle and
//! converted to a per-node transaction rate through the pattern's expected
//! flits per transaction.

#![warn(missing_docs)]

mod apps;
mod source;
mod synthetic;

pub use apps::{AppModel, AppPhase};
pub use source::TrafficSource;
pub use synthetic::{DestPattern, SyntheticTraffic};

#[cfg(test)]
mod tests;
