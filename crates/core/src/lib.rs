//! # mdd-core
//!
//! The simulator proper: wires the topology, the flit-level wormhole
//! network, the network interfaces, the traffic generators and the three
//! message-dependent deadlock handling schemes (SA / DR / PR) into a
//! cycle-accurate whole, and provides the load-sweep runner that produces
//! the paper's Burton-Normal-Form curves.
//!
//! ## Per-cycle order of operations
//!
//! 1. traffic generation (new original requests into per-node source
//!    queues),
//! 2. request issue (source queue → NIC output queue, gated by MSHRs,
//!    output space and reply preallocation),
//! 3. NIC endpoint work (sink terminating heads, memory-controller
//!    start/finish, detector update),
//! 4. scheme actions — DR deflections or the PR token/rescue state
//!    machine,
//! 5. NIC injection (one flit of link bandwidth per NIC),
//! 6. one network cycle (routing, VC allocation, switch, traversal,
//!    ejection into NIC queues).

#![warn(missing_docs)]

mod canon;
mod config;
mod preflight;
mod recovery;
mod schedule;
mod sim;
mod sweep;
mod validate;

pub use config::{ConfigError, SimConfig, SimResult};
pub use preflight::{analysis_config, min_safe_vcs, verify_config, verify_config_degraded};
pub use recovery::{EpisodeOrigin, EpisodeRecord, PrRecovery};
pub use sim::Simulator;
pub use sweep::default_loads;
pub use validate::{build_waitfor_graph, deadlock_witness};

// Static verification verdicts surface through `verify_config` and the
// engine pre-flight; re-export the types so `mdd-core` callers
// can match on them without naming `mdd-verify` directly.
pub use mdd_verify::{CycleWitness, Verdict};

// Re-export the pieces callers need to assemble configurations, so that
// downstream crates (examples, experiment binaries) can depend on
// `mdd-core` alone.
pub use mdd_protocol::{PatternSpec, ProtocolSpec, QueueOrg};
pub use mdd_routing::{Scheme, SchemeConfigError};
pub use mdd_stats::{BnfCurve, BnfPoint};
pub use mdd_topology::Topology;
pub use mdd_traffic::DestPattern;

#[cfg(test)]
mod tests;
