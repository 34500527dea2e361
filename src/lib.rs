//! # mdd-sim
//!
//! A cycle-accurate flit-level network simulator and a complete
//! implementation of the three families of *message-dependent deadlock*
//! handling techniques evaluated in:
//!
//! > Yong Ho Song and Timothy Mark Pinkston, *Efficient Handling of
//! > Message-Dependent Deadlock in Multiprocessor/Multicomputer Systems*,
//! > USC CENG TR 01-01 / IPPS 2001.
//!
//! The workspace provides, as independent crates re-exported here:
//!
//! * [`topology`] — k-ary n-cube tori/meshes, bristling, minimal-routing
//!   geometry, the recovery ring;
//! * [`protocol`] — message types, dependency chains (`m1 ≺ m2 ≺ …`),
//!   protocol descriptions (generic/S-1, MSI, Origin2000) and the Table 3
//!   transaction patterns;
//! * [`router`] — the wormhole network substrate: virtual channels,
//!   credits, the canonical allocation pipeline, packet extraction;
//! * [`routing`] — dimension-order, Duato and true-fully-adaptive routing
//!   with per-scheme virtual-channel maps (SA / SA+ / DR / PR);
//! * [`nic`] — endpoint model: message queues, memory controller, MSHRs,
//!   the potential-deadlock detector, deflective backoff, rescue hooks;
//! * [`deadlock`] — the circulating token, the exclusive recovery lane,
//!   and wait-for-graph knot detection;
//! * [`traffic`] — synthetic open-loop generators and Splash-2
//!   application models;
//! * [`coherence`] — a full-map directory MSI engine for the trace-driven
//!   characterization;
//! * [`core`] — the assembled simulator, scheme orchestration (including
//!   Extended Disha Sequential progressive recovery) and the load-sweep
//!   harness;
//! * [`engine`] — the batch experiment engine: parallel job scheduling
//!   with per-point panic isolation, a content-addressed persistent
//!   result cache, and progress counters;
//! * [`verify`] — the static deadlock-safety verifier: classifies any
//!   configuration as `ProvenFree`, `RecoverableCycles` or `Unsafe` from
//!   its dependency graph alone, with human-readable cycle witnesses.
//!
//! ## Quickstart
//!
//! ```
//! use mdd_sim::prelude::*;
//!
//! // An 8x8 torus with 4 virtual channels, PAT271 traffic, progressive
//! // recovery, at 10% applied load (all other parameters per Table 2).
//! let mut cfg = SimConfig::paper_default(
//!     Scheme::ProgressiveRecovery,
//!     PatternSpec::pat271(),
//!     4,
//!     0.10,
//! );
//! cfg.warmup = 500;
//! cfg.measure = 1_500; // keep the doctest fast
//! let result = Simulator::new(cfg).unwrap().run();
//! assert!(result.throughput > 0.0);
//! ```

#![warn(missing_docs)]

pub use mdd_coherence as coherence;
pub use mdd_core as simcore;
pub use mdd_deadlock as deadlock;
pub use mdd_engine as engine;
pub use mdd_nic as nic;
pub use mdd_obs as obs;
pub use mdd_protocol as protocol;
pub use mdd_router as router;
pub use mdd_routing as routing;
pub use mdd_stats as stats;
pub use mdd_topology as topology;
pub use mdd_traffic as traffic;
pub use mdd_verify as verify;

/// The most commonly needed types in one import.
pub mod prelude {
    pub use mdd_coherence::{CoherenceEngine, CoherentTraffic, TxnClass};
    pub use mdd_core::{
        build_waitfor_graph, deadlock_witness, default_loads, run_point, verify_config,
        verify_config_degraded, BnfCurve, BnfPoint, ConfigError, CycleWitness, PatternSpec,
        ProtocolSpec, QueueOrg, Scheme, SchemeConfigError, SimConfig, SimConfigBuilder, SimResult,
        Simulator, Verdict,
    };
    pub use mdd_engine::{Engine, Job, PointError, PointFailure, SweepReport};
    pub use mdd_obs::{CounterId, Event as ObsEvent, ObsReport};
    pub use mdd_protocol::{
        HopTarget, IdAlloc, Message, MessageId, MessageStore, MsgHandle, MsgKind, MsgType,
        TransactionShape,
    };
    pub use mdd_stats::{Histogram, OnlineStats, Table};
    pub use mdd_topology::{NicId, NodeId, Topology, TopologyKind};
    pub use mdd_traffic::{AppModel, DestPattern, SyntheticTraffic, TrafficSource};
}
