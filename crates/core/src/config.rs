//! Simulation configuration and results.

use mdd_protocol::{PatternSpec, QueueOrg};
use mdd_routing::Scheme;
use mdd_stats::BnfPoint;
use mdd_traffic::DestPattern;
use std::sync::Arc;

/// Full configuration of one simulation run. Defaults follow Table 2 and
/// Section 4.1 of the paper.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Per-dimension radices of the k-ary n-cube (default `[8, 8]`).
    pub radix: Vec<u32>,
    /// Mesh instead of torus (default false — the paper uses tori).
    pub mesh: bool,
    /// NICs per router (bristling factor; default 1).
    pub bristle: u32,
    /// Virtual channels per physical link (default 4).
    pub vcs: u8,
    /// Flit buffers per virtual channel (default 2).
    pub flit_buf: u32,
    /// Deadlock-handling scheme.
    pub scheme: Scheme,
    /// Endpoint queue organization override; `None` uses the scheme's
    /// default (SA: per type; DR: per network; PR: shared). Setting
    /// `Some(QueueOrg::PerType)` on DR/PR yields the paper's "QA"
    /// configurations (Figure 11).
    pub queue_org: Option<QueueOrg>,
    /// Transaction pattern (protocol + chain-length mix).
    pub pattern: Arc<PatternSpec>,
    /// Endpoint message-queue capacity in messages (default 16).
    pub queue_capacity: u32,
    /// Memory-controller service time in cycles (default 40).
    pub service_time: u64,
    /// Outstanding-transaction limit per node (default 16).
    pub mshr_limit: u32,
    /// Endpoint detection time-out `T` in cycles (default 25).
    pub detect_threshold: u64,
    /// Router-side blocked-head time-out before a packet is eligible for
    /// Disha token capture (default 200 cycles; only used by PR).
    pub router_block_threshold: u64,
    /// Cycles per token tour hop (default 1).
    pub token_hop: u64,
    /// Cycles per recovery-lane ring hop (default 1; the A3 ablation
    /// raises it to model multiplexing over shared bandwidth).
    pub lane_hop: u64,
    /// Destination pattern for original requests (default uniform random).
    pub dest: DestPattern,
    /// Sparse event-driven traffic arrivals (default false): per-node
    /// inter-arrival gaps are sampled geometrically instead of one
    /// Bernoulli draw per node per cycle, so generation costs
    /// O(arrivals) and quiescent stretches can be fast-forwarded even
    /// while generation is on — the scale-ladder regime. Same arrival
    /// distribution, different RNG stream: results are reproducible per
    /// mode, and the golden-pinned configurations keep the dense
    /// default.
    pub sparse_arrivals: bool,
    /// RNG seed; identical configurations with identical seeds reproduce
    /// identical results.
    pub seed: u64,
    /// Warm-up cycles excluded from measurement (default 10_000).
    pub warmup: u64,
    /// Measured cycles (default 30_000, as in Section 4.3.1).
    pub measure: u64,
    /// Applied load in flits/node/cycle.
    pub load: f64,
    /// Run the channel-wait-for-graph oracle every `Some(k)` cycles
    /// (FlexSim's CWG-based detection, Section 4.1: every 50 cycles).
    /// Expensive; intended for validation runs — the local threshold
    /// detector drives the schemes either way. `None` disables it.
    pub cwg_interval: Option<u64>,
    /// Period, in cycles, of the observability gauge-sampling hook
    /// (network occupancy, DMB/lane occupancy, endpoint queue depth).
    /// Only active while the global `mdd-obs` layer is installed; event
    /// tracing and monotonic counters are unaffected by it.
    pub obs_sample_every: u64,
    /// Execution shards for the network phase of each cycle (default 1:
    /// the whole step on the calling thread). Results are bit-identical at any shard count —
    /// sharding is an execution strategy, not a model parameter — so this
    /// field is deliberately *excluded* from
    /// [`SimConfig::canonical_string`] and the result-cache key.
    pub shards: u32,
}

impl SimConfig {
    /// The paper's default configuration (Table 2) for a given scheme,
    /// pattern, VC count and applied load.
    pub fn paper_default(scheme: Scheme, pattern: PatternSpec, vcs: u8, load: f64) -> Self {
        SimConfig {
            radix: vec![8, 8],
            mesh: false,
            bristle: 1,
            vcs,
            flit_buf: 2,
            scheme,
            queue_org: None,
            pattern: Arc::new(pattern),
            queue_capacity: 16,
            service_time: 40,
            mshr_limit: 16,
            detect_threshold: 25,
            router_block_threshold: 200,
            token_hop: 1,
            lane_hop: 1,
            dest: DestPattern::Random,
            sparse_arrivals: false,
            seed: 0x5eed,
            warmup: 10_000,
            measure: 30_000,
            load,
            cwg_interval: None,
            obs_sample_every: 64,
            shards: 1,
        }
    }

    /// A small, fast configuration for tests: 4x4 torus, short service
    /// time, short windows.
    pub fn small_test(scheme: Scheme, pattern: PatternSpec, vcs: u8, load: f64) -> Self {
        let mut cfg = Self::paper_default(scheme, pattern, vcs, load);
        cfg.radix = vec![4, 4];
        cfg.warmup = 1_000;
        cfg.measure = 4_000;
        // Short service time keeps the network (not the memory
        // controller) the bottleneck on the small test topology.
        cfg.service_time = 10;
        cfg
    }

    /// The per-point configuration of a load sweep: `self` at `load`,
    /// with the seed decorrelated across points while staying a pure
    /// function of `(self.seed, load)` so re-runs reproduce bit-identical
    /// points (this derivation is what the sweep runner and the
    /// `mdd-engine` cache key both use).
    pub fn at_load(&self, load: f64) -> SimConfig {
        let mut cfg = self.clone();
        cfg.load = load;
        cfg.seed = self
            .seed
            .wrapping_add((load * 1e6) as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15);
        cfg
    }

    /// The effective queue organization (override or scheme default).
    pub fn effective_queue_org(&self) -> QueueOrg {
        self.queue_org.unwrap_or(self.scheme.default_queue_org())
    }

    /// Total processing nodes.
    pub fn num_nodes(&self) -> u32 {
        self.radix.iter().product::<u32>() * self.bristle
    }
}

/// Measured outcome of one simulation run (one point of a BNF curve).
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Applied load, flits/node/cycle.
    pub applied_load: f64,
    /// Delivered throughput, flits/node/cycle, over the measurement
    /// window.
    pub throughput: f64,
    /// Mean message latency in cycles (creation → consumption, including
    /// queue waiting time).
    pub avg_latency: f64,
    /// Approximate message-latency percentiles `(p50, p95, p99)` over the
    /// window (streaming P² estimates).
    pub latency_quantiles: (f64, f64, f64),
    /// Messages consumed during the window.
    pub messages_delivered: u64,
    /// Transactions completed during the window.
    pub transactions: u64,
    /// Potential message-dependent deadlocks detected at endpoints during
    /// the window.
    pub deadlocks: u64,
    /// Router-side Disha captures (routing-deadlock rescues) during the
    /// window.
    pub router_rescues: u64,
    /// DR deflections during the window.
    pub deflections: u64,
    /// PR endpoint rescues during the window.
    pub rescues: u64,
    /// Transactions generated by the source over the window.
    pub generated: u64,
    /// Mean memory-controller utilization over the whole run.
    pub mc_utilization: f64,
    /// Oracle checks performed (0 when `cwg_interval` is `None`).
    pub cwg_checks: u64,
    /// Checks at which the oracle found at least one knot (a certified
    /// deadlock existed at that instant).
    pub cwg_deadlocked_checks: u64,
    /// Mean utilization of network virtual channels over the whole run.
    pub vc_util_mean: f64,
    /// Peak per-VC utilization.
    pub vc_util_max: f64,
    /// Coefficient of variation of per-VC utilization — the paper's
    /// "unbalanced use of network resources" made measurable (higher =
    /// more imbalance; strict avoidance's partitioning drives this up).
    pub vc_util_cv: f64,
    /// Observability snapshot taken when the run finished, if the global
    /// `mdd-obs` layer was installed (`None` otherwise). Counters are
    /// process-wide and cumulative since [`mdd_obs::install`], so under a
    /// parallel sweep they aggregate every concurrently running point.
    pub obs: Option<mdd_obs::ObsReport>,
}

impl SimResult {
    /// Convert to a BNF plot point.
    pub fn bnf_point(&self) -> BnfPoint {
        BnfPoint {
            applied_load: self.applied_load,
            throughput: self.throughput,
            latency: self.avg_latency,
            messages_delivered: self.messages_delivered,
            deadlocks: self.deadlocks + self.router_rescues,
        }
    }

    /// The paper's normalized deadlock-frequency metric.
    pub fn normalized_deadlocks(&self) -> f64 {
        if self.messages_delivered == 0 {
            0.0
        } else {
            (self.deadlocks + self.router_rescues) as f64 / self.messages_delivered as f64
        }
    }
}
