//! Simulation configuration and results.

use mdd_protocol::{PatternSpec, QueueOrg};
use mdd_routing::{Scheme, SchemeConfigError, VcMap};
use mdd_stats::BnfPoint;
use mdd_topology::Topology;
use mdd_traffic::DestPattern;
use std::sync::Arc;

/// Full configuration of one simulation run. Defaults follow Table 2 and
/// Section 4.1 of the paper.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Per-dimension radices of the k-ary n-cube (default `[8, 8]`).
    pub radix: Vec<u32>,
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
    /// O(arrivals) — the scale-ladder regime. Same arrival
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
    /// Inert: nothing reads it, and the network step always runs on the
    /// calling thread. Kept only because the frozen benchmark names it
    /// (it writes this field); excluded from
    /// [`SimConfig::canonical_string`] and the result-cache key.
    pub shards: u32,
}

impl SimConfig {
    /// The paper's default configuration (Table 2) for a given scheme,
    /// pattern, VC count and applied load.
    pub fn paper_default(scheme: Scheme, pattern: PatternSpec, vcs: u8, load: f64) -> Self {
        SimConfig {
            radix: vec![8, 8],
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

    /// The torus this configuration describes.
    pub(crate) fn topology(&self) -> Topology {
        Topology::new(&self.radix, self.bristle)
    }

    /// The scheme's VC map for this protocol and VC budget, or the error
    /// that makes the configuration infeasible (too few VCs and the like).
    pub(crate) fn vc_map(&self) -> Result<VcMap, SchemeConfigError> {
        VcMap::build(self.scheme, self.pattern.protocol(), self.vcs)
    }

    /// The best-effort *degraded* VC map ([`VcMap::build_degraded`] —
    /// merged partitions, truncated escape sets), built even when the
    /// scheme's VC budget is infeasible for the protocol.
    pub(crate) fn degraded_vc_map(&self) -> VcMap {
        VcMap::build_degraded(self.scheme, self.pattern.protocol(), self.vcs)
    }

    /// Total processing nodes.
    pub fn num_nodes(&self) -> u32 {
        self.radix.iter().product::<u32>() * self.bristle
    }

    /// Check every structural invariant plus scheme feasibility (the same
    /// `VcMap` probe the simulator constructor runs), without building a
    /// network. `Ok(())` guarantees [`Simulator::new`] will not fail on
    /// this configuration. A run is described by [`SimConfig::paper_default`],
    /// field assignment, and this check:
    ///
    /// ```
    /// use mdd_core::{PatternSpec, Scheme, SimConfig};
    ///
    /// let mut cfg =
    ///     SimConfig::paper_default(Scheme::DeflectiveRecovery, PatternSpec::pat721(), 8, 0.30);
    /// cfg.radix = vec![4, 4];
    /// assert!(cfg.validate().is_ok());
    ///
    /// // SA needs E_m * 2 = 8 VCs for a chain-4 protocol on a torus:
    /// cfg.scheme = Scheme::StrictAvoidance { shared_adaptive: false };
    /// cfg.vcs = 4;
    /// assert!(cfg.validate().unwrap_err().to_string().contains("virtual channels"));
    /// ```
    ///
    /// [`Simulator::new`]: crate::Simulator::new
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.validate_structure()?;
        self.vc_map()?;
        Ok(())
    }

    /// Every check of [`SimConfig::validate`] except scheme feasibility:
    /// `Ok(())` guarantees the topology, router and endpoints can be
    /// built, while the VC budget may still be too small for the scheme.
    /// The static verifier runs this alone, so that it can explain an
    /// infeasible budget through the degraded channel map.
    pub fn validate_structure(&self) -> Result<(), ConfigError> {
        if self.radix.is_empty() {
            return Err(ConfigError::EmptyRadix);
        }
        if self.radix.len() > mdd_topology::MAX_DIMS {
            return Err(ConfigError::TooManyDimensions {
                dims: self.radix.len(),
            });
        }
        if let Some((dim, &radix)) = self.radix.iter().enumerate().find(|(_, &k)| k < 2) {
            return Err(ConfigError::RadixTooSmall { dim, radix });
        }
        if self.bristle == 0 {
            return Err(ConfigError::ZeroBristle);
        }
        if node_count(&self.radix, self.bristle).is_none() {
            return Err(ConfigError::TooManyNodes {
                spec: topo_spec(&self.radix),
                bristle: self.bristle,
            });
        }
        if self.vcs == 0 {
            return Err(ConfigError::ZeroVirtualChannels);
        }
        let ports = 2 * self.radix.len() + self.bristle as usize;
        let slots = ports * self.vcs as usize;
        if slots > 128 {
            return Err(ConfigError::VcBudgetTooLarge {
                ports,
                vcs: self.vcs,
                slots,
            });
        }
        if self.flit_buf == 0 {
            return Err(ConfigError::ZeroFlitBuffers);
        }
        if self.flit_buf > u32::from(u16::MAX) {
            return Err(ConfigError::FlitBufTooLarge {
                flit_buf: self.flit_buf,
            });
        }
        if self.queue_capacity == 0 {
            return Err(ConfigError::ZeroQueueCapacity);
        }
        if self.mshr_limit == 0 {
            return Err(ConfigError::ZeroMshrLimit);
        }
        if self.detect_threshold == 0 {
            return Err(ConfigError::ZeroDetectThreshold);
        }
        if self.token_hop == 0 {
            return Err(ConfigError::ZeroTokenHop);
        }
        if self.lane_hop == 0 {
            return Err(ConfigError::ZeroLaneHop);
        }
        if !self.load.is_finite() || self.load < 0.0 {
            return Err(ConfigError::InvalidLoad { load: self.load });
        }
        Ok(())
    }

    /// Parse a `KxK[xK...]` topology spec (the `--radix` grammar) into a
    /// per-dimension radix vector, applying the same bounds [`SimConfig::validate`] enforces so a bad spec fails at the
    /// flag instead of deep in construction.
    ///
    /// ```
    /// use mdd_core::SimConfig;
    /// assert_eq!(SimConfig::parse_topo("64x64").unwrap(), vec![64, 64]);
    /// assert_eq!(SimConfig::parse_topo("8x8x8").unwrap(), vec![8, 8, 8]);
    /// assert!(SimConfig::parse_topo("8x").is_err());
    /// assert!(SimConfig::parse_topo("8x8x8x8x8").is_err());
    /// assert!(SimConfig::parse_topo("70000x70000").is_err(), "node ids are 32-bit");
    /// ```
    pub fn parse_topo(spec: &str) -> Result<Vec<u32>, ConfigError> {
        let bad = || ConfigError::InvalidTopology {
            spec: spec.to_string(),
        };
        let radix: Vec<u32> = spec
            .split('x')
            .map(|part| part.parse::<u32>().map_err(|_| bad()))
            .collect::<Result<_, _>>()?;
        if radix.is_empty() || radix.iter().any(|&k| k < 2) {
            return Err(bad());
        }
        if radix.len() > mdd_topology::MAX_DIMS {
            return Err(ConfigError::TooManyDimensions { dims: radix.len() });
        }
        if node_count(&radix, 1).is_none() {
            return Err(ConfigError::TooManyNodes {
                spec: spec.to_string(),
                bristle: 1,
            });
        }
        Ok(radix)
    }

    /// The scale-ladder rungs exercised end-to-end by the tests and CI:
    /// the paper's 8×8 baseline, 16×16, 64×64, and a 3D 8×8×8 torus.
    pub fn scale_ladder() -> [&'static [u32]; 4] {
        [&[8, 8], &[16, 16], &[64, 64], &[8, 8, 8]]
    }
}

/// NICs in a torus of `radix` with `bristle` NICs per router, or `None`
/// when they overflow the 32-bit node ids.
fn node_count(radix: &[u32], bristle: u32) -> Option<u32> {
    radix.iter().try_fold(bristle, |n, &k| n.checked_mul(k))
}

/// `radix` in the `KxK[xK...]` grammar of [`SimConfig::parse_topo`].
pub(crate) fn topo_spec(radix: &[u32]) -> String {
    radix
        .iter()
        .map(u32::to_string)
        .collect::<Vec<_>>()
        .join("x")
}

/// Why a [`SimConfig`] cannot describe a runnable simulation.
#[derive(Clone, PartialEq, Debug)]
pub enum ConfigError {
    /// The radix vector is empty (a network needs at least one dimension).
    EmptyRadix,
    /// A per-dimension radix below 2 (dimension index, offending value).
    RadixTooSmall {
        /// Which dimension.
        dim: usize,
        /// The radix given for it.
        radix: u32,
    },
    /// More dimensions than the hop-geometry tables support
    /// ([`MAX_DIMS`](mdd_topology::MAX_DIMS)).
    TooManyDimensions {
        /// The number of dimensions requested.
        dims: usize,
    },
    /// The port·VC product exceeds the 128-slot occupancy masks: router
    /// input occupancy and output ownership are `u128` bitmasks indexed
    /// by `port * vcs + vc`, so `(2·dims + bristle) · vcs` must fit in
    /// 128 bits. Before this check, an oversized combination died on a
    /// debug assert deep in the fused pipeline pass (or silently
    /// truncated in release builds).
    VcBudgetTooLarge {
        /// Ports per router (`2·dims + bristle`).
        ports: usize,
        /// Virtual channels per physical link.
        vcs: u8,
        /// The resulting slot count (`ports · vcs`).
        slots: usize,
    },
    /// A `--radix` specification that does not parse as
    /// `KxK[xK...]` with positive integer radices.
    InvalidTopology {
        /// The offending specification string.
        spec: String,
    },
    /// Zero NICs per router.
    ZeroBristle,
    /// More NICs (routers × bristle) than 32-bit node ids address.
    TooManyNodes {
        /// The per-dimension radices, as `KxK[xK...]`.
        spec: String,
        /// NICs per router.
        bristle: u32,
    },
    /// Zero virtual channels per physical link.
    ZeroVirtualChannels,
    /// Zero flit buffers per virtual channel.
    ZeroFlitBuffers,
    /// More flit buffers per virtual channel than the router's 16-bit
    /// buffer indices address (65,535).
    FlitBufTooLarge {
        /// The offending depth.
        flit_buf: u32,
    },
    /// Zero-capacity endpoint message queues.
    ZeroQueueCapacity,
    /// Zero outstanding-transaction (MSHR) limit — no node could ever
    /// issue a request.
    ZeroMshrLimit,
    /// Zero endpoint detection time-out: the detector would declare every
    /// waiting message deadlocked on its first blocked cycle.
    ZeroDetectThreshold,
    /// Zero cycles per token tour hop: the PR token would never move.
    ZeroTokenHop,
    /// Zero cycles per recovery-lane hop: a rescued message would arrive
    /// before it left.
    ZeroLaneHop,
    /// Applied load is negative, NaN or infinite.
    InvalidLoad {
        /// The offending value.
        load: f64,
    },
    /// The scheme cannot be configured with the requested virtual
    /// channels for this protocol/topology (the paper's infeasible
    /// figure cells, e.g. SA on a chain-4 protocol with 4 VCs).
    Scheme(SchemeConfigError),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::EmptyRadix => write!(f, "radix vector is empty"),
            ConfigError::RadixTooSmall { dim, radix } => {
                write!(f, "radix {radix} in dimension {dim} (minimum is 2)")
            }
            ConfigError::TooManyDimensions { dims } => write!(
                f,
                "{dims} dimensions exceed the supported maximum of {}",
                mdd_topology::MAX_DIMS
            ),
            ConfigError::VcBudgetTooLarge { ports, vcs, slots } => write!(
                f,
                "{ports} ports x {vcs} VCs = {slots} slots exceed the 128-bit \
                 router occupancy masks"
            ),
            ConfigError::InvalidTopology { spec } => {
                write!(
                    f,
                    "invalid topology spec {spec:?} (expected KxK[xK...], radices >= 2)"
                )
            }
            ConfigError::ZeroBristle => write!(f, "bristle factor must be at least 1"),
            ConfigError::TooManyNodes { spec, bristle } => write!(
                f,
                "topology {spec} with {bristle} NIC(s) per router has more than {} nodes, \
                 the 32-bit node id limit",
                u32::MAX
            ),
            ConfigError::ZeroVirtualChannels => write!(f, "at least 1 virtual channel required"),
            ConfigError::ZeroFlitBuffers => write!(f, "at least 1 flit buffer per VC required"),
            ConfigError::FlitBufTooLarge { flit_buf } => {
                write!(
                    f,
                    "{flit_buf} flit buffers per VC exceed the maximum of 65535"
                )
            }
            ConfigError::ZeroQueueCapacity => write!(f, "endpoint queue capacity must be nonzero"),
            ConfigError::ZeroMshrLimit => write!(f, "MSHR limit must be nonzero"),
            ConfigError::ZeroDetectThreshold => {
                write!(f, "detection time-out must be at least 1 cycle")
            }
            ConfigError::ZeroTokenHop => write!(f, "token hop time must be at least 1 cycle"),
            ConfigError::ZeroLaneHop => {
                write!(f, "recovery-lane hop time must be at least 1 cycle")
            }
            ConfigError::InvalidLoad { load } => {
                write!(f, "applied load {load} is not a finite non-negative number")
            }
            ConfigError::Scheme(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConfigError::Scheme(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SchemeConfigError> for ConfigError {
    fn from(e: SchemeConfigError) -> Self {
        ConfigError::Scheme(e)
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
