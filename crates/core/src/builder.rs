//! Validated construction of [`SimConfig`]: the builder and its errors.
//!
//! Historically every harness filled the bare `SimConfig` struct by
//! literal and the first sign of an invalid combination was a panic deep
//! inside the simulator. The builder moves that to construction time:
//! [`SimConfigBuilder::build`] returns `Result<SimConfig, ConfigError>`,
//! running every structural check plus the scheme feasibility probe (the
//! same `VcMap` construction [`Simulator::new`] performs), so an invalid
//! configuration never reaches a sweep. The struct fields stay public for
//! back-compatibility; [`SimConfig::validate`] applies the same checks to
//! a hand-filled struct.
//!
//! [`Simulator::new`]: crate::Simulator::new

use crate::config::SimConfig;
use mdd_protocol::{PatternSpec, QueueOrg};
use mdd_routing::{Scheme, SchemeConfigError};
use mdd_traffic::DestPattern;
use std::sync::Arc;

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
    /// A `--topo`/`--radix` specification that does not parse as
    /// `KxK[xK...]` with positive integer radices.
    InvalidTopology {
        /// The offending specification string.
        spec: String,
    },
    /// Zero NICs per router.
    ZeroBristle,
    /// Zero virtual channels per physical link.
    ZeroVirtualChannels,
    /// Zero flit buffers per virtual channel.
    ZeroFlitBuffers,
    /// Zero-capacity endpoint message queues.
    ZeroQueueCapacity,
    /// Zero outstanding-transaction (MSHR) limit — no node could ever
    /// issue a request.
    ZeroMshrLimit,
    /// Zero endpoint detection time-out: the detector would declare every
    /// waiting message deadlocked on its first blocked cycle.
    ZeroDetectThreshold,
    /// Applied load is negative, NaN or infinite.
    InvalidLoad {
        /// The offending value.
        load: f64,
    },
    /// The scheme cannot be configured with the requested virtual
    /// channels for this protocol/topology (the paper's infeasible
    /// figure cells, e.g. SA on a chain-4 protocol with 4 VCs).
    Scheme(SchemeConfigError),
    /// Strict mode ([`SimConfigBuilder::verify`]) ran the static
    /// deadlock-safety analysis and found a dependency cycle no
    /// configured mechanism can drain.
    StaticallyUnsafe {
        /// The rendered witness cycle (`mdd-verify`'s trace format).
        witness: String,
        /// The smallest per-link VC budget that would make this
        /// configuration safe, if one exists within the 128-slot router
        /// occupancy cap (from the minimal-VC synthesis probe) — the
        /// actionable half of the diagnostic.
        min_safe_vcs: Option<u8>,
    },
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
            ConfigError::ZeroVirtualChannels => write!(f, "at least 1 virtual channel required"),
            ConfigError::ZeroFlitBuffers => write!(f, "at least 1 flit buffer per VC required"),
            ConfigError::ZeroQueueCapacity => write!(f, "endpoint queue capacity must be nonzero"),
            ConfigError::ZeroMshrLimit => write!(f, "MSHR limit must be nonzero"),
            ConfigError::ZeroDetectThreshold => {
                write!(f, "detection time-out must be at least 1 cycle")
            }
            ConfigError::InvalidLoad { load } => {
                write!(f, "applied load {load} is not a finite non-negative number")
            }
            ConfigError::Scheme(e) => write!(f, "{e}"),
            ConfigError::StaticallyUnsafe {
                witness,
                min_safe_vcs,
            } => {
                write!(
                    f,
                    "statically unsafe: a dependency cycle no configured mechanism \
                     can drain:\n{witness}"
                )?;
                match min_safe_vcs {
                    Some(n) => write!(f, "hint: {n} VCs per link would make this scheme safe"),
                    None => write!(
                        f,
                        "hint: no VC budget within the 128-slot router occupancy cap \
                         makes this scheme safe"
                    ),
                }
            }
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

impl SimConfig {
    /// Check every structural invariant plus scheme feasibility (the same
    /// `VcMap` probe the simulator constructor runs), without building a
    /// network. `Ok(())` guarantees [`Simulator::new`] will not fail on
    /// this configuration.
    ///
    /// [`Simulator::new`]: crate::Simulator::new
    pub fn validate(&self) -> Result<(), ConfigError> {
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
        if self.queue_capacity == 0 {
            return Err(ConfigError::ZeroQueueCapacity);
        }
        if self.mshr_limit == 0 {
            return Err(ConfigError::ZeroMshrLimit);
        }
        if self.detect_threshold == 0 {
            return Err(ConfigError::ZeroDetectThreshold);
        }
        if !self.load.is_finite() || self.load < 0.0 {
            return Err(ConfigError::InvalidLoad { load: self.load });
        }
        self.vc_map()?;
        Ok(())
    }

    /// Start a builder seeded with the paper's Table 2 defaults
    /// (progressive recovery, PAT271, 4 VCs, zero applied load). Every
    /// field has a setter; [`SimConfigBuilder::build`] validates the
    /// result.
    ///
    /// ```
    /// use mdd_core::{Scheme, PatternSpec, SimConfig};
    ///
    /// let cfg = SimConfig::builder()
    ///     .scheme(Scheme::DeflectiveRecovery)
    ///     .pattern(PatternSpec::pat721())
    ///     .vcs(8)
    ///     .load(0.30)
    ///     .build()
    ///     .expect("feasible configuration");
    /// assert_eq!(cfg.vcs, 8);
    ///
    /// // SA needs E_m * 2 = 8 VCs for a chain-4 protocol on a torus:
    /// let err = SimConfig::builder()
    ///     .scheme(Scheme::StrictAvoidance { shared_adaptive: false })
    ///     .pattern(PatternSpec::pat721())
    ///     .vcs(4)
    ///     .build()
    ///     .unwrap_err();
    /// assert!(err.to_string().contains("virtual channels"));
    /// ```
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder {
            cfg: SimConfig::paper_default(
                Scheme::ProgressiveRecovery,
                PatternSpec::pat271(),
                4,
                0.0,
            ),
            verify: false,
        }
    }

    /// Parse a `KxK[xK...]` topology spec (the `mddsim --topo` / `--radix`
    /// grammar) into a per-dimension radix vector, applying the same
    /// bounds [`SimConfig::validate`] enforces so a bad spec fails at the
    /// flag instead of deep in construction.
    ///
    /// ```
    /// use mdd_core::SimConfig;
    /// assert_eq!(SimConfig::parse_topo("64x64").unwrap(), vec![64, 64]);
    /// assert_eq!(SimConfig::parse_topo("8x8x8").unwrap(), vec![8, 8, 8]);
    /// assert!(SimConfig::parse_topo("8x").is_err());
    /// assert!(SimConfig::parse_topo("8x8x8x8x8").is_err());
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
        Ok(radix)
    }

    /// The scale-ladder rungs exercised end-to-end by the tests and CI:
    /// the paper's 8×8 baseline, 16×16, 64×64, and a 3D 8×8×8 torus.
    pub fn scale_ladder() -> [&'static [u32]; 4] {
        [&[8, 8], &[16, 16], &[64, 64], &[8, 8, 8]]
    }
}

/// Builder for [`SimConfig`] with validate-at-build semantics; obtained
/// from [`SimConfig::builder`].
#[derive(Clone, Debug)]
pub struct SimConfigBuilder {
    cfg: SimConfig,
    // Strict-mode flag. Deliberately NOT a `SimConfig` field: verification
    // is a property of how the config was constructed, not of what it
    // simulates, so it must stay out of the canonical content hash.
    verify: bool,
}

macro_rules! setter {
    ($(#[$doc:meta])* $name:ident: $ty:ty) => {
        $(#[$doc])*
        pub fn $name(mut self, $name: $ty) -> Self {
            self.cfg.$name = $name;
            self
        }
    };
}

impl SimConfigBuilder {
    /// The deadlock-handling scheme.
    pub fn scheme(mut self, scheme: Scheme) -> Self {
        self.cfg.scheme = scheme;
        self
    }

    /// The transaction pattern (protocol + chain-length mix).
    pub fn pattern(mut self, pattern: PatternSpec) -> Self {
        self.cfg.pattern = Arc::new(pattern);
        self
    }

    /// Per-dimension radices of the k-ary n-cube.
    pub fn radix(mut self, radix: &[u32]) -> Self {
        self.cfg.radix = radix.to_vec();
        self
    }

    /// Per-dimension radices from a `KxK[xK...]` spec string (the ladder
    /// preset grammar; see [`SimConfig::parse_topo`]).
    pub fn topo(self, spec: &str) -> Result<Self, ConfigError> {
        let radix = SimConfig::parse_topo(spec)?;
        Ok(self.radix(&radix))
    }

    /// Queue-organization override (`None` = scheme default).
    pub fn queue_org(mut self, org: Option<QueueOrg>) -> Self {
        self.cfg.queue_org = org;
        self
    }

    setter!(
        /// Mesh instead of torus.
        mesh: bool
    );
    setter!(
        /// NICs per router (bristling factor).
        bristle: u32
    );
    setter!(
        /// Virtual channels per physical link.
        vcs: u8
    );
    setter!(
        /// Flit buffers per virtual channel.
        flit_buf: u32
    );
    setter!(
        /// Endpoint message-queue capacity in messages.
        queue_capacity: u32
    );
    setter!(
        /// Memory-controller service time in cycles.
        service_time: u64
    );
    setter!(
        /// Outstanding-transaction limit per node.
        mshr_limit: u32
    );
    setter!(
        /// Endpoint detection time-out `T` in cycles.
        detect_threshold: u64
    );
    setter!(
        /// Router-side blocked-head time-out before Disha token capture.
        router_block_threshold: u64
    );
    setter!(
        /// Cycles per token tour hop.
        token_hop: u64
    );
    setter!(
        /// Cycles per recovery-lane ring hop.
        lane_hop: u64
    );
    setter!(
        /// Destination pattern for original requests.
        dest: DestPattern
    );
    setter!(
        /// Sparse event-driven traffic arrivals (geometric inter-arrival
        /// sampling; O(arrivals) generation — the scale-ladder regime).
        sparse_arrivals: bool
    );
    setter!(
        /// RNG seed.
        seed: u64
    );
    setter!(
        /// Warm-up cycles excluded from measurement.
        warmup: u64
    );
    setter!(
        /// Measured cycles.
        measure: u64
    );
    setter!(
        /// Applied load in flits/node/cycle.
        load: f64
    );
    setter!(
        /// CWG oracle period (`None` disables the oracle).
        cwg_interval: Option<u64>
    );
    setter!(
        /// Observability gauge-sampling period.
        obs_sample_every: u64
    );

    /// Set both simulation windows (warmup, then measured cycles) in one
    /// call.
    pub fn windows(mut self, warmup: u64, measure: u64) -> Self {
        self.cfg.warmup = warmup;
        self.cfg.measure = measure;
        self
    }

    /// Strict mode: in addition to the structural checks, [`build`] runs
    /// the full static deadlock-safety analysis (`mdd-verify`) and
    /// rejects any configuration classified `Unsafe` with
    /// [`ConfigError::StaticallyUnsafe`], witness included. A few
    /// milliseconds per build on the paper's 8x8 torus.
    ///
    /// ```
    /// use mdd_core::{PatternSpec, Scheme, SimConfig};
    /// let cfg = SimConfig::builder()
    ///     .scheme(Scheme::StrictAvoidance { shared_adaptive: false })
    ///     .pattern(PatternSpec::pat271())
    ///     .vcs(8)
    ///     .verify()
    ///     .build()
    ///     .expect("SA with full partitions is statically safe");
    /// assert_eq!(cfg.vcs, 8);
    /// ```
    ///
    /// [`build`]: SimConfigBuilder::build
    pub fn verify(mut self) -> Self {
        self.verify = true;
        self
    }

    /// Validate and produce the configuration. `Ok` guarantees the
    /// simulator constructor will accept it; with [`verify`] set, it
    /// additionally guarantees the configuration is not statically
    /// unsafe.
    ///
    /// [`verify`]: SimConfigBuilder::verify
    pub fn build(self) -> Result<SimConfig, ConfigError> {
        self.cfg.validate()?;
        if self.verify {
            let verdict = crate::preflight::verify_config(&self.cfg)?;
            if let mdd_verify::Verdict::Unsafe { witness } = verdict {
                return Err(ConfigError::StaticallyUnsafe {
                    witness: witness.rendered,
                    min_safe_vcs: crate::preflight::min_safe_vcs(&self.cfg).min_vcs,
                });
            }
        }
        Ok(self.cfg)
    }

    /// The configuration as currently set, *without* validation — for
    /// callers that deliberately construct infeasible configurations
    /// (e.g. tests of the error paths).
    pub fn build_unchecked(self) -> SimConfig {
        self.cfg
    }
}
