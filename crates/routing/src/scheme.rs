//! The three deadlock-handling schemes and their configuration rules.

use mdd_protocol::{ProtocolSpec, QueueOrg};

/// Which message-dependent deadlock handling technique a simulation uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scheme {
    /// Strict avoidance: one logical network per message type
    /// (Alpha 21364-style). With `shared_adaptive`, only the escape
    /// channels are partitioned per type and all remaining channels form a
    /// common adaptive pool (Martinez, Torrellas & Duato \[21\]).
    StrictAvoidance {
        /// Share channels beyond the per-type escape sets among all types.
        shared_adaptive: bool,
    },
    /// Deflective recovery: two logical networks (request/reply) plus
    /// Origin2000-style backoff replies on detection.
    DeflectiveRecovery,
    /// Progressive recovery: true fully adaptive routing over completely
    /// shared resources plus Extended Disha Sequential rescue.
    ProgressiveRecovery,
}

impl Scheme {
    /// The scheme a command-line name selects: `sa`, `sa+`, `dr` or `pr`.
    pub fn from_cli_name(name: &str) -> Option<Scheme> {
        Some(match name {
            "sa" => Scheme::StrictAvoidance {
                shared_adaptive: false,
            },
            "sa+" => Scheme::StrictAvoidance {
                shared_adaptive: true,
            },
            "dr" => Scheme::DeflectiveRecovery,
            "pr" => Scheme::ProgressiveRecovery,
            _ => return None,
        })
    }

    /// Short label used in result tables ("SA", "SA+", "DR", "PR").
    pub fn label(&self) -> &'static str {
        match self {
            Scheme::StrictAvoidance {
                shared_adaptive: false,
            } => "SA",
            Scheme::StrictAvoidance {
                shared_adaptive: true,
            } => "SA+",
            Scheme::DeflectiveRecovery => "DR",
            Scheme::ProgressiveRecovery => "PR",
        }
    }

    /// The default endpoint queue organization the scheme mandates
    /// (Section 4.3.1); PR and DR may additionally be run with
    /// [`QueueOrg::PerType`] — the "QA" configuration of Figure 11.
    pub fn default_queue_org(&self) -> QueueOrg {
        match self {
            Scheme::StrictAvoidance { .. } => QueueOrg::PerType,
            Scheme::DeflectiveRecovery => QueueOrg::PerNetwork,
            Scheme::ProgressiveRecovery => QueueOrg::Shared,
        }
    }

    /// Whether this scheme guarantees freedom from message-dependent
    /// deadlock by construction (no detection/recovery machinery needed).
    pub fn is_avoidance(&self) -> bool {
        matches!(self, Scheme::StrictAvoidance { .. })
    }

    /// The minimum number of virtual channels per physical link required
    /// to configure the scheme for `protocol` (`E_m` for SA, `2·E_r` for
    /// DR, 1 for PR), with `escape_size` = `E_r` (2 on a torus, 1 on a
    /// mesh).
    pub fn min_vcs(&self, protocol: &ProtocolSpec, escape_size: usize) -> usize {
        match self {
            Scheme::StrictAvoidance { .. } => protocol.num_partition_types() * escape_size,
            Scheme::DeflectiveRecovery => 2 * escape_size,
            Scheme::ProgressiveRecovery => 1,
        }
    }
}

/// Why a scheme cannot be configured with the requested resources.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SchemeConfigError {
    /// Fewer virtual channels than the scheme's minimum (`needed`,
    /// `available`).
    TooFewVirtualChannels {
        /// Minimum VCs the scheme requires for this protocol/topology.
        needed: usize,
        /// VCs actually configured.
        available: usize,
    },
    /// Deflective recovery needs a protocol with both request and reply
    /// message kinds.
    DegenerateNetworkSplit,
}

impl std::fmt::Display for SchemeConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchemeConfigError::TooFewVirtualChannels { needed, available } => write!(
                f,
                "scheme requires at least {needed} virtual channels, only {available} available"
            ),
            SchemeConfigError::DegenerateNetworkSplit => {
                write!(f, "deflective recovery needs both request and reply kinds")
            }
        }
    }
}

impl std::error::Error for SchemeConfigError {}
