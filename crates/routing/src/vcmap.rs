//! Virtual-channel resource maps: which VCs each message type may use, and
//! in which role (dateline-class escape vs fully adaptive).

use crate::scheme::{Scheme, SchemeConfigError};
use mdd_protocol::{MsgKind, MsgType, ProtocolSpec};

/// The VC set available to one message type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TypeVcs {
    /// Escape VC per dateline class (`escape[c]` is the dimension-order
    /// escape channel used after `c` dateline crossings in the current
    /// dimension). Length `E_r`: 2 on a torus, 1 on a mesh. Empty for PR.
    pub escape: Vec<u8>,
    /// Fully adaptive VCs, usable in any minimal direction.
    pub adaptive: Vec<u8>,
}

impl TypeVcs {
    /// All VCs this type may occupy (adaptive then escape).
    pub fn all(&self) -> Vec<u8> {
        let mut v = self.adaptive.clone();
        v.extend_from_slice(&self.escape);
        v
    }

    /// Number of VCs available to the type.
    pub fn availability(&self) -> usize {
        self.adaptive.len() + self.escape.len()
    }

    /// The paper's channel-availability measure (Section 2.1): adaptive
    /// channels plus at most one escape channel (a packet uses one dateline
    /// class at a time), i.e. `1 + (C/L − E_r)` for partitioned schemes.
    pub fn paper_availability(&self) -> usize {
        self.adaptive.len() + usize::from(!self.escape.is_empty())
    }
}

/// Per-message-type VC map for one scheme configuration.
#[derive(Clone, Debug)]
pub struct VcMap {
    per_type: Vec<TypeVcs>,
    num_vcs: u8,
    escape_size: usize,
}

impl VcMap {
    /// Build the map for `scheme` over `num_vcs` virtual channels.
    /// `escape_size` is `E_r`: 2 for tori (dateline classes), 1 for
    /// meshes.
    pub fn build(
        scheme: Scheme,
        protocol: &ProtocolSpec,
        num_vcs: u8,
        escape_size: usize,
    ) -> Result<VcMap, SchemeConfigError> {
        let c = num_vcs as usize;
        let need = scheme.min_vcs(protocol, escape_size);
        if c < need {
            return Err(SchemeConfigError::TooFewVirtualChannels {
                needed: need,
                available: c,
            });
        }
        let per_type = match scheme {
            Scheme::ProgressiveRecovery => {
                // True fully adaptive: every VC, every type, no escape.
                let adaptive: Vec<u8> = (0..num_vcs).collect();
                protocol
                    .msg_types()
                    .map(|_| TypeVcs {
                        escape: Vec::new(),
                        adaptive: adaptive.clone(),
                    })
                    .collect()
            }
            Scheme::StrictAvoidance {
                shared_adaptive: false,
            } => {
                let parts = protocol.num_partition_types();
                Self::partitioned(protocol, parts, c, escape_size, |t| {
                    protocol.sa_partition(t)
                })
            }
            Scheme::StrictAvoidance {
                shared_adaptive: true,
            } => {
                // Escape sets are per type; everything above P*E_r is a
                // common adaptive pool shared by all message types [21].
                let parts = protocol.num_partition_types();
                let shared: Vec<u8> = ((parts * escape_size) as u8..num_vcs).collect();
                protocol
                    .msg_types()
                    .map(|t| {
                        let p = protocol.sa_partition(t);
                        let escape: Vec<u8> = (0..escape_size)
                            .map(|e| (p * escape_size + e) as u8)
                            .collect();
                        TypeVcs {
                            escape,
                            adaptive: shared.clone(),
                        }
                    })
                    .collect()
            }
            Scheme::DeflectiveRecovery => {
                let has_req = protocol
                    .msg_types()
                    .any(|t| protocol.kind(t) == MsgKind::Request);
                let has_rep = protocol
                    .msg_types()
                    .any(|t| protocol.kind(t) == MsgKind::Reply);
                if !has_req || !has_rep {
                    return Err(SchemeConfigError::DegenerateNetworkSplit);
                }
                Self::partitioned(protocol, 2, c, escape_size, |t| protocol.dr_network(t))
            }
        };
        Ok(VcMap {
            per_type,
            num_vcs,
            escape_size,
        })
    }

    /// Build the map the scheme would be forced into with fewer virtual
    /// channels than [`VcMap::build`] accepts: partitions are merged when
    /// there are fewer VCs than partitions (types mapped modulo the
    /// partition count) and a partition smaller than `escape_size` keeps a
    /// *truncated* escape set (losing dateline classes).
    ///
    /// The result deliberately violates the scheme's deadlock-freedom
    /// prerequisites — types share resource partitions across `≺` levels
    /// and/or a torus escape ring loses its dateline break. It exists so
    /// the static verifier (`mdd-verify`) can exhibit *why* such a
    /// configuration is rejected, with a concrete cycle witness, and so
    /// tests can demonstrate the corresponding dynamic deadlock. Never
    /// used by a validated simulation.
    ///
    /// Panics if `num_vcs` is zero.
    pub fn build_degraded(
        scheme: Scheme,
        protocol: &ProtocolSpec,
        num_vcs: u8,
        escape_size: usize,
    ) -> VcMap {
        assert!(num_vcs > 0, "a network needs at least one virtual channel");
        if let Ok(map) = Self::build(scheme, protocol, num_vcs, escape_size) {
            return map;
        }
        let c = num_vcs as usize;
        let wanted = match scheme {
            Scheme::ProgressiveRecovery => 1,
            Scheme::StrictAvoidance { .. } => protocol.num_partition_types(),
            Scheme::DeflectiveRecovery => 2,
        };
        let parts = wanted.min(c).max(1);
        let per_type = match scheme {
            // PR is feasible at any c >= 1; `build` above already handled it.
            Scheme::ProgressiveRecovery => unreachable!("PR accepts any vc count"),
            Scheme::StrictAvoidance { .. } => {
                Self::degraded_partitioned(protocol, parts, c, escape_size, |t| {
                    protocol.sa_partition(t) % parts
                })
            }
            Scheme::DeflectiveRecovery => {
                Self::degraded_partitioned(protocol, parts, c, escape_size, |t| {
                    protocol.dr_network(t) % parts
                })
            }
        };
        VcMap {
            per_type,
            num_vcs,
            escape_size,
        }
    }

    /// Like [`VcMap::partitioned`], but tolerates partitions smaller than
    /// `escape_size` by truncating their escape sets.
    fn degraded_partitioned(
        protocol: &ProtocolSpec,
        parts: usize,
        c: usize,
        escape_size: usize,
        part_of: impl Fn(MsgType) -> usize,
    ) -> Vec<TypeVcs> {
        let base = c / parts;
        let extra = c % parts;
        let size = |p: usize| base + usize::from(p < extra);
        let start = |p: usize| (0..p).map(size).sum::<usize>();
        protocol
            .msg_types()
            .map(|t| {
                let p = part_of(t);
                let s = start(p);
                let n = size(p);
                let e = escape_size.min(n);
                TypeVcs {
                    escape: (s..s + e).map(|v| v as u8).collect(),
                    adaptive: (s + e..s + n).map(|v| v as u8).collect(),
                }
            })
            .collect()
    }

    /// Divide `c` VCs into `parts` contiguous partitions (distributing any
    /// remainder to the lowest partitions), each with `escape_size` escape
    /// channels first and adaptive channels after.
    fn partitioned(
        protocol: &ProtocolSpec,
        parts: usize,
        c: usize,
        escape_size: usize,
        part_of: impl Fn(MsgType) -> usize,
    ) -> Vec<TypeVcs> {
        let base = c / parts;
        let extra = c % parts;
        // Partition p owns [start(p), start(p)+size(p)).
        let size = |p: usize| base + usize::from(p < extra);
        let start = |p: usize| (0..p).map(size).sum::<usize>();
        protocol
            .msg_types()
            .map(|t| {
                let p = part_of(t);
                let s = start(p);
                let n = size(p);
                debug_assert!(n >= escape_size, "feasibility checked by caller");
                TypeVcs {
                    escape: (s..s + escape_size).map(|v| v as u8).collect(),
                    adaptive: (s + escape_size..s + n).map(|v| v as u8).collect(),
                }
            })
            .collect()
    }

    /// The VC set for message type `t`.
    #[inline]
    pub fn for_type(&self, t: MsgType) -> &TypeVcs {
        &self.per_type[t.index()]
    }

    /// Total virtual channels per physical link.
    #[inline]
    pub fn num_vcs(&self) -> u8 {
        self.num_vcs
    }

    /// `E_r`: escape channels required against routing-dependent deadlock.
    #[inline]
    pub fn escape_size(&self) -> usize {
        self.escape_size
    }
}
