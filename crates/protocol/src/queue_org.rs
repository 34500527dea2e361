//! Endpoint message-queue organization.
//!
//! The paper's three schemes differ in how network-interface input/output
//! message queues are organized (Section 4.3, Figure 11):
//!
//! * strict avoidance requires one queue pair per message type,
//! * deflective recovery uses one pair per logical network (request/reply),
//! * progressive recovery shares one pair among all types by default —
//!   maximizing utilization but introducing inter-message *coupling* — and
//!   may optionally adopt the per-type organization (the figure's "QA"
//!   configuration) purely for performance.

use crate::spec::ProtocolSpec;
use crate::types::MsgType;

/// How a NIC's message queues are split by message type.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QueueOrg {
    /// One shared input queue and one shared output queue (PR default).
    Shared,
    /// One queue pair per logical network: request and reply (DR default).
    PerNetwork,
    /// One queue pair per message type (SA requirement; the "QA"
    /// configuration when applied to DR/PR). The backoff type shares the
    /// terminating reply's queue.
    PerType,
}

impl QueueOrg {
    /// Every organization: shared, per network, per type.
    pub const ALL: [QueueOrg; 3] = [QueueOrg::Shared, QueueOrg::PerNetwork, QueueOrg::PerType];

    /// The organization's command-line name: `shared`, `pernet` or
    /// `pertype` (also its name in canonical config strings).
    pub fn cli_name(self) -> &'static str {
        match self {
            QueueOrg::Shared => "shared",
            QueueOrg::PerNetwork => "pernet",
            QueueOrg::PerType => "pertype",
        }
    }

    /// The organization a command-line name selects (the inverse of
    /// [`QueueOrg::cli_name`]).
    pub fn from_cli_name(name: &str) -> Option<QueueOrg> {
        QueueOrg::ALL.into_iter().find(|o| o.cli_name() == name)
    }

    /// Number of queue pairs under this organization for `protocol`.
    pub fn queue_count(self, protocol: &ProtocolSpec) -> usize {
        match self {
            QueueOrg::Shared => 1,
            QueueOrg::PerNetwork => 2,
            QueueOrg::PerType => protocol.num_partition_types(),
        }
    }

    /// The queue index messages of type `t` use.
    pub fn queue_index(self, protocol: &ProtocolSpec, t: MsgType) -> usize {
        match self {
            QueueOrg::Shared => 0,
            QueueOrg::PerNetwork => protocol.dr_network(t),
            QueueOrg::PerType => protocol.sa_partition(t),
        }
    }
}
