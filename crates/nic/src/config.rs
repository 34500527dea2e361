//! NIC configuration.

use mdd_protocol::QueueOrg;

/// Per-NIC configuration (the endpoint half of Table 2 plus the detection
/// parameters of Section 4.1).
#[derive(Clone, Copy, Debug)]
pub struct NicConfig {
    /// Capacity of each message queue, in messages (Table 2: 16).
    pub queue_capacity: u32,
    /// Memory-controller service time per non-terminating message, in
    /// cycles (Table 2: 40).
    pub service_time: u64,
    /// Maximum outstanding transactions this node may have as a requester
    /// (MSHRs in the lockup-free cache).
    pub mshr_limit: u32,
    /// Detection time-out `T` in cycles (Section 4.1: 25): the
    /// full-queues/no-progress condition must persist this long before a
    /// potential message-dependent deadlock is declared.
    pub detect_threshold: u64,
    /// Message-queue organization.
    pub queue_org: QueueOrg,
    /// Preallocate input-queue slots for replies, the Origin2000's
    /// reply-network guarantee: a slot for the terminating reply of every
    /// outstanding request, earmarked at issue, and a slot for every
    /// non-terminating reply expected back mid-chain (the FRP a home
    /// receives after forwarding), earmarked when the memory controller
    /// starts the forwarding service. Only deflective recovery sets it:
    /// SA drains each type in its own partition and PR deliberately
    /// shares everything.
    pub preallocate: bool,
}
