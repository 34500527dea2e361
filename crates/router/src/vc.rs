//! Virtual-channel views over the router's structure-of-arrays state.
//!
//! There are no per-VC structs; external readers (the CWG validator, the
//! deadlock-witness formatter, tests) observe a VC through the borrowing
//! [`VcRef`] view and the [`OutVc`] snapshot instead. Both are zero-cost
//! facades over the network-wide flat arrays behind [`crate::Router`].

use crate::flit::Flit;
use crate::router::{Router, NOT_BLOCKED, NO_ROUTE};
use mdd_protocol::MsgHandle;
use mdd_topology::PortId;

/// Read view of one input virtual channel: a finite flit FIFO plus the
/// wormhole routing state of the packet currently at its front.
///
/// ```
/// use mdd_router::Network;
/// use mdd_topology::{NodeId, PortId, Topology, TopologyKind};
/// let net = Network::new(Topology::new(TopologyKind::Torus, &[4], 1), 4, 2);
/// let vc = net.router(NodeId(2)).vc(PortId(1), 2);
/// assert!(vc.is_empty());
/// assert!(!vc.awaiting_route()); // empty: nothing to route
/// assert_eq!(vc.free_slots(), vc.capacity());
/// ```
#[derive(Clone, Copy, Debug)]
pub struct VcRef<'a> {
    router: Router<'a>,
    /// Global slot index into the network-wide per-slot arrays.
    slot: usize,
}

impl<'a> VcRef<'a> {
    #[inline]
    pub(crate) fn new(router: Router<'a>, slot: usize) -> Self {
        VcRef { router, slot }
    }

    /// Buffer capacity in flits (the paper's default is 2).
    #[inline]
    pub fn capacity(&self) -> u32 {
        self.router.buf_depth()
    }

    /// Buffered flits.
    #[inline]
    pub fn len(&self) -> u32 {
        self.router.st.len[self.slot] as u32
    }

    /// True when no flit is buffered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.router.st.len[self.slot] == 0
    }

    /// Free buffer slots.
    #[inline]
    pub fn free_slots(&self) -> u32 {
        self.capacity() - self.len()
    }

    /// The flit at the front, if any.
    #[inline]
    pub fn front(&self) -> Option<Flit> {
        self.get(0)
    }

    /// The most recently buffered flit, if any.
    #[inline]
    pub fn back(&self) -> Option<Flit> {
        let len = self.router.st.len[self.slot] as usize;
        if len == 0 {
            None
        } else {
            Some(self.router.st.flit_at(self.slot, len - 1))
        }
    }

    /// The `k`-th buffered flit (0 = front), if present.
    #[inline]
    pub fn get(&self, k: usize) -> Option<Flit> {
        if k < self.len() as usize {
            Some(self.router.st.flit_at(self.slot, k))
        } else {
            None
        }
    }

    /// The allocated route of the front packet: `(output port, output vc)`.
    /// `None` while the head flit awaits route computation / VC allocation.
    #[inline]
    pub fn route(&self) -> Option<(PortId, u8)> {
        match self.router.st.route_port[self.slot] {
            NO_ROUTE => None,
            p => Some((PortId(p), self.router.st.route_vc[self.slot])),
        }
    }

    /// True if the front flit is a head awaiting VC allocation.
    #[inline]
    pub fn awaiting_route(&self) -> bool {
        self.route().is_none() && self.front().is_some_and(|f| f.is_head())
    }

    /// First cycle at which the front flit failed to advance; `None` while
    /// it is making progress.
    #[inline]
    pub fn blocked_since(&self) -> Option<u64> {
        match self.router.st.blocked[self.slot] {
            NOT_BLOCKED => None,
            t => Some(u64::from(t)),
        }
    }

    /// Duration (in cycles, as of `now`) the front flit has been blocked.
    #[inline]
    pub fn blocked_for(&self, now: u64) -> u64 {
        match self.blocked_since() {
            Some(t) => now.saturating_sub(t),
            None => 0,
        }
    }
}

/// Snapshot of an output virtual channel's state: which packet holds it
/// and how many credits (free downstream buffer slots) remain.
#[derive(Clone, Copy, Debug)]
pub struct OutVc {
    /// The packet holding this output VC (wormhole: held from head until
    /// tail transmission).
    pub owner: Option<MsgHandle>,
    /// Free flit-buffer slots in the downstream input VC.
    pub credits: u32,
}

impl OutVc {
    /// True if unowned (a new packet may allocate it).
    #[inline]
    pub fn is_free(&self) -> bool {
        self.owner.is_none()
    }
}
