//! Per-router state in structure-of-arrays form: input virtual channels,
//! output virtual channels and arbitration pointers.
//!
//! Every per-VC field lives in its own contiguous array indexed by the
//! flat slot `port * vcs + vc`, so each pipeline sweep (occupancy walk,
//! route gather, credit check, blocked-timer mark) touches exactly one
//! cache-resident array per field instead of striding through a
//! buffer-sized record per slot. Flit storage is one flat ring
//! (`buf_depth` entries per slot), so block operations — burst extraction
//! runs, the debug shadow snapshot — are plain `memcpy`-shaped moves.

use crate::flit::Flit;
use crate::vc::{OutVc, VcRef};
use mdd_protocol::MsgHandle;
use mdd_topology::PortId;

/// `route_port` sentinel: no route allocated.
pub(crate) const NO_ROUTE: u8 = u8::MAX;
/// `blocked` sentinel: the slot's front flit is not (yet) blocked.
pub(crate) const NOT_BLOCKED: u64 = u64::MAX;
/// `stall_epoch` sentinel: no memoized allocation stall.
pub(crate) const EPOCH_NONE: u64 = u64::MAX;

/// One wormhole router: `ports_per_router` input ports and output ports,
/// each with `vcs` virtual channels, stored as structure-of-arrays.
///
/// Flat slot index `port * vcs + vc` addresses every per-VC array. Public
/// read access goes through the [`VcRef`] / [`OutVc`] views:
///
/// ```
/// use mdd_router::Router;
/// use mdd_topology::PortId;
///
/// let r = Router::new(5, 2, 2);
/// assert_eq!(r.ports(), 5);
/// assert_eq!(r.vcs(), 2);
/// let vc = r.vc(PortId(3), 1);
/// assert_eq!(vc.capacity(), 2);
/// assert_eq!(vc.free_slots(), 2);
/// assert!(vc.front().is_none() && vc.route().is_none());
/// let ovc = r.out_vc(PortId(3), 1);
/// assert!(ovc.is_free());
/// assert_eq!(ovc.credits, 2);
/// ```
#[derive(Debug)]
pub struct Router {
    /// Flat ring flit storage: slot `s` owns `bufs[s*depth .. (s+1)*depth]`.
    pub(crate) bufs: Vec<Flit>,
    /// Ring head offset of each slot's FIFO (`< depth`).
    pub(crate) head: Vec<u16>,
    /// Buffered flits per slot (`<= depth`).
    pub(crate) len: Vec<u16>,
    /// Allocated output port of the front packet ([`NO_ROUTE`] = none).
    pub(crate) route_port: Vec<u8>,
    /// Allocated output VC of the front packet (valid iff routed).
    pub(crate) route_vc: Vec<u8>,
    /// First cycle the front flit failed to advance ([`NOT_BLOCKED`] =
    /// making progress). Drives the deadlock-detection timers.
    pub(crate) blocked: Vec<u64>,
    /// Allocation-stall memo: the [`Router::alloc_epoch`] at which this
    /// slot's head last found every candidate output VC owned. While the
    /// epoch still matches, the whole candidate recomputation is skipped —
    /// no output VC on this router has been released since, so the stall
    /// outcome is unchanged by construction. Invalidated ([`EPOCH_NONE`])
    /// whenever the slot's front flit changes.
    pub(crate) stall_epoch: Vec<u64>,
    /// Owner of each output VC — valid only where [`Router::out_owned`]
    /// has the bit set (placeholder handles elsewhere).
    pub(crate) out_owner: Vec<MsgHandle>,
    /// Credits (free downstream buffer slots) per output VC.
    pub(crate) out_credits: Vec<u32>,
    /// Validity mask over `out_owner`: bit `s` set iff output VC `s` is
    /// owned by a packet.
    pub(crate) out_owned: u128,
    /// Round-robin pointer per output port, rotating switch-allocation
    /// priority over `(input port, vc)` requesters.
    pub(crate) rr_out: Vec<u32>,
    /// Rotation offset for the VC-allocation scan, advanced every cycle to
    /// avoid structural starvation.
    pub(crate) rr_alloc: u32,
    /// First cycle whose `rr_alloc` advancement has not yet been applied.
    /// The dense scan bumped `rr_alloc` once per cycle for every router;
    /// the activity-driven scan instead catches a woken router up lazily
    /// ([`Router::sync_rr_alloc`]) so its rotation offset is bit-identical
    /// to what the dense schedule would have produced.
    pub(crate) rr_cycle: u64,
    /// Occupancy bitmask over input-VC slots: bit `s` is set iff slot `s`
    /// buffers at least one flit. Maintained at every flit push, pop and
    /// extraction so the fused pass visits only occupied slots; scanning
    /// set bits in (rotated) ascending order reproduces the dense
    /// full-array scan exactly, because every slot the dense scan would
    /// act on holds at least one flit.
    pub(crate) in_occ: u128,
    /// Bumped every time an output VC owner is released (tail passage,
    /// extraction). Validity clock for [`Router::stall_epoch`].
    pub(crate) alloc_epoch: u64,
    /// Busy cycles per output VC slot (network ports only are ever
    /// incremented). Lives in the router chunk — not a network-wide dense
    /// array — so a never-woken router contributes zero bytes.
    pub(crate) vc_busy: Vec<u64>,
    nvcs: u8,
    depth: u16,
}

impl Router {
    /// Create a router with `ports` ports, `vcs` VCs per port, and
    /// `buf_depth`-flit input buffers per VC.
    pub fn new(ports: usize, vcs: u8, buf_depth: u32) -> Self {
        let slots = ports * vcs as usize;
        assert!(slots <= 128, "occupancy bitmask supports at most 128 VC slots per router");
        assert!(buf_depth <= u16::MAX as u32, "flit buffers deeper than 65535 are unsupported");
        let depth = buf_depth as u16;
        Router {
            bufs: vec![
                Flit {
                    msg: MsgHandle::dangling(),
                    seq: 0,
                    is_tail: false,
                };
                slots * depth as usize
            ],
            head: vec![0; slots],
            len: vec![0; slots],
            route_port: vec![NO_ROUTE; slots],
            route_vc: vec![0; slots],
            blocked: vec![NOT_BLOCKED; slots],
            stall_epoch: vec![EPOCH_NONE; slots],
            out_owner: vec![MsgHandle::dangling(); slots],
            out_credits: vec![buf_depth; slots],
            out_owned: 0,
            rr_out: vec![0; ports],
            rr_alloc: 0,
            rr_cycle: 0,
            in_occ: 0,
            alloc_epoch: 0,
            vc_busy: vec![0; slots],
            nvcs: vcs,
            depth,
        }
    }

    /// Heap + inline bytes held by this router's state chunk — the unit
    /// behind the `router_state_bytes` observability gauge.
    pub fn state_bytes(&self) -> u64 {
        use std::mem::size_of;
        (size_of::<Self>()
            + self.bufs.capacity() * size_of::<Flit>()
            + self.head.capacity() * size_of::<u16>()
            + self.len.capacity() * size_of::<u16>()
            + self.route_port.capacity()
            + self.route_vc.capacity()
            + self.blocked.capacity() * size_of::<u64>()
            + self.stall_epoch.capacity() * size_of::<u64>()
            + self.out_owner.capacity() * size_of::<MsgHandle>()
            + self.out_credits.capacity() * size_of::<u32>()
            + self.rr_out.capacity() * size_of::<u32>()
            + self.vc_busy.capacity() * size_of::<u64>()) as u64
    }

    /// Append an arriving flit to slot `slot`. Panics on overflow —
    /// credits must prevent this. Marks occupancy and, when the buffer was
    /// empty (the flit becomes the front), invalidates the stall memo.
    #[inline]
    pub(crate) fn push_flit(&mut self, slot: usize, flit: Flit) {
        let depth = self.depth as usize;
        let len = self.len[slot] as usize;
        assert!(len < depth, "VC buffer overflow: credit accounting violated");
        let pos = slot * depth + (self.head[slot] as usize + len) % depth;
        self.bufs[pos] = flit;
        self.len[slot] = (len + 1) as u16;
        if len == 0 {
            self.in_occ |= 1 << slot;
            self.stall_epoch[slot] = EPOCH_NONE;
        }
    }

    /// Remove and return slot `slot`'s front flit. The front changes, so
    /// the stall memo is invalidated; occupancy is re-derived.
    #[inline]
    pub(crate) fn pop_flit(&mut self, slot: usize) -> Flit {
        let depth = self.depth as usize;
        debug_assert!(self.len[slot] > 0, "pop from empty VC buffer");
        let flit = self.bufs[slot * depth + self.head[slot] as usize];
        self.head[slot] = ((self.head[slot] as usize + 1) % depth) as u16;
        self.len[slot] -= 1;
        if self.len[slot] == 0 {
            self.in_occ &= !(1 << slot);
        }
        self.stall_epoch[slot] = EPOCH_NONE;
        flit
    }

    /// Slot `slot`'s front flit, if any.
    #[inline]
    pub(crate) fn front_flit(&self, slot: usize) -> Option<Flit> {
        if self.len[slot] == 0 {
            None
        } else {
            Some(self.bufs[slot * self.depth as usize + self.head[slot] as usize])
        }
    }

    /// The `k`-th buffered flit of slot `slot` (0 = front). Caller
    /// guarantees `k < len`.
    #[inline]
    pub(crate) fn flit_at(&self, slot: usize, k: usize) -> Flit {
        let depth = self.depth as usize;
        debug_assert!(k < self.len[slot] as usize);
        self.bufs[slot * depth + (self.head[slot] as usize + k) % depth]
    }

    /// Remove the contiguous run `[run_start, run_start + run_len)` of
    /// buffered flits from slot `slot` in one block operation: a front run
    /// is a head advance, a back run a length cut, and a middle run one
    /// block shift of the tail — never a per-flit `retain` walk.
    pub(crate) fn remove_run(&mut self, slot: usize, run_start: usize, run_len: usize) {
        let depth = self.depth as usize;
        let len = self.len[slot] as usize;
        debug_assert!(run_len > 0 && run_start + run_len <= len);
        if run_start == 0 {
            // Front run: advance the ring head, no data movement.
            self.head[slot] = ((self.head[slot] as usize + run_len) % depth) as u16;
        } else {
            // Shift the tail of the FIFO over the removed run (a no-op for
            // a back run: the loop body never executes).
            for k in run_start..(len - run_len) {
                let src = slot * depth + (self.head[slot] as usize + k + run_len) % depth;
                let dst = slot * depth + (self.head[slot] as usize + k) % depth;
                self.bufs[dst] = self.bufs[src];
            }
        }
        self.len[slot] = (len - run_len) as u16;
        if self.len[slot] == 0 {
            self.in_occ &= !(1 << slot);
        }
        self.stall_epoch[slot] = EPOCH_NONE;
    }

    /// The front packet's allocated route, if any.
    #[inline]
    pub(crate) fn route_of(&self, slot: usize) -> Option<(PortId, u8)> {
        if self.route_port[slot] == NO_ROUTE {
            None
        } else {
            Some((PortId(self.route_port[slot]), self.route_vc[slot]))
        }
    }

    /// True if output VC `slot` is unowned (a new packet may allocate it).
    #[inline]
    pub(crate) fn out_free(&self, slot: usize) -> bool {
        self.out_owned >> slot & 1 == 0
    }

    /// Record `h` as the owner of output VC `slot`.
    #[inline]
    pub(crate) fn own_out(&mut self, slot: usize, h: MsgHandle) {
        self.out_owner[slot] = h;
        self.out_owned |= 1 << slot;
    }

    /// Release output VC `slot`. Advances the allocation epoch: a freed
    /// output VC is the only event that can turn a previously stalled
    /// allocation into a success, so every memoized stall on this router
    /// expires here.
    #[inline]
    pub(crate) fn release_out(&mut self, slot: usize) {
        self.out_owned &= !(1 << slot);
        self.alloc_epoch += 1;
    }

    /// Apply the per-cycle `rr_alloc` advancement for every cycle since
    /// this router was last processed, up to (but not including) `cycle`.
    /// Call before reading `rr_alloc` in the allocation phase; follow with
    /// the regular end-of-cycle increment.
    #[inline]
    pub(crate) fn sync_rr_alloc(&mut self, cycle: u64) {
        let lag = cycle.saturating_sub(self.rr_cycle);
        if lag > 0 {
            self.rr_alloc = self.rr_alloc.wrapping_add(lag as u32);
            self.rr_cycle = cycle;
        }
    }

    /// Number of ports.
    #[inline]
    pub fn ports(&self) -> usize {
        self.rr_out.len()
    }

    /// Virtual channels per port.
    #[inline]
    pub fn vcs(&self) -> u8 {
        self.nvcs
    }

    /// Flit-buffer depth per VC.
    #[inline]
    pub fn buf_depth(&self) -> u32 {
        self.depth as u32
    }

    /// Flat index of `(port, vc)` into the VC arrays.
    #[inline]
    pub(crate) fn slot(&self, port: usize, vc: usize) -> usize {
        port * self.nvcs as usize + vc
    }

    /// Read view of an input VC.
    ///
    /// ```
    /// use mdd_router::Router;
    /// use mdd_topology::PortId;
    /// let r = Router::new(4, 2, 2);
    /// assert!(r.vc(PortId(2), 0).front().is_none());
    /// assert_eq!(r.vc(PortId(2), 0).blocked_for(100), 0);
    /// ```
    #[inline]
    pub fn vc(&self, port: PortId, vc: u8) -> VcRef<'_> {
        VcRef::new(self, self.slot(port.index(), vc as usize))
    }

    /// Snapshot of an output VC's state (owner and credits).
    ///
    /// ```
    /// use mdd_router::Router;
    /// use mdd_topology::PortId;
    /// let r = Router::new(4, 2, 2);
    /// let out = r.out_vc(PortId(1), 1);
    /// assert!(out.is_free());                  // no wormhole holds it yet
    /// assert_eq!(out.credits, r.buf_depth());  // downstream buffer empty
    /// ```
    #[inline]
    pub fn out_vc(&self, port: PortId, vc: u8) -> OutVc {
        let slot = self.slot(port.index(), vc as usize);
        OutVc {
            owner: if self.out_free(slot) {
                None
            } else {
                Some(self.out_owner[slot])
            },
            credits: self.out_credits[slot],
        }
    }

    /// Total buffered flits across all input VCs.
    pub fn buffered_flits(&self) -> u32 {
        self.len.iter().map(|&l| l as u32).sum()
    }

    /// Iterate `(port, vc_index, vc view)` over all input VCs.
    ///
    /// ```
    /// use mdd_router::Router;
    /// let r = Router::new(3, 4, 2);
    /// assert_eq!(r.iter_vcs().count(), 3 * 4); // every (port, vc) slot
    /// assert!(r.iter_vcs().all(|(_, _, vc)| vc.is_empty()));
    /// ```
    pub fn iter_vcs(&self) -> impl Iterator<Item = (PortId, u8, VcRef<'_>)> {
        let nvcs = self.nvcs as usize;
        (0..self.len.len())
            .map(move |i| (PortId((i / nvcs) as u8), (i % nvcs) as u8, VcRef::new(self, i)))
    }
}

impl Clone for Router {
    fn clone(&self) -> Self {
        Router {
            bufs: self.bufs.clone(),
            head: self.head.clone(),
            len: self.len.clone(),
            route_port: self.route_port.clone(),
            route_vc: self.route_vc.clone(),
            blocked: self.blocked.clone(),
            stall_epoch: self.stall_epoch.clone(),
            out_owner: self.out_owner.clone(),
            out_credits: self.out_credits.clone(),
            out_owned: self.out_owned,
            rr_out: self.rr_out.clone(),
            rr_alloc: self.rr_alloc,
            rr_cycle: self.rr_cycle,
            in_occ: self.in_occ,
            alloc_epoch: self.alloc_epoch,
            vc_busy: self.vc_busy.clone(),
            nvcs: self.nvcs,
            depth: self.depth,
        }
    }

    /// Allocation-free in steady state: every backing `Vec` is reused via
    /// `clone_from` (the debug shadow check snapshots all routers each
    /// cycle, so this path is hot in debug builds).
    fn clone_from(&mut self, source: &Self) {
        self.bufs.clone_from(&source.bufs);
        self.head.clone_from(&source.head);
        self.len.clone_from(&source.len);
        self.route_port.clone_from(&source.route_port);
        self.route_vc.clone_from(&source.route_vc);
        self.blocked.clone_from(&source.blocked);
        self.stall_epoch.clone_from(&source.stall_epoch);
        self.out_owner.clone_from(&source.out_owner);
        self.out_credits.clone_from(&source.out_credits);
        self.out_owned = source.out_owned;
        self.rr_out.clone_from(&source.rr_out);
        self.rr_alloc = source.rr_alloc;
        self.rr_cycle = source.rr_cycle;
        self.in_occ = source.in_occ;
        self.alloc_epoch = source.alloc_epoch;
        self.vc_busy.clone_from(&source.vc_busy);
        self.nvcs = source.nvcs;
        self.depth = source.depth;
    }
}
