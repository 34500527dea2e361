//! Router state, flat across the whole network: one array per per-VC
//! field, one array of per-port arbitration pointers and one 48-byte
//! header per router.
//!
//! Router `r`'s flat slot `s = port * vcs + vc` lives at index
//! `r * slots + s` of every per-slot array, its output port `p`'s
//! round-robin pointer at `r * ports + p`, and its scalars in header `r`.
//! Every field is as narrow as its values allow (DESIGN.md §13.1 lists
//! each width, its bound and where the bound is enforced), so a 20-slot
//! router with 2-flit buffers takes 853 bytes in release builds.
//! Each pipeline sweep (occupancy walk, route gather, credit check,
//! blocked-timer mark) therefore touches one contiguous array per field,
//! and neighbouring routers sit next to each other. Flit storage is one flat ring
//! (`depth` entries per slot), so block operations — burst extraction
//! runs, the debug shadow snapshot — are plain `memcpy`-shaped moves.
//!
//! [`RouterState`] owns the arrays; [`StateMut`] is a mutable view of
//! them that carries every mutation; [`Router`] is the public read view
//! of one router.

use crate::flit::Flit;
use crate::vc::{OutVc, VcRef};
use mdd_protocol::MsgHandle;
use mdd_topology::PortId;
use std::mem::size_of;

/// `route_port` sentinel: no route allocated.
pub(crate) const NO_ROUTE: u8 = u8::MAX;
/// `blocked` sentinel: the slot's front flit is not (yet) blocked. No
/// cycle reaches it: [`crate::Network::step`] asserts
/// `cycle < u32::MAX`.
pub(crate) const NOT_BLOCKED: u32 = u32::MAX;
/// `stall_epoch` sentinel: no memoized allocation stall. The epoch
/// increment skips it ([`StateMut::release_out`]).
pub(crate) const EPOCH_NONE: u32 = u32::MAX;

/// A ring index `x` with `x < 2 * depth`, reduced into `0..depth`
/// without a division.
#[inline]
fn wrap(x: usize, depth: usize) -> usize {
    if x >= depth {
        x - depth
    } else {
        x
    }
}

/// The per-router scalars: two slot masks and the allocation epoch, 48
/// bytes with the masks' 16-byte alignment.
#[repr(C, align(16))]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Header {
    /// Occupancy bitmask over input-VC slots: bit `s` is set iff slot `s`
    /// buffers at least one flit. Maintained at every flit push, pop and
    /// extraction so the fused pass visits only occupied slots; scanning
    /// set bits in (rotated) ascending order reproduces the dense
    /// full-array scan exactly, because every slot the dense scan would
    /// act on holds at least one flit.
    pub(crate) in_occ: u128,
    /// Validity mask over `out_owner`: bit `s` set iff output VC `s` is
    /// owned by a packet.
    pub(crate) out_owned: u128,
    /// Bumped every time an output VC owner is released (tail passage,
    /// extraction). Validity clock for `stall_epoch`.
    pub(crate) alloc_epoch: u32,
}

/// The state of every router in the network, structure-of-arrays.
#[derive(Clone, Debug, Default)]
pub(crate) struct RouterState {
    /// Flat ring flit storage: global slot `g` owns
    /// `bufs[g*depth .. (g+1)*depth]`.
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
    pub(crate) blocked: Vec<u32>,
    /// Allocation-stall memo: the router's [`Header::alloc_epoch`] at
    /// which this slot's head last found every candidate output VC owned.
    /// While the epoch still matches, the whole candidate recomputation is
    /// skipped — no output VC on this router has been released since, so
    /// the stall outcome is unchanged by construction. Invalidated
    /// ([`EPOCH_NONE`]) whenever the slot's front flit changes.
    pub(crate) stall_epoch: Vec<u32>,
    /// Owner of each output VC — valid only where the router's
    /// [`Header::out_owned`] has the bit set (placeholder handles
    /// elsewhere).
    pub(crate) out_owner: Vec<MsgHandle>,
    /// Credits (free downstream buffer slots) per output VC, at most the
    /// buffer depth.
    pub(crate) out_credits: Vec<u16>,
    /// Busy cycles per output VC slot (network ports only are ever
    /// incremented); at most the cycle count.
    pub(crate) vc_busy: Vec<u32>,
    /// Round-robin pointer per `(router, output port)`, rotating
    /// switch-allocation priority over `(input port, vc)` requesters:
    /// the slot after the last grant, always `< slots`.
    pub(crate) rr_out: Vec<u8>,
    /// Per-router scalars.
    pub(crate) hdr: Vec<Header>,
    /// VC slots per router (`ports * vcs`).
    pub(crate) slots: usize,
    /// Ports per router.
    pub(crate) ports: usize,
    /// Virtual channels per port.
    pub(crate) vcs: u8,
    /// Flit-buffer depth per VC.
    pub(crate) depth: usize,
}

impl RouterState {
    /// Pristine state for `routers` routers of `ports` ports, each with
    /// `vcs` VCs of `buf_depth`-flit buffers: empty buffers, full credits,
    /// nothing routed, owned or blocked.
    pub(crate) fn new(routers: usize, ports: usize, vcs: u8, buf_depth: u32) -> Self {
        let slots = ports * vcs as usize;
        assert!(
            slots <= 128,
            "occupancy bitmask supports at most 128 VC slots per router"
        );
        assert!(
            buf_depth <= u16::MAX as u32,
            "flit buffers deeper than 65535 are unsupported"
        );
        let depth = buf_depth as usize;
        let n = routers * slots;
        let empty = Flit {
            msg: MsgHandle::dangling(),
            seq: 0,
            is_tail: false,
        };
        RouterState {
            bufs: vec![empty; n * depth],
            head: vec![0; n],
            len: vec![0; n],
            route_port: vec![NO_ROUTE; n],
            route_vc: vec![0; n],
            blocked: vec![NOT_BLOCKED; n],
            stall_epoch: vec![EPOCH_NONE; n],
            out_owner: vec![MsgHandle::dangling(); n],
            out_credits: vec![buf_depth as u16; n],
            vc_busy: vec![0; n],
            rr_out: vec![0; routers * ports],
            hdr: vec![Header::default(); routers],
            slots,
            ports,
            vcs,
            depth,
        }
    }

    /// Bytes held by the state arrays — the `router_state_bytes` gauge.
    pub(crate) fn bytes(&self) -> u64 {
        (self.bufs.len() * size_of::<Flit>()
            + self.head.len() * size_of::<u16>()
            + self.len.len() * size_of::<u16>()
            + self.route_port.len()
            + self.route_vc.len()
            + self.blocked.len() * size_of::<u32>()
            + self.stall_epoch.len() * size_of::<u32>()
            + self.out_owner.len() * size_of::<MsgHandle>()
            + self.out_credits.len() * size_of::<u16>()
            + self.vc_busy.len() * size_of::<u32>()
            + self.rr_out.len()
            + self.hdr.len() * size_of::<Header>()) as u64
    }

    /// Global slot `g`'s `k`-th buffered flit (0 = front). Caller
    /// guarantees `k < len[g]`.
    #[inline]
    pub(crate) fn flit_at(&self, g: usize, k: usize) -> Flit {
        debug_assert!(k < self.len[g] as usize);
        self.bufs[g * self.depth + wrap(self.head[g] as usize + k, self.depth)]
    }

    /// A mutable view of every router.
    #[inline]
    pub(crate) fn view(&mut self) -> StateMut<'_> {
        StateMut {
            bufs: &mut self.bufs,
            head: &mut self.head,
            len: &mut self.len,
            route_port: &mut self.route_port,
            route_vc: &mut self.route_vc,
            blocked: &mut self.blocked,
            stall_epoch: &mut self.stall_epoch,
            out_owner: &mut self.out_owner,
            out_credits: &mut self.out_credits,
            vc_busy: &mut self.vc_busy,
            rr_out: &mut self.rr_out,
            hdr: &mut self.hdr,
            slots: self.slots,
            ports: self.ports,
            depth: self.depth,
        }
    }
}

/// A mutable view of every [`RouterState`] array, borrowed field by
/// field so a pass can hold several at once. Every mutation of router
/// state goes through here. The view's slices sit inline in the step's
/// working set, so the hot loops index them without reloading the
/// `Vec` headers through a `&mut RouterState`; passing that reference
/// instead measured 0.96× big64 `work_per_s` (EXPERIMENTS.md, "One
/// network step, measured").
#[derive(Debug)]
pub(crate) struct StateMut<'a> {
    pub(crate) bufs: &'a mut [Flit],
    pub(crate) head: &'a mut [u16],
    pub(crate) len: &'a mut [u16],
    pub(crate) route_port: &'a mut [u8],
    pub(crate) route_vc: &'a mut [u8],
    pub(crate) blocked: &'a mut [u32],
    pub(crate) stall_epoch: &'a mut [u32],
    pub(crate) out_owner: &'a mut [MsgHandle],
    pub(crate) out_credits: &'a mut [u16],
    pub(crate) vc_busy: &'a mut [u32],
    pub(crate) rr_out: &'a mut [u8],
    pub(crate) hdr: &'a mut [Header],
    pub(crate) slots: usize,
    pub(crate) ports: usize,
    pub(crate) depth: usize,
}

impl<'a> StateMut<'a> {
    /// Append an arriving flit to router `r`'s slot `s`. Panics on
    /// overflow — credits must prevent this. Marks occupancy and, when the
    /// buffer was empty (the flit becomes the front), invalidates the
    /// stall memo.
    #[inline]
    pub(crate) fn push_flit(&mut self, r: usize, s: usize, flit: Flit) {
        let g = r * self.slots + s;
        let depth = self.depth;
        let len = self.len[g] as usize;
        assert!(
            len < depth,
            "VC buffer overflow: credit accounting violated"
        );
        self.bufs[g * depth + wrap(self.head[g] as usize + len, depth)] = flit;
        self.len[g] = (len + 1) as u16;
        if len == 0 {
            self.hdr[r].in_occ |= 1 << s;
            self.stall_epoch[g] = EPOCH_NONE;
        }
    }

    /// Remove and return router `r`'s slot `s` front flit. The front
    /// changes, so the stall memo is invalidated; occupancy is re-derived.
    #[inline]
    pub(crate) fn pop_flit(&mut self, r: usize, s: usize) -> Flit {
        let g = r * self.slots + s;
        let depth = self.depth;
        debug_assert!(self.len[g] > 0, "pop from empty VC buffer");
        let h = self.head[g] as usize;
        let flit = self.bufs[g * depth + h];
        self.head[g] = wrap(h + 1, depth) as u16;
        self.len[g] -= 1;
        if self.len[g] == 0 {
            self.hdr[r].in_occ &= !(1 << s);
        }
        self.stall_epoch[g] = EPOCH_NONE;
        flit
    }

    /// Global slot `g`'s `k`-th buffered flit (0 = front), `k < len[g]`.
    #[inline]
    pub(crate) fn flit_at(&self, g: usize, k: usize) -> Flit {
        debug_assert!(k < self.len[g] as usize);
        self.bufs[g * self.depth + wrap(self.head[g] as usize + k, self.depth)]
    }

    /// Remove the contiguous run `[run_start, run_start + run_len)` of
    /// buffered flits from router `r`'s slot `s` in one block operation:
    /// a front run is a head advance, a back run a length cut, and a
    /// middle run one block shift of the tail — never a per-flit `retain`
    /// walk.
    pub(crate) fn remove_run(&mut self, r: usize, s: usize, run_start: usize, run_len: usize) {
        let g = r * self.slots + s;
        let depth = self.depth;
        let len = self.len[g] as usize;
        let h = self.head[g] as usize;
        debug_assert!(run_len > 0 && run_start + run_len <= len);
        if run_start == 0 {
            // Front run: advance the ring head, no data movement.
            self.head[g] = wrap(h + run_len, depth) as u16;
        } else {
            // Shift the tail of the FIFO over the removed run (a no-op for
            // a back run: the loop body never executes).
            for k in run_start..(len - run_len) {
                let src = g * depth + wrap(h + k + run_len, depth);
                let dst = g * depth + wrap(h + k, depth);
                self.bufs[dst] = self.bufs[src];
            }
        }
        self.len[g] = (len - run_len) as u16;
        if self.len[g] == 0 {
            self.hdr[r].in_occ &= !(1 << s);
        }
        self.stall_epoch[g] = EPOCH_NONE;
    }

    /// True if router `r`'s output VC `s` is unowned (a new packet may
    /// allocate it).
    #[inline]
    pub(crate) fn out_free(&self, r: usize, s: usize) -> bool {
        self.hdr[r].out_owned >> s & 1 == 0
    }

    /// Record `h` as the owner of router `r`'s output VC `s`.
    #[inline]
    pub(crate) fn own_out(&mut self, r: usize, s: usize, h: MsgHandle) {
        self.out_owner[r * self.slots + s] = h;
        self.hdr[r].out_owned |= 1 << s;
    }

    /// Release router `r`'s output VC `s`. Advances the allocation epoch:
    /// a freed output VC is the only event that can turn a previously
    /// stalled allocation into a success, so every memoized stall on this
    /// router expires here.
    ///
    /// The epoch is 32 bits and wraps, skipping [`EPOCH_NONE`]. Wrap-around
    /// cannot alias a stale memo: a memo lives only while its slot holds
    /// flits, a router holding flits stays on the wake set, and the fused
    /// pass re-checks every memo on every cycle, re-arming it at the
    /// current epoch after each full attempt. Between two checks a router
    /// releases each output VC at most once (owning it again takes a
    /// pass), so the epoch advances by at most `slots ≤ 128` — far fewer
    /// than the 2³² − 1 releases a repeated value needs.
    #[inline]
    pub(crate) fn release_out(&mut self, r: usize, s: usize) {
        let hdr = &mut self.hdr[r];
        hdr.out_owned &= !(1 << s);
        hdr.alloc_epoch = hdr.alloc_epoch.wrapping_add(1);
        if hdr.alloc_epoch == EPOCH_NONE {
            hdr.alloc_epoch = 0;
        }
    }
}

/// Read view of one wormhole router: `ports` input ports and output
/// ports, each with `vcs` virtual channels. Public read access to its
/// VCs goes through the [`VcRef`] / [`OutVc`] views:
///
/// ```
/// use mdd_router::Network;
/// use mdd_topology::{NodeId, PortId, Topology};
///
/// let net = Network::new(Topology::new(&[4, 4], 1), 2, 2);
/// let r = net.router(NodeId(0));
/// assert_eq!(r.ports(), 5);
/// assert_eq!(r.vcs(), 2);
/// let vc = r.vc(PortId(3), 1);
/// assert_eq!(vc.capacity(), 2);
/// assert_eq!(vc.len(), 0);
/// assert!(vc.front().is_none() && vc.route().is_none());
/// let ovc = r.out_vc(PortId(3), 1);
/// assert!(ovc.is_free());
/// assert_eq!(ovc.credits, 2);
/// ```
#[derive(Clone, Copy)]
pub struct Router<'a> {
    pub(crate) st: &'a RouterState,
    pub(crate) r: usize,
}

impl std::fmt::Debug for Router<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("index", &self.r)
            .field("buffered_flits", &self.buffered_flits())
            .finish()
    }
}

impl<'a> Router<'a> {
    /// Number of ports.
    #[inline]
    pub fn ports(&self) -> usize {
        self.st.ports
    }

    /// Virtual channels per port.
    #[inline]
    pub fn vcs(&self) -> u8 {
        self.st.vcs
    }

    /// Flit-buffer depth per VC.
    #[inline]
    pub fn buf_depth(&self) -> u32 {
        self.st.depth as u32
    }

    /// Global index of `(port, vc)` into the flat per-slot arrays.
    #[inline]
    fn global_slot(&self, port: PortId, vc: u8) -> usize {
        self.r * self.st.slots + port.index() * self.st.vcs as usize + vc as usize
    }

    /// Read view of an input VC.
    ///
    /// ```
    /// use mdd_router::Network;
    /// use mdd_topology::{NodeId, PortId, Topology};
    /// let net = Network::new(Topology::new(&[4, 4], 1), 2, 2);
    /// let r = net.router(NodeId(5));
    /// assert!(r.vc(PortId(2), 0).front().is_none());
    /// assert_eq!(r.vc(PortId(2), 0).blocked_since(), None);
    /// ```
    #[inline]
    pub fn vc(&self, port: PortId, vc: u8) -> VcRef<'a> {
        VcRef::new(*self, self.global_slot(port, vc))
    }

    /// Snapshot of an output VC's state (owner and credits).
    ///
    /// ```
    /// use mdd_router::Network;
    /// use mdd_topology::{NodeId, PortId, Topology};
    /// let net = Network::new(Topology::new(&[4, 4], 1), 2, 2);
    /// let r = net.router(NodeId(5));
    /// let out = r.out_vc(PortId(1), 1);
    /// assert!(out.is_free());                  // no wormhole holds it yet
    /// assert_eq!(out.credits, r.buf_depth());  // downstream buffer empty
    /// ```
    #[inline]
    pub fn out_vc(&self, port: PortId, vc: u8) -> OutVc {
        let g = self.global_slot(port, vc);
        OutVc {
            owner: if self.st.hdr[self.r].out_owned >> (g - self.r * self.st.slots) & 1 == 0 {
                None
            } else {
                Some(self.st.out_owner[g])
            },
            credits: u32::from(self.st.out_credits[g]),
        }
    }

    /// Total buffered flits across all input VCs.
    pub fn buffered_flits(&self) -> u32 {
        let base = self.r * self.st.slots;
        self.st.len[base..base + self.st.slots]
            .iter()
            .map(|&l| l as u32)
            .sum()
    }

    /// Iterate `(port, vc_index, vc view)` over all input VCs.
    ///
    /// ```
    /// use mdd_router::Network;
    /// use mdd_topology::{NodeId, Topology};
    /// // A 1-D ring: 2 network ports + 1 local port, 4 VCs each.
    /// let net = Network::new(Topology::new(&[4], 1), 4, 2);
    /// let r = net.router(NodeId(0));
    /// assert_eq!(r.iter_vcs().count(), 3 * 4); // every (port, vc) slot
    /// assert!(r.iter_vcs().all(|(_, _, vc)| vc.is_empty()));
    /// ```
    pub fn iter_vcs(&self) -> impl Iterator<Item = (PortId, u8, VcRef<'a>)> {
        let me = *self;
        let nvcs = self.st.vcs as usize;
        let base = self.r * self.st.slots;
        (0..self.st.slots).map(move |i| {
            (
                PortId((i / nvcs) as u8),
                (i % nvcs) as u8,
                VcRef::new(me, base + i),
            )
        })
    }

    /// Iterate [`Router::iter_vcs`]'s items over the input VCs that hold
    /// a flit only, in the same order, read off the occupancy mask: an
    /// empty router costs one word test.
    ///
    /// ```
    /// use mdd_router::Network;
    /// use mdd_topology::{NodeId, Topology};
    /// let net = Network::new(Topology::new(&[4], 1), 4, 2);
    /// assert_eq!(net.router(NodeId(0)).occupied_vcs().count(), 0);
    /// ```
    pub fn occupied_vcs(&self) -> impl Iterator<Item = (PortId, u8, VcRef<'a>)> {
        let me = *self;
        let nvcs = self.st.vcs as usize;
        let base = self.r * self.st.slots;
        let mut occ = self.st.hdr[self.r].in_occ;
        std::iter::from_fn(move || {
            (occ != 0).then(|| {
                let i = occ.trailing_zeros() as usize;
                occ &= occ - 1;
                (
                    PortId((i / nvcs) as u8),
                    (i % nvcs) as u8,
                    VcRef::new(me, base + i),
                )
            })
        })
    }
}
