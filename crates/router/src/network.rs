//! The network: all routers, links, and the per-cycle pipeline.
//!
//! ## Link wiring convention
//!
//! Output port `(d, dir)` of router `R` connects to input port
//! `(d, dir.opposite())` of `neighbor(R, d, dir)`, at the same virtual
//! channel index. An input port named `(d, Minus)` therefore carries
//! traffic flowing in the `Plus` direction ("arriving from the Minus
//! side").
//!
//! ## Cycle structure (one [`Network::step`])
//!
//! Semantically, a cycle consists of four phases — (1) route computation &
//! VC allocation, (2) switch allocation, (3) link traversal, (4) the
//! blocked-timer sweep — with every decision in phases 1–2 observing
//! start-of-cycle state, so a flit advances at most one hop per cycle.
//!
//! Mechanically, phases 1, 2 and 4 are *fused* into one pass over each
//! woken router's occupancy bitmask (`ShardTask::router_pass`), and
//! phase 3 applies the granted moves afterwards. The fusion is exact
//! because phase-1/2 mutations are router-local (routes, output-VC
//! ownership), credits are only mutated in phase 3, and switch grants pick
//! the minimum round-robin rank — a function of the request *set*, not of
//! the order requests were gathered in. The blocked-timer outcome of the
//! trailing sweep is reproduced by marking occupied slots before moves and
//! patching the moved/arrived slots during phase 3 (see
//! `ShardTask::apply_moves`). In debug builds every cycle is re-executed
//! by a literal four-phase reference implementation on a snapshot and the
//! two end states are compared array by array.
//!
//! ## One pipeline, any number of shards
//!
//! There is one implementation of that pass. [`Network::step_sharded`]
//! runs it over the router ranges of a [`ShardPlan`], one shard per
//! worker thread; [`Network::step`] is the one-shard case on the calling
//! thread, where every credit, arrival and wake lands inside the shard
//! and the cross-shard mailboxes stay empty.

use crate::flit::{Flit, PacketState, PacketTable};
use crate::router::{split_off, Router, RouterState, StateMut, NOT_BLOCKED, NO_ROUTE};
use crate::traits::{EjectControl, RouteCandidate, Routing};
use mdd_obs::CounterId;
use mdd_protocol::{Message, MsgHandle};
use mdd_topology::{NicId, NodeId, PortId, Topology};
use std::sync::Arc;

/// Aggregate transport counters.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct NetworkCounters {
    /// Total flit-hops (including ejection hops).
    pub flits_moved: u64,
    /// Flits delivered to endpoints.
    pub flits_delivered: u64,
    /// Complete packets delivered to endpoints.
    pub packets_delivered: u64,
    /// Packets registered for injection.
    pub packets_injected: u64,
    /// Flits accepted from endpoints into injection buffers.
    pub flits_injected: u64,
}

/// A packet removed from normal virtual-channel resources for progressive
/// recovery over the deadlock-buffer lane.
#[derive(Clone, Copy, Debug)]
pub struct ExtractedPacket {
    /// Handle of the message being rescued (still owned by the store).
    pub msg: MsgHandle,
    /// Router where the head flit was found (the rescue starting point);
    /// the source NIC's router if the head had not yet entered the network.
    pub head_router: NodeId,
    /// Flits reclaimed from network buffers.
    pub flits_in_network: u32,
    /// Original injection cycle.
    pub injected_at: u64,
}

#[derive(Clone, Copy, Debug)]
struct Move {
    router: u32,
    in_port: u8,
    in_vc: u8,
    out_port: u8,
    out_vc: u8,
}

/// Precomputed link wiring, replacing per-flit topology arithmetic
/// (`port_dim_dir` / `neighbor` / `port` / `nic_at` calls) in the traversal
/// phase with flat array loads.
#[derive(Debug)]
struct Links {
    ports: usize,
    /// Per `(router, port)`: the router on the other end of this port's
    /// link — the downstream router when used as an output, the upstream
    /// router when used as an input. `u32::MAX` for local ports and absent
    /// mesh boundary links.
    nbr: Vec<u32>,
    /// Per port: the opposite-direction port index (the paired port at the
    /// neighbor, identical for every router). `u8::MAX` for local ports.
    opp: Vec<u8>,
    /// Per `(router, port)`: the `crossed_dateline` bit a head flit picks
    /// up crossing this output link; 0 when it is not a dateline crossing.
    dateline: Vec<u8>,
    /// Per `(router, port)`: NIC id behind a local port, `u32::MAX`
    /// otherwise.
    nic: Vec<u32>,
}

impl Links {
    fn build(topo: &Topology) -> Self {
        let ports = topo.ports_per_router();
        let n = topo.num_routers() as usize;
        let mut links = Links {
            ports,
            nbr: vec![u32::MAX; n * ports],
            opp: vec![u8::MAX; ports],
            dateline: vec![0; n * ports],
            nic: vec![u32::MAX; n * ports],
        };
        for p in 0..ports {
            let pid = PortId(p as u8);
            match topo.port_dim_dir(pid) {
                Some((d, dir)) => {
                    links.opp[p] = topo.port(d, dir.opposite()).0;
                    for r in 0..n {
                        let node = NodeId(r as u32);
                        if let Some(nb) = topo.neighbor(node, d, dir) {
                            links.nbr[r * ports + p] = nb.0;
                        }
                        if topo.crosses_dateline(node, d, dir) {
                            links.dateline[r * ports + p] = 1 << d;
                        }
                    }
                }
                None => {
                    let local = topo
                        .port_local_index(pid)
                        .expect("port is network or local");
                    for r in 0..n {
                        links.nic[r * ports + p] = topo.nic_at(NodeId(r as u32), local).0;
                    }
                }
            }
        }
        links
    }
}

/// Put router `r` on a wake-set: its bit in `bits`, whose first word is
/// global word `word_base`.
#[inline]
fn set_wake(bits: &mut [u64], word_base: usize, r: usize) {
    bits[(r >> 6) - word_base] |= 1 << (r & 63);
}

/// The full network of wormhole routers.
#[derive(Debug)]
pub struct Network {
    topo: Topology,
    vcs: u8,
    buf_depth: u32,
    /// Every router's state, flat: one network-wide array per per-VC
    /// field, indexed `router * slots + slot`, built pristine up front.
    state: RouterState,
    packets: PacketTable,
    counters: NetworkCounters,
    /// Per-port flag: true for network (inter-router) ports, false for
    /// local (NIC) ports — a lookup for the hot loops, identical for
    /// every router.
    net_port: Vec<bool>,
    links: Links,
    /// Per NIC: `(router index, flat slot base)` of its injection port —
    /// the per-flit injection path resolves no topology arithmetic.
    nic_slot: Vec<(u32, u16)>,
    /// Per slot: its switch-request chain entry, the slot's input port in
    /// the high byte and the slot index in the low byte (see
    /// [`PassScratch::req_head`]) — identical for every router, so the
    /// fused pass divides nothing.
    chain: Vec<u16>,
    /// Activity wake-set: one bit per router due for processing at the
    /// next [`Network::step`]. A router is woken by flit arrival, credit
    /// return, local injection, or a recovery-lane extraction, and
    /// re-arms itself while it holds flits; everything else is skipped by
    /// the whole pipeline. Bits deduplicate for free, and draining
    /// the words in ascending order yields routers ascending — the dense
    /// 0..N sweep order — without a sort.
    active_bits: Vec<u64>,
    /// This step's worklist (previous cycle's wake-set, ascending so the
    /// scan order matches the dense 0..N sweep bit-exactly).
    worklist: Vec<u32>,
    /// Bitmask copy of the worklist, used by the traversal phase to decide
    /// whether an arriving flit lands at a router the blocked-timer sweep
    /// of this cycle would have covered.
    cur_mask: Vec<u64>,
    /// Buffered flits per router — O(1) occupancy queries for the
    /// quiescence check and the blocked-head sweep's empty-router
    /// early-out.
    router_flits: Vec<u32>,
    /// Per-shard scratch for [`Network::step_sharded`] (sized to the
    /// plan on first use): candidate/move buffers, switch-request chains,
    /// outgoing mailboxes and per-cycle deltas, kept across cycles so the
    /// steady state allocates nothing.
    shard_scratch: Vec<ShardScratch>,
    /// The one-shard plan [`Network::step`] runs under (shared, so the
    /// step can borrow it alongside `&mut self`).
    unit_plan: Arc<ShardPlan>,
    #[cfg(debug_assertions)]
    shadow: shadow::Scratch,
}

impl Network {
    /// Build a network over `topo` with `vcs` virtual channels per port and
    /// `buf_depth` flit buffers per VC.
    pub fn new(topo: Topology, vcs: u8, buf_depth: u32) -> Self {
        assert!(vcs >= 1, "need at least one virtual channel");
        assert!(buf_depth >= 1, "need at least one flit buffer per VC");
        let ports = topo.ports_per_router();
        let n = topo.num_routers() as usize;
        let state = RouterState::new(n, ports, vcs, buf_depth);
        let net_port = (0..ports)
            .map(|p| topo.port_dim_dir(PortId(p as u8)).is_some())
            .collect();
        let links = Links::build(&topo);
        let nic_slot = (0..topo.num_nics())
            .map(|i| {
                let nic = NicId(i);
                let router = topo.nic_router(nic);
                let port = topo.local_port(topo.nic_local_index(nic));
                (router.0, (port.index() * vcs as usize) as u16)
            })
            .collect();
        let chain = (0..state.slots)
            .map(|s| ((s / vcs as usize) << 8 | s) as u16)
            .collect();
        Network {
            topo,
            vcs,
            buf_depth,
            state,
            packets: PacketTable::new(),
            counters: NetworkCounters::default(),
            net_port,
            links,
            nic_slot,
            chain,
            active_bits: vec![0; n.div_ceil(64)],
            worklist: Vec::with_capacity(n),
            cur_mask: vec![0; n.div_ceil(64)],
            router_flits: vec![0; n],
            shard_scratch: Vec::new(),
            unit_plan: Arc::new(ShardPlan::new(n as u32, 1)),
            #[cfg(debug_assertions)]
            shadow: shadow::Scratch::default(),
        }
    }

    /// Put router `r` on the wake-set for the next step.
    #[inline]
    fn wake(&mut self, r: usize) {
        set_wake(&mut self.active_bits, 0, r);
    }

    /// Routers currently on the wake-set (the ones the next step will
    /// process) — the `active_routers` observability gauge.
    #[inline]
    pub fn active_routers(&self) -> usize {
        self.active_bits
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Number of routers whose state is resident — the
    /// `routers_materialized` observability gauge. Router state is built
    /// for the whole network up front, so this is every router.
    #[inline]
    pub fn routers_materialized(&self) -> u64 {
        self.router_flits.len() as u64
    }

    /// Bytes held by the flat router state arrays — the
    /// `router_state_bytes` observability gauge. Fixed at construction.
    #[inline]
    pub fn router_state_bytes(&self) -> u64 {
        self.state.bytes()
    }

    /// The topology.
    #[inline]
    pub fn topo(&self) -> &Topology {
        &self.topo
    }

    /// Virtual channels per port.
    #[inline]
    pub fn vcs(&self) -> u8 {
        self.vcs
    }

    /// Flit buffers per VC.
    #[inline]
    pub fn buf_depth(&self) -> u32 {
        self.buf_depth
    }

    /// Transport counters so far.
    #[inline]
    pub fn counters(&self) -> NetworkCounters {
        self.counters
    }

    /// Read view of a router.
    #[inline]
    pub fn router(&self, node: NodeId) -> Router<'_> {
        let r = node.index();
        assert!(r < self.router_flits.len(), "router {node} out of range");
        Router { st: &self.state, r }
    }

    /// The in-flight packet table.
    #[inline]
    pub fn packets(&self) -> &PacketTable {
        &self.packets
    }

    /// Total flits currently buffered in the network. O(routers): sums the
    /// per-router occupancy counters instead of walking every VC buffer.
    pub fn flits_in_network(&self) -> u64 {
        self.router_flits.iter().map(|&c| c as u64).sum()
    }

    /// Register a packet about to be injected by `msg.src`'s NIC. The
    /// message stays in the store; routing-relevant fields are cached in
    /// the packet table entry.
    pub fn begin_packet(&mut self, h: MsgHandle, msg: &Message, now: u64) {
        let dst_router = self.topo.nic_router(msg.dst);
        self.packets.insert(PacketState {
            msg: h,
            mtype: msg.mtype,
            src: msg.src,
            dst: msg.dst,
            dst_router,
            crossed_dateline: 0,
            injected_at: now,
        });
        self.counters.packets_injected += 1;
    }

    /// Free flit slots in the injection buffer (local input VC `vc` of
    /// `nic`'s router).
    #[inline]
    pub fn injection_free(&self, nic: NicId, vc: u8) -> u32 {
        let g = self.injection_slot(nic, vc);
        self.buf_depth - self.state.len[g] as u32
    }

    /// Global slot index of injection VC `vc` of `nic`.
    #[inline]
    fn injection_slot(&self, nic: NicId, vc: u8) -> usize {
        let (r, base) = self.nic_slot[nic.index()];
        r as usize * self.state.slots + base as usize + vc as usize
    }

    /// True if injection VC `vc` of `nic` is between packets (its last
    /// buffered flit, if any, is a tail) — a new packet's head may enter.
    #[inline]
    pub fn injection_vc_idle(&self, nic: NicId, vc: u8) -> bool {
        let g = self.injection_slot(nic, vc);
        let len = self.state.len[g] as usize;
        len == 0 || self.state.flit_at(g, len - 1).is_tail
    }

    /// Push one flit from `nic` into injection VC `vc`. Returns false
    /// (without effect) when the buffer is full. Wakes the router: local
    /// injection precedes [`Network::step`] within a cycle, so the flit is
    /// routable this very cycle, exactly as under the dense scan.
    pub fn inject_flit(&mut self, nic: NicId, vc: u8, flit: Flit) -> bool {
        let (r, base) = self.nic_slot[nic.index()];
        let ri = r as usize;
        let slot = base as usize + vc as usize;
        if self.state.len[ri * self.state.slots + slot] as u32 >= self.buf_depth {
            return false;
        }
        self.state.view().push_flit(ri, slot, flit);
        self.router_flits[ri] += 1;
        self.counters.flits_injected += 1;
        self.wake(ri);
        true
    }

    /// Advance the network one cycle on the calling thread, with `ej` as
    /// the endpoint controller: [`Network::step_sharded`] over a one-shard
    /// plan.
    pub fn step<E>(&mut self, cycle: u64, routing: &(dyn Routing + Sync), ej: &mut E)
    where
        E: EjectControl + Send + ?Sized,
    {
        let plan = Arc::clone(&self.unit_plan);
        self.step_sharded(cycle, routing, &plan, std::iter::once(ej));
    }

    /// Advance the network one cycle with the per-cycle work partitioned
    /// across `plan.shards()` scoped worker threads — bit-identical at
    /// any shard count.
    ///
    /// Panics unless `cycle < u32::MAX`: the blocked timers hold cycles
    /// in 32 bits with `u32::MAX` as their "not blocked" sentinel.
    ///
    /// Only routers on the wake-list are processed; the rest hold no
    /// flits (checked by a dense sweep in debug builds), every phase is a
    /// no-op on them, and skipping changes nothing observable. The worklist is
    /// ascending so grant and move ordering match the dense 0..N scan
    /// bit-exactly.
    ///
    /// Each shard runs the fused pass over its slice of the worklist,
    /// then applies its own moves; effects landing in another shard's
    /// router range (credit returns, flit arrivals, wakes) are buffered
    /// into per-(src, dst) mailboxes and drained at the cycle barrier in
    /// fixed (src, dst) order, and packet-table mutations are deferred
    /// the same way. `ejs` yields one endpoint controller per shard, in
    /// shard order; ejection for a router always lands in its owning
    /// shard's controller, so controllers never race. Debug builds
    /// re-execute the cycle with the phased reference pipeline on a
    /// snapshot and compare the end states, with the per-shard endpoint
    /// logs merged in the reference's call order.
    pub fn step_sharded<E: EjectControl + Send>(
        &mut self,
        cycle: u64,
        routing: &(dyn Routing + Sync),
        plan: &ShardPlan,
        ejs: impl IntoIterator<Item = E>,
    ) {
        assert!(
            cycle < u64::from(NOT_BLOCKED),
            "cycle {cycle} past the 32-bit blocked-timer range"
        );
        let n = self.router_flits.len();
        assert_eq!(
            plan.num_routers() as usize,
            n,
            "shard plan covers a different network"
        );
        self.drain_wake_set();
        mdd_obs::counter_add(
            CounterId::RouterTicksSkipped,
            (n - self.worklist.len()) as u64,
        );
        mdd_obs::counter_add(CounterId::FusedPassRouters, self.worklist.len() as u64);
        #[cfg(not(debug_assertions))]
        self.run_shards(cycle, routing, plan, ejs);
        #[cfg(debug_assertions)]
        {
            self.skipped_router_check(cycle);
            let mut scratch = std::mem::take(&mut self.shadow);
            scratch.snapshot(self);
            let mut recs: Vec<shadow::ShardRecordEj<E>> =
                ejs.into_iter().map(shadow::ShardRecordEj::new).collect();
            self.run_shards(cycle, routing, plan, recs.iter_mut());
            // Merge the per-shard endpoint logs into the reference's
            // order: every allocation pass precedes every traversal in
            // the reference, and shards are ascending contiguous router
            // ranges — so all accepts in shard order, then all
            // deliveries in shard order, is exactly its call sequence.
            scratch.ej_log.clear();
            for rec in &recs {
                scratch.ej_log.extend_from_slice(&rec.accepts);
            }
            for rec in &recs {
                scratch.ej_log.extend_from_slice(&rec.delivers);
            }
            scratch.run_reference_and_compare(self, cycle, routing);
            self.shadow = scratch;
        }
        // Re-arm: a router still holding flits schedules itself for the
        // next cycle, so it stays on the wake set exactly while it holds
        // flits. A flit-less router is a no-op for every phase even
        // mid-packet (owned or under-credited output VCs included); every
        // event that gives it work (flit arrival, credit return,
        // injection, ownership release by rescue) wakes it explicitly.
        for wi in 0..self.worklist.len() {
            let r = self.worklist[wi] as usize;
            if self.router_flits[r] > 0 {
                self.wake(r);
            }
        }
    }

    /// Drain the wake set into this cycle's worklist and arrival mask:
    /// words ascending, bits within each word ascending — the dense 0..N
    /// router order.
    fn drain_wake_set(&mut self) {
        self.worklist.clear();
        let words = self.cur_mask.iter_mut().zip(&mut self.active_bits);
        for (wi, (cur, bits)) in words.enumerate() {
            let mut w = std::mem::take(bits);
            *cur = w;
            let base = (wi * 64) as u32;
            while w != 0 {
                self.worklist.push(base + w.trailing_zeros());
                w &= w - 1;
            }
        }
    }

    /// The parallel phase plus barrier drain of one cycle.
    fn run_shards<E: EjectControl + Send>(
        &mut self,
        cycle: u64,
        routing: &(dyn Routing + Sync),
        plan: &ShardPlan,
        ejs: impl IntoIterator<Item = E>,
    ) {
        let nshards = plan.shards();
        if self.shard_scratch.len() != nshards {
            self.shard_scratch = (0..nshards).map(|_| ShardScratch::new(nshards)).collect();
        }
        let Network {
            topo,
            vcs,
            buf_depth,
            net_port,
            links,
            chain,
            packets,
            counters,
            cur_mask,
            state,
            router_flits,
            active_bits,
            worklist,
            shard_scratch,
            ..
        } = self;
        {
            let shared = StepShared {
                topo,
                vcs: *vcs,
                buf_depth: *buf_depth,
                net_port,
                links,
                chain,
                packets,
                cur_mask,
                plan,
            };
            // Split every per-router array into the shards' disjoint
            // ranges, lazily: the one-shard case runs inline on this
            // thread without collecting anything.
            let mut st = state.view();
            let mut router_flits: &mut [u32] = router_flits;
            let mut bits: &mut [u64] = active_bits;
            let mut worklist: &[u32] = worklist;
            let mut ejs = ejs.into_iter();
            let total_words = bits.len();
            let mut word_lo = 0usize;
            let tasks = shard_scratch.iter_mut().enumerate().map(|(s, sc)| {
                let (lo, hi) = plan.range(s);
                let cnt = (hi - lo) as usize;
                // Interior bounds are either stride-aligned (whole words)
                // or clamped to `num_routers` mid-word; in the clamped
                // case every later shard is empty, so the covering word
                // belongs to this shard and rounding *up* is safe.
                let word_hi = if s + 1 == nshards {
                    total_words
                } else {
                    (hi as usize).div_ceil(64).min(total_words)
                };
                let words = word_hi - word_lo;
                let split = worklist.partition_point(|&r| r < hi);
                let (wl, rest) = worklist.split_at(split);
                worklist = rest;
                let task = ShardTask {
                    lo,
                    hi,
                    word_base: word_lo,
                    st: st.split_off(cnt),
                    router_flits: split_off(&mut router_flits, cnt),
                    active_bits: split_off(&mut bits, words),
                    worklist: wl,
                    ej: ejs.next().expect("one endpoint controller per shard"),
                    sc,
                };
                word_lo = word_hi;
                task
            });
            rayon::scope_map(tasks, |t| t.run(&shared, cycle, routing));
        }
        // Barrier. Mailboxes drain in fixed (src, dst) order; every
        // effect touches a distinct (router, slot) cell this cycle, so
        // the order is belt-and-braces determinism, not a correctness
        // requirement. Packet-table events follow in (shard, move) order
        // — the traversal's own mutation order.
        let mut obs = ObsDeltas::default();
        let mut mailbox_effects = 0u64;
        let mut st = state.view();
        for sc in shard_scratch.iter_mut() {
            for mail in &mut sc.mail {
                mailbox_effects += mail.len() as u64;
                for eff in mail.drain(..) {
                    match eff {
                        CrossEffect::Credit { router, slot } => {
                            let r = router as usize;
                            let g = r * st.slots + slot as usize;
                            st.out_credits[g] += 1;
                            debug_assert!(u32::from(st.out_credits[g]) <= *buf_depth);
                            set_wake(active_bits, 0, r);
                        }
                        CrossEffect::Arrival { router, slot, flit } => {
                            let (r, slot) = (router as usize, slot as usize);
                            st.push_flit(r, slot, flit);
                            let g = r * st.slots + slot;
                            if cur_mask[r >> 6] >> (r & 63) & 1 == 1 && st.blocked[g] == NOT_BLOCKED
                            {
                                st.blocked[g] = cycle as u32;
                            }
                            router_flits[r] += 1;
                            set_wake(active_bits, 0, r);
                        }
                    }
                }
            }
            for ev in sc.pk.drain(..) {
                match ev {
                    PkEvent::Dateline { msg, mask } => match packets.get_mut(msg) {
                        Some(st) => st.crossed_dateline |= mask,
                        None => debug_assert!(false, "dateline hop by unregistered packet"),
                    },
                    PkEvent::Delivered { msg } => {
                        let st = packets.remove(msg);
                        debug_assert!(st.is_some(), "delivered packet must be registered");
                    }
                }
            }
            // Per-shard deltas merge here, published once — the hot
            // loops stay free of shared-counter traffic.
            let c = std::mem::take(&mut sc.counters);
            counters.flits_moved += c.flits_moved;
            counters.flits_delivered += c.flits_delivered;
            counters.packets_delivered += c.packets_delivered;
            obs.merge(std::mem::take(&mut sc.obs));
        }
        mdd_obs::counter_add(CounterId::FlitsRouted, obs.routed);
        mdd_obs::counter_add(CounterId::VcAllocs, obs.allocs);
        mdd_obs::counter_add(CounterId::VcStalls, obs.stalls);
        mdd_obs::counter_add(CounterId::LinkBurstFlits, obs.burst_flits);
        mdd_obs::counter_add(CounterId::ShardMailboxFlits, mailbox_effects);
        mdd_obs::counter_add(
            CounterId::ShardBarrierWaits,
            (nshards as u64).saturating_sub(1),
        );
    }

    /// Debug-only: every router the activity scheduler is about to skip
    /// must hold no flits — the state on which the whole pipeline is a
    /// no-op — and the per-router flit counters and occupancy masks must
    /// agree with the buffers.
    #[cfg(debug_assertions)]
    fn skipped_router_check(&self, cycle: u64) {
        let st = &self.state;
        for r in 0..self.router_flits.len() {
            let base = r * st.slots;
            let len = &st.len[base..base + st.slots];
            let blocked = &st.blocked[base..base + st.slots];
            debug_assert_eq!(
                self.router_flits[r],
                len.iter().map(|&l| u32::from(l)).sum::<u32>(),
                "router {r}: flit counter out of sync at cycle {cycle}"
            );
            for (s, &l) in len.iter().enumerate() {
                debug_assert_eq!(
                    st.hdr[r].in_occ >> s & 1 == 1,
                    l > 0,
                    "router {r}: occupancy bit {s} out of sync at cycle {cycle}"
                );
            }
            if self.worklist.binary_search(&(r as u32)).is_ok() {
                continue;
            }
            // A skipped router holds no flits: a flit-holding router
            // re-arms every cycle, and every event that hands a router a
            // flit wakes it. An empty VC may keep its route mid-packet
            // (the flits seen so far moved on, the rest are still upstream
            // or at the source NIC), but no timer runs on it.
            for s in 0..st.slots {
                debug_assert!(
                    len[s] == 0 && blocked[s] == NOT_BLOCKED,
                    "router {r}: skipped with VC {s} occupied or timed at cycle {cycle}"
                );
            }
        }
    }

    /// Collect into `out` the packets whose head flit has been blocked at
    /// router `node` for at least `threshold` cycles as of `now`,
    /// slot-ascending — the candidates for Disha router-side token capture
    /// at a token stop. `out` is cleared first; callers keep a scratch
    /// vector so the periodic detector sweep allocates nothing in steady
    /// state.
    pub fn blocked_heads_at(
        &self,
        node: NodeId,
        threshold: u64,
        now: u64,
        out: &mut Vec<(NodeId, MsgHandle)>,
    ) {
        out.clear();
        let r = node.index();
        if threshold == 0 || self.router_flits[r] == 0 {
            return;
        }
        let st = &self.state;
        let mut occ = st.hdr[r].in_occ;
        while occ != 0 {
            let g = r * st.slots + occ.trailing_zeros() as usize;
            occ &= occ - 1;
            let f = st.flit_at(g, 0);
            if f.is_head()
                && st.blocked[g] != NOT_BLOCKED
                && now.saturating_sub(u64::from(st.blocked[g])) >= threshold
            {
                out.push((node, f.msg));
            }
        }
    }

    /// Remove every buffered flit of packet `id` from the network,
    /// releasing virtual-channel ownership and restoring upstream credits,
    /// in preparation for recovery-lane transport. Returns `None` if the
    /// packet is unknown (already delivered).
    ///
    /// A packet's flits in any one VC buffer form one contiguous run
    /// (wormhole flow control never interleaves packets within a VC), so
    /// each buffer is reclaimed by a single block move and its upstream
    /// credits are returned in one batch — the burst path of the data
    /// plane, counted by `link_burst_flits`.
    pub fn extract_packet(&mut self, h: MsgHandle) -> Option<ExtractedPacket> {
        let st = self.packets.remove(h)?;
        let mut flits_removed = 0u32;
        let mut burst_flits = 0u64;
        let mut head_router = None;
        let nvcs = self.vcs as usize;
        let Network {
            state,
            links,
            net_port,
            router_flits,
            active_bits,
            buf_depth,
            ..
        } = self;
        let ports = links.ports;
        let mut s = state.view();
        for (r, flits) in router_flits.iter_mut().enumerate() {
            let base = r * s.slots;
            let mut removed_here = 0u32;
            let mut occ = if *flits > 0 { s.hdr[r].in_occ } else { 0 };
            while occ != 0 {
                let slot = occ.trailing_zeros() as usize;
                occ &= occ - 1;
                let g = base + slot;
                // Locate the packet's contiguous run in this buffer.
                let len = s.len[g] as usize;
                let mut run_start = len;
                let mut run_len = 0usize;
                let mut had_head = false;
                for k in 0..len {
                    let f = s.flit_at(g, k);
                    if f.msg == h {
                        if run_len == 0 {
                            run_start = k;
                        }
                        debug_assert_eq!(
                            run_start + run_len,
                            k,
                            "a packet's flits must be contiguous within a VC"
                        );
                        run_len += 1;
                        had_head |= f.is_head();
                    }
                }
                if run_len == 0 {
                    continue;
                }
                s.remove_run(r, slot, run_start, run_len);
                if run_start == 0 {
                    s.route_port[g] = NO_ROUTE;
                    s.blocked[g] = NOT_BLOCKED;
                }
                flits_removed += run_len as u32;
                removed_here += run_len as u32;
                burst_flits += run_len as u64;
                if had_head {
                    head_router = Some(NodeId(r as u32));
                }
                // Restore upstream credits for the freed slots in one
                // batch.
                let p = slot / nvcs;
                if net_port[p] {
                    let up = links.nbr[r * ports + p] as usize;
                    let up_g = up * s.slots + links.opp[p] as usize * nvcs + slot % nvcs;
                    s.out_credits[up_g] += run_len as u16;
                    debug_assert!(u32::from(s.out_credits[up_g]) <= *buf_depth);
                    set_wake(active_bits, 0, up);
                }
            }
            *flits -= removed_here;
            // Release any output VCs the packet held (it can hold one at a
            // router it no longer buffers flits in — the wormhole spans
            // routers head to tail).
            let mut released = false;
            let mut owned = s.hdr[r].out_owned;
            while owned != 0 {
                let slot = owned.trailing_zeros() as usize;
                owned &= owned - 1;
                if s.out_owner[base + slot] == h {
                    s.release_out(r, slot);
                    released = true;
                }
            }
            // A rescue mutates router state out of band; wake everything
            // it touched so remaining traffic reschedules.
            if removed_here > 0 || released {
                set_wake(active_bits, 0, r);
            }
        }
        mdd_obs::counter_add(CounterId::LinkBurstFlits, burst_flits);
        let src_router = self.topo.nic_router(st.src);
        Some(ExtractedPacket {
            head_router: head_router.unwrap_or(src_router),
            flits_in_network: flits_removed,
            injected_at: st.injected_at,
            msg: st.msg,
        })
    }

    /// Busy-cycle counter of one output virtual channel (network ports).
    pub fn vc_busy(&self, node: NodeId, port: PortId, vc: u8) -> u64 {
        u64::from(
            self.state.vc_busy
                [node.index() * self.state.slots + port.index() * self.vcs as usize + vc as usize],
        )
    }

    /// Utilization statistics over all *network* virtual channels after
    /// `cycles` of operation: `(mean, max, coefficient_of_variation)`.
    /// A high CV quantifies the unbalanced channel usage the paper blames
    /// for strict avoidance's early saturation (Section 4.3.2).
    pub fn vc_utilization(&self, cycles: u64) -> (f64, f64, f64) {
        if cycles == 0 {
            return (0.0, 0.0, 0.0);
        }
        // One scan of the flat busy array in (router, port, vc) order,
        // over the links that exist: local ports and a mesh's missing
        // boundary links have no neighbour.
        let nvcs = self.vcs as usize;
        let vals: Vec<f64> = (0..self.links.nbr.len())
            .filter(|&rp| self.links.nbr[rp] != u32::MAX)
            .flat_map(|rp| &self.state.vc_busy[rp * nvcs..(rp + 1) * nvcs])
            .map(|&busy| busy as f64 / cycles as f64)
            .collect();
        if vals.is_empty() {
            return (0.0, 0.0, 0.0);
        }
        let n = vals.len() as f64;
        let mean = vals.iter().sum::<f64>() / n;
        let max = vals.iter().copied().fold(0.0, f64::max);
        let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        let cv = if mean > 1e-12 { var.sqrt() / mean } else { 0.0 };
        (mean, max, cv)
    }
}

/// Per-cycle observability deltas, published in one batch.
#[derive(Default, Debug)]
struct ObsDeltas {
    allocs: u64,
    stalls: u64,
    burst_flits: u64,
    /// Moves granted (the `flits_routed` counter).
    routed: u64,
}

impl ObsDeltas {
    fn merge(&mut self, o: ObsDeltas) {
        self.allocs += o.allocs;
        self.stalls += o.stalls;
        self.burst_flits += o.burst_flits;
        self.routed += o.routed;
    }
}

/// Partition of the router index space into contiguous shard ranges for
/// [`Network::step_sharded`].
///
/// Every interior boundary is a multiple of 64 (a whole wake-set word),
/// so the per-shard `active_bits` slices never share a word and shards
/// can set wake bits for their own routers without synchronization. On
/// networks smaller than `shards * 64` routers, trailing shards own
/// empty ranges — degenerate but valid (their workers return
/// immediately), so shard-count-invariance tests cover small topologies
/// too.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    /// `shards + 1` range boundaries: shard `s` owns `[bounds[s],
    /// bounds[s+1])`.
    bounds: Vec<u32>,
    /// Uniform shard width in routers (a multiple of 64); the last shard
    /// absorbs the remainder.
    stride: u32,
}

impl ShardPlan {
    /// Split `num_routers` routers into `shards` contiguous ranges of
    /// whole wake-set words.
    pub fn new(num_routers: u32, shards: u32) -> Self {
        assert!(shards >= 1, "need at least one shard");
        let words = (num_routers as usize).div_ceil(64);
        let wps = words.div_ceil(shards as usize).max(1);
        let stride = (wps * 64) as u32;
        let bounds = (0..=shards as u64)
            .map(|s| (s * u64::from(stride)).min(u64::from(num_routers)) as u32)
            .collect();
        ShardPlan { bounds, stride }
    }

    /// Number of shards (trailing ones may own empty ranges on small
    /// networks).
    #[inline]
    pub fn shards(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Router range `[lo, hi)` owned by shard `s`.
    #[inline]
    pub fn range(&self, s: usize) -> (u32, u32) {
        (self.bounds[s], self.bounds[s + 1])
    }

    /// The shard owning router `r`.
    #[inline]
    pub fn shard_of(&self, r: u32) -> usize {
        ((r / self.stride) as usize).min(self.shards() - 1)
    }

    /// Total routers covered (== the network's router count).
    #[inline]
    pub fn num_routers(&self) -> u32 {
        self.bounds[self.shards()]
    }
}

/// One cross-shard side effect of a granted move, buffered into the
/// destination shard's mailbox during the parallel phase and applied by
/// the coordinator at the cycle barrier. Each `(router, slot)` cell
/// receives at most one credit and at most one arrival per cycle (one
/// grant per output port, 1:1 link wiring), so in-cycle effects touch
/// disjoint state and deferred application converges to the same
/// physical representation a single shard produces; the
/// fixed (src, dst) drain order makes the schedule deterministic
/// independent of worker timing.
#[derive(Clone, Copy, Debug)]
enum CrossEffect {
    /// Credit return to an upstream router owned by another shard (plus
    /// the implied wake).
    Credit {
        /// Upstream router (global index).
        router: u32,
        /// Its flat output-VC slot.
        slot: u16,
    },
    /// Flit arrival at a downstream router owned by another shard (plus
    /// the implied wake and arrival-side blocked mark).
    Arrival {
        /// Downstream router (global index).
        router: u32,
        /// Its flat input-VC slot.
        slot: u16,
        /// The flit traversing the link.
        flit: Flit,
    },
}

/// Deferred [`PacketTable`] mutation recorded by a shard (the table is
/// shared read-only during the parallel phase so every shard's
/// allocation pass observes start-of-cycle routing state, exactly as
/// the phased reference's all-passes-before-all-applies does).
/// Applied at the barrier in (shard, move) order — which, because
/// shards are ascending contiguous ranges and each shard's move list is
/// router-ascending, is a single shard's traversal order.
#[derive(Clone, Copy, Debug)]
enum PkEvent {
    /// A head flit crossed a dateline link: OR `mask` into the packet's
    /// `crossed_dateline` bits.
    Dateline { msg: MsgHandle, mask: u8 },
    /// A tail flit ejected: remove the packet from the table.
    Delivered { msg: MsgHandle },
}

/// Per-shard reusable scratch plus the per-cycle deltas a shard hands
/// back to the coordinator at the barrier.
#[derive(Debug)]
struct ShardScratch {
    cand: Vec<RouteCandidate>,
    moves: Vec<Move>,
    /// Outgoing mailboxes, indexed by destination shard.
    mail: Vec<Vec<CrossEffect>>,
    /// Deferred packet-table events, in move order.
    pk: Vec<PkEvent>,
    /// This cycle's transport-counter delta.
    counters: NetworkCounters,
    /// This cycle's observability delta.
    obs: ObsDeltas,
}

impl ShardScratch {
    fn new(shards: usize) -> Self {
        ShardScratch {
            cand: Vec::with_capacity(64),
            moves: Vec::with_capacity(256),
            mail: (0..shards).map(|_| Vec::new()).collect(),
            pk: Vec::new(),
            counters: NetworkCounters::default(),
            obs: ObsDeltas::default(),
        }
    }
}

/// Scratch of one shard's fused passes, on the stack of
/// [`ShardTask::run`] so the hot loops see it as unaliased by router
/// state: the switch-allocation request chains and the observability
/// deltas.
struct PassScratch {
    /// Per-port request-chain heads (`u16::MAX` = empty) and per-slot
    /// next links. An entry packs the requester's input port in its high
    /// byte and slot index in the low byte. Chain heads are restored to
    /// empty by the grant loop (every gathered port is processed exactly
    /// once), and next links are always written before they are read
    /// within a pass, so neither needs clearing between routers.
    req_head: [u16; 64],
    req_next: [u16; 128],
    obs: ObsDeltas,
}

/// Read-only network state shared by every shard during the parallel
/// phase. `packets` and `cur_mask` are frozen for the whole phase:
/// packet-table mutations are deferred as [`PkEvent`]s and the arrival
/// mask was fully built by the wake-set drain.
struct StepShared<'a> {
    topo: &'a Topology,
    vcs: u8,
    buf_depth: u32,
    net_port: &'a [bool],
    links: &'a Links,
    chain: &'a [u16],
    packets: &'a PacketTable,
    cur_mask: &'a [u64],
    plan: &'a ShardPlan,
}

/// One shard's mutable view of the network: disjoint slices of every
/// per-router array (router indices offset by `lo`, wake words by
/// `word_base`), its slice of the ascending worklist, its endpoint
/// controller and its scratch.
struct ShardTask<'a, E> {
    lo: u32,
    hi: u32,
    word_base: usize,
    st: StateMut<'a>,
    router_flits: &'a mut [u32],
    active_bits: &'a mut [u64],
    worklist: &'a [u32],
    ej: E,
    sc: &'a mut ShardScratch,
}

impl<E: EjectControl> ShardTask<'_, E> {
    /// One shard's whole cycle: a fused pass per woken router (phases 1,
    /// 2 and the blocked-timer marking), then the traversal phase over
    /// the shard's moves.
    ///
    /// The VC-allocation scan of every router starts at slot
    /// `cycle % slots`: the dense schedule advanced each router's rotation
    /// by one every cycle from zero, so that is the offset it had reached
    /// whether or not the router was processed in between.
    fn run(mut self, sh: &StepShared<'_>, cycle: u64, routing: &dyn Routing) {
        let mut ps = PassScratch {
            req_head: [u16::MAX; 64],
            req_next: [u16::MAX; 128],
            obs: ObsDeltas::default(),
        };
        let start = (cycle % self.st.slots as u64) as usize;
        for wi in 0..self.worklist.len() {
            let r = self.worklist[wi] as usize;
            self.router_pass(sh, r, cycle, start, routing, &mut ps);
        }
        self.apply_moves(sh, cycle, &mut ps.obs);
        self.sc.obs = ps.obs;
    }

    /// One router's fused pass: a single rotated walk over its occupancy
    /// bitmask performs route computation / VC allocation for waiting
    /// heads, blocked-timer pre-marking, and switch-request gathering;
    /// per-port round-robin grants follow. Slices are addressed by
    /// `li = r - lo`; the rr hint and the emitted moves keep global
    /// coordinates, so no decision depends on the shard layout.
    ///
    /// ### Ordering contract (why this equals the phased pipeline)
    ///
    /// * Allocation mutations are router-local (this router's routes and
    ///   output-VC owners) except [`EjectControl::can_accept`], whose call
    ///   sequence is router-ascending, rotated-slot order — identical to
    ///   the phased allocation sweep.
    /// * Grants select the *minimum round-robin rank* among a port's
    ///   eligible requesters; the rank depends only on the requester's
    ///   slot index and the port's `rr_out` pointer, so the gather order
    ///   (rotated here, ascending in the phased reference) is immaterial.
    /// * Credits are only mutated by the traversal phase, which runs after
    ///   every router's fused pass — all grant decisions see
    ///   start-of-cycle credits. Cross-shard credits land at the barrier,
    ///   after every shard's pass.
    /// * Moves are emitted per router in ascending-output-port order, so
    ///   the global move list (shards are ascending ranges) matches the
    ///   phased switch sweep exactly.
    fn router_pass(
        &mut self,
        sh: &StepShared<'_>,
        r: usize,
        cycle: u64,
        start: usize,
        routing: &dyn Routing,
        ps: &mut PassScratch,
    ) {
        let li = r - self.lo as usize;
        let nvcs = sh.vcs as usize;
        let total = self.st.slots;
        let depth = self.st.depth;
        // This router's window of every per-slot array.
        let base = li * total;
        let slots = base..base + total;
        // Per-port singly linked request chains (see
        // [`PassScratch::req_head`]; both `< 128`, so `u16::MAX` stays a
        // safe sentinel).
        let mut port_mask = 0u64;
        // Waiting heads that need a full allocation attempt, in scan order.
        let mut pend = [0u8; 128];
        let mut npend = 0usize;
        {
            // Borrow each array the occupancy walk reads once, as this
            // router's sub-slice, so the walk indexes by slot directly.
            let PassScratch {
                req_head,
                req_next,
                obs,
            } = ps;
            let st = &mut self.st;
            let hdr = &st.hdr[li];
            let blocked = &mut st.blocked[slots.clone()];
            let route_port = &st.route_port[slots.clone()];
            let stall_epoch = &st.stall_epoch[slots.clone()];
            let head = &st.head[slots.clone()];
            let bufs = &st.bufs[base * depth..(base + total) * depth];
            debug_assert!(st.ports <= 64);
            // Visit occupied slots in the dense scan's rotated order
            // (`start..total` then `0..start`, ascending within each half).
            // Slots the dense scan would have acted on all hold a flit, so
            // restricting to the occupancy mask is exact.
            let occ = hdr.in_occ;
            let low = occ & ((1u128 << start) - 1);
            let mut high = occ ^ low;
            let mut rest = low;
            loop {
                let idx = if high != 0 {
                    let i = high.trailing_zeros() as usize;
                    high &= high - 1;
                    i
                } else if rest != 0 {
                    let i = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    i
                } else {
                    break;
                };
                // Blocked-timer pre-mark (fused phase 4): every occupied
                // slot not already blocked starts its timer this cycle; the
                // traversal phase re-derives the mark for slots that move.
                if blocked[idx] == NOT_BLOCKED {
                    blocked[idx] = cycle as u32;
                }
                // Phase 2 (gather): a routed slot with a buffered flit
                // stands as a switch requester for its output port.
                let q = route_port[idx];
                if q != NO_ROUTE {
                    port_mask |= 1 << q;
                    req_next[idx] = req_head[q as usize];
                    req_head[q as usize] = sh.chain[idx];
                } else if bufs[idx * depth + head[idx] as usize].is_head() {
                    // Phase 1: route computation & VC allocation.
                    if stall_epoch[idx] == hdr.alloc_epoch {
                        // Memoized stall: no output VC on this router has
                        // been released since the last full attempt, and
                        // the candidate set of a waiting packet is fixed,
                        // so every candidate is still owner-busy.
                        obs.stalls += 1;
                    } else {
                        pend[npend] = idx as u8;
                        npend += 1;
                    }
                }
            }
        }
        // Phase 1, deferred: full allocation attempts for the (rare)
        // non-memoized waiting heads. Deferral is exact: allocation only
        // mutates output-VC ownership, ejection earmarks, and the
        // attempting slot's own route — none of which the scan above reads
        // for *other* slots — and processing `pend` in scan order preserves
        // both the intra-router claim order (an earlier head can take an
        // output VC a later head wanted) and the `can_accept` call
        // sequence of the dense reference.
        for &slot in &pend[..npend] {
            let idx = slot as usize;
            let h = self.st.flit_at(base + idx, 0).msg;
            if self.alloc_slot(sh, r, idx, h, cycle, routing) {
                ps.obs.allocs += 1;
                // A freshly routed head is a switch requester this same
                // cycle. Chain position is immaterial: grants minimize
                // rank over the set.
                let q = self.st.route_port[base + idx];
                debug_assert_ne!(q, NO_ROUTE);
                port_mask |= 1 << q;
                ps.req_next[idx] = ps.req_head[q as usize];
                ps.req_head[q as usize] = sh.chain[idx];
            } else {
                ps.obs.stalls += 1;
            }
        }
        // Phase 2 (grant): each requested output port (ascending) grants
        // the eligible requester closest after its round-robin pointer.
        {
            let PassScratch {
                req_head,
                req_next,
                obs,
            } = ps;
            let moves = &mut self.sc.moves;
            let st = &mut self.st;
            let ports = st.ports;
            let rr_out = &mut st.rr_out[li * ports..(li + 1) * ports];
            let out_credits = &st.out_credits[slots.clone()];
            let route_vc = &st.route_vc[slots.clone()];
            let head = &st.head[slots];
            let bufs = &st.bufs[base * depth..(base + total) * depth];
            let mut in_used = 0u64; // input ports granted this cycle
            while port_mask != 0 {
                let q = port_mask.trailing_zeros() as usize;
                port_mask &= port_mask - 1;
                let rr = rr_out[q] as usize;
                debug_assert!(rr < total);
                let is_net = sh.net_port[q];
                let mut best: Option<(usize, usize, usize)> = None;
                let mut contenders = 0u32;
                let mut cur = req_head[q];
                req_head[q] = u16::MAX; // restore the empty-chain invariant
                while cur != u16::MAX {
                    let idx = (cur & 0xff) as usize;
                    let p = (cur >> 8) as usize;
                    cur = req_next[idx];
                    if in_used & (1 << p) != 0 {
                        continue;
                    }
                    // Network outputs need a credit; local outputs were
                    // reserved at acceptance time.
                    if is_net && out_credits[q * nvcs + route_vc[idx] as usize] == 0 {
                        continue;
                    }
                    contenders += 1;
                    let mut rank = idx + total - rr;
                    if rank >= total {
                        rank -= total;
                    }
                    if best.is_none_or(|(b, _, _)| rank < b) {
                        best = Some((rank, idx, p));
                    }
                }
                if let Some((_, idx, p)) = best {
                    in_used |= 1 << p;
                    rr_out[q] = if idx + 1 == total { 0 } else { (idx + 1) as u8 };
                    // Burst count: a packet-body flit granted at a port
                    // with one contender continues a wormhole stream. It
                    // was arbitrated like any other requester; the
                    // counter only classifies the grant.
                    if contenders == 1 && !bufs[idx * depth + head[idx] as usize].is_head() {
                        obs.burst_flits += 1;
                    }
                    moves.push(Move {
                        router: r as u32,
                        in_port: p as u8,
                        in_vc: (idx - p * nvcs) as u8,
                        out_port: q as u8,
                        out_vc: route_vc[idx],
                    });
                }
            }
        }
    }

    /// Full route-computation + VC-allocation attempt for the head `h` at
    /// `(r, idx)` — the non-memoized path. Reads the shared
    /// start-of-cycle packet table; every mutation stays on router `r`
    /// (a head's candidates are output VCs of the router it waits at).
    /// Returns whether a route was granted.
    fn alloc_slot(
        &mut self,
        sh: &StepShared<'_>,
        r: usize,
        idx: usize,
        h: MsgHandle,
        cycle: u64,
        routing: &dyn Routing,
    ) -> bool {
        let li = r - self.lo as usize;
        let g = li * self.st.slots + idx;
        let node = NodeId(r as u32);
        let nvcs = sh.vcs as usize;
        let Some(pkt) = sh.packets.get(h).copied() else {
            debug_assert!(false, "flit in network without a registered packet");
            return true;
        };
        self.sc.cand.clear();
        let hint = cycle
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((r as u64) << 8)
            .wrapping_add(idx as u64);
        routing.candidates(sh.topo, node, &pkt, hint, &mut self.sc.cand);
        debug_assert!(
            !self.sc.cand.is_empty(),
            "routing function returned no candidates for {h:?} at {node}"
        );
        for ci in 0..self.sc.cand.len() {
            let c = self.sc.cand[ci];
            if let Some(local) = sh.topo.port_local_index(c.port) {
                debug_assert_eq!(
                    node, pkt.dst_router,
                    "local candidate away from destination router"
                );
                let nic = sh.topo.nic_at(node, local);
                if self.ej.can_accept(nic, h, cycle) {
                    self.st.route_port[g] = c.port.0;
                    self.st.route_vc[g] = 0;
                    return true;
                }
            } else {
                let out_slot = c.port.index() * nvcs + c.vc as usize;
                if self.st.out_free(li, out_slot) {
                    self.st.own_out(li, out_slot, h);
                    self.st.route_port[g] = c.port.0;
                    self.st.route_vc[g] = c.vc;
                    return true;
                }
            }
        }
        if pkt.dst_router != node {
            // All candidates are output VCs of this router and all are
            // owner-busy; memoize until one is released. Destination heads
            // are exempt: their stall is an ejection refusal, and
            // `can_accept` both has side effects and depends on NIC state
            // this router cannot version.
            self.st.stall_epoch[g] = self.st.hdr[li].alloc_epoch;
        }
        false
    }

    /// Phase 3: apply the shard's granted moves (link traversal),
    /// table-driven. Effects inside the shard's router range apply
    /// directly; credit returns and flit arrivals for another shard's
    /// routers go to that shard's mailbox, and packet-table mutations are
    /// recorded as [`PkEvent`]s — both applied at the barrier.
    ///
    /// Also re-derives the blocked-timer marks the fused pre-marking could
    /// not know yet: a popped slot restarts (still occupied) or clears
    /// (emptied) its timer, and a flit arriving at a router covered by
    /// this cycle's worklist starts one — exactly the state the phased
    /// pipeline's trailing sweep would have left.
    fn apply_moves(&mut self, sh: &StepShared<'_>, cycle: u64, obs: &mut ObsDeltas) {
        let nvcs = sh.vcs as usize;
        let (lo, hi) = (self.lo as usize, self.hi as usize);
        // Disjoint borrows, rebound as plain slices, so the per-move work
        // indexes each array directly with no header reloads; wakes are
        // inlined as the bit-sets they are.
        let links = sh.links;
        let ports = links.ports;
        let (nbr, opp) = (&links.nbr[..], &links.opp[..]);
        let (dateline, nic_of) = (&links.dateline[..], &links.nic[..]);
        let ShardTask {
            st,
            router_flits,
            active_bits,
            word_base,
            ej,
            sc,
            ..
        } = self;
        let ShardScratch {
            moves, mail, pk, ..
        } = &mut **sc;
        let router_flits: &mut [u32] = router_flits;
        let active_bits: &mut [u64] = active_bits;
        let word_base = *word_base;
        let slots = st.slots;
        let mut counters = NetworkCounters::default();
        obs.routed += moves.len() as u64;
        for mv in moves.iter() {
            let Move {
                router: r,
                in_port,
                in_vc,
                out_port,
                out_vc,
            } = *mv;
            let r = r as usize;
            let li = r - lo;
            let in_slot = in_port as usize * nvcs + in_vc as usize;
            let in_g = li * slots + in_slot;
            let flit = st.pop_flit(li, in_slot);
            st.blocked[in_g] = if st.len[in_g] > 0 {
                cycle as u32
            } else {
                NOT_BLOCKED
            };
            if flit.is_tail {
                st.route_port[in_g] = NO_ROUTE;
            }
            router_flits[li] -= 1;
            // Return a credit upstream (network inputs only; NICs poll
            // injection space directly). The credit is an event for the
            // upstream router: wake it so it can use the freed slot.
            let up = nbr[r * ports + in_port as usize];
            if up != u32::MAX {
                let upu = up as usize;
                let up_slot = opp[in_port as usize] as usize * nvcs + in_vc as usize;
                if (lo..hi).contains(&upu) {
                    let up_g = (upu - lo) * slots + up_slot;
                    st.out_credits[up_g] += 1;
                    debug_assert!(u32::from(st.out_credits[up_g]) <= sh.buf_depth);
                    set_wake(active_bits, word_base, upu);
                } else {
                    mail[sh.plan.shard_of(up)].push(CrossEffect::Credit {
                        router: up,
                        slot: up_slot as u16,
                    });
                }
            }
            if sh.net_port[out_port as usize] {
                let out_slot = out_port as usize * nvcs + out_vc as usize;
                let out_g = li * slots + out_slot;
                st.vc_busy[out_g] += 1;
                debug_assert!(st.out_credits[out_g] > 0);
                st.out_credits[out_g] -= 1;
                if flit.is_tail {
                    st.release_out(li, out_slot);
                }
                let dl = dateline[r * ports + out_port as usize];
                if dl != 0 && flit.is_head() {
                    pk.push(PkEvent::Dateline {
                        msg: flit.msg,
                        mask: dl,
                    });
                }
                let down = nbr[r * ports + out_port as usize] as usize;
                debug_assert!(
                    down != u32::MAX as usize,
                    "allocated output implies the link exists"
                );
                let down_slot = opp[out_port as usize] as usize * nvcs + out_vc as usize;
                if (lo..hi).contains(&down) {
                    st.push_flit(down - lo, down_slot, flit);
                    // Arrival mark: the trailing sweep of the phased
                    // pipeline would see this flit (post-move occupancy)
                    // at any router it covers this cycle.
                    let down_g = (down - lo) * slots + down_slot;
                    if sh.cur_mask[down >> 6] >> (down & 63) & 1 == 1
                        && st.blocked[down_g] == NOT_BLOCKED
                    {
                        st.blocked[down_g] = cycle as u32;
                    }
                    router_flits[down - lo] += 1;
                    set_wake(active_bits, word_base, down);
                } else {
                    mail[sh.plan.shard_of(down as u32)].push(CrossEffect::Arrival {
                        router: down as u32,
                        slot: down_slot as u16,
                        flit,
                    });
                }
            } else {
                let nic = NicId(nic_of[r * ports + out_port as usize]);
                debug_assert!(nic.0 != u32::MAX, "output is network or local");
                if flit.is_tail {
                    let st = sh
                        .packets
                        .get(flit.msg)
                        .expect("delivered packet must be registered");
                    counters.packets_delivered += 1;
                    ej.deliver_packet(nic, st.msg, st.injected_at, cycle);
                    pk.push(PkEvent::Delivered { msg: flit.msg });
                } else {
                    ej.deliver_flit(nic, flit.msg, cycle);
                }
                counters.flits_delivered += 1;
            }
            counters.flits_moved += 1;
        }
        moves.clear();
        sc.counters = counters;
    }
}

/// Debug-build shadow machinery: every [`Network::step_sharded`] cycle is
/// re-executed by a literal four-phase reference pipeline on a pre-cycle
/// snapshot, with endpoint interactions recorded during the real (fused)
/// pass and replayed to the reference; the two end states must match
/// array by array. This checks the fused pass, the stall memo, the blocked-timer
/// patch rules and the link tables against the phased semantics every
/// single cycle of every debug run.
#[cfg(debug_assertions)]
mod shadow {
    use super::*;

    /// One recorded endpoint interaction of the real pass.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub(super) enum EjEvent {
        Accept {
            nic: NicId,
            msg: MsgHandle,
            ok: bool,
        },
        Flit {
            nic: NicId,
            msg: MsgHandle,
        },
        Packet {
            nic: NicId,
            msg: MsgHandle,
            injected_at: u64,
        },
    }

    /// Per-shard endpoint recorder wrapping the real [`EjectControl`].
    /// `can_accept` events and delivery events are kept in separate
    /// logs: each shard runs its allocation passes before its traversal,
    /// so the global reference order is all accepts (shard order ==
    /// router-ascending) followed by all deliveries (same) —
    /// [`Network::step_sharded`] concatenates the logs accordingly before
    /// replaying the reference.
    pub(super) struct ShardRecordEj<E> {
        inner: E,
        pub(super) accepts: Vec<EjEvent>,
        pub(super) delivers: Vec<EjEvent>,
    }

    impl<E: EjectControl> ShardRecordEj<E> {
        pub(super) fn new(inner: E) -> Self {
            ShardRecordEj {
                inner,
                accepts: Vec::new(),
                delivers: Vec::new(),
            }
        }
    }

    impl<E: EjectControl> EjectControl for ShardRecordEj<E> {
        fn can_accept(&mut self, nic: NicId, msg: MsgHandle, cycle: u64) -> bool {
            let ok = self.inner.can_accept(nic, msg, cycle);
            self.accepts.push(EjEvent::Accept { nic, msg, ok });
            ok
        }
        fn deliver_flit(&mut self, nic: NicId, msg: MsgHandle, cycle: u64) {
            self.delivers.push(EjEvent::Flit { nic, msg });
            self.inner.deliver_flit(nic, msg, cycle);
        }
        fn deliver_packet(&mut self, nic: NicId, msg: MsgHandle, injected_at: u64, cycle: u64) {
            self.delivers.push(EjEvent::Packet {
                nic,
                msg,
                injected_at,
            });
            self.inner.deliver_packet(nic, msg, injected_at, cycle);
        }
    }

    /// Replays a recorded log to the reference pipeline, asserting the
    /// call sequences are identical.
    struct ReplayEj<'a> {
        log: &'a [EjEvent],
        pos: usize,
    }

    impl EjectControl for ReplayEj<'_> {
        fn can_accept(&mut self, nic: NicId, msg: MsgHandle, _cycle: u64) -> bool {
            let ev = self.log.get(self.pos).copied();
            self.pos += 1;
            match ev {
                Some(EjEvent::Accept { nic: n, msg: m, ok }) if n == nic && m == msg => ok,
                other => panic!(
                    "shadow: reference asked can_accept({nic:?}, {msg:?}) but the \
                     real pass recorded {other:?}"
                ),
            }
        }
        fn deliver_flit(&mut self, nic: NicId, msg: MsgHandle, _cycle: u64) {
            let ev = self.log.get(self.pos).copied();
            self.pos += 1;
            assert_eq!(
                ev,
                Some(EjEvent::Flit { nic, msg }),
                "shadow: flit delivery sequences diverged"
            );
        }
        fn deliver_packet(&mut self, nic: NicId, msg: MsgHandle, injected_at: u64, _cycle: u64) {
            let ev = self.log.get(self.pos).copied();
            self.pos += 1;
            assert_eq!(
                ev,
                Some(EjEvent::Packet {
                    nic,
                    msg,
                    injected_at
                }),
                "shadow: packet delivery sequences diverged"
            );
        }
    }

    /// Reusable snapshot + reference-pipeline scratch (all allocations
    /// are reused across cycles via `clone_from`).
    #[derive(Default, Debug)]
    pub(super) struct Scratch {
        state: RouterState,
        packets: PacketTable,
        counters: NetworkCounters,
        router_flits: Vec<u32>,
        active_bits: Vec<u64>,
        pub(super) ej_log: Vec<EjEvent>,
        cand: Vec<RouteCandidate>,
        moves: Vec<Move>,
    }

    impl Scratch {
        /// Capture the pre-cycle state of every worklist-relevant field.
        /// (`clone_from` reuses every array's allocation, so steady state
        /// stays allocation-free.)
        pub(super) fn snapshot(&mut self, net: &Network) {
            self.state.clone_from(&net.state);
            self.packets.clone_from(&net.packets);
            self.counters = net.counters;
            self.router_flits.clone_from(&net.router_flits);
            self.active_bits.clone_from(&net.active_bits);
            self.ej_log.clear();
        }

        /// Run the phased reference pipeline on the snapshot and compare
        /// its end state against the fused pipeline's (`net`, already
        /// advanced).
        pub(super) fn run_reference_and_compare(
            &mut self,
            net: &Network,
            cycle: u64,
            routing: &dyn Routing,
        ) {
            let log = std::mem::take(&mut self.ej_log);
            let mut ej = ReplayEj { log: &log, pos: 0 };
            self.ref_alloc_phase(net, cycle, routing, &mut ej);
            self.ref_switch_phase(net);
            self.ref_apply_moves(net, cycle, &mut ej);
            self.ref_blocked_sweep(net, cycle);
            assert_eq!(
                ej.pos,
                log.len(),
                "shadow: the fused pass performed more endpoint calls than the reference"
            );
            self.ej_log = log;
            self.compare(net, cycle);
        }

        /// Reference phase 1: route computation & output-VC allocation,
        /// rotated occupancy order, full candidate recomputation (no stall
        /// memo).
        fn ref_alloc_phase(
            &mut self,
            net: &Network,
            cycle: u64,
            routing: &dyn Routing,
            ej: &mut dyn EjectControl,
        ) {
            let nvcs = net.vcs as usize;
            let mut st = self.state.view();
            let total = st.slots;
            for &r in &net.worklist {
                let r = r as usize;
                let node = NodeId(r as u32);
                let start = (cycle % total as u64) as usize;
                let occ = st.hdr[r].in_occ;
                let low = occ & ((1u128 << start) - 1);
                let mut high = occ ^ low;
                let mut pending = low;
                loop {
                    let idx = if high != 0 {
                        let i = high.trailing_zeros() as usize;
                        high &= high - 1;
                        i
                    } else if pending != 0 {
                        let i = pending.trailing_zeros() as usize;
                        pending &= pending - 1;
                        i
                    } else {
                        break;
                    };
                    let g = r * total + idx;
                    if st.route_port[g] != NO_ROUTE {
                        continue;
                    }
                    let front = st.flit_at(g, 0);
                    if !front.is_head() {
                        continue;
                    }
                    let h = front.msg;
                    let Some(pkt) = self.packets.get(h).copied() else {
                        continue;
                    };
                    self.cand.clear();
                    let hint = cycle
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        .wrapping_add((r as u64) << 8)
                        .wrapping_add(idx as u64);
                    routing.candidates(&net.topo, node, &pkt, hint, &mut self.cand);
                    for ci in 0..self.cand.len() {
                        let c = self.cand[ci];
                        if let Some(local) = net.topo.port_local_index(c.port) {
                            let nic = net.topo.nic_at(node, local);
                            if ej.can_accept(nic, h, cycle) {
                                st.route_port[g] = c.port.0;
                                st.route_vc[g] = 0;
                                break;
                            }
                        } else {
                            let out_slot = c.port.index() * nvcs + c.vc as usize;
                            if st.out_free(r, out_slot) {
                                st.own_out(r, out_slot, h);
                                st.route_port[g] = c.port.0;
                                st.route_vc[g] = c.vc;
                                break;
                            }
                        }
                    }
                }
            }
        }

        /// Reference phase 2: switch allocation — requests gathered in
        /// ascending slot order, then per-port round-robin grants.
        fn ref_switch_phase(&mut self, net: &Network) {
            self.moves.clear();
            let nvcs = net.vcs as usize;
            let st = self.state.view();
            let (total, ports) = (st.slots, st.ports);
            for &r in &net.worklist {
                let r = r as usize;
                let base = r * total;
                let mut reqs: Vec<(usize, u8, u8)> = Vec::new();
                let mut port_mask = 0u64;
                let mut occ = st.hdr[r].in_occ;
                while occ != 0 {
                    let idx = occ.trailing_zeros() as usize;
                    occ &= occ - 1;
                    let q = st.route_port[base + idx];
                    if q != NO_ROUTE {
                        port_mask |= 1 << q;
                        reqs.push((idx, q, st.route_vc[base + idx]));
                    }
                }
                let mut in_used = [false; 64];
                while port_mask != 0 {
                    let q = port_mask.trailing_zeros() as usize;
                    port_mask &= port_mask - 1;
                    let rr = st.rr_out[r * ports + q] as usize % total;
                    let mut best: Option<(usize, usize, u8)> = None;
                    for &(idx, op, ov) in &reqs {
                        if op as usize != q || in_used[idx / nvcs] {
                            continue;
                        }
                        if net.net_port[q] && st.out_credits[base + q * nvcs + ov as usize] == 0 {
                            continue;
                        }
                        let rank = (idx + total - rr) % total;
                        if best.is_none_or(|(b, _, _)| rank < b) {
                            best = Some((rank, idx, ov));
                        }
                    }
                    if let Some((_, idx, ov)) = best {
                        in_used[idx / nvcs] = true;
                        st.rr_out[r * ports + q] = ((idx + 1) % total) as u8;
                        self.moves.push(Move {
                            router: r as u32,
                            in_port: (idx / nvcs) as u8,
                            in_vc: (idx % nvcs) as u8,
                            out_port: q as u8,
                            out_vc: ov,
                        });
                    }
                }
            }
        }

        /// Reference phase 3: link traversal via direct topology queries
        /// (independently validating the link tables).
        fn ref_apply_moves(&mut self, net: &Network, cycle: u64, ej: &mut dyn EjectControl) {
            let nvcs = net.vcs as usize;
            let mut st = self.state.view();
            let total = st.slots;
            for mi in 0..self.moves.len() {
                let Move {
                    router: r,
                    in_port,
                    in_vc,
                    out_port,
                    out_vc,
                } = self.moves[mi];
                let r = r as usize;
                let node = NodeId(r as u32);
                let in_slot = in_port as usize * nvcs + in_vc as usize;
                let flit = st.pop_flit(r, in_slot);
                st.blocked[r * total + in_slot] = NOT_BLOCKED;
                if flit.is_tail {
                    st.route_port[r * total + in_slot] = NO_ROUTE;
                }
                self.router_flits[r] -= 1;
                if let Some((d, dir)) = net.topo.port_dim_dir(PortId(in_port)) {
                    let up = net.topo.neighbor(node, d, dir).expect("input link exists");
                    let upport = net.topo.port(d, dir.opposite());
                    let up_slot = upport.index() * nvcs + in_vc as usize;
                    st.out_credits[up.index() * total + up_slot] += 1;
                    self.active_bits[up.index() >> 6] |= 1 << (up.index() & 63);
                }
                let out = PortId(out_port);
                if let Some((d2, dir2)) = net.topo.port_dim_dir(out) {
                    let out_slot = out_port as usize * nvcs + out_vc as usize;
                    st.vc_busy[r * total + out_slot] += 1;
                    st.out_credits[r * total + out_slot] -= 1;
                    if flit.is_tail {
                        st.release_out(r, out_slot);
                    }
                    if flit.is_head() && net.topo.crosses_dateline(node, d2, dir2) {
                        if let Some(st) = self.packets.get_mut(flit.msg) {
                            st.crossed_dateline |= 1 << d2;
                        }
                    }
                    let down = net
                        .topo
                        .neighbor(node, d2, dir2)
                        .expect("output link exists");
                    let dport = net.topo.port(d2, dir2.opposite());
                    let down_slot = dport.index() * nvcs + out_vc as usize;
                    st.push_flit(down.index(), down_slot, flit);
                    self.router_flits[down.index()] += 1;
                    self.active_bits[down.index() >> 6] |= 1 << (down.index() & 63);
                } else {
                    let local = net.topo.port_local_index(out).expect("local port");
                    let nic = net.topo.nic_at(node, local);
                    if flit.is_tail {
                        let st = self.packets.remove(flit.msg).expect("registered packet");
                        self.counters.packets_delivered += 1;
                        ej.deliver_packet(nic, st.msg, st.injected_at, cycle);
                    } else {
                        ej.deliver_flit(nic, flit.msg, cycle);
                    }
                    self.counters.flits_delivered += 1;
                }
                self.counters.flits_moved += 1;
            }
        }

        /// Reference phase 4: the trailing blocked-timer sweep.
        fn ref_blocked_sweep(&mut self, net: &Network, cycle: u64) {
            let st = &mut self.state;
            for &r in &net.worklist {
                let r = r as usize;
                let mut occ = st.hdr[r].in_occ;
                while occ != 0 {
                    let g = r * st.slots + occ.trailing_zeros() as usize;
                    occ &= occ - 1;
                    if st.blocked[g] == NOT_BLOCKED {
                        st.blocked[g] = cycle as u32;
                    }
                }
            }
        }

        /// Compare the reference end state against the fused pipeline's.
        /// The memoization clocks (`stall_epoch`, `alloc_epoch`) are
        /// excluded: they are fused-pass bookkeeping with no phased
        /// counterpart.
        fn compare(&self, net: &Network, cycle: u64) {
            assert_eq!(
                self.counters, net.counters,
                "shadow: counters diverged at {cycle}"
            );
            assert_eq!(
                self.router_flits, net.router_flits,
                "shadow: per-router flit counts diverged at {cycle}"
            );
            assert_eq!(
                self.active_bits, net.active_bits,
                "shadow: wake sets diverged at {cycle}"
            );
            assert!(
                self.packets == net.packets,
                "shadow: packet tables diverged at {cycle}"
            );
            let (a, b) = (&self.state, &net.state);
            let (slots, ports) = (a.slots, a.ports);
            same(&a.head, &b.head, slots, "ring heads", cycle);
            same(&a.len, &b.len, slots, "buffer lengths", cycle);
            same(&a.bufs, &b.bufs, slots * a.depth, "flit buffers", cycle);
            same(&a.route_port, &b.route_port, slots, "route ports", cycle);
            same(&a.blocked, &b.blocked, slots, "blocked timers", cycle);
            same(&a.out_credits, &b.out_credits, slots, "credits", cycle);
            same(&a.vc_busy, &b.vc_busy, slots, "vc_busy", cycle);
            same(&a.rr_out, &b.rr_out, ports, "rr_out", cycle);
            for (r, (ha, hb)) in a.hdr.iter().zip(&b.hdr).enumerate() {
                assert_eq!(
                    ha.in_occ, hb.in_occ,
                    "shadow: router {r} occupancy at {cycle}"
                );
                assert_eq!(
                    ha.out_owned, hb.out_owned,
                    "shadow: router {r} ownership at {cycle}"
                );
                let mut owned = ha.out_owned;
                while owned != 0 {
                    let g = r * slots + owned.trailing_zeros() as usize;
                    owned &= owned - 1;
                    assert_eq!(
                        a.out_owner[g],
                        b.out_owner[g],
                        "shadow: router {r} out-VC {} owner at {cycle}",
                        g - r * slots
                    );
                }
                // route_vc is only meaningful where a route is set.
                for g in r * slots..(r + 1) * slots {
                    if a.route_port[g] != NO_ROUTE {
                        assert_eq!(
                            a.route_vc[g],
                            b.route_vc[g],
                            "shadow: router {r} route vc slot {} at {cycle}",
                            g - r * slots
                        );
                    }
                }
            }
        }
    }

    /// Assert two whole per-router arrays equal (`per` entries per
    /// router), naming the first differing router on failure.
    fn same<T: PartialEq + std::fmt::Debug>(a: &[T], b: &[T], per: usize, what: &str, cycle: u64) {
        assert_eq!(
            a.len(),
            b.len(),
            "shadow: {what} arrays differ in length at {cycle}"
        );
        if let Some(i) = a.iter().zip(b).position(|(x, y)| x != y) {
            panic!(
                "shadow: router {} {what} at {cycle}: reference {:?}, fused {:?}",
                i / per,
                &a[i - i % per..i - i % per + per],
                &b[i - i % per..i - i % per + per],
            );
        }
    }
}
