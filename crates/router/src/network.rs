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
//! two end states are compared field by field.
//!
//! ## One pipeline, any number of shards
//!
//! There is one implementation of that pass. [`Network::step_sharded`]
//! runs it over the router ranges of a [`ShardPlan`], one shard per
//! worker thread; [`Network::step`] is the one-shard case on the calling
//! thread, where every credit, arrival and wake lands inside the shard
//! and the cross-shard mailboxes stay empty.

use crate::flit::{Flit, PacketState, PacketTable};
use crate::router::{Router, NOT_BLOCKED, NO_ROUTE};
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
                    let local = topo.port_local_index(pid).expect("port is network or local");
                    for r in 0..n {
                        links.nic[r * ports + p] = topo.nic_at(NodeId(r as u32), local).0;
                    }
                }
            }
        }
        links
    }
}

/// Borrow router `r`'s materialized chunk. Every router a pipeline phase
/// mutates is materialized by construction: chunks materialize on first
/// flit, and all wake/mutation paths (injection, arrival, credit return,
/// extraction) act on routers that hold or held flits.
#[inline]
fn mat(routers: &[Option<Box<Router>>], r: usize) -> &Router {
    routers[r].as_deref().expect("touched router must be materialized")
}

/// Mutable counterpart of [`mat`].
#[inline]
fn mat_mut(routers: &mut [Option<Box<Router>>], r: usize) -> &mut Router {
    routers[r]
        .as_deref_mut()
        .expect("touched router must be materialized")
}

/// Materialize router slot `slot` if needed by cloning the pristine
/// template, counting the new chunk in `materialized`. Returns the (now
/// guaranteed) chunk.
#[inline]
fn materialize<'a>(
    slot: &'a mut Option<Box<Router>>,
    materialized: &mut u32,
    template: &Router,
) -> &'a mut Router {
    slot.get_or_insert_with(|| {
        *materialized += 1;
        Box::new(template.clone())
    })
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
    /// Per-router state chunks, lazily materialized: `None` until the
    /// router first receives a flit (injection or arrival). A `None`
    /// router is semantically identical to a pristine [`Router`] — empty
    /// buffers, full credits, zeroed round-robin state (`rr_alloc` is a
    /// pure function of the cycle via [`Router::sync_rr_alloc`], so a
    /// chunk materialized at cycle `c` catches up to exactly the state an
    /// eagerly-allocated router would hold). A quiescent region of a
    /// large torus therefore costs no memory and no per-cycle traffic.
    routers: Vec<Option<Box<Router>>>,
    /// Number of `Some` entries in [`Network::routers`] — the
    /// `routers_materialized` observability gauge.
    materialized: u32,
    /// Bytes per materialized chunk (constant across routers), for the
    /// `router_state_bytes` gauge.
    chunk_bytes: u64,
    /// The never-mutated pristine router template: read-only access to an
    /// unmaterialized router ([`Network::router`]) resolves here, and every
    /// new chunk is a clone of it.
    pristine: Box<Router>,
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
    /// Per router: the sleep bookkeeping of its fused pass.
    sleep: Vec<Sleep>,
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
        // No per-router allocation here: state chunks materialize on first
        // flit. Only the pristine template is built eagerly.
        let pristine = Box::new(Router::new(ports, vcs, buf_depth));
        let chunk_bytes = pristine.state_bytes();
        let routers: Vec<Option<Box<Router>>> =
            (0..topo.num_routers()).map(|_| None).collect();
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
        let n = topo.num_routers() as usize;
        Network {
            topo,
            vcs,
            buf_depth,
            routers,
            materialized: 0,
            chunk_bytes,
            pristine,
            packets: PacketTable::new(),
            counters: NetworkCounters::default(),
            net_port,
            links,
            nic_slot,
            active_bits: vec![0; n.div_ceil(64)],
            worklist: Vec::with_capacity(n),
            cur_mask: vec![0; n.div_ceil(64)],
            router_flits: vec![0; n],
            sleep: vec![Sleep::default(); n],
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

    /// True while router `r` holds flits — the precondition for re-arming.
    /// A flit-less router is a no-op for every phase even mid-packet
    /// (owned or under-credited output VCs included). A flit-holding
    /// router re-arms unless its pass proved it fully stalled (see
    /// [`Sleep::ok`]); every event that could unfreeze either kind
    /// (flit arrival, credit return, injection, ownership release by
    /// rescue) wakes it explicitly.
    #[inline]
    fn router_busy(&self, r: usize) -> bool {
        self.router_flits[r] > 0
    }

    /// Routers currently on the wake-set (the ones the next step will
    /// process) — the `active_routers` observability gauge.
    #[inline]
    pub fn active_routers(&self) -> usize {
        self.active_bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of routers whose state chunk is materialized — the
    /// `routers_materialized` observability gauge.
    #[inline]
    pub fn routers_materialized(&self) -> u64 {
        u64::from(self.materialized)
    }

    /// Bytes held by materialized router state chunks — the
    /// `router_state_bytes` observability gauge.
    #[inline]
    pub fn router_state_bytes(&self) -> u64 {
        u64::from(self.materialized) * self.chunk_bytes
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

    /// Read access to a router. An unmaterialized router resolves to the
    /// shared pristine template — semantically identical state (empty
    /// buffers, full credits, nothing routed or owned).
    #[inline]
    pub fn router(&self, node: NodeId) -> &Router {
        self.routers[node.index()]
            .as_deref()
            .unwrap_or(&self.pristine)
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
        let (r, base) = self.nic_slot[nic.index()];
        let slot = base as usize + vc as usize;
        match self.routers[r as usize].as_deref() {
            Some(router) => self.buf_depth - router.len[slot] as u32,
            None => self.buf_depth, // pristine: entirely free
        }
    }

    /// True if injection VC `vc` of `nic` is between packets (its last
    /// buffered flit, if any, is a tail) — a new packet's head may enter.
    #[inline]
    pub fn injection_vc_idle(&self, nic: NicId, vc: u8) -> bool {
        let (r, base) = self.nic_slot[nic.index()];
        let slot = base as usize + vc as usize;
        match self.routers[r as usize].as_deref() {
            Some(router) => {
                let len = router.len[slot] as usize;
                len == 0 || router.flit_at(slot, len - 1).is_tail
            }
            None => true, // pristine: empty, so idle
        }
    }

    /// Push one flit from `nic` into injection VC `vc`. Returns false
    /// (without effect) when the buffer is full. Wakes the router: local
    /// injection precedes [`Network::step`] within a cycle, so the flit is
    /// routable this very cycle, exactly as under the dense scan. This is
    /// one of the two points that materialize a router chunk (the other is
    /// flit arrival, in `ShardTask::apply_moves` or at the barrier).
    pub fn inject_flit(&mut self, nic: NicId, vc: u8, flit: Flit) -> bool {
        let (r, base) = self.nic_slot[nic.index()];
        let ri = r as usize;
        let slot = base as usize + vc as usize;
        let router = materialize(&mut self.routers[ri], &mut self.materialized, &self.pristine);
        if router.len[slot] as u32 >= self.buf_depth {
            return false;
        }
        router.push_flit(slot, flit);
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
    /// Only routers on the wake-list are processed; the rest are provably
    /// inert (no flits, no owned or under-credited output VCs — checked by
    /// a dense shadow sweep in debug builds) and every phase is a no-op on
    /// them, so skipping changes nothing observable. The worklist is
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
        assert_eq!(
            plan.num_routers() as usize,
            self.routers.len(),
            "shard plan covers a different network"
        );
        self.drain_wake_set();
        mdd_obs::counter_add(
            CounterId::RouterTicksSkipped,
            (self.routers.len() - self.worklist.len()) as u64,
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
        // Re-arm: a router still holding work schedules itself for the
        // next cycle — unless its pass just proved it fully stalled, in
        // which case it sleeps until an external event (credit return,
        // flit arrival, ownership release, injection, extraction) wakes
        // it. Every one of those events sets its wake bit at the point it
        // mutates the router, so a sleeping router is frozen.
        for wi in 0..self.worklist.len() {
            let r = self.worklist[wi] as usize;
            if self.router_busy(r) && !self.sleep[r].ok {
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
            pristine,
            packets,
            counters,
            cur_mask,
            routers,
            materialized,
            router_flits,
            sleep,
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
                pristine,
                packets,
                cur_mask,
                plan,
            };
            // Split every per-router array into the shards' disjoint
            // ranges, lazily: the one-shard case runs inline on this
            // thread without collecting anything.
            let mut routers: &mut [Option<Box<Router>>] = routers;
            let mut router_flits: &mut [u32] = router_flits;
            let mut sleep: &mut [Sleep] = sleep;
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
                    routers: split_off(&mut routers, cnt),
                    router_flits: split_off(&mut router_flits, cnt),
                    sleep: split_off(&mut sleep, cnt),
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
        for sc in shard_scratch.iter_mut() {
            for mail in &mut sc.mail {
                mailbox_effects += mail.len() as u64;
                for eff in mail.drain(..) {
                    match eff {
                        CrossEffect::Credit { router, slot } => {
                            let r = router as usize;
                            let up_router = mat_mut(routers, r);
                            up_router.out_credits[slot as usize] += 1;
                            debug_assert!(up_router.out_credits[slot as usize] <= *buf_depth);
                            set_wake(active_bits, 0, r);
                        }
                        CrossEffect::Arrival { router, slot, flit } => {
                            let (r, slot) = (router as usize, slot as usize);
                            let down_router = materialize(&mut routers[r], materialized, pristine);
                            down_router.push_flit(slot, flit);
                            if cur_mask[r >> 6] >> (r & 63) & 1 == 1
                                && down_router.blocked[slot] == NOT_BLOCKED
                            {
                                down_router.blocked[slot] = cycle;
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
            *materialized += std::mem::take(&mut sc.materialized);
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
    /// must be in the exact state on which the whole pipeline is a no-op,
    /// and the per-router flit counters must agree with the buffers.
    #[cfg(debug_assertions)]
    fn skipped_router_check(&self, cycle: u64) {
        for (r, chunk) in self.routers.iter().enumerate() {
            let Some(router) = chunk.as_deref() else {
                // An unmaterialized router has never held a flit; it must
                // be indistinguishable from pristine.
                debug_assert_eq!(
                    self.router_flits[r], 0,
                    "router {r}: flits counted on an unmaterialized router at cycle {cycle}"
                );
                continue;
            };
            debug_assert_eq!(
                self.router_flits[r],
                router.buffered_flits(),
                "router {r}: flit counter out of sync at cycle {cycle}"
            );
            for s in 0..router.len.len() {
                debug_assert_eq!(
                    router.in_occ >> s & 1 == 1,
                    router.len[s] > 0,
                    "router {r}: occupancy bit {s} out of sync at cycle {cycle}"
                );
            }
            if self.worklist.binary_search(&(r as u32)).is_ok() {
                continue;
            }
            let nvcs = self.vcs as usize;
            for s in 0..router.len.len() {
                if router.len[s] == 0 {
                    // An empty VC may keep its route mid-packet (the flits
                    // seen so far moved on, the rest are still upstream or
                    // at the source NIC); no phase acts on it until the
                    // next flit arrival re-wakes the router.
                    debug_assert_eq!(
                        router.blocked[s], NOT_BLOCKED,
                        "router {r}: empty VC {s} with a blocked timer at {cycle}"
                    );
                    continue;
                }
                // A skipped occupied slot must be provably inert: its
                // blocked timer already runs, and it is either a
                // memo-stalled transit head (no release since the last
                // full attempt) or a routed-but-credit-starved requester.
                // Anything else would have re-armed or been woken.
                debug_assert!(
                    router.blocked[s] != NOT_BLOCKED,
                    "router {r} slept with an unmarked occupied VC {s} at {cycle}"
                );
                if router.route_port[s] == NO_ROUTE {
                    debug_assert!(
                        router
                            .front_flit(s)
                            .is_some_and(|f| f.is_head()),
                        "router {r} slept with an unrouted body flit at VC {s}, cycle {cycle}"
                    );
                    debug_assert_eq!(
                        router.stall_epoch[s], router.alloc_epoch,
                        "router {r} slept with a non-memoized waiting head at VC {s}, \
                         cycle {cycle}"
                    );
                } else {
                    let q = router.route_port[s] as usize;
                    debug_assert!(
                        self.net_port[q],
                        "router {r} slept with an eject-routed flit at VC {s}, cycle {cycle}"
                    );
                    debug_assert_eq!(
                        router.out_credits[q * nvcs + router.route_vc[s] as usize],
                        0,
                        "router {r} slept with a creditable requester at VC {s}, cycle {cycle}"
                    );
                }
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
        let router = mat(&self.routers, r);
        let mut occ = router.in_occ;
        while occ != 0 {
            let slot = occ.trailing_zeros() as usize;
            occ &= occ - 1;
            let f = router.front_flit(slot).expect("occupied slot");
            if f.is_head()
                && router.blocked[slot] != NOT_BLOCKED
                && now.saturating_sub(router.blocked[slot]) >= threshold
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
        let ports = self.links.ports;
        for r in 0..self.routers.len() {
            // An unmaterialized router holds no flits and owns no output
            // VCs — nothing to reclaim, nothing to release.
            if self.routers[r].is_none() {
                debug_assert_eq!(self.router_flits[r], 0);
                continue;
            }
            let mut removed_here = 0u32;
            if self.router_flits[r] > 0 {
                let mut occ = mat(&self.routers, r).in_occ;
                while occ != 0 {
                    let slot = occ.trailing_zeros() as usize;
                    occ &= occ - 1;
                    // Locate the packet's contiguous run in this buffer.
                    let len = mat(&self.routers, r).len[slot] as usize;
                    let mut run_start = len;
                    let mut run_len = 0usize;
                    let mut had_head = false;
                    for k in 0..len {
                        let f = mat(&self.routers, r).flit_at(slot, k);
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
                    let front_was = run_start == 0;
                    let router = mat_mut(&mut self.routers, r);
                    router.remove_run(slot, run_start, run_len);
                    if front_was {
                        router.route_port[slot] = NO_ROUTE;
                        router.blocked[slot] = NOT_BLOCKED;
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
                    let up = self.links.nbr[r * ports + p];
                    if self.net_port[p] {
                        let up = up as usize;
                        let up_slot = self.links.opp[p] as usize * nvcs + slot % nvcs;
                        let up_router = mat_mut(&mut self.routers, up);
                        up_router.out_credits[up_slot] += run_len as u32;
                        debug_assert!(up_router.out_credits[up_slot] <= self.buf_depth);
                        self.wake(up);
                    }
                }
                self.router_flits[r] -= removed_here;
            }
            // Release any output VCs the packet held (it can hold one at a
            // router it no longer buffers flits in — the wormhole spans
            // routers head to tail).
            let mut released = false;
            let mut owned = mat(&self.routers, r).out_owned;
            while owned != 0 {
                let s = owned.trailing_zeros() as usize;
                owned &= owned - 1;
                let router = mat_mut(&mut self.routers, r);
                if router.out_owner[s] == h {
                    router.release_out(s);
                    released = true;
                }
            }
            // A rescue mutates router state out of band; wake everything
            // it touched so remaining traffic reschedules.
            if removed_here > 0 || released {
                self.wake(r);
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
    /// Unmaterialized routers never moved a flit: zero.
    pub fn vc_busy(&self, node: NodeId, port: PortId, vc: u8) -> u64 {
        match self.routers[node.index()].as_deref() {
            Some(router) => router.vc_busy[port.index() * self.vcs as usize + vc as usize],
            None => 0,
        }
    }

    /// Utilization statistics over all *network* virtual channels after
    /// `cycles` of operation: `(mean, max, coefficient_of_variation)`.
    /// A high CV quantifies the unbalanced channel usage the paper blames
    /// for strict avoidance's early saturation (Section 4.3.2).
    pub fn vc_utilization(&self, cycles: u64) -> (f64, f64, f64) {
        if cycles == 0 {
            return (0.0, 0.0, 0.0);
        }
        let ports = self.topo.ports_per_router();
        let mut vals = Vec::new();
        for node in self.topo.routers() {
            for p in 0..ports {
                if self.topo.port_dim_dir(PortId(p as u8)).is_none() {
                    continue; // local ports excluded
                }
                // On meshes, skip nonexistent boundary links.
                let (d, dir) = self.topo.port_dim_dir(PortId(p as u8)).unwrap();
                if self.topo.neighbor(node, d, dir).is_none() {
                    continue;
                }
                for v in 0..self.vcs {
                    vals.push(
                        self.vc_busy(node, PortId(p as u8), v) as f64 / cycles as f64,
                    );
                }
            }
        }
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

/// One router's sleep bookkeeping, kept together because every fused
/// pass reads and writes all of it.
#[derive(Clone, Copy, Default, Debug)]
struct Sleep {
    /// True when the router's latest fused pass proved it fully stalled —
    /// no grant emitted, no route allocated, and every waiting head
    /// memo-stalled away from its destination router. Such a router is
    /// frozen (nothing it can do changes its own state), so instead of
    /// re-arming it sleeps until an external event wakes it. Destination
    /// heads disqualify: their stall is an ejection refusal that must be
    /// re-asked every cycle (endpoint queues drain without waking us).
    ok: bool,
    /// Number of memo-stalled waiting heads when it went to sleep — the
    /// per-cycle `vc_stalls` contribution its frozen state would re-count
    /// every slept cycle.
    stalls: u32,
    /// Cycle of its last executed fused pass, paired with `stalls` to
    /// reconstruct the allocation-stall count a permanently-rearming
    /// scheduler would have accumulated across the slept gap.
    last_pass: u64,
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
    /// the implied wake, arrival-side blocked mark and, if needed,
    /// chunk materialization).
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
    /// Router chunks materialized by intra-shard arrivals this cycle.
    materialized: u32,
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
            materialized: 0,
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
    pristine: &'a Router,
    packets: &'a PacketTable,
    cur_mask: &'a [u64],
    plan: &'a ShardPlan,
}

/// Split the first `n` elements off `rest`, advancing it past them.
fn split_off<'a, T>(rest: &mut &'a mut [T], n: usize) -> &'a mut [T] {
    let (head, tail) = std::mem::take(rest).split_at_mut(n);
    *rest = tail;
    head
}

/// One shard's mutable view of the network: disjoint slices of every
/// per-router array (router indices offset by `lo`, wake words by
/// `word_base`), its slice of the ascending worklist, its endpoint
/// controller and its scratch.
struct ShardTask<'a, E> {
    lo: u32,
    hi: u32,
    word_base: usize,
    routers: &'a mut [Option<Box<Router>>],
    router_flits: &'a mut [u32],
    sleep: &'a mut [Sleep],
    active_bits: &'a mut [u64],
    worklist: &'a [u32],
    ej: E,
    sc: &'a mut ShardScratch,
}

impl<E: EjectControl> ShardTask<'_, E> {
    /// One shard's whole cycle: a fused pass per woken router (phases 1,
    /// 2 and the blocked-timer marking), then the traversal phase over
    /// the shard's moves.
    fn run(mut self, sh: &StepShared<'_>, cycle: u64, routing: &dyn Routing) {
        let mut ps = PassScratch {
            req_head: [u16::MAX; 64],
            req_next: [u16::MAX; 128],
            obs: ObsDeltas::default(),
        };
        for wi in 0..self.worklist.len() {
            let r = self.worklist[wi] as usize;
            self.router_pass(sh, r, cycle, routing, &mut ps);
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
        routing: &dyn Routing,
        ps: &mut PassScratch,
    ) {
        let li = r - self.lo as usize;
        let nvcs = sh.vcs as usize;
        // Stall-counter compensation for a slept gap: a scheduler that
        // re-armed this fully-stalled router every cycle would have
        // re-counted each memo-stalled head once per cycle. The router's
        // state was frozen while it slept (sleeping implies no external
        // event touched it), so the count per skipped cycle is exactly
        // what it was at sleep time.
        let gap = cycle.saturating_sub(self.sleep[li].last_pass);
        if gap > 1 {
            ps.obs.stalls += (gap - 1) * self.sleep[li].stalls as u64;
        }
        self.sleep[li].last_pass = cycle;
        let mut pass_stalls = 0u32;
        let mut dst_head = false;
        let moves_before = self.sc.moves.len();
        // Per-port singly linked request chains (see
        // [`PassScratch::req_head`]; both `< 128`, so `u16::MAX` stays a
        // safe sentinel).
        let mut port_mask = 0u64;
        // Waiting heads that need a full allocation attempt, in scan order.
        let mut pend = [0u8; 128];
        let mut npend = 0usize;
        let total;
        {
            // Scan under a single router borrow: the occupancy walk touches
            // several parallel arrays per slot, and hoisting the borrow
            // keeps their base pointers live across the whole walk.
            let PassScratch {
                req_head,
                req_next,
                obs,
            } = ps;
            let router = mat_mut(self.routers, li);
            router.sync_rr_alloc(cycle);
            let nports = router.ports();
            total = nports * nvcs;
            debug_assert!(nports <= 64);
            let start = router.rr_alloc as usize % total;
            // Visit occupied slots in the dense scan's rotated order
            // (`start..total` then `0..start`, ascending within each half).
            // Slots the dense scan would have acted on all hold a flit, so
            // restricting to the occupancy mask is exact.
            let occ = router.in_occ;
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
                if router.blocked[idx] == NOT_BLOCKED {
                    router.blocked[idx] = cycle;
                }
                // Phase 2 (gather): a routed slot with a buffered flit
                // stands as a switch requester for its output port.
                let q = router.route_port[idx];
                if q != NO_ROUTE {
                    port_mask |= 1 << q;
                    req_next[idx] = req_head[q as usize];
                    req_head[q as usize] = ((idx / nvcs) << 8) as u16 | idx as u16;
                } else if router.front_flit(idx).expect("occupied slot").is_head() {
                    // Phase 1: route computation & VC allocation.
                    if router.stall_epoch[idx] == router.alloc_epoch {
                        // Memoized stall: no output VC on this router has
                        // been released since the last full attempt, and
                        // the candidate set of a waiting packet is fixed,
                        // so every candidate is still owner-busy.
                        obs.stalls += 1;
                        pass_stalls += 1;
                    } else {
                        pend[npend] = idx as u8;
                        npend += 1;
                    }
                }
            }
            router.rr_alloc = router.rr_alloc.wrapping_add(1);
            router.rr_cycle = cycle + 1;
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
            let h = mat(self.routers, li)
                .front_flit(idx)
                .expect("occupied slot")
                .msg;
            match self.alloc_slot(sh, r, idx, h, cycle, routing) {
                AllocOutcome::Granted => {
                    ps.obs.allocs += 1;
                    // A freshly routed head is a switch requester this
                    // same cycle. Chain position is immaterial: grants
                    // minimize rank over the set.
                    let q = mat(self.routers, li).route_port[idx];
                    debug_assert_ne!(q, NO_ROUTE);
                    port_mask |= 1 << q;
                    ps.req_next[idx] = ps.req_head[q as usize];
                    ps.req_head[q as usize] = ((idx / nvcs) << 8) as u16 | idx as u16;
                }
                AllocOutcome::StalledTransit => {
                    ps.obs.stalls += 1;
                    pass_stalls += 1;
                }
                AllocOutcome::StalledAtDst => {
                    ps.obs.stalls += 1;
                    pass_stalls += 1;
                    dst_head = true;
                }
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
            let router = mat_mut(self.routers, li);
            let mut in_used = 0u64; // input ports granted this cycle
            while port_mask != 0 {
                let q = port_mask.trailing_zeros() as usize;
                port_mask &= port_mask - 1;
                let rr = router.rr_out[q] as usize % total;
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
                    if is_net
                        && router.out_credits[q * nvcs + router.route_vc[idx] as usize] == 0
                    {
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
                    router.rr_out[q] = if idx + 1 == total { 0 } else { (idx + 1) as u32 };
                    // Burst streaming: an uncontended port granting a
                    // packet-body flit is a wormhole stream in flight — the
                    // continuation of a multi-flit block transfer that
                    // needed no arbitration this cycle.
                    if contenders == 1
                        && !router.front_flit(idx).expect("requester has a flit").is_head()
                    {
                        obs.burst_flits += 1;
                    }
                    moves.push(Move {
                        router: r as u32,
                        in_port: p as u8,
                        in_vc: (idx - p * nvcs) as u8,
                        out_port: q as u8,
                        out_vc: router.route_vc[idx],
                    });
                }
            }
        }
        // Sleep decision. No grant anywhere implies every routed slot is
        // credit-blocked (a port with a creditable requester always grants
        // someone, and local routes never need credits), and with every
        // waiting head memo-stalled away from its destination, re-running
        // this pass is a state no-op until an external event arrives. A
        // head stalled at its destination router keeps the router awake:
        // ejection admission must be re-asked as endpoint queues drain.
        let stalled = !dst_head && self.sc.moves.len() == moves_before;
        self.sleep[li].ok = stalled;
        self.sleep[li].stalls = if stalled { pass_stalls } else { 0 };
    }

    /// Full route-computation + VC-allocation attempt for the head `h` at
    /// `(r, idx)` — the non-memoized path. Reads the shared
    /// start-of-cycle packet table; every mutation stays on router `r`
    /// (a head's candidates are output VCs of the router it waits at).
    fn alloc_slot(
        &mut self,
        sh: &StepShared<'_>,
        r: usize,
        idx: usize,
        h: MsgHandle,
        cycle: u64,
        routing: &dyn Routing,
    ) -> AllocOutcome {
        let li = r - self.lo as usize;
        let node = NodeId(r as u32);
        let nvcs = sh.vcs as usize;
        let Some(pkt) = sh.packets.get(h).copied() else {
            debug_assert!(false, "flit in network without a registered packet");
            return AllocOutcome::Granted;
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
        let mut granted = false;
        for ci in 0..self.sc.cand.len() {
            let c = self.sc.cand[ci];
            if let Some(local) = sh.topo.port_local_index(c.port) {
                debug_assert_eq!(
                    node, pkt.dst_router,
                    "local candidate away from destination router"
                );
                let nic = sh.topo.nic_at(node, local);
                if self.ej.can_accept(nic, h, cycle) {
                    let router = mat_mut(self.routers, li);
                    router.route_port[idx] = c.port.0;
                    router.route_vc[idx] = 0;
                    granted = true;
                    break;
                }
            } else {
                let out_slot = c.port.index() * nvcs + c.vc as usize;
                let router = mat_mut(self.routers, li);
                if router.out_free(out_slot) {
                    router.own_out(out_slot, h);
                    router.route_port[idx] = c.port.0;
                    router.route_vc[idx] = c.vc;
                    granted = true;
                    break;
                }
            }
        }
        if granted {
            AllocOutcome::Granted
        } else if pkt.dst_router != node {
            // All candidates are output VCs of this router and all are
            // owner-busy; memoize until one is released. Destination heads
            // are exempt: their stall is an ejection refusal, and
            // `can_accept` both has side effects and depends on NIC state
            // this router cannot version.
            let router = mat_mut(self.routers, li);
            router.stall_epoch[idx] = router.alloc_epoch;
            AllocOutcome::StalledTransit
        } else {
            AllocOutcome::StalledAtDst
        }
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
            routers,
            router_flits,
            active_bits,
            word_base,
            ej,
            sc,
            ..
        } = self;
        let ShardScratch {
            moves,
            mail,
            pk,
            materialized,
            ..
        } = &mut **sc;
        let routers: &mut [Option<Box<Router>>] = routers;
        let router_flits: &mut [u32] = router_flits;
        let active_bits: &mut [u64] = active_bits;
        let word_base = *word_base;
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
            let router = mat_mut(routers, li);
            let flit = router.pop_flit(in_slot);
            router.blocked[in_slot] = if router.len[in_slot] > 0 {
                cycle
            } else {
                NOT_BLOCKED
            };
            if flit.is_tail {
                router.route_port[in_slot] = NO_ROUTE;
            }
            router_flits[li] -= 1;
            // Return a credit upstream (network inputs only; NICs poll
            // injection space directly). The credit is an event for the
            // upstream router: wake it so it can use the freed slot. The
            // upstream router sent this flit, so it is materialized.
            let up = nbr[r * ports + in_port as usize];
            if up != u32::MAX {
                let upu = up as usize;
                let up_slot = opp[in_port as usize] as usize * nvcs + in_vc as usize;
                if (lo..hi).contains(&upu) {
                    let up_router = mat_mut(routers, upu - lo);
                    up_router.out_credits[up_slot] += 1;
                    debug_assert!(up_router.out_credits[up_slot] <= sh.buf_depth);
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
                let router = mat_mut(routers, li);
                router.vc_busy[out_slot] += 1;
                debug_assert!(router.out_credits[out_slot] > 0);
                router.out_credits[out_slot] -= 1;
                if flit.is_tail {
                    router.release_out(out_slot);
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
                    // Flit arrival: the second (and only other) router
                    // materialization point.
                    let down_router =
                        materialize(&mut routers[down - lo], materialized, sh.pristine);
                    down_router.push_flit(down_slot, flit);
                    // Arrival mark: the trailing sweep of the phased
                    // pipeline would see this flit (post-move occupancy)
                    // at any router it covers this cycle.
                    if sh.cur_mask[down >> 6] >> (down & 63) & 1 == 1
                        && down_router.blocked[down_slot] == NOT_BLOCKED
                    {
                        down_router.blocked[down_slot] = cycle;
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

/// What one full allocation attempt did — feeds the router's sleep
/// decision.
#[derive(Clone, Copy, PartialEq, Eq)]
enum AllocOutcome {
    /// A route (network output VC or ejection reservation) was granted.
    Granted,
    /// Every candidate output VC is owner-busy; the stall is memoized.
    StalledTransit,
    /// The destination NIC refused admission; must be re-asked each cycle.
    StalledAtDst,
}

/// Debug-build shadow machinery: every [`Network::step_sharded`] cycle is
/// re-executed by a literal four-phase reference pipeline on a pre-cycle
/// snapshot, with endpoint interactions recorded during the real (fused)
/// pass and replayed to the reference; the two end states must match
/// field by field. This checks the fused pass, the stall memo, the blocked-timer
/// patch rules and the link tables against the phased semantics every
/// single cycle of every debug run.
#[cfg(debug_assertions)]
mod shadow {
    use super::*;

    /// One recorded endpoint interaction of the real pass.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub(super) enum EjEvent {
        Accept { nic: NicId, msg: MsgHandle, ok: bool },
        Flit { nic: NicId, msg: MsgHandle },
        Packet { nic: NicId, msg: MsgHandle, injected_at: u64 },
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
            self.delivers.push(EjEvent::Packet { nic, msg, injected_at });
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
                Some(EjEvent::Packet { nic, msg, injected_at }),
                "shadow: packet delivery sequences diverged"
            );
        }
    }

    /// Reusable snapshot + reference-pipeline scratch (all allocations
    /// are reused across cycles via `clone_from`).
    #[derive(Default, Debug)]
    pub(super) struct Scratch {
        routers: Vec<Option<Box<Router>>>,
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
        /// (`Option<Box<Router>>::clone_from` reuses the chunk allocation
        /// when both sides are materialized, so steady state stays
        /// allocation-free.)
        pub(super) fn snapshot(&mut self, net: &Network) {
            self.routers.clone_from(&net.routers);
            self.packets.clone_from(&net.packets);
            self.counters = net.counters;
            self.router_flits.clone_from(&net.router_flits);
            self.active_bits.clone_from(&net.active_bits);
            self.ej_log.clear();
        }

        /// Reference-side router access: the reference pipeline only
        /// touches woken routers and their link neighbors, all of which
        /// the snapshot holds materialized (or materializes on arrival in
        /// [`Scratch::ref_apply_moves`], mirroring the real pass).
        fn router_mut(&mut self, r: usize) -> &mut Router {
            self.routers[r]
                .as_deref_mut()
                .expect("reference touched an unmaterialized router")
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
            for &r in &net.worklist {
                let r = r as usize;
                let node = NodeId(r as u32);
                let router = self.router_mut(r);
                router.sync_rr_alloc(cycle);
                let total = router.ports() * nvcs;
                let start = router.rr_alloc as usize % total;
                let occ = router.in_occ;
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
                    let router = self.routers[r].as_deref().expect("woken router");
                    if router.route_port[idx] != NO_ROUTE {
                        continue;
                    }
                    let front = router.front_flit(idx).expect("occupied slot");
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
                                let router = self.router_mut(r);
                                router.route_port[idx] = c.port.0;
                                router.route_vc[idx] = 0;
                                break;
                            }
                        } else {
                            let out_slot = c.port.index() * nvcs + c.vc as usize;
                            let router = self.router_mut(r);
                            if router.out_free(out_slot) {
                                router.own_out(out_slot, h);
                                router.route_port[idx] = c.port.0;
                                router.route_vc[idx] = c.vc;
                                break;
                            }
                        }
                    }
                }
                let router = self.router_mut(r);
                router.rr_alloc = router.rr_alloc.wrapping_add(1);
                router.rr_cycle = cycle + 1;
            }
        }

        /// Reference phase 2: switch allocation — requests gathered in
        /// ascending slot order, then per-port round-robin grants.
        fn ref_switch_phase(&mut self, net: &Network) {
            self.moves.clear();
            let nvcs = net.vcs as usize;
            for &r in &net.worklist {
                let r = r as usize;
                let router = self.routers[r].as_deref_mut().expect("woken router");
                let total = router.ports() * nvcs;
                let mut reqs: Vec<(usize, u8, u8)> = Vec::new();
                let mut port_mask = 0u64;
                let mut occ = router.in_occ;
                while occ != 0 {
                    let idx = occ.trailing_zeros() as usize;
                    occ &= occ - 1;
                    if router.route_port[idx] != NO_ROUTE {
                        port_mask |= 1 << router.route_port[idx];
                        reqs.push((idx, router.route_port[idx], router.route_vc[idx]));
                    }
                }
                let mut in_used = [false; 64];
                while port_mask != 0 {
                    let q = port_mask.trailing_zeros() as usize;
                    port_mask &= port_mask - 1;
                    let rr = router.rr_out[q] as usize % total;
                    let mut best: Option<(usize, usize, u8)> = None;
                    for &(idx, op, ov) in &reqs {
                        if op as usize != q || in_used[idx / nvcs] {
                            continue;
                        }
                        if net.net_port[q] && router.out_credits[q * nvcs + ov as usize] == 0 {
                            continue;
                        }
                        let rank = (idx + total - rr) % total;
                        if best.is_none_or(|(b, _, _)| rank < b) {
                            best = Some((rank, idx, ov));
                        }
                    }
                    if let Some((_, idx, ov)) = best {
                        in_used[idx / nvcs] = true;
                        router.rr_out[q] = ((idx + 1) % total) as u32;
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
            for mi in 0..self.moves.len() {
                let Move { router: r, in_port, in_vc, out_port, out_vc } = self.moves[mi];
                let r = r as usize;
                let node = NodeId(r as u32);
                let in_slot = in_port as usize * nvcs + in_vc as usize;
                let router = self.router_mut(r);
                let flit = router.pop_flit(in_slot);
                router.blocked[in_slot] = NOT_BLOCKED;
                if flit.is_tail {
                    router.route_port[in_slot] = NO_ROUTE;
                }
                self.router_flits[r] -= 1;
                if let Some((d, dir)) = net.topo.port_dim_dir(PortId(in_port)) {
                    let up = net.topo.neighbor(node, d, dir).expect("input link exists");
                    let upport = net.topo.port(d, dir.opposite());
                    let up_slot = upport.index() * nvcs + in_vc as usize;
                    self.router_mut(up.index()).out_credits[up_slot] += 1;
                    self.active_bits[up.index() >> 6] |= 1 << (up.index() & 63);
                }
                let out = PortId(out_port);
                if let Some((d2, dir2)) = net.topo.port_dim_dir(out) {
                    let out_slot = out_port as usize * nvcs + out_vc as usize;
                    let router = self.router_mut(r);
                    router.vc_busy[out_slot] += 1;
                    router.out_credits[out_slot] -= 1;
                    if flit.is_tail {
                        router.release_out(out_slot);
                    }
                    if flit.is_head() && net.topo.crosses_dateline(node, d2, dir2) {
                        if let Some(st) = self.packets.get_mut(flit.msg) {
                            st.crossed_dateline |= 1 << d2;
                        }
                    }
                    let down = net.topo.neighbor(node, d2, dir2).expect("output link exists");
                    let dport = net.topo.port(d2, dir2.opposite());
                    let down_slot = dport.index() * nvcs + out_vc as usize;
                    // Mirror the real pass's arrival materialization: a
                    // fresh chunk is pristine-identical whichever side
                    // creates it.
                    let down_router = self.routers[down.index()]
                        .get_or_insert_with(|| Box::new(net.pristine.as_ref().clone()));
                    down_router.push_flit(down_slot, flit);
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
            for &r in &net.worklist {
                let router = self.router_mut(r as usize);
                let mut occ = router.in_occ;
                while occ != 0 {
                    let idx = occ.trailing_zeros() as usize;
                    occ &= occ - 1;
                    if router.blocked[idx] == NOT_BLOCKED {
                        router.blocked[idx] = cycle;
                    }
                }
            }
        }

        /// Compare the reference end state against the fused pipeline's.
        /// The memoization clocks (`stall_epoch`, `alloc_epoch`) are
        /// excluded: they are fused-pass bookkeeping with no phased
        /// counterpart.
        fn compare(&self, net: &Network, cycle: u64) {
            assert_eq!(self.counters, net.counters, "shadow: counters diverged at {cycle}");
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
            for (r, (sa, sb)) in self.routers.iter().zip(&net.routers).enumerate() {
                let (a, b) = match (sa.as_deref(), sb.as_deref()) {
                    (Some(a), Some(b)) => (a, b),
                    (None, None) => continue,
                    (a, b) => panic!(
                        "shadow: router {r} materialization diverged at {cycle} \
                         (reference {:?}, fused {:?})",
                        a.map(|_| "materialized"),
                        b.map(|_| "materialized"),
                    ),
                };
                assert_eq!(a.in_occ, b.in_occ, "shadow: router {r} occupancy at {cycle}");
                assert_eq!(a.head, b.head, "shadow: router {r} ring heads at {cycle}");
                assert_eq!(a.len, b.len, "shadow: router {r} buffer lengths at {cycle}");
                assert_eq!(a.bufs, b.bufs, "shadow: router {r} flit buffers at {cycle}");
                assert_eq!(
                    a.route_port, b.route_port,
                    "shadow: router {r} route ports at {cycle}"
                );
                // route_vc is only meaningful where a route is set.
                for s in 0..a.route_vc.len() {
                    if a.route_port[s] != NO_ROUTE {
                        assert_eq!(
                            a.route_vc[s], b.route_vc[s],
                            "shadow: router {r} route vc slot {s} at {cycle}"
                        );
                    }
                }
                assert_eq!(a.blocked, b.blocked, "shadow: router {r} blocked timers at {cycle}");
                assert_eq!(a.out_owned, b.out_owned, "shadow: router {r} ownership at {cycle}");
                let mut owned = a.out_owned;
                while owned != 0 {
                    let s = owned.trailing_zeros() as usize;
                    owned &= owned - 1;
                    assert_eq!(
                        a.out_owner[s], b.out_owner[s],
                        "shadow: router {r} out-VC {s} owner at {cycle}"
                    );
                }
                assert_eq!(a.out_credits, b.out_credits, "shadow: router {r} credits at {cycle}");
                assert_eq!(a.vc_busy, b.vc_busy, "shadow: router {r} vc_busy at {cycle}");
                assert_eq!(a.rr_out, b.rr_out, "shadow: router {r} rr_out at {cycle}");
                assert_eq!(a.rr_alloc, b.rr_alloc, "shadow: router {r} rr_alloc at {cycle}");
                assert_eq!(a.rr_cycle, b.rr_cycle, "shadow: router {r} rr_cycle at {cycle}");
            }
        }
    }
}
