//! The network interface proper.
//!
//! All queues and recovery records hold [`MsgHandle`]s into the
//! simulation's single-owner [`MessageStore`]; a message leaves the store
//! exactly once, at its consumption point (sinking, memory-controller
//! service start, or deflection), and new messages (subordinates, backoff
//! replies) enter it at creation.

use crate::config::NicConfig;
use crate::queue::MsgQueue;
use crate::stats::NicStats;
use mdd_obs::{CounterId, Event};
use mdd_protocol::{
    IdAlloc, Message, MessageId, MessageStore, MsgHandle, MsgKind, MsgType, PatternSpec,
};
use mdd_router::{Flit, Network, PacketState, Routing};
use mdd_topology::NicId;
use std::collections::VecDeque;
use std::sync::Arc;

/// Memory-controller state.
#[derive(Clone, Debug)]
pub enum Mc {
    /// Ready to accept work.
    Idle,
    /// Servicing a message until `done_at`.
    Busy {
        /// Message being serviced (owned: service is the consumption
        /// point, so the message has left the store).
        msg: Message,
        /// Completion cycle.
        done_at: u64,
        /// True if this is a rescue-processing operation whose subordinates
        /// go to the DMB (recovery lane) instead of the output queue.
        rescue: bool,
        /// What the service will produce (decided at start).
        plan: ServicePlan,
        /// `(queue index, slots)` reserved for the subordinates (normal
        /// mode; multicast hops reserve one slot per branch).
        out_reserved: Option<(usize, u32)>,
    },
}

/// Result of asking a NIC to contribute rescue work.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RescueOutcome {
    /// The rescue processing request was queued behind the current memory
    /// controller operation (preemption takes effect when it completes).
    Scheduled,
    /// The NIC is already engaged in a rescue operation.
    AlreadyBusy,
}

#[derive(Clone, Debug)]
enum RescueState {
    None,
    /// Waiting for the MC to become available to process this message
    /// (still owned by the store).
    WaitMc(MsgHandle),
    /// The MC is processing the rescued message.
    Processing,
    /// Subordinates generated by rescue processing, awaiting pickup by the
    /// recovery orchestrator.
    Ready(Vec<MsgHandle>),
}

/// What one memory-controller service operation will produce.
#[derive(Clone, Copy, Debug)]
pub enum ServicePlan {
    /// Nothing to generate (terminating — normally drained before the MC).
    Sink,
    /// A multicast branch reply that is not the last: absorbed at the join
    /// point, no subordinate yet.
    JoinIntermediate,
    /// Generate `fanout` copies of subordinate type `sub`.
    Generate {
        /// Subordinate message type.
        sub: MsgType,
        /// Copies to generate (one per multicast branch; 1 for linear
        /// chains).
        fanout: u32,
    },
}

/// What the head of an input queue waits on before the memory controller
/// can start it (see [`Nic::head_blocker`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Blocker {
    /// The output queue of subordinate type `sub` has `free` uncommitted
    /// slots, fewer than the `need` (one per multicast branch) that
    /// service reserves.
    Output {
        /// The subordinate type the head generates.
        sub: MsgType,
        /// Uncommitted slots in `sub`'s output queue.
        free: u32,
        /// Slots service reserves there.
        need: u32,
    },
    /// Input queue `rq` has no free slot to earmark for the reply that
    /// returns here mid-chain.
    Earmark {
        /// Index of the input queue the returning reply will use.
        rq: usize,
    },
}

#[derive(Clone, Copy, Debug)]
struct ActiveInjection {
    msg: MsgHandle,
    /// Cached `length_flits` so flit segmentation never resolves the
    /// store.
    len: u16,
    sent: u16,
    from_queue: usize,
}

/// One network interface (Figure 3): message queues, memory controller,
/// MSHRs, injection/ejection machinery, deadlock detector and recovery
/// hooks.
#[derive(Debug)]
pub struct Nic {
    id: NicId,
    cfg: NicConfig,
    pattern: Arc<PatternSpec>,
    in_q: Vec<MsgQueue>,
    out_q: Vec<MsgQueue>,
    mc: Mc,
    active_inject: Vec<Option<ActiveInjection>>,
    mc_rr: usize,
    mshrs_in_use: u32,
    detect_since: Option<u64>,
    detect_counted: bool,
    /// Cycle of the most recent dequeue from any input or output queue —
    /// the detector's "without making any progress" condition (Section
    /// 4.1) keys off this.
    last_progress: u64,
    injection_progress: bool,
    rescue: RescueState,
    pending_reissue: VecDeque<MsgHandle>,
    /// Join counters for multicast transactions: remaining branch replies
    /// the chain's join point must collect before continuing. Entries are
    /// created lazily from the branch count each join reply carries.
    joins: std::collections::HashMap<u64, u32>,
    /// Backoff replies that arrived and sink directly into the MSHR logic
    /// (they never occupy input-queue space; the preallocated MSHR
    /// resources consume them, per the Origin2000 backoff design).
    backoff_inbox: VecDeque<MsgHandle>,
    /// Scratch for injection-VC candidate queries (kept across cycles so
    /// the injection path allocates nothing in steady state).
    inject_vcs: Vec<u8>,
    /// Measurement switch: latency/throughput are only recorded while true
    /// (warm-up and drain phases are excluded).
    pub measuring: bool,
    /// Per-NIC statistics.
    pub stats: NicStats,
}

impl Nic {
    /// Build a NIC. `num_vcs` sizes the injection-channel tracking.
    pub fn new(id: NicId, cfg: NicConfig, pattern: Arc<PatternSpec>, num_vcs: u8) -> Self {
        let proto = pattern.protocol();
        let nq = cfg.queue_org.queue_count(proto);
        Nic {
            id,
            cfg,
            pattern,
            in_q: (0..nq).map(|_| MsgQueue::new(cfg.queue_capacity)).collect(),
            out_q: (0..nq).map(|_| MsgQueue::new(cfg.queue_capacity)).collect(),
            mc: Mc::Idle,
            active_inject: (0..num_vcs).map(|_| None).collect(),
            mc_rr: 0,
            mshrs_in_use: 0,
            detect_since: None,
            detect_counted: false,
            last_progress: 0,
            injection_progress: false,
            rescue: RescueState::None,
            pending_reissue: VecDeque::new(),
            joins: std::collections::HashMap::new(),
            backoff_inbox: VecDeque::new(),
            inject_vcs: Vec::new(),
            measuring: true,
            stats: NicStats::default(),
        }
    }

    /// This NIC's id.
    #[inline]
    pub fn id(&self) -> NicId {
        self.id
    }

    /// The configuration.
    #[inline]
    pub fn config(&self) -> &NicConfig {
        &self.cfg
    }

    /// The queue pair type `t` uses: input and output queues share one
    /// index map.
    fn queue_idx(&self, t: MsgType) -> usize {
        self.cfg.queue_org.queue_index(self.pattern.protocol(), t)
    }

    /// Read access to input queue `i`.
    pub fn in_queue(&self, i: usize) -> &MsgQueue {
        &self.in_q[i]
    }

    /// Read access to output queue `i`.
    pub fn out_queue(&self, i: usize) -> &MsgQueue {
        &self.out_q[i]
    }

    /// Number of queue pairs.
    pub fn num_queues(&self) -> usize {
        self.in_q.len()
    }

    /// Outstanding transactions with this node as requester.
    pub fn outstanding(&self) -> u32 {
        self.mshrs_in_use
    }

    /// Total messages buffered (input + output + reissue), for drain
    /// checks.
    pub fn buffered_messages(&self) -> usize {
        self.in_q.iter().map(MsgQueue::len).sum::<usize>()
            + self.out_q.iter().map(MsgQueue::len).sum::<usize>()
            + self.pending_reissue.len()
            + self.backoff_inbox.len()
            + usize::from(matches!(self.mc, Mc::Busy { .. }))
            + self.active_inject.iter().flatten().count()
    }

    // ------------------------------------------------------------------
    // Ejection side: admission is asked by the network step; the
    // simulator hands over each packet the step delivered.
    // ------------------------------------------------------------------

    /// May packet `msg` begin ejecting here? Reserves a queue slot on
    /// success; a reply claims the slot earmarked for it when the
    /// configuration preallocates replies.
    pub fn can_accept(&mut self, msg: &Message) -> bool {
        // Backoff replies sink directly into the requester's MSHR logic
        // without consuming input-queue space.
        msg.is_backoff || self.reserve_input(msg).is_some()
    }

    /// Reserve the input-queue slot arriving message `msg` will occupy and
    /// return its queue: the slot earmarked for it when reply
    /// preallocation made one (the terminating reply of this node's own
    /// request, or a non-terminating reply returning mid-chain), otherwise
    /// a free one.
    fn reserve_input(&mut self, msg: &Message) -> Option<usize> {
        let qi = self.queue_idx(msg.mtype);
        let proto = self.pattern.protocol();
        let earmarked = self.cfg.preallocate
            && if proto.is_terminating(msg.mtype) {
                msg.requester == self.id
            } else {
                proto.kind(msg.mtype) == MsgKind::Reply
            };
        (earmarked && self.in_q[qi].claim_earmark() || self.in_q[qi].reserve(1)).then_some(qi)
    }

    /// The packet's tail ejected here: enqueue the complete message into
    /// the slot [`Nic::can_accept`] reserved for it (`msg` is `h` resolved
    /// by the caller).
    pub fn on_packet(&mut self, h: MsgHandle, msg: &Message) {
        if msg.is_backoff {
            self.backoff_inbox.push_back(h);
            return;
        }
        let qi = self.queue_idx(msg.mtype);
        self.in_q[qi].push_reserved(h);
    }

    // ------------------------------------------------------------------
    // Request issue (driven by the traffic generator).
    // ------------------------------------------------------------------

    /// Can a new transaction be started right now? Checks an MSHR, output
    /// queue space for the request, and (when preallocating) an input
    /// reply-queue slot for the eventual terminating reply.
    pub fn can_issue_request(&self, first_type: MsgType) -> bool {
        if self.mshrs_in_use >= self.cfg.mshr_limit {
            return false;
        }
        if !self.out_q[self.queue_idx(first_type)].has_space() {
            return false;
        }
        if self.cfg.preallocate {
            let term = self.pattern.protocol().terminating_type();
            if !self.in_q[self.queue_idx(term)].has_space() {
                return false;
            }
        }
        true
    }

    /// Start a transaction: enqueue its first message. Call only after
    /// [`Nic::can_issue_request`] returns true in the same cycle.
    pub fn issue_request(&mut self, h: MsgHandle, store: &MessageStore) {
        let msg = store.get(h);
        debug_assert_eq!(msg.src, self.id);
        let mtype = msg.mtype;
        self.mshrs_in_use += 1;
        if self.cfg.preallocate {
            let term = self.pattern.protocol().terminating_type();
            let qi = self.queue_idx(term);
            let ok = self.in_q[qi].earmark();
            debug_assert!(ok, "can_issue_request guaranteed earmark space");
        }
        let oq = self.queue_idx(mtype);
        self.out_q[oq]
            .push_new(h)
            .expect("can_issue_request guaranteed output space");
    }

    // ------------------------------------------------------------------
    // Per-cycle endpoint work.
    // ------------------------------------------------------------------

    /// Advance the endpoint one cycle: sink terminating heads, drain
    /// backoff replies, finish/start memory-controller operations, and
    /// update the potential-deadlock detector.
    pub fn tick(&mut self, cycle: u64, ids: &mut IdAlloc, store: &mut MessageStore) {
        self.drain_sinkable(cycle, ids, store);
        self.drain_backoff_inbox(cycle, ids, store);
        self.reissue_pending(store);
        self.mc_finish(cycle, ids, store);
        self.mc_start(cycle, store);
        self.update_detector(cycle, store);
    }

    /// Sink terminating (and backoff) messages at every input-queue head.
    /// Terminating replies complete transactions against the preallocated
    /// MSHR; backoff replies enqueue the deflected subordinate for reissue.
    fn drain_sinkable(&mut self, cycle: u64, ids: &mut IdAlloc, store: &mut MessageStore) {
        for qi in 0..self.in_q.len() {
            while let Some(&h) = self.in_q[qi].front() {
                let sinkable = {
                    let head = store.get(h);
                    self.pattern.protocol().is_terminating(head.mtype) || head.is_backoff
                };
                if !sinkable {
                    break;
                }
                self.in_q[qi].pop().expect("checked non-empty");
                let m = store.remove(h);
                self.note_progress(cycle);
                self.note_consumed(&m, cycle);
                if m.is_backoff {
                    self.resume_backoff(&m, cycle, ids, store);
                } else {
                    self.complete_transaction(&m);
                }
            }
        }
    }

    /// Consume MSHR-sunk backoff replies: each enqueues its deflected
    /// subordinate for reissue by this requester.
    fn drain_backoff_inbox(&mut self, cycle: u64, ids: &mut IdAlloc, store: &mut MessageStore) {
        while let Some(h) = self.backoff_inbox.pop_front() {
            let m = store.remove(h);
            self.note_consumed(&m, cycle);
            self.resume_backoff(&m, cycle, ids, store);
        }
    }

    /// The requester resumes the chain backoff reply `m` deflected: it
    /// builds the deflected subordinate itself (fanning out, if the
    /// deflected hop was a multicast invalidation) and queues it for
    /// reissue.
    fn resume_backoff(
        &mut self,
        m: &Message,
        cycle: u64,
        ids: &mut IdAlloc,
        store: &mut MessageStore,
    ) {
        let plan = self.peek_plan(m);
        self.commit_join(m);
        let subs = self.make_subordinates(m, plan, cycle, ids, store);
        self.pending_reissue.extend(subs);
    }

    fn complete_transaction(&mut self, m: &Message) {
        debug_assert_eq!(
            m.requester, self.id,
            "terminating replies sink at the requester"
        );
        debug_assert!(self.mshrs_in_use > 0);
        self.mshrs_in_use -= 1;
        if self.measuring {
            self.stats.transactions_completed += 1;
        }
    }

    fn note_progress(&mut self, cycle: u64) {
        self.last_progress = cycle;
    }

    fn note_consumed(&mut self, m: &Message, cycle: u64) {
        mdd_obs::counter_add(CounterId::MsgsConsumed, 1);
        mdd_obs::trace!(Event::Consume {
            cycle,
            nic: self.id.0,
            msg: m.id.0,
            mtype: m.mtype.0,
        });
        if self.measuring {
            self.stats.messages_consumed += 1;
            let lat = (cycle - m.created) as f64;
            self.stats.msg_latency.add(lat);
            self.stats.msg_latency_quantiles.add(lat);
        }
    }

    /// Move deflection-resumed messages into their output queues as space
    /// appears (bounded by outstanding requests, so this buffer cannot grow
    /// without bound).
    fn reissue_pending(&mut self, store: &MessageStore) {
        while let Some(&h) = self.pending_reissue.front() {
            let oq = self.queue_idx(store.get(h).mtype);
            if !self.out_q[oq].has_space() {
                break;
            }
            self.pending_reissue.pop_front();
            self.out_q[oq].push_new(h).expect("space just checked");
        }
    }

    fn mc_finish(&mut self, cycle: u64, ids: &mut IdAlloc, store: &mut MessageStore) {
        let done = matches!(&self.mc, Mc::Busy { done_at, .. } if *done_at <= cycle);
        if !done {
            return;
        }
        let Mc::Busy {
            msg,
            rescue,
            plan,
            out_reserved,
            ..
        } = std::mem::replace(&mut self.mc, Mc::Idle)
        else {
            unreachable!()
        };
        self.stats.mc_busy_cycles += self.cfg.service_time;
        let subs = self.make_subordinates(&msg, plan, cycle, ids, store);
        if rescue {
            self.rescue = RescueState::Ready(subs);
        } else {
            match plan {
                ServicePlan::Generate { .. } => {
                    let (oq, slots) = out_reserved.expect("normal service reserved output");
                    debug_assert_eq!(slots as usize, subs.len());
                    for sub in subs {
                        debug_assert_eq!(oq, self.queue_idx(store.get(sub).mtype));
                        self.out_q[oq].push_reserved(sub);
                    }
                }
                ServicePlan::JoinIntermediate | ServicePlan::Sink => {
                    debug_assert!(subs.is_empty());
                }
            }
        }
    }

    fn mc_start(&mut self, cycle: u64, store: &mut MessageStore) {
        if !matches!(self.mc, Mc::Idle) {
            return;
        }
        // Rescue processing preempts normal work once the MC is idle.
        if let RescueState::WaitMc(_) = &self.rescue {
            let RescueState::WaitMc(h) =
                std::mem::replace(&mut self.rescue, RescueState::Processing)
            else {
                unreachable!()
            };
            let m = store.remove(h);
            self.note_consumed(&m, cycle);
            let plan = self.peek_plan(&m);
            self.commit_join(&m);
            self.mc = Mc::Busy {
                msg: m,
                done_at: cycle + self.cfg.service_time,
                rescue: true,
                plan,
                out_reserved: None,
            };
            return;
        }
        // Round-robin over input queues for a head that can start; it
        // takes the output room and return earmark `head_blocker` found.
        let nq = self.in_q.len();
        for k in 0..nq {
            let qi = (self.mc_rr + k) % nq;
            let Some(&h) = self.in_q[qi].front() else {
                continue;
            };
            if self.head_blocker(qi, store).is_some() {
                continue;
            }
            let m = store.get(h);
            let plan = self.peek_plan(m);
            let oq_reserved = match plan {
                ServicePlan::Sink => continue, // drained before the MC
                ServicePlan::JoinIntermediate => None,
                ServicePlan::Generate { sub, fanout } => {
                    let oq = self.queue_idx(sub);
                    let ok = self.out_q[oq].reserve(fanout);
                    debug_assert!(ok, "head_blocker found output room");
                    if let Some(rq) = self.return_earmark(m) {
                        let ok = self.in_q[rq].earmark();
                        debug_assert!(ok, "head_blocker found earmark room");
                    }
                    Some((oq, fanout))
                }
            };
            self.in_q[qi].pop().expect("head just observed");
            let m = store.remove(h);
            self.note_progress(cycle);
            self.note_consumed(&m, cycle);
            self.commit_join(&m);
            self.mc = Mc::Busy {
                msg: m,
                done_at: cycle + self.cfg.service_time,
                rescue: false,
                plan,
                out_reserved: oq_reserved,
            };
            self.mc_rr = (qi + 1) % nq;
            return;
        }
    }

    /// What servicing message `m` would produce (read-only: join counters
    /// are not touched — call [`Nic::commit_join`] when service actually
    /// begins).
    fn peek_plan(&self, m: &Message) -> ServicePlan {
        let shape = self.pattern.shape(m.shape);
        let pos = m.chain_pos as usize;
        if shape.is_last(pos) {
            return ServicePlan::Sink;
        }
        if shape.is_join_reply(pos) && m.sharers != 0 {
            // One branch reply of a multicast transaction: collected at the
            // join point; the chain continues only when the last branch is
            // serviced. Counters self-initialize from the branch count each
            // reply carries, so joins work wherever the branches were
            // generated (home, requester after deflection, or a rescuing
            // memory controller).
            let remaining = self
                .joins
                .get(&m.txn.0)
                .copied()
                .unwrap_or_else(|| m.fanout());
            if remaining > 1 {
                return ServicePlan::JoinIntermediate;
            }
        }
        let sub = shape.mtype(pos + 1);
        let fanout = if shape.is_multicast(pos + 1) && m.sharers != 0 {
            m.fanout()
        } else {
            1
        };
        ServicePlan::Generate { sub, fanout }
    }

    /// Commit the join-counter side effect of beginning to service `m`.
    fn commit_join(&mut self, m: &Message) {
        let shape = self.pattern.shape(m.shape);
        let pos = m.chain_pos as usize;
        if !shape.is_last(pos) && shape.is_join_reply(pos) && m.sharers != 0 {
            let remaining = self.joins.entry(m.txn.0).or_insert_with(|| m.fanout());
            if *remaining > 1 {
                *remaining -= 1;
            } else {
                self.joins.remove(&m.txn.0);
            }
        }
    }

    /// Under reply preallocation, if servicing `m` sends a subordinate
    /// whose own successor returns to this node (chain position `pos + 2`
    /// resolves here, e.g. the FRP a home receives after forwarding an
    /// FRQ), the input queue that successor will use: service earmarks a
    /// slot there, keeping the reply network deadlock-free (the
    /// Origin2000's second avoidance technique).
    fn return_earmark(&self, m: &Message) -> Option<usize> {
        if !self.cfg.preallocate {
            return None;
        }
        let shape = self.pattern.shape(m.shape);
        let pos = m.chain_pos as usize;
        if pos + 2 >= shape.len() {
            return None;
        }
        let ret_type = shape.mtype(pos + 2);
        if m.resolve_target(shape.target(pos + 2)) == self.id {
            Some(self.queue_idx(ret_type))
        } else {
            None
        }
    }

    /// What keeps the head of input queue `qi` from starting service, or
    /// `None` if it can start (or the queue is empty). This is the one
    /// definition of "the head cannot start" that memory-controller
    /// service, the detector, deflection and rescue all read: a
    /// non-terminating head needs output room for every subordinate it
    /// generates and, under reply preallocation, a free slot to earmark
    /// for the reply that returns here mid-chain. Output room is tested
    /// first, so a head short of both reports [`Blocker::Output`].
    pub fn head_blocker(&self, qi: usize, store: &MessageStore) -> Option<Blocker> {
        let m = store.get(*self.in_q[qi].front()?);
        let ServicePlan::Generate { sub, fanout } = self.peek_plan(m) else {
            return None; // sinkable and join-intermediate heads never wait
        };
        let free = self.out_q[self.queue_idx(sub)].free();
        if free < fanout {
            return Some(Blocker::Output {
                sub,
                free,
                need: fanout,
            });
        }
        let rq = self.return_earmark(m)?;
        (!self.in_q[rq].has_space()).then_some(Blocker::Earmark { rq })
    }

    /// Build the subordinate messages of `m` per its transaction shape
    /// and the decided service plan (one per multicast branch), inserting
    /// each into the store and returning their handles.
    fn make_subordinates(
        &self,
        m: &Message,
        plan: ServicePlan,
        cycle: u64,
        ids: &mut IdAlloc,
        store: &mut MessageStore,
    ) -> Vec<MsgHandle> {
        let ServicePlan::Generate { sub: mtype, fanout } = plan else {
            return Vec::new();
        };
        let shape = self.pattern.shape(m.shape);
        let pos = m.chain_pos as usize;
        let proto = self.pattern.protocol();
        let template =
            |dst: mdd_topology::NicId, owner: mdd_topology::NicId, ids: &mut IdAlloc| Message {
                id: ids.next_msg(),
                txn: m.txn,
                mtype,
                shape: m.shape,
                chain_pos: (pos + 1) as u8,
                src: self.id,
                dst,
                requester: m.requester,
                home: m.home,
                owner,
                length_flits: proto.length(mtype),
                created: cycle,
                is_backoff: false,
                rescued: false,
                // Branch replies need the branch count at the join point, so
                // the sharer mask travels with every chain message.
                sharers: m.sharers,
            };
        if fanout > 1 {
            m.sharer_ids()
                .map(|sharer| store.insert(template(sharer, sharer, ids)))
                .collect()
        } else {
            let dst = m.resolve_target(shape.target(pos + 1));
            vec![store.insert(template(dst, m.owner, ids))]
        }
    }

    // ------------------------------------------------------------------
    // Potential-deadlock detection (Section 2.2 conditions).
    // ------------------------------------------------------------------

    /// The input queues whose head the detector counts as stuck, in index
    /// order, each with the subordinate type its head cannot deposit. A
    /// head can only be stuck if its own queue is completely committed —
    /// checked first so the per-cycle detector scan resolves no message
    /// state on uncongested endpoints.
    fn stuck_queues<'a>(
        &'a self,
        store: &'a MessageStore,
    ) -> impl Iterator<Item = (usize, MsgType)> + 'a {
        (0..self.in_q.len())
            .filter(|&qi| self.in_q[qi].is_full())
            .filter_map(move |qi| match self.head_blocker(qi, store)? {
                Blocker::Output { sub, free: 0, .. } => Some((qi, sub)),
                // Not counted today, though the head waits all the same:
                // partial multicast room and an unfree return-reply
                // earmark. The earmark is the Figure 8 DR wedge; counting
                // it is ROADMAP item 1 and moves pinned DR results.
                Blocker::Output { .. } | Blocker::Earmark { .. } => None,
            })
    }

    /// True if no queue dequeue has happened for a full time-out window —
    /// the paper's "without making any progress" requirement (Section
    /// 4.1). Congested-but-flowing endpoints never satisfy this.
    fn stalled(&self, cycle: u64) -> bool {
        cycle.saturating_sub(self.last_progress) >= self.cfg.detect_threshold
    }

    fn update_detector(&mut self, cycle: u64, store: &MessageStore) {
        let Some((qi, _)) = self.stuck_queues(store).next() else {
            self.detect_since = None;
            self.detect_counted = false;
            return;
        };
        let since = *self.detect_since.get_or_insert(cycle);
        if cycle.saturating_sub(since) >= self.cfg.detect_threshold
            && self.stalled(cycle)
            && !self.detect_counted
        {
            if self.measuring {
                self.stats.deadlocks_detected += 1;
            }
            // The obs counter deliberately ignores the measurement
            // window: warm-up deadlocks are part of the mechanism's
            // story even if excluded from the paper's metrics.
            mdd_obs::counter_add(CounterId::DeadlocksDetected, 1);
            mdd_obs::trace!(Event::DeadlockDetected {
                cycle,
                nic: self.id.0,
                msg: self.in_q[qi].front().map_or(0, |&h| store.get(h).id.0),
            });
            self.detect_counted = true;
        }
    }

    /// True once the detector's condition has persisted for the configured
    /// time-out with no endpoint progress: a potential message-dependent
    /// deadlock is declared.
    pub fn detection_fired(&self, cycle: u64) -> bool {
        self.stalled(cycle)
            && matches!(self.detect_since, Some(t)
                if cycle.saturating_sub(t) >= self.cfg.detect_threshold)
    }

    // ------------------------------------------------------------------
    // Deflective recovery (DR): Origin2000-style backoff.
    // ------------------------------------------------------------------

    /// Attempt the deflection action: pop a stuck head whose subordinate is
    /// a request, and send the requester a backoff reply (carrying the
    /// owner information) so it forwards the request itself. Returns true
    /// if a deflection happened.
    pub fn try_deflect(&mut self, cycle: u64, ids: &mut IdAlloc, store: &mut MessageStore) -> bool {
        let Some(bkf) = self.pattern.protocol().backoff_type() else {
            return false;
        };
        // Only a stuck head whose subordinate is a request is deflectable.
        let proto = self.pattern.protocol();
        let Some((qi, _)) = self
            .stuck_queues(store)
            .find(|&(_, sub)| proto.kind(sub) == MsgKind::Request)
        else {
            return false;
        };
        let bq = self.queue_idx(bkf);
        if !self.out_q[bq].has_space() {
            return false; // reply output full; replies drain, so retry later
        }
        let h = self.in_q[qi].pop().expect("target head observed");
        let m = store.remove(h);
        self.note_progress(cycle);
        self.note_consumed(&m, cycle);
        let backoff = Message {
            id: ids.next_msg(),
            txn: m.txn,
            mtype: bkf,
            shape: m.shape,
            chain_pos: m.chain_pos, // receiver resumes at chain_pos + 1
            src: self.id,
            dst: m.requester,
            requester: m.requester,
            home: m.home,
            owner: m.owner,
            length_flits: self.pattern.protocol().length(bkf),
            created: cycle,
            is_backoff: true,
            rescued: false,
            sharers: m.sharers,
        };
        mdd_obs::counter_add(CounterId::BackoffReplies, 1);
        mdd_obs::trace!(Event::BackoffReply {
            cycle,
            nic: self.id.0,
            msg: backoff.id.0,
            deflected: m.id.0,
        });
        let bh = store.insert(backoff);
        self.out_q[bq].push_new(bh).expect("space just checked");
        if self.measuring {
            self.stats.deflections += 1;
        }
        true
    }

    // ------------------------------------------------------------------
    // Progressive recovery (PR) hooks.
    // ------------------------------------------------------------------

    /// Begin a rescue at this (token-capturing) NIC: remove the stuck head
    /// from its input queue and schedule the memory controller to process
    /// it with the subordinate redirected to the DMB. Returns the rescued
    /// head's id, or `None` if no stuck head exists (the situation
    /// resolved itself).
    pub fn begin_rescue_from_input(
        &mut self,
        cycle: u64,
        store: &MessageStore,
    ) -> Option<MessageId> {
        if !matches!(self.rescue, RescueState::None) {
            return None;
        }
        let (qi, _) = self.stuck_queues(store).next()?;
        let h = self.in_q[qi].pop().expect("target head observed");
        let id = store.get(h).id;
        self.note_progress(cycle);
        self.rescue = RescueState::WaitMc(h);
        if self.measuring {
            self.stats.rescues += 1;
        }
        Some(id)
    }

    /// A rescued message arrived over the recovery lane and the input
    /// queue was full: schedule the MC (preempted after its current
    /// operation) to process it directly. The message must be
    /// non-terminating — terminating arrivals use
    /// [`Nic::sink_terminating`].
    pub fn rescue_process(&mut self, h: MsgHandle) -> RescueOutcome {
        if !matches!(self.rescue, RescueState::None) {
            return RescueOutcome::AlreadyBusy;
        }
        self.rescue = RescueState::WaitMc(h);
        RescueOutcome::Scheduled
    }

    /// Take the subordinates produced by a completed rescue-processing
    /// operation, if ready.
    pub fn take_rescue_output(&mut self) -> Option<Vec<MsgHandle>> {
        if matches!(self.rescue, RescueState::Ready(_)) {
            let RescueState::Ready(v) = std::mem::replace(&mut self.rescue, RescueState::None)
            else {
                unreachable!()
            };
            Some(v)
        } else {
            None
        }
    }

    /// True while a rescue operation is queued or processing here.
    pub fn rescue_busy(&self) -> bool {
        !matches!(self.rescue, RescueState::None)
    }

    /// Messages currently held by this NIC's deadlock message buffer
    /// (rescue pipeline): the message awaiting or undergoing rescue
    /// processing, or the subordinates awaiting orchestrator pickup.
    pub fn dmb_occupancy(&self) -> u32 {
        match &self.rescue {
            RescueState::None => 0,
            RescueState::WaitMc(_) | RescueState::Processing => 1,
            RescueState::Ready(subs) => subs.len() as u32,
        }
    }

    /// Deposit a lane-delivered message into the input queue if space
    /// exists (the fast path of the Figure 4 flowchart).
    pub fn try_deposit_input(
        &mut self,
        h: MsgHandle,
        store: &MessageStore,
    ) -> Result<(), MsgHandle> {
        let Some(qi) = self.reserve_input(store.get(h)) else {
            return Err(h);
        };
        self.in_q[qi].push_reserved(h);
        Ok(())
    }

    /// Deposit a rescue-generated subordinate into its output queue if
    /// space exists.
    pub fn try_deposit_output(
        &mut self,
        h: MsgHandle,
        store: &MessageStore,
    ) -> Result<(), MsgHandle> {
        let oq = self.queue_idx(store.get(h).mtype);
        self.out_q[oq].push_new(h)
    }

    /// Sink a terminating message delivered over the recovery lane whose
    /// destination input queue is full: consumed directly by the memory
    /// controller via preemption (Appendix, Case 2).
    pub fn sink_terminating(&mut self, h: MsgHandle, cycle: u64, store: &mut MessageStore) {
        let msg = store.remove(h);
        debug_assert!(self.pattern.protocol().is_terminating(msg.mtype));
        self.note_consumed(&msg, cycle);
        self.complete_transaction(&msg);
    }

    // ------------------------------------------------------------------
    // Idle-skip scheduling.
    // ------------------------------------------------------------------

    /// True while the per-cycle endpoint work ([`Nic::tick`] /
    /// [`Nic::injection_tick`]) can do something: any queue, inbox or
    /// injection channel holds a message, or a rescue is in flight. While
    /// false, both ticks are provably no-ops until either the memory
    /// controller's current operation completes or an external event
    /// (packet delivery, request issue, recovery deposit) hands the NIC
    /// new work.
    fn has_queued_work(&self) -> bool {
        self.in_q.iter().any(|q| !q.is_empty())
            || self.out_q.iter().any(|q| !q.is_empty())
            || !self.pending_reissue.is_empty()
            || !self.backoff_inbox.is_empty()
            || self.active_inject.iter().any(Option::is_some)
            || self.rescue_busy()
    }

    /// The next cycle at which this NIC's ticks must execute, as of `now`:
    /// `now` itself while it holds work, the memory controller's
    /// completion cycle when only a service operation is pending, or
    /// `u64::MAX` when fully inert (a wake event will reschedule it).
    pub fn next_tick_cycle(&self, now: u64) -> u64 {
        if self.has_queued_work() {
            return now;
        }
        match &self.mc {
            Mc::Busy { done_at, .. } => *done_at,
            Mc::Idle => u64::MAX,
        }
    }

    // ------------------------------------------------------------------
    // Injection.
    // ------------------------------------------------------------------

    /// Injection work for one cycle: start packetizing output-queue heads
    /// onto idle injection virtual channels, then transmit one flit of one
    /// active injection (the NIC-to-router link carries one flit per
    /// cycle).
    pub fn injection_tick(
        &mut self,
        net: &mut Network,
        routing: &dyn Routing,
        cycle: u64,
        store: &MessageStore,
    ) {
        // Arbitration offsets are functions of the cycle alone, so they
        // are the same however many ticks idle-skip elided: the queue scan
        // starts at `cycle % nq` and the flit scan one further on.
        let nq = self.out_q.len();
        let rr = (cycle % nq as u64) as usize;
        self.start_injections(net, routing, cycle, store, rr);
        self.injection_progress = false;
        self.transmit_flit(net, (rr + 1) % nq);
        if self.injection_progress {
            self.note_progress(cycle);
        }
    }

    fn start_injections(
        &mut self,
        net: &mut Network,
        routing: &dyn Routing,
        cycle: u64,
        store: &MessageStore,
        rr: usize,
    ) {
        let nq = self.out_q.len();
        // Router-side idleness per injection VC, computed once for the
        // whole scan: claiming a VC for a queue changes only NIC-side
        // state (`active_inject`), never the router's input buffers, so
        // the mask stays valid across queues. When no VC is both unclaimed
        // and idle — the common case under saturation — the scan is
        // skipped wholesale.
        let nvc = self.active_inject.len();
        debug_assert!(nvc <= 64, "occupancy masks already cap ports*vcs at 128");
        let mut free_mask = 0u64;
        for v in 0..nvc {
            if self.active_inject[v].is_none() && net.injection_vc_idle(self.id, v as u8) {
                free_mask |= 1 << v;
            }
        }
        if free_mask == 0 {
            return;
        }
        for k in 0..nq {
            let qi = (rr + k) % nq;
            let Some(&h) = self.out_q[qi].front() else {
                continue;
            };
            // Already being injected?
            if self.active_inject.iter().flatten().any(|a| a.msg == h) {
                continue;
            }
            let head = store.get(h);
            let pkt = PacketState {
                msg: h,
                mtype: head.mtype,
                src: head.src,
                dst: head.dst,
                dst_router: net.topo().nic_router(head.dst),
                crossed_dateline: 0,
            };
            self.inject_vcs.clear();
            routing.injection_vcs(&pkt, &mut self.inject_vcs);
            let chosen = self
                .inject_vcs
                .iter()
                .copied()
                .find(|&v| self.active_inject[v as usize].is_none() && free_mask >> v & 1 == 1);
            let Some(v) = chosen else { continue };
            mdd_obs::counter_add(CounterId::MsgsInjected, 1);
            mdd_obs::trace!(Event::Inject {
                cycle,
                nic: self.id.0,
                msg: head.id.0,
                mtype: head.mtype.0,
            });
            net.begin_packet(h, head);
            self.active_inject[v as usize] = Some(ActiveInjection {
                msg: h,
                len: u16::try_from(head.length_flits)
                    .expect("protocol types are at most u16::MAX flits long"),
                sent: 0,
                from_queue: qi,
            });
        }
    }

    fn transmit_flit(&mut self, net: &mut Network, rr: usize) {
        let nvc = self.active_inject.len();
        for k in 0..nvc {
            let v = (rr + k) % nvc;
            let Some(act) = &self.active_inject[v] else {
                continue;
            };
            if net.injection_free(self.id, v as u8) == 0 {
                continue;
            }
            let flit = Flit {
                msg: act.msg,
                seq: act.sent,
                is_tail: act.sent + 1 == act.len,
            };
            let ok = net.inject_flit(self.id, v as u8, flit);
            debug_assert!(ok, "free slots checked");
            let done = flit.is_tail;
            let from_queue = act.from_queue;
            let h = act.msg;
            if done {
                self.active_inject[v] = None;
                let popped = self.out_q[from_queue].pop().expect("injected head present");
                debug_assert_eq!(popped, h, "output queues inject in FIFO order");
                self.injection_progress = true;
            } else if let Some(act) = &mut self.active_inject[v] {
                act.sent += 1;
            }
            return; // one flit of link bandwidth per cycle
        }
    }

    /// The injection VC currently carrying `msg`, if it is being
    /// packetized right now (used by the wait-for-graph validator to model
    /// the exact channel a partially injected packet is bound to).
    pub fn active_injection_vc(&self, msg: MsgHandle) -> Option<u8> {
        self.active_inject
            .iter()
            .enumerate()
            .find(|(_, a)| a.as_ref().is_some_and(|a| a.msg == msg))
            .map(|(v, _)| v as u8)
    }

    /// Abort the in-progress injection of `msg` (its packet is being
    /// extracted for rescue). Returns true if an active injection was
    /// cancelled; the message is also removed from its output queue.
    pub fn abort_injection(&mut self, msg: MsgHandle) -> bool {
        for slot in &mut self.active_inject {
            if slot.as_ref().is_some_and(|a| a.msg == msg) {
                let act = slot.take().unwrap();
                let popped = self.out_q[act.from_queue].pop().expect("head present");
                debug_assert_eq!(popped, msg);
                return true;
            }
        }
        false
    }
}
