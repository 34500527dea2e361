//! The Extended Disha Sequential progressive-recovery orchestrator.
//!
//! Implements the Figure 4 flowchart and the Appendix cases:
//!
//! * the token tours routers and NICs (one stop per `token_hop` cycles);
//! * a NIC whose detector has fired captures it and has its memory
//!   controller process the stuck input-queue head, the subordinate going
//!   to the DMB;
//! * a router holding a packet whose head has been blocked past the
//!   router time-out captures it, the packet is *extracted* from normal
//!   virtual-channel resources and carried over the recovery lane
//!   (routing-dependent deadlocks under true fully adaptive routing);
//! * each lane delivery is deposited into the destination's input queue
//!   if possible; a full queue sinks terminating messages directly at the
//!   memory controller (preemption) and recursively rescues
//!   non-terminating ones, the receiver becoming the new token holder;
//! * token returns retrace the lane to the sender chain (a stack of
//!   frames); when the initiator's frame empties, the token is released
//!   for re-circulation at the capturing stop.

use mdd_deadlock::{CirculatingToken, RecoveryLane, TokenState};
use mdd_nic::{Nic, RescueOutcome};
use mdd_obs::{CounterId, Event};
use mdd_protocol::{MessageStore, MsgHandle, PatternSpec};
use mdd_router::Network;
use mdd_topology::{NicId, NodeId, RecoveryRing, Topology, TourStop};
use std::collections::VecDeque;
use std::sync::Arc;

#[derive(Debug)]
struct Frame {
    /// Router position of this token holder (for lane distances).
    router: NodeId,
    /// The NIC holding the token here (`None` for a router capture frame).
    nic: Option<NicId>,
    /// Subordinates still to deliver from this holder (handles into the
    /// simulation's message store).
    pending: VecDeque<MsgHandle>,
}

#[derive(Debug)]
enum Phase {
    /// Pop and place the next pending subordinate of the top frame.
    Dispatch,
    /// Waiting on the top frame's memory controller.
    WaitMc,
    /// A rescued message is streaming over the lane.
    Transfer,
    /// A lane-delivered message awaits placement at its destination.
    Deposit(MsgHandle),
    /// The token is retracing the lane back to the sender chain.
    TokenDelay {
        /// Cycle the token arrives.
        until: u64,
    },
}

#[derive(Debug)]
struct Episode {
    /// Sequence number (1-based) pairing RecoveryStart/RecoveryEnd trace
    /// events.
    id: u64,
    /// The rescued head message the episode began with.
    head_msg: u64,
    stack: Vec<Frame>,
    phase: Phase,
    started_at: u64,
    messages_moved: u32,
    max_depth: u32,
    origin: EpisodeOrigin,
}

/// How a rescue episode began.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EpisodeOrigin {
    /// Message-dependent deadlock detected at a network interface.
    Nic(NicId),
    /// Routing-dependent deadlock: a packet extracted at a router.
    Router(NodeId),
}

/// Record of one completed rescue episode, for diagnostics and the
/// `deadlock_anatomy` example.
#[derive(Clone, Copy, Debug)]
pub struct EpisodeRecord {
    /// Where the token was captured.
    pub origin: EpisodeOrigin,
    /// Capture cycle.
    pub started_at: u64,
    /// Release cycle.
    pub ended_at: u64,
    /// Messages carried over the recovery lane or deposited locally during
    /// the episode (the rescued head's subordinates, recursively).
    pub messages_moved: u32,
    /// Deepest sender-chain (token-holder) stack reached.
    pub max_depth: u32,
}

impl EpisodeRecord {
    /// Episode duration in cycles.
    pub fn duration(&self) -> u64 {
        self.ended_at - self.started_at
    }
}

/// Token + lane + episode state for progressive recovery.
#[derive(Debug)]
pub struct PrRecovery {
    ring: RecoveryRing,
    token: CirculatingToken,
    lane: RecoveryLane,
    pattern: Arc<PatternSpec>,
    router_block_threshold: u64,
    episode: Option<Episode>,
    /// Token captures initiated at routers (routing-deadlock rescues).
    pub router_captures: u64,
    /// Token captures initiated at NICs (message-deadlock rescues).
    pub nic_captures: u64,
    /// Completed rescue episodes.
    pub episodes_completed: u64,
    /// Episodes ever started (also the most recent episode's sequence
    /// number — trace events use it to pair starts with ends).
    pub episodes_started: u64,
    /// Log of completed episodes (bounded; oldest dropped past 4096).
    episode_log: Vec<EpisodeRecord>,
    /// Scratch for the router-blocked-head probe (reused every token stop
    /// so the steady-state path allocates nothing).
    blocked_scratch: Vec<(NodeId, MsgHandle)>,
    /// Token laps already published to the observability counters.
    laps_noted: u64,
    /// NICs the current [`PrRecovery::step`] acted on, in action order.
    touched: Vec<NicId>,
}

impl PrRecovery {
    /// Build the recovery machinery for `topo`.
    pub fn new(
        topo: &Topology,
        pattern: Arc<PatternSpec>,
        token_hop: u64,
        lane_hop: u64,
        router_block_threshold: u64,
    ) -> Self {
        let ring = RecoveryRing::new(topo);
        let token = CirculatingToken::new(&ring, token_hop);
        let lane = RecoveryLane::new(ring.clone(), lane_hop);
        PrRecovery {
            ring,
            token,
            lane,
            pattern,
            router_block_threshold,
            episode: None,
            router_captures: 0,
            nic_captures: 0,
            episodes_completed: 0,
            episodes_started: 0,
            episode_log: Vec::new(),
            blocked_scratch: Vec::new(),
            laps_noted: 0,
            touched: Vec::new(),
        }
    }

    /// Completed-episode records (bounded to the most recent 4096).
    pub fn episode_log(&self) -> &[EpisodeRecord] {
        &self.episode_log
    }

    /// Token diagnostics: (laps completed, captures).
    pub fn token_stats(&self) -> (u64, u64) {
        (self.token.laps, self.token.captures)
    }

    /// Watchdog regenerations after injected token losses.
    pub fn token_regenerations(&self) -> u64 {
        self.token.regenerations
    }

    /// Fault injection: lose the circulating token (no effect if it is
    /// currently captured by an episode). Returns true if the loss was
    /// injected.
    pub fn inject_token_loss(&mut self, now: u64) -> bool {
        if self.episode.is_none() && self.token.state() == TokenState::Circulating {
            self.token.drop_token(now);
            true
        } else {
            false
        }
    }

    /// True while a rescue episode is in progress.
    pub fn episode_active(&self) -> bool {
        self.episode.is_some()
    }

    /// Rescued messages carried over the lane so far.
    pub fn lane_transfers(&self) -> u64 {
        self.lane.transfers
    }

    /// True while a rescued message occupies the exclusive lane (the DB
    /// occupancy gauge samples this).
    pub fn lane_busy(&self) -> bool {
        self.lane.busy()
    }

    /// Advance the recovery machinery one cycle. Returns the NICs it
    /// acted on (possibly with repeats): each may have new work, so the
    /// caller must wake it.
    pub fn step(
        &mut self,
        net: &mut Network,
        nics: &mut [Nic],
        topo: &Topology,
        cycle: u64,
        store: &mut MessageStore,
    ) -> &[NicId] {
        self.touched.clear();
        if self.episode.is_some() {
            self.episode_step(nics, topo, cycle, store);
            return &self.touched;
        }
        debug_assert_ne!(
            self.token.state(),
            TokenState::Captured,
            "no episode implies the token is circulating or lost"
        );
        let Some(stop) = self.token.advance(&self.ring, cycle) else {
            return &self.touched;
        };
        mdd_obs::counter_add(CounterId::TokenHops, 1);
        if self.token.laps > self.laps_noted {
            mdd_obs::counter_add(CounterId::TokenLaps, self.token.laps - self.laps_noted);
            self.laps_noted = self.token.laps;
        }
        match stop {
            TourStop::Nic(n) => {
                mdd_obs::trace!(Event::TokenPass {
                    cycle,
                    at: n.0,
                    at_nic: true,
                });
                if nics[n.index()].detection_fired(cycle) && !nics[n.index()].rescue_busy() {
                    let Some(head) =
                        touch(nics, &mut self.touched, n).begin_rescue_from_input(cycle, store)
                    else {
                        return &self.touched;
                    };
                    self.token.capture();
                    self.nic_captures += 1;
                    self.episodes_started += 1;
                    mdd_obs::counter_add(CounterId::NicCaptures, 1);
                    mdd_obs::trace!(Event::RecoveryStart {
                        cycle,
                        episode: self.episodes_started,
                        msg: head.0,
                        at: n.0,
                        at_nic: true,
                    });
                    self.episode = Some(Episode {
                        id: self.episodes_started,
                        head_msg: head.0,
                        stack: vec![Frame {
                            router: topo.nic_router(n),
                            nic: Some(n),
                            pending: VecDeque::new(),
                        }],
                        phase: Phase::WaitMc,
                        started_at: cycle,
                        messages_moved: 0,
                        max_depth: 1,
                        origin: EpisodeOrigin::Nic(n),
                    });
                }
            }
            TourStop::Router(r) => {
                mdd_obs::trace!(Event::TokenPass {
                    cycle,
                    at: r.0,
                    at_nic: false,
                });
                // A token stop only ever inspects its own router: the
                // single-router sweep yields the same victims, in the same
                // order, as filtering a full-network sweep down to `r`.
                net.blocked_heads_at(
                    r,
                    self.router_block_threshold,
                    cycle,
                    &mut self.blocked_scratch,
                );
                let victim = self
                    .blocked_scratch
                    .iter()
                    .find(|(_, h)| net.packets().get(*h).is_some_and(|p| p.dst_router != r));
                if let Some(&(_, h)) = victim {
                    let ex = net.extract_packet(h).expect("blocked packet is in flight");
                    let (head_id, src) = {
                        let m = store.get_mut(h);
                        m.rescued = true;
                        (m.id.0, m.src)
                    };
                    touch(nics, &mut self.touched, src).abort_injection(h);
                    self.token.capture();
                    self.router_captures += 1;
                    self.episodes_started += 1;
                    mdd_obs::counter_add(CounterId::RouterCaptures, 1);
                    mdd_obs::counter_add(CounterId::MessagesRescued, 1);
                    mdd_obs::counter_add(CounterId::LaneTransfers, 1);
                    mdd_obs::trace!(Event::RecoveryStart {
                        cycle,
                        episode: self.episodes_started,
                        msg: head_id,
                        at: r.0,
                        at_nic: false,
                    });
                    let (dst, len) = {
                        let m = store.get(h);
                        (m.dst, m.length_flits)
                    };
                    let dst_router = topo.nic_router(dst);
                    // A lane transfer is a block move: every flit of the
                    // rescued packet streams without per-flit arbitration.
                    mdd_obs::counter_add(CounterId::LinkBurstFlits, len as u64);
                    self.lane.send(h, len, ex.head_router, dst_router, cycle);
                    self.episode = Some(Episode {
                        id: self.episodes_started,
                        head_msg: head_id,
                        stack: vec![Frame {
                            router: r,
                            nic: None,
                            pending: VecDeque::new(),
                        }],
                        phase: Phase::Transfer,
                        started_at: cycle,
                        messages_moved: 1,
                        max_depth: 1,
                        origin: EpisodeOrigin::Router(r),
                    });
                }
            }
        }
        &self.touched
    }

    fn finish_episode(&mut self, cycle: u64) {
        let ep = self.episode.take().expect("finishing an active episode");
        self.token.release(cycle);
        self.episodes_completed += 1;
        mdd_obs::counter_add(CounterId::DeadlocksRecovered, 1);
        mdd_obs::trace!(Event::RecoveryEnd {
            cycle,
            episode: ep.id,
            msg: ep.head_msg,
            moved: ep.messages_moved,
            depth: ep.max_depth,
        });
        if self.episode_log.len() >= 4096 {
            self.episode_log.remove(0);
        }
        self.episode_log.push(EpisodeRecord {
            origin: ep.origin,
            started_at: ep.started_at,
            ended_at: cycle,
            messages_moved: ep.messages_moved,
            max_depth: ep.max_depth,
        });
    }

    fn episode_step(
        &mut self,
        nics: &mut [Nic],
        topo: &Topology,
        cycle: u64,
        store: &mut MessageStore,
    ) {
        loop {
            let ep = self
                .episode
                .as_mut()
                .expect("episode_step requires episode");
            match &ep.phase {
                Phase::WaitMc => {
                    let top = ep.stack.last_mut().expect("WaitMc frame");
                    let n = top.nic.expect("WaitMc frames belong to NICs");
                    match touch(nics, &mut self.touched, n).take_rescue_output() {
                        Some(subs) => {
                            top.pending.extend(subs);
                            ep.phase = Phase::Dispatch;
                        }
                        None => return,
                    }
                }
                Phase::Transfer => match self.lane.poll(cycle) {
                    Some(delivery) => ep.phase = Phase::Deposit(delivery.msg),
                    None => return,
                },
                Phase::Deposit(_) => {
                    let Phase::Deposit(msg) = std::mem::replace(&mut ep.phase, Phase::Dispatch)
                    else {
                        unreachable!()
                    };
                    let (dst, mtype) = {
                        let m = store.get(msg);
                        (m.dst, m.mtype)
                    };
                    let dst_router = topo.nic_router(dst);
                    let terminating = self.pattern.protocol().is_terminating(mtype);
                    let nic = touch(nics, &mut self.touched, dst);
                    match nic.try_deposit_input(msg, store) {
                        Ok(()) => {
                            let back = ep.stack.last().expect("sender frame").router;
                            ep.phase = Phase::TokenDelay {
                                until: cycle + self.lane.control_delay(dst_router, back),
                            };
                            return;
                        }
                        Err(msg) => {
                            if terminating {
                                // Sunk directly by the MC via preemption
                                // (Appendix Case 2).
                                nic.sink_terminating(msg, cycle, store);
                                let back = ep.stack.last().expect("sender frame").router;
                                ep.phase = Phase::TokenDelay {
                                    until: cycle + self.lane.control_delay(dst_router, back),
                                };
                                return;
                            }
                            match nic.rescue_process(msg) {
                                RescueOutcome::Scheduled => {
                                    ep.stack.push(Frame {
                                        router: dst_router,
                                        nic: Some(dst),
                                        pending: VecDeque::new(),
                                    });
                                    ep.max_depth = ep.max_depth.max(ep.stack.len() as u32);
                                    ep.phase = Phase::WaitMc;
                                }
                                RescueOutcome::AlreadyBusy => {
                                    // Defensive: should be unreachable with
                                    // a single token. Retry next cycle.
                                    debug_assert!(false, "destination NIC mid-rescue");
                                    ep.phase = Phase::Deposit(msg);
                                    return;
                                }
                            }
                        }
                    }
                }
                Phase::TokenDelay { until } => {
                    if cycle >= *until {
                        ep.phase = Phase::Dispatch;
                    } else {
                        return;
                    }
                }
                Phase::Dispatch => {
                    let Some(top) = ep.stack.last_mut() else {
                        self.finish_episode(cycle);
                        return;
                    };
                    match top.pending.pop_front() {
                        Some(m) => {
                            // Appendix Case 1: deposit locally when the
                            // output queue admits it.
                            let holder = top
                                .nic
                                .expect("router frames never have pending subordinates");
                            ep.messages_moved += 1;
                            mdd_obs::counter_add(CounterId::MessagesRescued, 1);
                            match touch(nics, &mut self.touched, holder)
                                .try_deposit_output(m, store)
                            {
                                // Deposited: fall through to the next
                                // dispatch iteration.
                                Ok(()) => {}
                                Err(m) => {
                                    let (m_dst, m_len) = {
                                        let mm = store.get(m);
                                        (mm.dst, mm.length_flits)
                                    };
                                    let dst_router = topo.nic_router(m_dst);
                                    mdd_obs::counter_add(CounterId::LaneTransfers, 1);
                                    // Block move over the lane (see the
                                    // router-capture site).
                                    mdd_obs::counter_add(CounterId::LinkBurstFlits, m_len as u64);
                                    self.lane.send(m, m_len, top.router, dst_router, cycle);
                                    ep.phase = Phase::Transfer;
                                    return;
                                }
                            }
                        }
                        None => {
                            // Frame complete: the token retraces to the
                            // sender below, or is released at the initiator.
                            let from = top.router;
                            ep.stack.pop();
                            match ep.stack.last() {
                                Some(below) => {
                                    ep.phase = Phase::TokenDelay {
                                        until: cycle + self.lane.control_delay(from, below.router),
                                    };
                                    return;
                                }
                                None => {
                                    self.finish_episode(cycle);
                                    return;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The orchestrator's only way to act on a NIC: record it in `touched`
/// (the caller wakes it) and hand out the NIC.
fn touch<'a>(nics: &'a mut [Nic], touched: &mut Vec<NicId>, n: NicId) -> &'a mut Nic {
    touched.push(n);
    &mut nics[n.index()]
}
