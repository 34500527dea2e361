//! The cycle-accurate simulator.

use crate::config::{SimConfig, SimResult};
use crate::recovery::PrRecovery;
use crate::schedule::NicSchedule;
use crate::validate::Cwg;
use mdd_nic::{Nic, NicConfig, NicStats};
use mdd_protocol::{IdAlloc, MessageStore, MsgHandle};
use mdd_router::{EjectControl, Network};
use mdd_routing::{Scheme, SchemeConfigError, SchemeRouting, VcMap};
use mdd_topology::{NicId, Topology};
use mdd_traffic::{SyntheticTraffic, TrafficSource};

/// One fully wired simulation instance.
pub struct Simulator {
    cfg: SimConfig,
    topo: Topology,
    net: Network,
    routing: SchemeRouting,
    nics: Vec<Nic>,
    /// Single owner of every live message; all queues and in-flight
    /// records hold handles into this slab.
    store: MessageStore,
    traffic: Box<dyn TrafficSource>,
    recovery: Option<PrRecovery>,
    ids: IdAlloc,
    cycle: u64,
    generation: bool,
    /// Idle-skip schedule: per NIC, the next cycle its endpoint/injection
    /// ticks must execute. `u64::MAX` marks a fully inert NIC (every NIC
    /// starts so); every event that gives a NIC work — request issue,
    /// packet delivery, a PR orchestrator action on it — rewinds the
    /// entry so the NIC resumes ticking. While an entry exceeds the
    /// current cycle, both of that NIC's ticks are provably no-ops, so
    /// skipping them is bit-exact. An occupancy bitmap over the scheduled
    /// entries keeps the per-cycle walk to one word per 64 NICs plus the
    /// scheduled NICs' deadlines.
    nic_sched: NicSchedule,
    /// Scratch for draining the schedule's due set without holding a
    /// borrow across the tick calls.
    due_scratch: Vec<u32>,
    /// Scratch for the traffic source's non-empty-queue report.
    src_scratch: Vec<NicId>,
    /// The CWG oracle's graph and buffers, built at the first check and
    /// refilled at every later one.
    cwg: Option<Cwg>,
    cwg_checks: u64,
    cwg_deadlocked_checks: u64,
    /// Debug-build cross-check state: `Some(true)` once the static
    /// verifier has certified this configuration `ProvenFree`, computed
    /// lazily the first time an endpoint detector fires.
    #[cfg(debug_assertions)]
    certified_free: Option<bool>,
    /// Next cycle at which the certified-free cross-check may run again
    /// (throttles the CWG oracle to once per detection window).
    #[cfg(debug_assertions)]
    next_certified_check: u64,
    /// Debug-build scratch: every NIC's [`nic_work`] before the PR
    /// orchestrator's step, for [`check_touch_list`].
    #[cfg(debug_assertions)]
    nic_work_before: Vec<(usize, u32, u32)>,
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("cfg", &self.cfg)
            .field("cycle", &self.cycle)
            .field("live_messages", &self.store.len())
            .finish_non_exhaustive()
    }
}

impl Simulator {
    /// Build a simulator; fails if the scheme cannot be configured with
    /// the requested virtual channels (e.g. SA on a chain-4 protocol with
    /// 4 VCs — exactly the configurations the paper omits from Figure 8).
    pub fn new(cfg: SimConfig) -> Result<Self, SchemeConfigError> {
        let traffic = Self::synthetic_traffic(&cfg);
        Self::with_traffic(cfg, traffic)
    }

    /// The configured synthetic traffic source, one generator per NIC.
    fn synthetic_traffic(cfg: &SimConfig) -> Box<dyn TrafficSource> {
        let num_nics: u32 = cfg.radix.iter().product::<u32>() * cfg.bristle;
        let mut traffic =
            SyntheticTraffic::new(cfg.pattern.clone(), num_nics, cfg.load, cfg.dest, cfg.seed);
        if cfg.sparse_arrivals {
            traffic = traffic.sparse_arrivals();
        }
        Box::new(traffic)
    }

    /// Build a simulator around a custom traffic source (e.g. the
    /// coherence-driven application workloads of Section 4.2).
    pub fn with_traffic(
        cfg: SimConfig,
        traffic: Box<dyn TrafficSource>,
    ) -> Result<Self, SchemeConfigError> {
        let map = cfg.vc_map()?;
        Ok(Self::assemble(cfg, traffic, map))
    }

    /// Build a simulator even when the scheme's VC budget is infeasible
    /// for the protocol, substituting the best-effort *degraded* VC map
    /// ([`VcMap::build_degraded`] — merged partitions, truncated escape
    /// sets). The resulting network deliberately lacks the scheme's
    /// safety guarantee; it is the runtime counterpart of a static
    /// `Unsafe` classification, and exists so tests can demonstrate that
    /// configurations the verifier rejects genuinely deadlock.
    pub fn with_degraded_vcs(cfg: SimConfig) -> Self {
        let traffic = Self::synthetic_traffic(&cfg);
        let map = cfg.degraded_vc_map();
        Self::assemble(cfg, traffic, map)
    }

    /// Wire every component around an already-built VC map.
    fn assemble(cfg: SimConfig, traffic: Box<dyn TrafficSource>, map: VcMap) -> Self {
        let topo = cfg.topology();
        let routing = SchemeRouting::new(map);
        let net = Network::new(topo.clone(), cfg.vcs, cfg.flit_buf);
        let org = cfg.effective_queue_org();
        let nic_cfg = NicConfig {
            queue_capacity: cfg.queue_capacity,
            service_time: cfg.service_time,
            mshr_limit: cfg.mshr_limit,
            detect_threshold: cfg.detect_threshold,
            queue_org: org,
            // Reply preallocation is the Origin2000-style guarantee DR
            // needs on its shared reply network. SA is reply-safe by
            // construction (each type drains in its own partition) and PR
            // deliberately shares everything, so neither preallocates.
            preallocate: matches!(cfg.scheme, Scheme::DeflectiveRecovery),
        };
        let mut nics: Vec<Nic> = topo
            .nics()
            .map(|n| Nic::new(n, nic_cfg, cfg.pattern.clone(), cfg.vcs))
            .collect();
        for nic in &mut nics {
            nic.measuring = false;
        }
        let recovery = match cfg.scheme {
            Scheme::ProgressiveRecovery => Some(PrRecovery::new(
                &topo,
                cfg.pattern.clone(),
                cfg.token_hop,
                cfg.lane_hop,
                cfg.router_block_threshold,
            )),
            _ => None,
        };
        let num_nics = nics.len();
        Simulator {
            cfg,
            topo,
            net,
            routing,
            nics,
            store: MessageStore::new(),
            traffic,
            recovery,
            ids: IdAlloc::new(),
            cycle: 0,
            generation: true,
            nic_sched: NicSchedule::new(num_nics),
            due_scratch: Vec::new(),
            src_scratch: Vec::new(),
            cwg: None,
            cwg_checks: 0,
            cwg_deadlocked_checks: 0,
            #[cfg(debug_assertions)]
            certified_free: None,
            #[cfg(debug_assertions)]
            next_certified_check: 0,
            #[cfg(debug_assertions)]
            nic_work_before: Vec::new(),
        }
    }

    /// The configuration this simulator was built from.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// CWG oracle statistics so far: `(checks, deadlocked_checks)`.
    /// Both are zero unless [`SimConfig::cwg_interval`] is set.
    pub fn cwg_stats(&self) -> (u64, u64) {
        (self.cwg_checks, self.cwg_deadlocked_checks)
    }

    /// Current simulation cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The topology.
    pub fn topo(&self) -> &Topology {
        &self.topo
    }

    /// The network (read access, for validation and tests).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The routing function in use.
    pub fn routing(&self) -> &SchemeRouting {
        &self.routing
    }

    /// The NICs (read access).
    pub fn nics(&self) -> &[Nic] {
        &self.nics
    }

    /// The message store (read access, for validation and tests).
    pub fn store(&self) -> &MessageStore {
        &self.store
    }

    /// The PR recovery machinery, when the scheme is PR.
    pub fn recovery(&self) -> Option<&PrRecovery> {
        self.recovery.as_ref()
    }

    /// Mutable access to the PR recovery machinery (fault injection).
    pub fn recovery_mut(&mut self) -> Option<&mut PrRecovery> {
        self.recovery.as_mut()
    }

    /// Enable or disable traffic generation (used by the drain phase and
    /// by tests driving traffic manually).
    pub fn set_generation(&mut self, on: bool) {
        self.generation = on;
    }

    /// Toggle measurement on all NICs.
    pub fn set_measuring(&mut self, on: bool) {
        for nic in &mut self.nics {
            nic.measuring = on;
        }
    }

    /// Move requests from NIC `i`'s source queue into the NIC while it
    /// can accept them; a successful issue rewinds the NIC's idle-skip
    /// schedule to the current cycle.
    fn issue_from_source(&mut self, i: usize, c: u64) {
        let nic_id = NicId(i as u32);
        while let Some(head) = self.traffic.pending_head(nic_id) {
            if self.nics[i].can_issue_request(self.store.get(head).mtype) {
                let h = self.traffic.pop_pending(nic_id).expect("head exists");
                self.nics[i].issue_request(h, &self.store);
                self.nic_sched.set(i, c);
            } else {
                break;
            }
        }
    }

    /// Advance one cycle.
    pub fn step(&mut self) {
        let c = self.cycle;
        // 1. Traffic generation.
        if self.generation {
            self.traffic.tick(c, &mut self.ids, &mut self.store);
        }
        // 2. Request issue from source queues. A successful issue hands a
        // sleeping NIC new work, so it must tick from this cycle on. When
        // the source tracks queue occupancy, only NICs with queued
        // requests are visited (same set, same ascending order, as the
        // dense poll — NICs with empty queues are no-ops either way).
        let mut srcs = std::mem::take(&mut self.src_scratch);
        if self.traffic.pending_sources(&mut srcs) {
            for &nic in &srcs {
                self.issue_from_source(nic.index(), c);
            }
        } else {
            for i in 0..self.nics.len() {
                self.issue_from_source(i, c);
            }
        }
        self.src_scratch = srcs;
        // 3. Endpoint work on the NICs due this cycle. A NIC off the due
        // set has no queued work and no due memory-controller completion,
        // so both of its ticks are no-ops (asserted in debug builds).
        let mut due = std::mem::take(&mut self.due_scratch);
        self.nic_sched.due_into(c, &mut due);
        #[cfg(debug_assertions)]
        self.skipped_nic_check(c, &due);
        for &i in &due {
            self.nics[i as usize].tick(c, &mut self.ids, &mut self.store);
        }
        mdd_obs::counter_add(
            mdd_obs::CounterId::NicTicksSkipped,
            (self.nics.len() - due.len()) as u64,
        );
        // 4. Scheme actions. A fired detector implies a full input queue,
        // so only due NICs can deflect. The PR orchestrator reports every
        // NIC it acted on; each wakes, and joins this cycle's injection.
        match self.cfg.scheme {
            Scheme::DeflectiveRecovery => {
                for &i in &due {
                    let nic = &mut self.nics[i as usize];
                    if nic.detection_fired(c) {
                        nic.try_deflect(c, &mut self.ids, &mut self.store);
                    }
                }
            }
            Scheme::ProgressiveRecovery => {
                #[cfg(debug_assertions)]
                {
                    self.nic_work_before.clear();
                    self.nic_work_before.extend(self.nics.iter().map(nic_work));
                }
                let rec = self.recovery.as_mut().expect("PR has recovery state");
                let touched = rec.step(
                    &mut self.net,
                    &mut self.nics,
                    &self.topo,
                    c,
                    &mut self.store,
                );
                #[cfg(debug_assertions)]
                check_touch_list(&self.nics, &self.nic_work_before, touched, c);
                let mut woke = false;
                for n in touched {
                    woke |= self.nic_sched.wake(n.index(), c);
                }
                if woke {
                    self.nic_sched.due_into(c, &mut due);
                }
            }
            Scheme::StrictAvoidance { .. } => {}
        }
        // 5. Injection, then rebuild each executed NIC's schedule from
        // its post-cycle state.
        for &i in &due {
            let i = i as usize;
            self.nics[i].injection_tick(&mut self.net, &self.routing, c, &self.store);
            self.nic_sched.set(i, self.nics[i].next_tick_cycle(c + 1));
        }
        self.due_scratch = due;
        // 6. Network cycle, with the NICs answering admission. A delivered
        // packet is a new message queued at its NIC: the NIC wakes for the
        // next cycle. Queueing after the step is exact: a delivered
        // message fills the slot its admission reserved, so no admission
        // answer depends on when it is queued.
        let mut admission = Admission {
            store: &self.store,
            nics: &mut self.nics,
        };
        self.net.step(c, &self.routing, &mut admission);
        for &(nic, h) in self.net.delivered() {
            let i = nic.index();
            self.nics[i].on_packet(h, self.store.get(h));
            self.nic_sched.wake(i, c + 1);
        }
        self.cycle += 1;
        // Periodic observability gauges (cheap: one enabled check per
        // cycle, real sampling only every `obs_sample_every` cycles while
        // the global layer is installed).
        if mdd_obs::enabled() && self.cycle.is_multiple_of(self.cfg.obs_sample_every.max(1)) {
            self.sample_obs_gauges();
        }
        // Optional ground-truth oracle (FlexSim's CWG detection mode).
        if let Some(k) = self.cfg.cwg_interval {
            if self.cycle.is_multiple_of(k) {
                self.cwg_checks += 1;
                if self.oracle_deadlocked() {
                    self.cwg_deadlocked_checks += 1;
                }
            }
        }
        // Debug cross-check (companion to the store-leak assertion in
        // `is_quiescent`): a configuration the static verifier certified
        // `ProvenFree` must never reach an oracle-confirmed deadlock.
        #[cfg(debug_assertions)]
        self.debug_check_certified_free(c);
    }

    /// True if the CWG holds a knot right now: the same graph as
    /// [`crate::build_waitfor_graph`], refilled in the simulator's own
    /// buffers.
    fn oracle_deadlocked(&mut self) -> bool {
        let mut cwg = self.cwg.take().unwrap_or_else(|| Cwg::new(self));
        cwg.fill(self);
        let deadlocked = cwg.graph.has_deadlock();
        self.cwg = Some(cwg);
        deadlocked
    }

    /// Debug-build idle-skip check, the NIC counterpart of the network's
    /// skipped-router check: every NIC outside this cycle's due set
    /// (ascending) must be inert at `c` — nothing queued and no
    /// memory-controller completion due — or some event gave it work
    /// without waking it.
    #[cfg(debug_assertions)]
    fn skipped_nic_check(&self, c: u64, due: &[u32]) {
        let mut due = due.iter().peekable();
        for (i, nic) in self.nics.iter().enumerate() {
            if due.next_if_eq(&&(i as u32)).is_none() {
                assert!(
                    nic.next_tick_cycle(c) > c,
                    "NIC {i} skipped at cycle {c} with work to do (missing wake)"
                );
            }
        }
    }

    /// Debug-build agreement check between the static verifier and the
    /// runtime machinery. The endpoint detector is timeout-based and can
    /// fire spuriously under plain congestion, so a firing alone proves
    /// nothing: the verdict is computed lazily on the first firing, and a
    /// panic is raised only when the CWG oracle *confirms* a knot in a
    /// configuration `mdd-verify` certified deadlock-free. Throttled to
    /// one oracle build per detection window.
    #[cfg(debug_assertions)]
    fn debug_check_certified_free(&mut self, c: u64) {
        if self.cycle < self.next_certified_check || !self.nics.iter().any(|n| n.detection_fired(c))
        {
            return;
        }
        self.next_certified_check = self.cycle + self.cfg.detect_threshold.max(1);
        if self.certified_free.is_none() {
            self.certified_free =
                Some(crate::preflight::verify_config(&self.cfg).is_ok_and(|v| v.is_proven_free()));
        }
        if self.certified_free != Some(true) {
            return;
        }
        if self.oracle_deadlocked() {
            panic!(
                "static verifier certified this configuration ProvenFree, but the \
                 CWG oracle confirms a deadlock at cycle {}:\n{}",
                self.cycle,
                crate::validate::deadlock_witness(self).unwrap_or_else(|| "(no witness)".into())
            );
        }
    }

    /// Sample the occupancy gauges into the global observability
    /// registry. Called on the configured period; also useful directly
    /// from tests that want a snapshot at an exact cycle.
    pub fn sample_obs_gauges(&self) {
        use mdd_obs::CounterId;
        mdd_obs::gauge_set(CounterId::NetFlitsInFlight, self.net.flits_in_network());
        mdd_obs::gauge_set(CounterId::ActiveRouters, self.net.active_routers() as u64);
        let dmb: u64 = self.nics.iter().map(|n| n.dmb_occupancy() as u64).sum();
        mdd_obs::gauge_set(CounterId::DmbOccupancy, dmb);
        let queued: u64 = self.nics.iter().map(|n| n.buffered_messages() as u64).sum();
        mdd_obs::gauge_set(CounterId::EndpointQueueOccupancy, queued);
        mdd_obs::gauge_set(
            CounterId::RoutersMaterialized,
            self.net.routers_materialized(),
        );
        mdd_obs::gauge_set(CounterId::RouterStateBytes, self.net.router_state_bytes());
        if let Some(rec) = &self.recovery {
            mdd_obs::gauge_set(CounterId::DbLaneOccupancy, rec.lane_busy() as u64);
        }
    }

    /// Run `n` cycles.
    pub fn run_cycles(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Run the configured warm-up then measurement window and collect the
    /// result.
    pub fn run(&mut self) -> SimResult {
        self.set_measuring(false);
        self.run_cycles(self.cfg.warmup);
        self.set_measuring(true);
        let net0 = self.net.counters();
        let gen0 = self.traffic.generated();
        let rec0 = self.recovery.as_ref().map_or(0, |r| r.router_captures);
        self.run_cycles(self.cfg.measure);
        let net1 = self.net.counters();
        let rec1 = self.recovery.as_ref().map_or(0, |r| r.router_captures);
        self.set_measuring(false);

        let agg = self.aggregate_stats();
        let util = self.net.vc_utilization(self.cycle.max(1));
        let nodes = self.topo.num_nics() as f64;
        let window = self.cfg.measure as f64;
        SimResult {
            applied_load: self.cfg.load,
            throughput: (net1.flits_delivered - net0.flits_delivered) as f64 / nodes / window,
            avg_latency: agg.msg_latency.mean(),
            latency_quantiles: agg.msg_latency_quantiles.estimates(),
            messages_delivered: agg.messages_consumed,
            transactions: agg.transactions_completed,
            deadlocks: agg.deadlocks_detected,
            router_rescues: rec1 - rec0,
            deflections: agg.deflections,
            rescues: agg.rescues,
            generated: self.traffic.generated() - gen0,
            mc_utilization: agg.mc_busy_cycles as f64 / (nodes * self.cycle.max(1) as f64),
            cwg_checks: self.cwg_checks,
            cwg_deadlocked_checks: self.cwg_deadlocked_checks,
            vc_util_mean: util.0,
            vc_util_max: util.1,
            vc_util_cv: util.2,
            obs: mdd_obs::enabled().then(mdd_obs::ObsReport::capture),
        }
    }

    /// Stop generating new traffic and run until the system is empty (all
    /// transactions complete) or `max_cycles` elapse. Returns true if the
    /// system drained — the liveness check used by tests: under every
    /// scheme, disabling the source must eventually empty the network.
    pub fn drain(&mut self, max_cycles: u64) -> bool {
        self.set_generation(false);
        let start = self.cycle;
        while self.cycle - start < max_cycles {
            if self.is_quiescent() {
                return true;
            }
            self.step();
        }
        self.is_quiescent()
    }

    /// True when no messages exist anywhere in the system (source queues
    /// excluded — check only meaningful after `set_generation(false)` and
    /// once source backlogs are consumed).
    pub fn is_quiescent(&self) -> bool {
        let quiet = self.traffic.backlog() == 0
            && self.net.flits_in_network() == 0
            && self.net.packets().is_empty()
            && self.nics.iter().all(|n| n.buffered_messages() == 0)
            && self.recovery.as_ref().is_none_or(|r| !r.episode_active());
        // Single-ownership invariant: with nothing queued or in flight
        // anywhere, every slab slot must have been consumed.
        debug_assert!(
            !quiet || self.store.is_empty(),
            "quiescent system leaked {} message(s) in the store",
            self.store.len()
        );
        quiet
    }

    /// Aggregate NIC statistics, merged in linear NIC order. The Welford
    /// merge is not associative in floating point, so aggregation always
    /// goes through [`NicStats::merge_all`]'s ordered seam.
    pub fn aggregate_stats(&self) -> NicStats {
        NicStats::merge_all(self.nics.iter().map(|n| &n.stats))
    }

    /// Total messages the traffic source has generated.
    pub fn generated(&self) -> u64 {
        self.traffic.generated()
    }
}

/// The NIC array as the network's [`EjectControl`]. Admission is the
/// only call the network makes into the endpoints: the packets a step
/// delivered come back as [`Network::delivered`], and the simulator
/// queues them after the step.
struct Admission<'a> {
    store: &'a MessageStore,
    nics: &'a mut [Nic],
}

impl EjectControl for Admission<'_> {
    fn can_accept(&mut self, nic: NicId, msg: MsgHandle, _cycle: u64) -> bool {
        self.nics[nic.index()].can_accept(self.store.get(msg))
    }
}

/// The NIC state a PR orchestrator action can change: buffered
/// messages, deadlock-buffer occupancy and outstanding transactions.
#[cfg(debug_assertions)]
fn nic_work(nic: &Nic) -> (usize, u32, u32) {
    (
        nic.buffered_messages(),
        nic.dmb_occupancy(),
        nic.outstanding(),
    )
}

/// Debug-build check on the PR orchestrator's touch list: every NIC whose
/// [`nic_work`] changed during [`PrRecovery::step`] must be among the NICs
/// the step reported, or it would miss its wake.
#[cfg(debug_assertions)]
fn check_touch_list(nics: &[Nic], before: &[(usize, u32, u32)], touched: &[NicId], c: u64) {
    for (i, (nic, &was)) in nics.iter().zip(before).enumerate() {
        assert!(
            nic_work(nic) == was || touched.contains(&NicId(i as u32)),
            "PR recovery changed NIC {i} at cycle {c} without reporting it (missing wake)"
        );
    }
}
