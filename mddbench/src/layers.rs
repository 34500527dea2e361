//! The traced run: per-layer numbers for every workload.
//!
//! The traced run installs `mdd-obs`, wraps the traffic source in a
//! timing [`TrafficSource`], and steps each simulator one cycle at a time
//! through `run_cycles(1)`, timing each step, the CWG oracle and the NIC
//! occupancy from the outside. Each workload's untraced unit runs first,
//! both as the denominator of `obs.trace_overhead` and as the reference
//! the traced results must reproduce bit for bit.
//!
//! Every metric is named `<workload>.<layer>.<metric>`, with the workload
//! it is measured on; [`moves`] says which end-to-end metric it should
//! move, and on which workload.

use crate::check::{check_frontier, check_point, fingerprint, Fingerprint, Tally};
use crate::stats::{percentile, ratio, Metric};
use crate::workloads::{
    self as wl, frontier_analysis, frontier_faults, frontier_topo, ladder_jobs, ladder_unit,
    scratch_dir, sim_unit, Scale, Workload, FRONTIER_CONFIGS,
};
use mdd_core::{build_waitfor_graph, SchemeConfigError, SimConfig, SimResult, Simulator};
use mdd_engine::ResultCache;
use mdd_obs::CounterId;
use mdd_protocol::{IdAlloc, MessageStore, MsgHandle, ShapeId};
use mdd_topology::NicId;
use mdd_traffic::{SyntheticTraffic, TrafficSource};
use mdd_verify::{fault_orbit_key, BaseAnalysis};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// NIC occupancy is sampled every this many cycles.
const OCCUPANCY_EVERY: u64 = 64;

/// Capacity of the `mdd-obs` event ring while tracing.
const TRACE_CAPACITY: usize = 4_096;

/// Host time spent in the traffic source's `tick`, and how often it ran.
#[derive(Debug, Default)]
struct TickTimer {
    nanos: AtomicU64,
    calls: AtomicU64,
}

/// A [`TrafficSource`] that times `tick` and forwards everything else.
struct TimedTraffic {
    inner: SyntheticTraffic,
    timer: Arc<TickTimer>,
}

impl TrafficSource for TimedTraffic {
    fn tick(&mut self, cycle: u64, ids: &mut IdAlloc, store: &mut MessageStore) {
        let t = Instant::now();
        self.inner.tick(cycle, ids, store);
        let ns = t.elapsed().as_nanos() as u64;
        self.timer.nanos.fetch_add(ns, Ordering::Relaxed);
        self.timer.calls.fetch_add(1, Ordering::Relaxed);
    }
    fn pending_head(&self, nic: NicId) -> Option<MsgHandle> {
        self.inner.pending_head(nic)
    }
    fn pop_pending(&mut self, nic: NicId) -> Option<MsgHandle> {
        self.inner.pop_pending(nic)
    }
    fn backlog(&self) -> usize {
        self.inner.backlog()
    }
    fn pending_sources(&self, out: &mut Vec<NicId>) -> bool {
        self.inner.pending_sources(out)
    }
    fn generated(&self) -> u64 {
        self.inner.generated()
    }
    fn next_arrival_cycle(&self, from: u64) -> u64 {
        self.inner.next_arrival_cycle(from)
    }
}

/// The traffic `Simulator::new` would build for `cfg`, timed.
fn timed_traffic(cfg: &SimConfig, timer: &Arc<TickTimer>) -> TimedTraffic {
    TimedTraffic {
        inner: wl::synthetic_traffic(cfg),
        timer: Arc::clone(timer),
    }
}

/// What one traced simulation measured from the outside.
#[derive(Debug, Default)]
struct Probe {
    cycles: u64,
    /// Host time of each cycle that executed a step (the rest were
    /// fast-forwarded).
    step_ns: Vec<f64>,
    step_total_ns: u64,
    all_ns: u64,
    tick_ns: u64,
    episode_cycles: u64,
    episode_ns: u64,
    cwg_checks: u64,
    cwg_deadlocked: u64,
    cwg_ns: u64,
    nic_steps: u64,
    router_cycles: u64,
    occ_nic_samples: u64,
    queue_sum: u64,
    dmb_sum: u64,
    materialized_frac: f64,
    state_mb: f64,
    sims: u64,
}

impl Probe {
    fn merge(&mut self, o: Probe) {
        self.cycles += o.cycles;
        self.step_ns.extend(o.step_ns);
        self.step_total_ns += o.step_total_ns;
        self.all_ns += o.all_ns;
        self.tick_ns += o.tick_ns;
        self.episode_cycles += o.episode_cycles;
        self.episode_ns += o.episode_ns;
        self.cwg_checks += o.cwg_checks;
        self.cwg_deadlocked += o.cwg_deadlocked;
        self.cwg_ns += o.cwg_ns;
        self.nic_steps += o.nic_steps;
        self.router_cycles += o.router_cycles;
        self.occ_nic_samples += o.occ_nic_samples;
        self.queue_sum += o.queue_sum;
        self.dmb_sum += o.dmb_sum;
        self.materialized_frac += o.materialized_frac;
        self.state_mb += o.state_mb;
        self.sims += o.sims;
    }
}

fn episode_active(sim: &Simulator) -> bool {
    sim.recovery()
        .is_some_and(mdd_core::PrRecovery::episode_active)
}

/// Step `n` cycles one at a time, measuring each.
fn step_traced(sim: &mut Simulator, n: u64, cwg: Option<u64>, timer: &TickTimer, p: &mut Probe) {
    let nics = sim.nics().len() as u64;
    let routers = u64::from(sim.topo().num_routers());
    for _ in 0..n {
        let calls = timer.calls.load(Ordering::Relaxed);
        let in_episode = episode_active(sim);
        let t = Instant::now();
        sim.run_cycles(1);
        let ns = t.elapsed().as_nanos() as u64;
        p.cycles += 1;
        p.all_ns += ns;
        p.router_cycles += routers;
        if timer.calls.load(Ordering::Relaxed) != calls {
            p.nic_steps += nics;
            p.step_ns.push(ns as f64);
            p.step_total_ns += ns;
        }
        if in_episode || episode_active(sim) {
            p.episode_cycles += 1;
            p.episode_ns += ns;
        }
        if let Some(k) = cwg {
            if sim.cycle().is_multiple_of(k) {
                let t = Instant::now();
                let deadlocked = build_waitfor_graph(sim).has_deadlock();
                p.cwg_ns += t.elapsed().as_nanos() as u64;
                p.cwg_checks += 1;
                p.cwg_deadlocked += u64::from(deadlocked);
            }
        }
        if sim.cycle().is_multiple_of(OCCUPANCY_EVERY) {
            p.occ_nic_samples += nics;
            for nic in sim.nics() {
                p.queue_sum += nic.buffered_messages() as u64;
                p.dmb_sum += u64::from(nic.dmb_occupancy());
            }
        }
    }
}

/// Run `cfg`'s warm-up and measurement window one cycle at a time and
/// assemble the same `SimResult` that `Simulator::run` returns. The CWG
/// oracle is taken out of the simulator and called from here at the same
/// cadence, so its time is measured; its counts go back into the result.
fn traced_sim(cfg: &SimConfig) -> Result<(SimResult, Probe), SchemeConfigError> {
    let mut cfg = cfg.clone();
    let cwg = cfg.cwg_interval.take();
    let timer = Arc::new(TickTimer::default());
    let traffic = timed_traffic(&cfg, &timer);
    let mut sim = Simulator::with_traffic(cfg.clone(), Box::new(traffic))?;
    let mut p = Probe::default();
    let captures = |sim: &Simulator| sim.recovery().map_or(0, |r| r.router_captures);

    sim.set_measuring(false);
    step_traced(&mut sim, cfg.warmup, cwg, &timer, &mut p);
    sim.set_measuring(true);
    let net0 = sim.network().counters();
    let gen0 = sim.generated();
    let rec0 = captures(&sim);
    step_traced(&mut sim, cfg.measure, cwg, &timer, &mut p);
    let net1 = sim.network().counters();
    let rec1 = captures(&sim);
    sim.set_measuring(false);

    let agg = sim.aggregate_stats();
    let cycle = sim.cycle().max(1);
    let util = sim.network().vc_utilization(cycle);
    let nodes = f64::from(sim.topo().num_nics());
    let result = SimResult {
        applied_load: cfg.load,
        throughput: (net1.flits_delivered - net0.flits_delivered) as f64
            / nodes
            / cfg.measure as f64,
        avg_latency: agg.msg_latency.mean(),
        latency_quantiles: agg.msg_latency_quantiles.estimates(),
        messages_delivered: agg.messages_consumed,
        transactions: agg.transactions_completed,
        deadlocks: agg.deadlocks_detected,
        router_rescues: rec1 - rec0,
        deflections: agg.deflections,
        rescues: agg.rescues,
        generated: sim.generated() - gen0,
        mc_utilization: agg.mc_busy_cycles as f64 / (nodes * cycle as f64),
        cwg_checks: p.cwg_checks,
        cwg_deadlocked_checks: p.cwg_deadlocked,
        vc_util_mean: util.0,
        vc_util_max: util.1,
        vc_util_cv: util.2,
        obs: None,
    };
    p.tick_ns = timer.nanos.load(Ordering::Relaxed);
    let routers = f64::from(sim.topo().num_routers());
    p.materialized_frac = sim.network().routers_materialized() as f64 / routers;
    p.state_mb = sim.network().router_state_bytes() as f64 / 1e6;
    p.sims = 1;
    Ok((result, p))
}

/// The simulator-layer metrics shared by the simulation workloads.
fn sim_layers(w: &str, p: &Probe, c: &mdd_obs::CounterSnapshot, dmb: bool, out: &mut Vec<Metric>) {
    let cycles = p.cycles as f64;
    let get = |id| c.get(id) as f64;
    let mut step_ns = p.step_ns.clone();
    let (p50, p99) = if step_ns.is_empty() {
        (0.0, 0.0)
    } else {
        (
            percentile(&mut step_ns, 50.0) / 1e3,
            percentile(&mut step_ns, 99.0) / 1e3,
        )
    };
    let flits = get(CounterId::FlitsRouted);
    let m = |name: &str, unit, v| Metric::one(format!("{w}.{name}"), unit, v);
    out.extend([
        m(
            "traffic.tick_ns_per_cycle",
            "ns",
            ratio(p.tick_ns as f64, cycles),
        ),
        m(
            "traffic.share",
            "frac",
            ratio(p.tick_ns as f64, p.step_total_ns as f64),
        ),
        m("core.step_us_p50", "us", p50),
        m("core.step_us_p99", "us", p99),
        m(
            "core.ff_cycle_frac",
            "frac",
            ratio(get(CounterId::CyclesFastForwarded), cycles),
        ),
        m(
            "nic.ticks_per_cycle",
            "1/cycle",
            ratio(p.nic_steps as f64 - get(CounterId::NicTicksSkipped), cycles),
        ),
        m("nic.msgs_injected", "count", get(CounterId::MsgsInjected)),
        m("nic.msgs_consumed", "count", get(CounterId::MsgsConsumed)),
        m(
            "nic.queue_occupancy",
            "msgs",
            ratio(p.queue_sum as f64, p.occ_nic_samples as f64),
        ),
    ]);
    if dmb {
        out.push(m(
            "nic.dmb_occupancy",
            "msgs",
            ratio(p.dmb_sum as f64, p.occ_nic_samples as f64),
        ));
    }
    let fused = get(CounterId::FusedPassRouters);
    let stalls = get(CounterId::VcStalls);
    out.extend([
        m("router.fused_per_cycle", "1/cycle", ratio(fused, cycles)),
        m(
            "router.active_frac",
            "frac",
            ratio(fused, p.router_cycles as f64),
        ),
        m("router.flits_per_cycle", "1/cycle", ratio(flits, cycles)),
        m(
            "router.vc_stall_frac",
            "frac",
            ratio(stalls, stalls + get(CounterId::VcAllocs)),
        ),
        m(
            "router.burst_frac",
            "frac",
            ratio(get(CounterId::LinkBurstFlits), flits),
        ),
        m(
            "router.ns_per_flit_hop",
            "ns",
            ratio(p.step_total_ns as f64, flits),
        ),
        m(
            "router.materialized_frac",
            "frac",
            ratio(p.materialized_frac, p.sims as f64),
        ),
        m("router.state_mb", "MB", ratio(p.state_mb, p.sims as f64)),
    ]);
}

/// The end-to-end metric, and the workload, that a per-layer metric
/// should move. `work_per_s` is `cycles_per_s` on the simulation
/// workloads and `fault_points_per_s` on `frontier16`.
pub fn moves(name: &str) -> &'static str {
    let metric = name.split_once('.').map_or(name, |(_, m)| m);
    let layer = metric.split('.').next().unwrap_or(metric);
    match layer {
        "traffic" => "work_per_s on sparse64",
        "core" => "work_per_s on sparse64 and big64",
        "nic" => "work_per_s on ladder8 and sparse64",
        "router" => "work_per_s on big64, and on ladder8 at 0.30 and 0.55",
        "shard" => "none while big64 runs one shard: big64 at nproc shards, traced only",
        "recovery" | "cwg" => "work_per_s on ladder8",
        "engine" if metric == "engine.preflight_s" => "setup_s on ladder8",
        "engine" if metric.starts_with("engine.cache_") => "wall_s on ladder8",
        "engine" => "wall_s on ladder8 and frontier16",
        "verify" if metric.starts_with("verify.base_s.") => "setup_s on frontier16",
        "verify" => "wall_s on frontier16",
        "obs" => "none: the cost of tracing itself",
        _ => "unknown",
    }
}

/// Per-layer metrics of every workload.
pub fn traced(scale: Scale, seed: u64, tally: &mut Tally) -> Vec<Metric> {
    let mut out = Vec::new();
    ladder8(scale, seed, tally, &mut out);
    single(Workload::Big64, scale, seed, tally, &mut out);
    single(Workload::Sparse64, scale, seed, tally, &mut out);
    frontier16(scale, seed, tally, &mut out);
    out
}

fn ladder8(scale: Scale, seed: u64, tally: &mut Tally, out: &mut Vec<Metric>) {
    let w = Workload::Ladder8.name();
    // Untraced reference, as in the end-to-end run but on `nproc`
    // workers, so that the pool metrics see the pool.
    let n_workers = wl::nproc();
    let cache = scratch_dir("ladder8-cache");
    let cold = ladder_unit(scale, seed, &cache, n_workers);
    let reference: HashMap<String, Fingerprint> = cold
        .report
        .outcomes
        .iter()
        .filter_map(|o| Some((o.job.label.clone(), fingerprint(o.result.as_ref().ok()?))))
        .collect();
    for o in &cold.report.outcomes {
        let r = o.result.clone().map_err(|e| e.to_string());
        let problems = check_point(scale, w, seed, &o.job.label, &r, None);
        tally.op(&problems, &format!("{w} untraced {}", o.job.label));
    }

    // Cache layer: puts of the cold results into a fresh cache, and a
    // warm re-run of the same batch, which must be served entirely from
    // the cache the cold run filled.
    let put_dir = scratch_dir("ladder8-puts");
    let puts = ResultCache::open(&put_dir).expect("scratch cache opens");
    let mut put_us = Vec::new();
    for o in &cold.report.outcomes {
        if let Ok(r) = &o.result {
            let t = Instant::now();
            puts.put(&o.job.key(), &o.job.label, r)
                .expect("scratch cache accepts writes");
            put_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    let jobs = ladder_jobs(scale, seed);
    let n_jobs = jobs.len() as f64;
    let handle = cold
        .engine
        .submit_with(jobs, |_| Err(SchemeConfigError::DegenerateNetworkSplit));
    let t = Instant::now();
    let warm = handle.wait();
    let hit_us = t.elapsed().as_secs_f64() * 1e6 / n_jobs;
    for o in &warm.outcomes {
        let r = o.result.clone().map_err(|e| e.to_string());
        let mut problems = check_point(
            scale,
            w,
            seed,
            &o.job.label,
            &r,
            reference.get(&o.job.label),
        );
        if !o.from_cache {
            problems.push("warm re-run missed the cache".to_string());
        }
        tally.op(&problems, &format!("{w} warm {}", o.job.label));
    }
    wl::retire(
        cold.engine,
        cold.report.outcomes.len() + warm.outcomes.len(),
    );
    drop(puts);
    let _ = std::fs::remove_dir_all(&cache);
    let _ = std::fs::remove_dir_all(&put_dir);

    // Traced batch.
    let probes: Arc<Mutex<Vec<(String, Probe)>>> = Arc::default();
    let sink = Arc::clone(&probes);
    mdd_obs::install(TRACE_CAPACITY);
    let engine = mdd_engine::Engine::builder()
        .jobs(n_workers)
        .build()
        .expect("benchmark engine builds");
    let t0 = Instant::now();
    let report = engine
        .submit_with(ladder_jobs(scale, seed), move |job| {
            let (r, p) = traced_sim(&job.cfg)?;
            sink.lock()
                .expect("probe sink lock")
                .push((job.label.clone(), p));
            Ok(r)
        })
        .wait();
    let traced_wall = t0.elapsed().as_secs_f64();
    let c = mdd_obs::counters_snapshot();
    mdd_obs::uninstall();
    wl::retire(engine, report.outcomes.len());
    for o in &report.outcomes {
        let r = o.result.clone().map_err(|e| e.to_string());
        let problems = check_point(
            scale,
            w,
            seed,
            &o.job.label,
            &r,
            reference.get(&o.job.label),
        );
        tally.op(&problems, &format!("{w} traced {}", o.job.label));
    }

    let mut all = Probe::default();
    let mut pr = Probe::default();
    for (label, p) in std::mem::take(&mut *probes.lock().expect("probe sink lock")) {
        if label.starts_with("pr-") {
            pr.cycles += p.cycles;
            pr.all_ns += p.all_ns;
            pr.episode_cycles += p.episode_cycles;
            pr.episode_ns += p.episode_ns;
            pr.cwg_checks += p.cwg_checks;
            pr.cwg_deadlocked += p.cwg_deadlocked;
            pr.cwg_ns += p.cwg_ns;
        }
        all.merge(p);
    }
    sim_layers(w, &all, &c, true, out);

    let pr_results: Vec<&SimResult> = report
        .outcomes
        .iter()
        .filter(|o| o.job.label.starts_with("pr-"))
        .filter_map(|o| o.result.as_ref().ok())
        .collect();
    let m = |name: &str, unit, v| Metric::one(format!("{w}.{name}"), unit, v);
    out.extend([
        m(
            "recovery.episode_cycle_frac",
            "frac",
            ratio(pr.episode_cycles as f64, pr.cycles as f64),
        ),
        m(
            "recovery.episode_time_frac",
            "frac",
            ratio(pr.episode_ns as f64, pr.all_ns as f64),
        ),
        m(
            "recovery.token_hops",
            "count",
            c.get(CounterId::TokenHops) as f64,
        ),
        m(
            "recovery.detected",
            "count",
            pr_results.iter().map(|r| r.deadlocks).sum::<u64>() as f64,
        ),
        m(
            "recovery.recovered",
            "count",
            c.get(CounterId::DeadlocksRecovered) as f64,
        ),
        m(
            "recovery.rescued",
            "count",
            c.get(CounterId::MessagesRescued) as f64,
        ),
        m(
            "recovery.router_captures",
            "count",
            c.get(CounterId::RouterCaptures) as f64,
        ),
        m(
            "cwg.us_per_check",
            "us",
            ratio(pr.cwg_ns as f64 / 1e3, pr.cwg_checks as f64),
        ),
        m(
            "cwg.time_share",
            "frac",
            ratio(pr.cwg_ns as f64, (pr.cwg_ns + pr.all_ns) as f64),
        ),
        m(
            "cwg.deadlocked_frac",
            "frac",
            ratio(pr.cwg_deadlocked as f64, pr.cwg_checks as f64),
        ),
        m("engine.preflight_s", "s", cold.preflight_s),
    ]);
    let mut busy = 0.0;
    for o in &cold.report.outcomes {
        if let Some(pt) = cold.points.iter().find(|pt| pt.label == o.job.label) {
            let s = pt.setup_s + pt.run_s;
            busy += s;
            out.push(m(&format!("engine.point_s.{}", pt.label), "s", s));
        }
    }
    let batch_s = cold.wall_s - cold.setup_s;
    out.extend([
        m(
            "engine.pool_idle_frac",
            "frac",
            (1.0 - ratio(busy, n_workers as f64 * batch_s)).max(0.0),
        ),
        m(
            "engine.cache_put_us",
            "us",
            put_us.iter().sum::<f64>() / put_us.len().max(1) as f64,
        ),
        m("engine.cache_hit_us", "us", hit_us),
        m("obs.trace_overhead", "x", traced_wall / cold.wall_s),
    ]);
}

/// `big64` and `sparse64`: the simulator layers, plus the shard speedup
/// over the same window at one shard and at `nproc` shards.
fn single(w: Workload, scale: Scale, seed: u64, tally: &mut Tally, out: &mut Vec<Metric>) {
    let name = w.name();
    let cfg = wl::single_cfg(w, scale, seed);
    let block = w.block_cycles();
    let reference = sim_unit(&cfg, block);
    tally.op(
        &check_point(scale, name, seed, name, &reference.result, None),
        &format!("{name} untraced"),
    );
    let ref_fp = reference.result.as_ref().ok().map(fingerprint);
    let reference_wall = reference.wall_s();

    // Shard speedup over one window: big64's own, or a fifth of
    // sparse64's (its multi-shard run is several times slower). Both
    // workloads run one shard, so big64's reference is the one-shard run.
    let n = wl::nproc() as u32;
    let mut window = cfg.clone();
    if w == Workload::Sparse64 {
        window.measure /= 5;
    }
    let one = if w == Workload::Big64 {
        reference
    } else {
        sim_unit(&window, block)
    };
    let mut sharded = window.clone();
    sharded.shards = n;
    let many = sim_unit(&sharded, block);
    let one_fp = one.result.as_ref().ok().map(fingerprint);
    tally.op(
        &check_point(
            scale,
            name,
            seed,
            "shard-window",
            &many.result,
            one_fp.as_ref(),
        ),
        &format!("{name} shards={n} against shards=1"),
    );
    let rate = |run: &wl::SimRun| run.cycles as f64 / run.run_s;

    // big64 is traced at `nproc` shards, so that the shard counters fill,
    // and compared with the untraced run of the same configuration.
    let (traced_cfg, untraced_wall) = if w == Workload::Big64 {
        (sharded.clone(), many.wall_s())
    } else {
        (cfg.clone(), reference_wall)
    };
    mdd_obs::install(TRACE_CAPACITY);
    let t0 = Instant::now();
    let traced = traced_sim(&traced_cfg);
    let traced_wall = t0.elapsed().as_secs_f64();
    let c = mdd_obs::counters_snapshot();
    mdd_obs::uninstall();
    let (result, probe) = match traced {
        Ok((r, p)) => (Ok(r), p),
        Err(e) => (Err(format!("{e:?}")), Probe::default()),
    };
    tally.op(
        &check_point(scale, name, seed, name, &result, ref_fp.as_ref()),
        &format!("{name} traced"),
    );

    sim_layers(name, &probe, &c, false, out);
    let m = |metric: &str, unit, v| Metric::one(format!("{name}.{metric}"), unit, v);
    out.push(m("shard.speedup", "x", rate(&many) / rate(&one)));
    if w == Workload::Big64 {
        let flits = c.get(CounterId::FlitsRouted) as f64;
        out.extend([
            m(
                "shard.mailbox_per_flit",
                "frac",
                ratio(c.get(CounterId::ShardMailboxFlits) as f64, flits),
            ),
            m(
                "shard.barrier_waits_per_cycle",
                "1/cycle",
                ratio(
                    c.get(CounterId::ShardBarrierWaits) as f64,
                    probe.cycles as f64,
                ),
            ),
        ]);
    }
    out.push(m("obs.trace_overhead", "x", traced_wall / untraced_wall));
}

/// Message types whose packet segments a re-verdict considers: the types
/// of every active chain, plus the backoff type under DR.
fn net_types(cfg: &SimConfig) -> usize {
    let p = &cfg.pattern;
    let mut types = Vec::new();
    for i in 0..p.num_shapes() {
        let sid = ShapeId(i as u16);
        if p.weight(sid) > 0.0 {
            for &t in &p.shape(sid).chain {
                if !types.contains(&t) {
                    types.push(t);
                }
            }
        }
    }
    if matches!(cfg.scheme, mdd_core::Scheme::DeflectiveRecovery) {
        if let Some(b) = p.protocol().backoff_type() {
            if !types.contains(&b) {
                types.push(b);
            }
        }
    }
    types.len()
}

fn frontier16(scale: Scale, seed: u64, tally: &mut Tally, out: &mut Vec<Metric>) {
    let w = Workload::Frontier16.name();
    let topo = frontier_topo(scale);
    let check = |tag: &str, outs: &[wl::FrontierOut], tally: &mut Tally| {
        for o in outs {
            for (what, problems) in check_frontier(topo, o) {
                tally.op(&problems, &format!("{w} {tag} {what}"));
            }
        }
    };
    let (untraced_wall, outs) = wl::frontier_unit(scale, seed);
    check("untraced", &outs, tally);

    mdd_obs::install(TRACE_CAPACITY);
    let t0 = Instant::now();
    let (_, outs) = wl::frontier_unit(scale, seed);
    let traced_wall = t0.elapsed().as_secs_f64();
    let c = mdd_obs::counters_snapshot();
    mdd_obs::uninstall();
    check("traced", &outs, tally);

    // Sequential pass, untraced: one base analysis per scheme, then one
    // timed re-verdict per fault orbit.
    let m = |name: &str, unit, v| Metric::one(format!("{w}.{name}"), unit, v);
    let mut reverify_us = Vec::new();
    let mut points = 0usize;
    let mut segments = 0.0;
    for (scheme, vcs) in FRONTIER_CONFIGS {
        let analysis = frontier_analysis(scale, scheme, vcs);
        let nics = f64::from(analysis.topo().num_nics());
        let faults = frontier_faults(analysis.topo(), seed);
        let t = Instant::now();
        let base = BaseAnalysis::analyze(analysis);
        out.push(m(
            &format!("verify.base_s.{scheme}"),
            "s",
            t.elapsed().as_secs_f64(),
        ));
        let mut seen = std::collections::HashSet::new();
        for f in &faults {
            if seen.insert(fault_orbit_key(base.config().topo(), f)) {
                let t = Instant::now();
                let outcome = base.reverify_outcome(f);
                reverify_us.push(t.elapsed().as_secs_f64() * 1e6);
                std::hint::black_box(outcome);
            }
        }
        points += faults.len();
        let types = net_types(&wl::frontier_sim_cfg(scale, scheme, vcs));
        // Single-link faults fail no router, so the endpoint segment is
        // reusable too.
        segments += seen.len() as f64 * (types as f64 * nics + 1.0);
    }
    let orbits = reverify_us.len() as f64;
    let p50 = percentile(&mut reverify_us, 50.0);
    let p99 = percentile(&mut reverify_us, 99.0);
    // The traced engine pass re-verifies one fault per orbit, like the
    // sequential pass, so its reuse counter covers the same segments.
    let hits = c.get(CounterId::AnalyzeIncrementalHits) as f64;
    out.extend([
        m("verify.reverify_us_p50", "us", p50),
        m("verify.reverify_us_p99", "us", p99),
        m("verify.orbit_frac", "frac", ratio(orbits, points as f64)),
        m("verify.incremental_hit_frac", "frac", ratio(hits, segments)),
        m("obs.trace_overhead", "x", traced_wall / untraced_wall),
    ]);
}
