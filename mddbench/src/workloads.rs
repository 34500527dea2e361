//! The four workloads: their configurations, and one untraced "unit" of
//! each — the piece of work whose host time the end-to-end metrics
//! report. Every unit is rebuilt from the seed, so repetitions time
//! identical work.

use mdd_core::{
    DestPattern, PatternSpec, Scheme, SchemeConfigError, SimConfig, SimResult, Simulator,
};
use mdd_engine::{Engine, Job, SweepReport};
use mdd_protocol::{IdAlloc, MessageStore, MsgHandle};
use mdd_topology::{NicId, Topology};
use mdd_traffic::{SyntheticTraffic, TrafficSource};
use mdd_verify::{single_link_faults, AnalysisConfig, BaseAnalysis, FaultSet, FrontierReport};
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The benchmark's default workload seed.
pub const DEFAULT_SEED: u64 = 0x5eed;

/// Simulation seeds the benchmark runs on: the default seed and the
/// seeds below 64 on which no flowing ladder point collapses (DR at 0.30
/// and 0.55 and PR at 0.30 keep delivering; see `README.md`). Every one
/// is pinned in `pins/sim.txt`, so every run checks its outputs bit for
/// bit.
pub const INPUT_SEEDS: [u64; 16] = [
    DEFAULT_SEED,
    0,
    1,
    2,
    3,
    4,
    13,
    15,
    17,
    20,
    21,
    23,
    26,
    31,
    35,
    36,
];

/// A seed that passes the same selection but was never run while the
/// benchmark was tuned; its pins hold every field.
pub const HELD_OUT_SEED: u64 = 59;

/// The simulation seed a `--seed` argument selects: a listed seed (or
/// the held-out seed) runs as itself; any other seed `n` runs as
/// `INPUT_SEEDS[n % 16]`.
pub fn input_seed(seed: u64) -> u64 {
    if seed == HELD_OUT_SEED || INPUT_SEEDS.contains(&seed) {
        seed
    } else {
        INPUT_SEEDS[(seed % INPUT_SEEDS.len() as u64) as usize]
    }
}

/// The ladder's applied loads (flits/node/cycle).
pub const LADDER_LOADS: [f64; 3] = [0.05, 0.30, 0.55];

/// The ladder's schemes: SA on its 4-VC-feasible PAT100, DR and PR on
/// PAT271.
pub const LADDER_SCHEMES: [&str; 3] = ["sa", "dr", "pr"];

/// The fault-frontier configurations: each scheme at the cheapest VC
/// budget that is statically interesting (as in `mdd-analyze --frontier`).
pub const FRONTIER_CONFIGS: [(&str, u8); 3] = [("sa", 8), ("dr", 4), ("pr", 4)];

/// Oracle cadence of the ladder's PR points (experiment E8's setting).
pub const LADDER_CWG_INTERVAL: u64 = 50;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Ladder8,
    Big64,
    Sparse64,
    Frontier16,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Ladder8,
        Workload::Big64,
        Workload::Sparse64,
        Workload::Frontier16,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Ladder8 => "ladder8",
            Workload::Big64 => "big64",
            Workload::Sparse64 => "sparse64",
            Workload::Frontier16 => "frontier16",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Worker threads and network shards the untraced unit runs with.
    pub fn plan(self) -> (usize, u32) {
        match self {
            Workload::Frontier16 => (nproc(), 1),
            // One worker: the ladder's end-to-end time is taken block by
            // block (see `Clocked`), which needs the points to run one
            // after another; with two workers the batch wall time swung
            // by a quarter between runs of the same seed. The traced run
            // measures the pool at `nproc` workers.
            Workload::Ladder8 => (1, 1),
            // One shard: with a per-cycle barrier across every core, any
            // other activity on the host stalls the whole run (big64 at 2
            // shards on 2 cores took 4.3 s to 9.2 s for the same work).
            // The traced run measures the sharded configuration.
            Workload::Big64 | Workload::Sparse64 => (1, 1),
        }
    }

    /// Simulated cycles per clock block of the untraced unit: about
    /// 10 ms of host time each at full scale.
    pub fn block_cycles(self) -> u64 {
        match self {
            Workload::Big64 => 8,
            Workload::Ladder8 => 512,
            Workload::Sparse64 | Workload::Frontier16 => 1_024,
        }
    }

    /// What one unit of work counts as its operations: sweep points,
    /// runs, or fault points.
    pub fn work_name(self) -> &'static str {
        match self {
            Workload::Frontier16 => "fault_points_per_s",
            _ => "cycles_per_s",
        }
    }
}

/// Full size, or the tiny variant the benchmark's own tests run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

impl Scale {
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Tiny => "tiny",
        }
    }
}

/// Cores this process may use; worker threads and shards are capped by
/// it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// A scratch directory private to this process, inside the benchmark's
/// own directory of the checkout.
pub fn scratch_dir(what: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join(".scratch")
        .join(format!("{}-{what}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Remove this process's scratch directories.
pub fn clean_scratch() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".scratch");
    let prefix = format!("{}-", std::process::id());
    if let Ok(entries) = std::fs::read_dir(&root) {
        for e in entries.flatten() {
            if e.file_name().to_string_lossy().starts_with(&prefix) {
                let _ = std::fs::remove_dir_all(e.path());
            }
        }
    }
    let _ = std::fs::remove_dir(&root);
}

pub fn scheme_of(name: &str) -> Scheme {
    match name {
        "sa" => Scheme::StrictAvoidance {
            shared_adaptive: false,
        },
        "dr" => Scheme::DeflectiveRecovery,
        "pr" => Scheme::ProgressiveRecovery,
        other => unreachable!("no scheme {other} in the benchmark"),
    }
}

/// The ladder batch: SA/PAT100, DR/PAT271 and PR/PAT271 at each ladder
/// load, paper windows, the PR points with the CWG oracle on. Labels are
/// `<scheme>-<load>`.
pub fn ladder_jobs(scale: Scale, seed: u64) -> Vec<Job> {
    let mut jobs = Vec::new();
    for name in LADDER_SCHEMES {
        let pattern = if name == "sa" {
            PatternSpec::pat100()
        } else {
            PatternSpec::pat271()
        };
        let mut base = SimConfig::paper_default(scheme_of(name), pattern, 4, 0.0);
        base.seed = seed;
        if name == "pr" {
            base.cwg_interval = Some(LADDER_CWG_INTERVAL);
        }
        match scale {
            Scale::Full => {
                base.warmup = 3_000;
                base.measure = 9_000;
            }
            Scale::Tiny => {
                base.radix = vec![4, 4];
                base.warmup = 300;
                base.measure = 1_000;
            }
        }
        for load in LADDER_LOADS {
            let id = jobs.len();
            jobs.push(Job::new(
                id,
                format!("{name}-{load:.2}"),
                base.at_load(load),
            ));
        }
    }
    jobs
}

/// `big64`: a 64×64 PR/PAT271 torus at load 0.04 — busy but flowing.
pub fn big64_cfg(scale: Scale, seed: u64, shards: u32) -> SimConfig {
    let mut cfg =
        SimConfig::paper_default(Scheme::ProgressiveRecovery, PatternSpec::pat271(), 4, 0.04);
    cfg.seed = seed;
    cfg.shards = shards;
    cfg.obs_sample_every = 4_096;
    match scale {
        Scale::Full => {
            cfg.radix = vec![64, 64];
            cfg.warmup = 400;
            cfg.measure = 600;
        }
        Scale::Tiny => {
            cfg.radix = vec![16, 16];
            cfg.warmup = 100;
            cfg.measure = 300;
        }
    }
    cfg
}

/// `sparse64`: the size ladder's top rung — 64×64 PR/PAT100 at 0.005
/// with neighbour destinations and sparse arrivals, over a long window.
pub fn sparse64_cfg(scale: Scale, seed: u64, shards: u32) -> SimConfig {
    let mut cfg =
        SimConfig::paper_default(Scheme::ProgressiveRecovery, PatternSpec::pat100(), 4, 0.005);
    cfg.seed = seed;
    cfg.shards = shards;
    cfg.dest = DestPattern::Neighbor;
    cfg.sparse_arrivals = true;
    cfg.obs_sample_every = 4_096;
    match scale {
        Scale::Full => {
            cfg.radix = vec![64, 64];
            cfg.warmup = 10_000;
            cfg.measure = 110_000;
        }
        Scale::Tiny => {
            cfg.radix = vec![16, 16];
            cfg.warmup = 500;
            cfg.measure = 5_000;
        }
    }
    cfg
}

/// The simulator configuration of a single-run workload.
pub fn single_cfg(w: Workload, scale: Scale, seed: u64) -> SimConfig {
    let (_, shards) = w.plan();
    match w {
        Workload::Big64 => big64_cfg(scale, seed, shards),
        Workload::Sparse64 => sparse64_cfg(scale, seed, shards),
        _ => unreachable!("{} is not a single-run workload", w.name()),
    }
}

/// The frontier topology label (`16x16`, or `8x8` at tiny scale).
pub fn frontier_topo(scale: Scale) -> &'static str {
    match scale {
        Scale::Full => "16x16",
        Scale::Tiny => "8x8",
    }
}

/// The frontier's simulator-side configuration for one scheme.
pub fn frontier_sim_cfg(scale: Scale, scheme: &str, vcs: u8) -> SimConfig {
    let mut cfg = SimConfig::paper_default(scheme_of(scheme), PatternSpec::pat271(), vcs, 0.0);
    cfg.radix = match scale {
        Scale::Full => vec![16, 16],
        Scale::Tiny => vec![8, 8],
    };
    cfg
}

/// The analysis configuration of one frontier scheme.
pub fn frontier_analysis(scale: Scale, scheme: &str, vcs: u8) -> AnalysisConfig {
    mdd_core::analysis_config(&frontier_sim_cfg(scale, scheme, vcs))
        .expect("frontier configurations are feasible")
}

/// Every single-link fault of `topo`, in an order shuffled by `seed`:
/// the seed changes which member of each fault orbit is evaluated, not
/// the verdicts.
pub fn frontier_faults(topo: &Topology, seed: u64) -> Vec<FaultSet> {
    let mut faults = single_link_faults(topo);
    let mut state = seed;
    for i in (1..faults.len()).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        faults.swap(i, j);
    }
    faults
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Drop an engine once its pool has run `tasks` tasks to completion.
/// A `submit_with` task holds a reference to the engine's pool until it
/// returns, after its outcome is already delivered; if that reference
/// were the last one, the pool would be dropped — and try to join
/// itself — on its own worker.
pub fn retire(engine: Engine, tasks: usize) {
    while engine.pool_stats().executed < tasks as u64 {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    drop(engine);
}

/// The traffic source `Simulator::new` builds for `cfg`.
pub fn synthetic_traffic(cfg: &SimConfig) -> SyntheticTraffic {
    let traffic = SyntheticTraffic::new(
        cfg.pattern.clone(),
        cfg.num_nodes(),
        cfg.load,
        cfg.dest,
        cfg.seed,
    );
    if cfg.sparse_arrivals {
        traffic.sparse_arrivals()
    } else {
        traffic
    }
}

/// A [`TrafficSource`] that forwards to the synthetic source and stamps
/// the host clock each time the simulated clock enters a new block of
/// `block` cycles. Runs are deterministic, so every repetition of a unit
/// stamps at the same simulated cycles and its blocks line up; the
/// end-to-end time is then summed block by block from the fastest
/// repetition of each block, which drops the bursts in which another
/// tenant of the host slows a whole repetition down.
struct Clocked {
    inner: SyntheticTraffic,
    block: u64,
    current: u64,
    stamps: Arc<Mutex<Vec<Instant>>>,
}

impl TrafficSource for Clocked {
    fn tick(&mut self, cycle: u64, ids: &mut IdAlloc, store: &mut MessageStore) {
        if cycle / self.block != self.current {
            self.current = cycle / self.block;
            self.stamps.lock().expect("clock lock").push(Instant::now());
        }
        self.inner.tick(cycle, ids, store);
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

/// `Simulator::run` of `cfg` with a clocked traffic source: the result,
/// the host seconds of the whole run, and the host seconds of each block
/// (they sum to the whole).
fn clocked_run(
    cfg: &SimConfig,
    block: u64,
) -> Result<(SimResult, f64, Vec<f64>), SchemeConfigError> {
    let stamps = Arc::new(Mutex::new(Vec::new()));
    let traffic = Clocked {
        inner: synthetic_traffic(cfg),
        block,
        current: u64::MAX,
        stamps: Arc::clone(&stamps),
    };
    let mut sim = Simulator::with_traffic(cfg.clone(), Box::new(traffic))?;
    let t0 = Instant::now();
    let result = sim.run();
    let t1 = Instant::now();
    drop(sim);
    let stamps = std::mem::take(&mut *stamps.lock().expect("clock lock"));
    let mut blocks = Vec::with_capacity(stamps.len() + 1);
    let mut last = t0;
    for t in stamps.into_iter().chain([t1]) {
        blocks.push((t - last).as_secs_f64());
        last = t;
    }
    Ok((result, (t1 - t0).as_secs_f64(), blocks))
}

/// Host time of one ladder point inside the timing runner.
#[derive(Clone, Debug)]
pub struct PointTime {
    pub label: String,
    /// `Simulator::with_traffic`.
    pub setup_s: f64,
    /// `Simulator::run` (warm-up plus measurement).
    pub run_s: f64,
    /// `run_s` split into clock blocks.
    pub blocks: Vec<f64>,
    pub cycles: u64,
}

/// One ladder batch on a fresh engine with a fresh, empty cache.
pub struct LadderRun {
    /// Engine build plus the synchronous pre-flight in `submit_with`.
    pub setup_s: f64,
    /// The `submit_with` call alone (the static pre-flight).
    pub preflight_s: f64,
    /// Engine build to the last outcome.
    pub wall_s: f64,
    pub points: Vec<PointTime>,
    pub report: SweepReport,
    /// Kept alive for a warm re-run against the populated cache.
    pub engine: Engine,
}

/// Run the ladder batch untraced through a timing runner on `jobs`
/// workers.
pub fn ladder_unit(scale: Scale, seed: u64, cache: &std::path::Path, jobs: usize) -> LadderRun {
    let block = Workload::Ladder8.block_cycles();
    let _ = std::fs::remove_dir_all(cache);
    let t0 = Instant::now();
    let engine = Engine::builder()
        .jobs(jobs)
        .cache_dir(cache)
        .build()
        .expect("benchmark engine builds");
    let times: Arc<Mutex<Vec<PointTime>>> = Arc::default();
    let sink = Arc::clone(&times);
    let t1 = Instant::now();
    let handle = engine.submit_with(ladder_jobs(scale, seed), move |job| {
        let t0 = Instant::now();
        let (result, run_s, blocks) = clocked_run(&job.cfg, block)?;
        sink.lock().expect("timing sink lock").push(PointTime {
            label: job.label.clone(),
            setup_s: t0.elapsed().as_secs_f64() - run_s,
            run_s,
            blocks,
            cycles: job.cfg.warmup + job.cfg.measure,
        });
        Ok(result)
    });
    let setup_s = t0.elapsed().as_secs_f64();
    let preflight_s = t1.elapsed().as_secs_f64();
    let report = handle.wait();
    let wall_s = t0.elapsed().as_secs_f64();
    let points = std::mem::take(&mut *times.lock().expect("timing sink lock"));
    LadderRun {
        setup_s,
        preflight_s,
        wall_s,
        points,
        report,
        engine,
    }
}

/// One set-up of the ladder: engine build plus the pre-flight of the
/// real batch. The runner refuses every point, so nothing simulates.
pub fn ladder_setup(scale: Scale, seed: u64) -> f64 {
    let (jobs, _) = Workload::Ladder8.plan();
    let cache = scratch_dir("ladder8-setup");
    let t0 = Instant::now();
    let engine = Engine::builder()
        .jobs(jobs)
        .cache_dir(&cache)
        .build()
        .expect("benchmark engine builds");
    let handle = engine.submit_with(ladder_jobs(scale, seed), |_| {
        Err(SchemeConfigError::DegenerateNetworkSplit)
    });
    let setup_s = t0.elapsed().as_secs_f64();
    let tasks = handle.wait().outcomes.len();
    retire(engine, tasks);
    let _ = std::fs::remove_dir_all(&cache);
    setup_s
}

/// One untraced simulator run of a single-run workload.
pub struct SimRun {
    /// Set-up and tear-down around `Simulator::run`.
    pub setup_s: f64,
    /// `Simulator::run`.
    pub run_s: f64,
    /// `run_s` split into clock blocks.
    pub blocks: Vec<f64>,
    pub cycles: u64,
    pub result: Result<SimResult, String>,
}

impl SimRun {
    pub fn wall_s(&self) -> f64 {
        self.setup_s + self.run_s
    }
}

/// One untraced run of `cfg`, clocked in blocks of `block` cycles.
pub fn sim_unit(cfg: &SimConfig, block: u64) -> SimRun {
    let t0 = Instant::now();
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| clocked_run(cfg, block)));
    let wall_s = t0.elapsed().as_secs_f64();
    let (result, run_s, blocks) = match run {
        Ok(Ok((r, run_s, blocks))) => (Ok(r), run_s, blocks),
        Ok(Err(e)) => (Err(format!("{e:?}")), 0.0, Vec::new()),
        Err(_) => (Err("the simulation panicked".to_string()), 0.0, Vec::new()),
    };
    SimRun {
        setup_s: wall_s - run_s,
        run_s,
        blocks,
        cycles: cfg.warmup + cfg.measure,
        result,
    }
}

pub fn sim_setup(cfg: &SimConfig) -> f64 {
    let t0 = Instant::now();
    let sim = Simulator::new(cfg.clone()).expect("benchmark configuration is feasible");
    let s = t0.elapsed().as_secs_f64();
    drop(sim);
    s
}

/// One classified frontier configuration.
pub struct FrontierOut {
    pub scheme: &'static str,
    pub vcs: u8,
    pub report: FrontierReport,
}

/// All three frontier configurations through `Engine::fault_frontier`
/// on a fresh engine. Returns the wall time and the reports.
pub fn frontier_unit(scale: Scale, seed: u64) -> (f64, Vec<FrontierOut>) {
    let (jobs, _) = Workload::Frontier16.plan();
    let t0 = Instant::now();
    let engine = Engine::builder()
        .jobs(jobs)
        .build()
        .expect("benchmark engine builds");
    let mut outs = Vec::new();
    for (scheme, vcs) in FRONTIER_CONFIGS {
        let analysis = frontier_analysis(scale, scheme, vcs);
        let faults = frontier_faults(analysis.topo(), seed);
        let report = engine.fault_frontier(analysis, faults);
        outs.push(FrontierOut {
            scheme,
            vcs,
            report,
        });
    }
    (t0.elapsed().as_secs_f64(), outs)
}

/// One set-up of the frontier: the three base analyses.
pub fn frontier_setup(scale: Scale) -> f64 {
    let configs: Vec<AnalysisConfig> = FRONTIER_CONFIGS
        .iter()
        .map(|&(s, v)| frontier_analysis(scale, s, v))
        .collect();
    let t0 = Instant::now();
    let bases: Vec<BaseAnalysis> = configs.into_iter().map(BaseAnalysis::analyze).collect();
    let s = t0.elapsed().as_secs_f64();
    drop(bases);
    s
}
