//! The streaming scheduler: cache lookup, parallel execution on one
//! FIFO pool, panic isolation, progress counters.

use crate::cache::ResultCache;
use crate::error::{PointError, PointFailure};
use crate::job::Job;
use mdd_core::{SchemeConfigError, SimConfig, SimResult, Simulator};
use mdd_obs::CounterId;
use mdd_stats::BnfCurve;
use mdd_verify::{
    fault_orbit_key, AnalysisConfig, BaseAnalysis, FaultOutcome, FaultSet, FrontierReport, Verdict,
};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

/// The experiment engine. Construction picks the cache policy and the
/// worker pool; [`Engine::submit`] then schedules any number of batches
/// onto the pool's workers and hands back a [`JobHandle`]
/// that streams each [`PointOutcome`] as it completes. Each point is
/// isolated by `catch_unwind`, so one poisoned point becomes a
/// [`PointError`] in the stream instead of killing the sweep.
///
/// The engine is a cheap-to-clone handle (an `Arc` around the cache and
/// pool): clones share the cache, the workers, and the in-flight
/// accounting, so one engine can serve many threads — the `mddsimd`
/// daemon runs every connection off clones of a single engine.
///
/// Progress is reported through the global `mdd-obs` counters when that
/// layer is installed: `points_started`, `points_completed`,
/// `points_cached`, `points_failed`, `point_wall_micros`, plus the pool
/// gauges `pool_workers_busy`, `pool_queue_depth` and `jobs_in_flight`.
///
/// Do not call [`JobHandle::wait`] (or blocking [`JobHandle::recv`])
/// from inside a task running *on* this engine's pool: a worker blocked
/// on its own pool's output can deadlock a fully loaded pool. Submit
/// from ordinary threads — the daemon's connection threads, a binary's
/// main thread — and stream from there.
#[derive(Clone, Debug)]
pub struct Engine {
    inner: Arc<EngineInner>,
}

#[derive(Debug)]
struct EngineInner {
    cache: Option<ResultCache>,
    pool: rayon::ThreadPool,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// An engine without a persistent cache, on its own pool of one
    /// worker per available core: every point simulates.
    pub fn new() -> Self {
        Engine::builder()
            .build()
            .expect("uncached engine with default workers cannot fail")
    }

    /// An engine backed by the cache directory `dir` (created on demand;
    /// `results/cache/` by convention — see [`ResultCache::open`]), on
    /// its own pool of one worker per available core.
    pub fn with_cache_dir(dir: impl AsRef<Path>) -> io::Result<Self> {
        Engine::builder().cache_dir(dir).build()
    }

    /// Start configuring an engine (worker count, cache location).
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// The cache, if this engine has one.
    pub fn cache(&self) -> Option<&ResultCache> {
        self.inner.cache.as_ref()
    }

    /// A point-in-time snapshot of this engine's worker pool.
    pub fn pool_stats(&self) -> rayon::PoolStats {
        self.inner.pool.stats()
    }

    /// Submit one labelled load sweep of `base` over `loads`: the batch
    /// [`Job::points`] expands to, streamed back through the returned
    /// handle as points complete.
    pub fn submit_sweep(&self, base: &SimConfig, loads: &[f64], label: &str) -> JobHandle {
        self.submit(Job::points(base, loads, label))
    }

    /// Submit a batch of fully resolved jobs with the default simulation
    /// runner. Returns immediately; the returned [`JobHandle`] yields one
    /// [`PointOutcome`] per job in *completion* order (drain with
    /// [`JobHandle::recv`] for streaming, or [`JobHandle::wait`] for the
    /// assembled, deterministically ordered [`SweepReport`]).
    pub fn submit(&self, jobs: Vec<Job>) -> JobHandle {
        self.submit_with(jobs, |job: &Job| {
            Simulator::new(job.cfg.clone()).map(|mut sim| sim.run())
        })
    }

    /// Submit a batch through a caller-supplied runner — the seam the
    /// integration tests use to inject failures, and the hook for
    /// alternative backends. Cache lookup, panic isolation, counters and
    /// streaming are identical to [`Engine::submit`]; only the
    /// simulation call itself is replaced.
    pub fn submit_with<F>(&self, jobs: Vec<Job>, runner: F) -> JobHandle
    where
        F: Fn(&Job) -> Result<SimResult, SchemeConfigError> + Send + Sync + 'static,
    {
        // Static pre-flight: classify every distinct configuration shape
        // once (load and seed do not enter the analysis, so a whole load
        // sweep shares one verdict) and stamp it on each outcome.
        let mut verdicts: Vec<(String, Option<Verdict>)> = Vec::new();
        for job in &jobs {
            let key = verify_key(&job.cfg);
            if !verdicts.iter().any(|(k, _)| *k == key) {
                let v = mdd_core::verify_config(&job.cfg).ok();
                verdicts.push((key, v));
            }
        }
        let total = jobs.len();
        let (tx, rx) = mpsc::channel();
        let cancel = Arc::new(AtomicBool::new(false));
        if total > 0 {
            note_jobs_in_flight(1);
            let runner = Arc::new(runner);
            let pending = Arc::new(AtomicUsize::new(total));
            for job in jobs {
                let verdict = verdicts
                    .iter()
                    .find(|(k, _)| *k == verify_key(&job.cfg))
                    .and_then(|(_, v)| v.clone());
                let inner = Arc::clone(&self.inner);
                let tx = tx.clone();
                let cancel = Arc::clone(&cancel);
                let runner = Arc::clone(&runner);
                let pending = Arc::clone(&pending);
                self.inner.pool.spawn(move || {
                    // Exactly one outcome per job, always: a cancelled
                    // point reports as such rather than vanishing, so a
                    // drain always sees `total` messages.
                    let outcome = if cancel.load(Ordering::SeqCst) {
                        cancelled_outcome(&job, verdict)
                    } else {
                        run_one(inner.cache.as_ref(), &job, runner.as_ref(), verdict)
                    };
                    let _ = tx.send(outcome);
                    if pending.fetch_sub(1, Ordering::SeqCst) == 1 {
                        note_jobs_in_flight(-1);
                    }
                    sample_pool_gauges(&inner.pool);
                });
            }
            sample_pool_gauges(&self.inner.pool);
        }
        JobHandle {
            rx,
            total,
            received: Vec::new(),
            cancel,
        }
    }

    /// Classify a fault sweep on this engine's worker pool: build the
    /// base analysis once, group the fault points by
    /// [`fault_orbit_key`], re-verify one representative per orbit as a
    /// pool task, and replicate each orbit's outcome to its members in
    /// the original enumeration order. The report is assembled by
    /// [`FrontierReport::assemble`], whose debug cross-check re-derives
    /// every point's rank on small topologies; it is the same at any
    /// worker count.
    pub fn fault_frontier(&self, cfg: AnalysisConfig, faults: Vec<FaultSet>) -> FrontierReport {
        let base = Arc::new(BaseAnalysis::analyze(cfg));
        let mut keys: Vec<String> = Vec::new();
        let mut reps: Vec<FaultSet> = Vec::new();
        let orbit_of: Vec<usize> = faults
            .iter()
            .map(|f| {
                let key = fault_orbit_key(base.config().topo(), f);
                keys.iter().position(|k| *k == key).unwrap_or_else(|| {
                    keys.push(key);
                    reps.push(f.clone());
                    keys.len() - 1
                })
            })
            .collect();

        let (tx, rx) = mpsc::channel();
        let num_orbits = reps.len();
        for (i, rep) in reps.into_iter().enumerate() {
            let base = Arc::clone(&base);
            let tx = tx.clone();
            self.inner.pool.spawn(move || {
                let outcome = catch_unwind(AssertUnwindSafe(|| base.reverify_outcome(&rep)));
                let _ = tx.send((i, outcome));
            });
        }
        drop(tx);
        let mut outcomes: Vec<Option<FaultOutcome>> = vec![None; num_orbits];
        for (i, outcome) in rx {
            match outcome {
                Ok(o) => outcomes[i] = Some(o),
                Err(payload) => panic!(
                    "fault-frontier re-verdict panicked: {}",
                    panic_message(payload.as_ref())
                ),
            }
        }
        let evaluated: Vec<(FaultSet, FaultOutcome)> = faults
            .into_iter()
            .zip(orbit_of)
            .map(|(f, oi)| (f, outcomes[oi].expect("every orbit was evaluated")))
            .collect();
        FrontierReport::assemble(&base, evaluated)
    }
}

/// Configures an [`Engine`]: worker count, cache location.
#[derive(Debug, Default)]
pub struct EngineBuilder {
    jobs: Option<usize>,
    cache_dir: Option<PathBuf>,
    cache: Option<ResultCache>,
}

impl EngineBuilder {
    /// Run this engine on a pool of exactly `n` workers instead of one
    /// per available core. The bench binaries' `--jobs` flag ends up
    /// here. `n` must be positive; [`EngineBuilder::build`] rejects `0`
    /// (there is no pool to run on) — flag parsers should treat an
    /// absent flag as "use the machine default", not as `0`.
    pub fn jobs(mut self, n: usize) -> Self {
        self.jobs = Some(n);
        self
    }

    /// Back the engine with the cache directory `dir` (created on
    /// demand).
    pub fn cache_dir(mut self, dir: impl AsRef<Path>) -> Self {
        self.cache_dir = Some(dir.as_ref().to_path_buf());
        self
    }

    /// Back the engine with an already opened cache.
    pub fn cache(mut self, cache: ResultCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Build the engine. Fails if the cache directory cannot be opened
    /// or `jobs` was `0`.
    pub fn build(self) -> io::Result<Engine> {
        let cache = match (self.cache, self.cache_dir) {
            (Some(cache), _) => Some(cache),
            (None, Some(dir)) => Some(ResultCache::open(dir)?),
            (None, None) => None,
        };
        let workers = match self.jobs {
            None => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            Some(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "engine needs at least one worker (jobs = 0)",
                ))
            }
            Some(n) => n,
        };
        let pool = rayon::ThreadPool::new(workers);
        Ok(Engine {
            inner: Arc::new(EngineInner { cache, pool }),
        })
    }
}

/// The streaming side of one [`Engine::submit`]: yields each point's
/// [`PointOutcome`] as it completes (completion order, not submission
/// order), and assembles the deterministically ordered [`SweepReport`]
/// once drained.
///
/// Every submitted job produces exactly one outcome — simulated, cached,
/// failed, or cancelled — so draining always terminates after
/// [`JobHandle::total`] messages.
#[derive(Debug)]
pub struct JobHandle {
    rx: mpsc::Receiver<PointOutcome>,
    total: usize,
    received: Vec<PointOutcome>,
    cancel: Arc<AtomicBool>,
}

impl JobHandle {
    /// Number of jobs submitted (and of outcomes this handle will
    /// yield).
    pub fn total(&self) -> usize {
        self.total
    }

    /// Outcomes already yielded.
    pub fn received(&self) -> usize {
        self.received.len()
    }

    /// Outcomes still to come.
    pub fn remaining(&self) -> usize {
        self.total - self.received.len()
    }

    /// Block until the next point completes; `None` once all outcomes
    /// have been yielded (or, defensively, if the engine's pool vanished
    /// mid-batch).
    pub fn recv(&mut self) -> Option<PointOutcome> {
        if self.remaining() == 0 {
            return None;
        }
        let outcome = self.rx.recv().ok()?;
        self.received.push(outcome.clone());
        Some(outcome)
    }

    /// Yield the next completed point without blocking; `None` when none
    /// is ready right now (or the stream is exhausted).
    pub fn try_recv(&mut self) -> Option<PointOutcome> {
        if self.remaining() == 0 {
            return None;
        }
        let outcome = self.rx.try_recv().ok()?;
        self.received.push(outcome.clone());
        Some(outcome)
    }

    /// Drain the stream and assemble the report. Points already consumed
    /// via [`JobHandle::recv`] are included — streaming first and then
    /// waiting loses nothing. The report is ordered by job id, so it is
    /// identical (bit-for-bit) regardless of worker count or completion
    /// order.
    pub fn wait(mut self) -> SweepReport {
        while self.recv().is_some() {}
        SweepReport::from_outcomes(self.received)
    }

    /// Request cancellation: points not yet started yield
    /// [`PointFailure::Cancelled`] outcomes; points already running
    /// finish normally. The stream still delivers every outcome.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::SeqCst);
    }

    /// A detachable cancel token for this batch (the daemon hands these
    /// to other connections).
    pub fn canceller(&self) -> Canceller {
        Canceller(Arc::clone(&self.cancel))
    }
}

/// Cancels one submitted batch from anywhere (cloneable, thread-safe).
#[derive(Clone, Debug)]
pub struct Canceller(Arc<AtomicBool>);

impl Canceller {
    /// Request cancellation (see [`JobHandle::cancel`]).
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// True once cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

fn run_one<F>(
    cache: Option<&ResultCache>,
    job: &Job,
    runner: &F,
    verdict: Option<Verdict>,
) -> PointOutcome
where
    F: Fn(&Job) -> Result<SimResult, SchemeConfigError>,
{
    let key = job.key();
    if let Some(cache) = cache {
        if let Some(hit) = cache.get(&key) {
            mdd_obs::counter_add(CounterId::PointsCached, 1);
            return PointOutcome {
                job: job.clone(),
                result: Ok(hit),
                from_cache: true,
                wall_micros: 0,
                verdict,
            };
        }
    }
    mdd_obs::counter_add(CounterId::PointsStarted, 1);
    let start = Instant::now();
    let run = catch_unwind(AssertUnwindSafe(|| runner(job)));
    let wall_micros = start.elapsed().as_micros() as u64;
    mdd_obs::counter_add(CounterId::PointWallMicros, wall_micros);
    let result = match run {
        Ok(Ok(result)) => {
            mdd_obs::counter_add(CounterId::PointsCompleted, 1);
            if let Some(cache) = cache {
                if let Err(e) = cache.put(&key, &job.label, &result) {
                    // A write failure degrades the cache, not the
                    // sweep: the result is still returned.
                    eprintln!("mdd-engine: cache write failed for {key}: {e}");
                }
            }
            Ok(result)
        }
        Ok(Err(e)) => {
            mdd_obs::counter_add(CounterId::PointsFailed, 1);
            Err(PointError {
                job: job.id,
                label: job.label.clone(),
                load: job.load(),
                failure: PointFailure::Config(e),
            })
        }
        Err(payload) => {
            mdd_obs::counter_add(CounterId::PointsFailed, 1);
            Err(PointError {
                job: job.id,
                label: job.label.clone(),
                load: job.load(),
                failure: PointFailure::Panic(panic_message(payload.as_ref())),
            })
        }
    };
    PointOutcome {
        job: job.clone(),
        result,
        from_cache: false,
        wall_micros,
        verdict,
    }
}

fn cancelled_outcome(job: &Job, verdict: Option<Verdict>) -> PointOutcome {
    PointOutcome {
        job: job.clone(),
        result: Err(PointError {
            job: job.id,
            label: job.label.clone(),
            load: job.load(),
            failure: PointFailure::Cancelled,
        }),
        from_cache: false,
        wall_micros: 0,
        verdict,
    }
}

/// Batches currently in flight across every engine of the process (the
/// `jobs_in_flight` gauge).
static JOBS_IN_FLIGHT: AtomicU64 = AtomicU64::new(0);

fn note_jobs_in_flight(delta: i64) {
    let now = if delta >= 0 {
        JOBS_IN_FLIGHT.fetch_add(delta as u64, Ordering::SeqCst) + delta as u64
    } else {
        JOBS_IN_FLIGHT
            .fetch_sub(delta.unsigned_abs(), Ordering::SeqCst)
            .saturating_sub(delta.unsigned_abs())
    };
    mdd_obs::gauge_set(CounterId::JobsInFlight, now);
}

fn sample_pool_gauges(pool: &rayon::ThreadPool) {
    if !mdd_obs::enabled() {
        return;
    }
    let s = pool.stats();
    mdd_obs::gauge_set(CounterId::PoolWorkersBusy, s.busy as u64);
    mdd_obs::gauge_set(CounterId::PoolQueueDepth, s.queued as u64);
}

/// The projection of a configuration that the static verifier reads:
/// everything except load, seed and the simulation windows. Used to
/// memoize one verdict across the points of a sweep. The pattern is
/// compared by `Arc` identity — sweep points derived via
/// [`SimConfig::at_load`] share the allocation.
fn verify_key(cfg: &SimConfig) -> String {
    format!(
        "{:p}|{:?}|{}|{}|{}|{:?}|{:?}",
        std::sync::Arc::as_ptr(&cfg.pattern),
        cfg.radix,
        cfg.mesh,
        cfg.bristle,
        cfg.vcs,
        cfg.scheme,
        cfg.effective_queue_org(),
    )
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The fate of one scheduled point.
#[derive(Clone, Debug)]
pub struct PointOutcome {
    /// The job as scheduled.
    pub job: Job,
    /// The simulated (or cache-served) result, or the typed failure.
    pub result: Result<SimResult, PointError>,
    /// True when the result came from the persistent cache.
    pub from_cache: bool,
    /// Wall-clock microseconds this point's simulation took (0 for cache
    /// hits).
    pub wall_micros: u64,
    /// The static pre-flight verdict for this point's configuration
    /// (`None` only when the configuration is infeasible for its scheme —
    /// such points fail at construction anyway).
    pub verdict: Option<Verdict>,
}

impl PointOutcome {
    /// True when this outcome is a cancelled-before-start point.
    pub fn cancelled(&self) -> bool {
        matches!(
            &self.result,
            Err(PointError {
                failure: PointFailure::Cancelled,
                ..
            })
        )
    }
}

/// Everything a batch produced, ordered by job id — independent of
/// worker count and completion order, so reports (and the curves built
/// from them) are bit-identical across `--jobs` settings.
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// One outcome per scheduled job, in job-id order.
    pub outcomes: Vec<PointOutcome>,
}

impl SweepReport {
    /// Assemble a report from streamed outcomes (any order; sorted by
    /// job id here so assembly is deterministic).
    pub fn from_outcomes(mut outcomes: Vec<PointOutcome>) -> Self {
        outcomes.sort_by_key(|o| o.job.id);
        SweepReport { outcomes }
    }

    /// Points served from the cache.
    pub fn cached(&self) -> u64 {
        self.outcomes.iter().filter(|o| o.from_cache).count() as u64
    }

    /// Points that actually simulated to completion.
    pub fn simulated(&self) -> u64 {
        self.outcomes
            .iter()
            .filter(|o| !o.from_cache && o.result.is_ok())
            .count() as u64
    }

    /// Points that failed (configuration errors and isolated panics;
    /// cancellations count separately — see [`SweepReport::cancelled`]).
    pub fn failed(&self) -> u64 {
        self.outcomes
            .iter()
            .filter(|o| o.result.is_err() && !o.cancelled())
            .count() as u64
    }

    /// Points cancelled before they started.
    pub fn cancelled(&self) -> u64 {
        self.outcomes.iter().filter(|o| o.cancelled()).count() as u64
    }

    /// True when every point succeeded.
    pub fn complete(&self) -> bool {
        self.failed() == 0 && self.cancelled() == 0
    }

    /// The successful results, in job order.
    pub fn results(&self) -> Vec<&SimResult> {
        self.outcomes
            .iter()
            .filter_map(|o| o.result.as_ref().ok())
            .collect()
    }

    /// The static pre-flight verdicts, in job order.
    pub fn verdicts(&self) -> Vec<Option<&Verdict>> {
        self.outcomes.iter().map(|o| o.verdict.as_ref()).collect()
    }

    /// The failures (cancellations included), in job order.
    pub fn errors(&self) -> Vec<&PointError> {
        self.outcomes
            .iter()
            .filter_map(|o| o.result.as_ref().err())
            .collect()
    }

    /// Assemble the (possibly partial) BNF curve of the successful
    /// points.
    pub fn curve(&self, label: &str) -> BnfCurve {
        BnfCurve::assemble(
            label,
            self.outcomes
                .iter()
                .filter_map(|o| o.result.as_ref().ok().map(SimResult::bnf_point)),
        )
    }

    /// Total wall-clock microseconds spent simulating (cache hits add
    /// nothing; parallel points sum, so this exceeds elapsed time).
    pub fn wall_micros(&self) -> u64 {
        self.outcomes.iter().map(|o| o.wall_micros).sum()
    }

    /// One-line progress summary, e.g. `9 points: 6 simulated, 3 cached`.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{} points: {} simulated, {} cached",
            self.outcomes.len(),
            self.simulated(),
            self.cached()
        );
        if self.failed() > 0 {
            s.push_str(&format!(", {} FAILED", self.failed()));
        }
        if self.cancelled() > 0 {
            s.push_str(&format!(", {} cancelled", self.cancelled()));
        }
        s
    }
}
