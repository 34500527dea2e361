//! Offline stand-in for the [`rayon`](https://crates.io/crates/rayon)
//! data-parallelism crate — now backed by a real work-stealing pool.
//!
//! The workspace builds with no network access, so this crate provides
//! the two rayon idioms the simulator uses with the same names and the
//! same semantics:
//!
//! * `slice.par_iter().map(f).collect::<Vec<_>>()` — an order-preserving
//!   parallel map over borrowed data, run on scoped threads;
//! * [`ThreadPool`] / [`ThreadPoolBuilder`] — a persistent pool of
//!   worker threads accepting `'static` tasks via [`ThreadPool::spawn`],
//!   the substrate of the `mdd-engine` streaming scheduler and the
//!   `mddsimd` sweep service.
//!
//! Both are built on one scheduling design: **per-worker deques plus a
//! global injector**. External submissions land in the injector; a
//! worker prefers the back of its own deque (LIFO, cache-warm), then the
//! front of the injector (FIFO, fair), then steals from the front of a
//! sibling's deque. Load sweeps are embarrassingly parallel with
//! per-point runtimes that vary by an order of magnitude across loads,
//! so dynamic stealing matters and static chunking would not do.
//!
//! ```
//! use rayon::prelude::*;
//!
//! let squares: Vec<u64> = [1u64, 2, 3, 4].par_iter().map(|&x| x * x).collect();
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```
//!
//! ```
//! let pool = rayon::ThreadPoolBuilder::new().num_threads(2).build().unwrap();
//! let (tx, rx) = std::sync::mpsc::channel();
//! for i in 0..8u32 {
//!     let tx = tx.clone();
//!     pool.spawn(move || tx.send(i * i).unwrap());
//! }
//! drop(tx);
//! let mut got: Vec<u32> = rx.iter().collect();
//! got.sort_unstable();
//! assert_eq!(got, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

#![warn(missing_docs)]

/// The user-facing traits and adapters, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{IntoParallelRefIterator, ParIter, ParMap};
}

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

// ---------------------------------------------------------------------------
// Work-stealing queues
// ---------------------------------------------------------------------------

/// The shared scheduling state of one stealing domain: a global injector
/// queue plus one deque per worker. Owners push/pop the *back* of their
/// own deque; thieves (and injector consumers) take from the *front*, so
/// an owner and a thief contend on opposite ends and large work items
/// seeded early are stolen first.
struct StealQueues<T> {
    injector: Mutex<VecDeque<T>>,
    locals: Vec<Mutex<VecDeque<T>>>,
    /// Signalled on every push; workers park here when every queue is dry.
    work_cv: Condvar,
    /// Items currently sitting in the injector or a local deque.
    queued: AtomicUsize,
    /// Successful steals from a sibling's deque (not the injector).
    steals: AtomicU64,
}

impl<T> StealQueues<T> {
    fn new(workers: usize) -> Self {
        StealQueues {
            injector: Mutex::new(VecDeque::new()),
            locals: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            work_cv: Condvar::new(),
            queued: AtomicUsize::new(0),
            steals: AtomicU64::new(0),
        }
    }

    /// Push external work onto the global injector and wake a sleeper.
    fn push_global(&self, item: T) {
        self.queued.fetch_add(1, Ordering::Relaxed);
        self.injector.lock().expect("injector poisoned").push_back(item);
        self.work_cv.notify_one();
    }

    /// Push onto worker `w`'s own deque (splits, nested spawns) and wake a
    /// sleeper so the freshly exposed work can be stolen.
    fn push_local(&self, w: usize, item: T) {
        self.queued.fetch_add(1, Ordering::Relaxed);
        self.locals[w].lock().expect("local deque poisoned").push_back(item);
        self.work_cv.notify_one();
    }

    /// Take the next item for worker `w`: own deque (back) → injector
    /// (front) → steal from siblings (front), scanned from `w + 1` so
    /// victims rotate instead of everybody mobbing worker 0.
    fn take(&self, w: usize) -> Option<T> {
        if let Some(t) = self.locals[w].lock().expect("local deque poisoned").pop_back() {
            self.queued.fetch_sub(1, Ordering::Relaxed);
            return Some(t);
        }
        if let Some(t) = self.injector.lock().expect("injector poisoned").pop_front() {
            self.queued.fetch_sub(1, Ordering::Relaxed);
            return Some(t);
        }
        let n = self.locals.len();
        for i in 1..n {
            let victim = (w + i) % n;
            if let Some(t) = self.locals[victim]
                .lock()
                .expect("local deque poisoned")
                .pop_front()
            {
                self.queued.fetch_sub(1, Ordering::Relaxed);
                self.steals.fetch_add(1, Ordering::Relaxed);
                return Some(t);
            }
        }
        None
    }

    /// Park until [`StealQueues::push_global`]/[`push_local`] signals or
    /// the timeout lapses. The timeout (rather than precise wake
    /// accounting) covers the benign race where work is pushed between a
    /// failed [`take`] scan and the park; `should_wake` short-circuits
    /// shutdown.
    ///
    /// [`push_local`]: StealQueues::push_local
    /// [`take`]: StealQueues::take
    fn park(&self, should_wake: impl Fn() -> bool) {
        let guard = self.injector.lock().expect("injector poisoned");
        if should_wake() || !guard.is_empty() || self.queued.load(Ordering::Relaxed) > 0 {
            return;
        }
        let _unused = self
            .work_cv
            .wait_timeout(guard, Duration::from_millis(20))
            .expect("injector poisoned");
    }
}

// ---------------------------------------------------------------------------
// The persistent thread pool
// ---------------------------------------------------------------------------

type Task = Box<dyn FnOnce() + Send + 'static>;

struct PoolShared {
    queues: StealQueues<Task>,
    shutdown: AtomicBool,
    busy: AtomicUsize,
    executed: AtomicU64,
}

/// A persistent work-stealing thread pool executing `'static` tasks.
///
/// Workers are real OS threads created once at [`ThreadPoolBuilder::build`]
/// and parked (condvar, 20 ms re-check) while idle. Dropping the pool is a
/// **graceful shutdown**: every task already submitted runs to completion
/// before the workers exit and are joined. A panicking task is caught at
/// the task boundary and never kills its worker (unlike upstream rayon,
/// which aborts the process).
///
/// Blocking on the result of a task *from inside another task of the same
/// pool* can deadlock a fully busy pool; the `mdd-engine` scheduler only
/// ever blocks from non-pool threads.
pub struct ThreadPool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.workers.len())
            .field("stats", &self.stats())
            .finish()
    }
}

/// A point-in-time sample of a pool's scheduling state, for the
/// `pool_workers_busy` / `pool_queue_depth` / `pool_steals` observability
/// gauges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads owned by the pool.
    pub threads: usize,
    /// Workers currently executing a task.
    pub busy: usize,
    /// Tasks waiting in the injector or a worker deque.
    pub queued: usize,
    /// Cumulative successful steals from sibling deques.
    pub steals: u64,
    /// Cumulative tasks run to completion (panicking tasks included).
    pub executed: u64,
}

impl ThreadPool {
    fn with_threads(n: usize) -> Self {
        let n = n.max(1);
        let shared = Arc::new(PoolShared {
            queues: StealQueues::new(n),
            shutdown: AtomicBool::new(false),
            busy: AtomicUsize::new(0),
            executed: AtomicU64::new(0),
        });
        let workers = (0..n)
            .map(|idx| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mdd-pool-{idx}"))
                    .spawn(move || worker_loop(idx, &shared))
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool { shared, workers }
    }

    /// Submit a task. Never blocks; the task runs as soon as a worker
    /// frees up, with dynamic balancing via stealing.
    pub fn spawn(&self, f: impl FnOnce() + Send + 'static) {
        assert!(
            !self.shared.shutdown.load(Ordering::Relaxed),
            "spawn on a shut-down pool"
        );
        self.shared.queues.push_global(Box::new(f));
    }

    /// Number of worker threads in this pool.
    pub fn current_num_threads(&self) -> usize {
        self.workers.len()
    }

    /// Sample the scheduling gauges.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            threads: self.workers.len(),
            busy: self.shared.busy.load(Ordering::Relaxed),
            queued: self.shared.queues.queued.load(Ordering::Relaxed),
            steals: self.shared.queues.steals.load(Ordering::Relaxed),
            executed: self.shared.executed.load(Ordering::Relaxed),
        }
    }
}

impl Drop for ThreadPool {
    /// Graceful shutdown. The last handle may be dropped by one of the
    /// pool's own tasks; that worker cannot join itself, so it is left
    /// detached and exits once the queues drain, like its siblings.
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.shared.queues.work_cv.notify_all();
        let me = std::thread::current().id();
        for w in self.workers.drain(..) {
            if w.thread().id() != me {
                let _unused = w.join();
            }
        }
    }
}

fn worker_loop(idx: usize, shared: &PoolShared) {
    loop {
        if let Some(task) = shared.queues.take(idx) {
            shared.busy.fetch_add(1, Ordering::Relaxed);
            // A panicking task must not take its worker (or, transitively,
            // the whole pool) down with it; the engine additionally wraps
            // every simulation point in its own catch_unwind to convert
            // the payload into a typed PointError.
            let _unused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task));
            shared.busy.fetch_sub(1, Ordering::Relaxed);
            shared.executed.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        // Drain-before-exit: shutdown only stops a worker once every
        // queue is empty, so Drop waits for submitted work.
        if shared.shutdown.load(Ordering::Relaxed) {
            if shared.queues.queued.load(Ordering::Relaxed) == 0 {
                break;
            }
            continue;
        }
        shared.queues.park(|| shared.shutdown.load(Ordering::Relaxed));
    }
}

// ---------------------------------------------------------------------------
// Builder + global pool
// ---------------------------------------------------------------------------

/// Global worker-count override installed by [`ThreadPoolBuilder::build_global`]
/// (0 = unset).
static MAX_THREADS: AtomicUsize = AtomicUsize::new(0);

/// The lazily created process-global pool shared by everything that does
/// not bring its own (see [`global_pool`]).
static GLOBAL_POOL: OnceLock<Arc<ThreadPool>> = OnceLock::new();

/// The process-global shared pool, created on first use with the
/// [`ThreadPoolBuilder::build_global`] cap / `RAYON_NUM_THREADS` /
/// machine-parallelism sizing rules. Like upstream rayon, the size is
/// fixed once the pool exists — configure the cap *before* the first
/// parallel call.
pub fn global_pool() -> Arc<ThreadPool> {
    Arc::clone(GLOBAL_POOL.get_or_init(|| Arc::new(ThreadPool::with_threads(configured_workers()))))
}

/// Mirror of rayon's `ThreadPoolBuilder`: [`build`](Self::build) a
/// dedicated [`ThreadPool`], or [`build_global`](Self::build_global) to
/// cap the shared one (`--jobs` in the bench binaries).
///
/// ```
/// let pool = rayon::ThreadPoolBuilder::new().num_threads(2).build().unwrap();
/// assert_eq!(pool.current_num_threads(), 2);
/// ```
#[derive(Default, Debug)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// A builder with the default (machine-sized) thread count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Use at most `n` worker threads; `0` restores the default.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Build a dedicated pool with this thread count (machine
    /// parallelism when unset). Never fails in the shim; the `Result`
    /// mirrors upstream's signature.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let n = if self.num_threads == 0 {
            default_workers()
        } else {
            self.num_threads
        };
        Ok(ThreadPool::with_threads(n))
    }

    /// Install the thread-count cap process-globally. The cap applies to
    /// `par_iter` calls and to [`global_pool`] *if it has not been built
    /// yet*; repeated calls simply replace the cap and never fail.
    pub fn build_global(self) -> Result<(), ThreadPoolBuildError> {
        MAX_THREADS.store(self.num_threads, Ordering::Relaxed);
        Ok(())
    }
}

/// Error type of the [`ThreadPoolBuilder`] build methods (never produced
/// by the shim; present for signature compatibility).
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "global thread pool already initialized")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// The machine's logical CPU count (at least 1).
fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Degree of parallelism: the `build_global` cap if set, else the
/// `RAYON_NUM_THREADS` environment variable (as upstream rayon), else the
/// machine's logical CPUs (at least 1).
fn configured_workers() -> usize {
    match MAX_THREADS.load(Ordering::Relaxed) {
        0 => std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(default_workers),
        n => n,
    }
}

// ---------------------------------------------------------------------------
// par_iter over borrowed data (scoped work stealing)
// ---------------------------------------------------------------------------

/// Conversion of `&self` into a parallel iterator (the `par_iter` entry
/// point).
pub trait IntoParallelRefIterator<'a> {
    /// The element type yielded by reference.
    type Item: Sync + 'a;
    /// Create the parallel iterator.
    fn par_iter(&'a self) -> ParIter<'a, Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

/// A borrowed parallel iterator over a slice.
pub struct ParIter<'a, T> {
    items: &'a [T],
}

impl<T> core::fmt::Debug for ParIter<'_, T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ParIter").field("len", &self.items.len()).finish()
    }
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Map each element through `f`, in parallel.
    pub fn map<R, F>(self, f: F) -> ParMap<'a, T, F>
    where
        F: Fn(&'a T) -> R + Sync,
        R: Send,
    {
        ParMap {
            items: self.items,
            f,
        }
    }
}

/// The mapped parallel iterator; consumed by [`ParMap::collect`].
pub struct ParMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

impl<T, F> core::fmt::Debug for ParMap<'_, T, F> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ParMap").field("len", &self.items.len()).finish()
    }
}

impl<'a, T: Sync, F> ParMap<'a, T, F> {
    /// Run the map across worker threads and collect the results in
    /// input order.
    pub fn collect<C, R>(self) -> C
    where
        F: Fn(&'a T) -> R + Sync,
        R: Send,
        C: FromIterator<R>,
    {
        run_indexed(self.items.len(), |i| (self.f)(&self.items[i]))
            .into_iter()
            .collect()
    }
}

/// Run `f` once per item of `work` on scoped worker threads, returning
/// the results in input order.
///
/// Unlike `run_indexed` this spawns exactly one worker per item (minus
/// one: the first item runs on the calling thread), with no stealing or
/// splitting — the shape wanted by gang-scheduled phases such as the
/// sharded network cycle, where each item *is* one shard and the caller
/// provides the partition. A single item runs inline with no thread
/// scope at all, and `work` is consumed lazily on the calling thread, so
/// that case allocates nothing. Items may borrow from the caller's stack
/// (`std::thread::scope` underneath). A panic in any task propagates to
/// the caller after the scope joins.
pub fn scope_map<C: Send, T: Send>(
    work: impl IntoIterator<Item = C>,
    f: impl Fn(C) -> T + Sync,
) -> Vec<T> {
    let mut work = work.into_iter();
    let Some(first) = work.next() else {
        return Vec::new();
    };
    let Some(second) = work.next() else {
        return vec![f(first)];
    };
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = std::iter::once(second)
            .chain(work)
            .map(|c| scope.spawn(move || f(c)))
            .collect();
        let mut out = Vec::with_capacity(handles.len() + 1);
        out.push(f(first));
        for h in handles {
            out.push(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        out
    })
}

/// Evaluate `f(0..n)` with work-stealing scheduling and return the
/// results in index order.
///
/// Borrowed closures cannot ride the persistent [`ThreadPool`] (its tasks
/// are `'static`), so this path spawns scoped workers sharing a
/// [`StealQueues`] of index ranges: the injector is seeded with one
/// contiguous chunk per worker; a worker repeatedly takes a range,
/// *splits* anything longer than the grain back onto its own deque (where
/// idle siblings steal it front-first), and evaluates the rest.
fn run_indexed<R: Send>(n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let nw = configured_workers().min(n.max(1));
    if nw <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    // Below the grain a range is evaluated outright; splitting finer only
    // buys queue traffic.
    let grain = (n / (8 * nw)).max(1);
    let queues: StealQueues<std::ops::Range<usize>> = StealQueues::new(nw);
    for w in 0..nw {
        let (lo, hi) = (w * n / nw, (w + 1) * n / nw);
        if lo < hi {
            queues.push_global(lo..hi);
        }
    }
    let done = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for w in 0..nw {
            let (queues, done, slots, f) = (&queues, &done, &slots, &f);
            scope.spawn(move || {
                while done.load(Ordering::Acquire) < n {
                    let Some(mut range) = queues.take(w) else {
                        // All queues dry, but a sibling may still split the
                        // range it is working on — park briefly and rescan.
                        queues.park(|| done.load(Ordering::Acquire) >= n);
                        continue;
                    };
                    while range.len() > grain {
                        let mid = range.start + range.len() / 2;
                        queues.push_local(w, mid..range.end);
                        range = range.start..mid;
                    }
                    for i in range {
                        *slots[i].lock().expect("result slot poisoned") = Some(f(i));
                        done.fetch_add(1, Ordering::Release);
                    }
                }
                // Unblock siblings parked after the final completion.
                queues.work_cv.notify_all();
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("result slot poisoned")
                .expect("every index was processed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn map_collect_preserves_order() {
        let xs: Vec<u32> = (0..1000).collect();
        let ys: Vec<u64> = xs.par_iter().map(|&x| x as u64 * 2).collect();
        assert_eq!(ys, (0..1000).map(|x| x as u64 * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single() {
        let none: Vec<u32> = Vec::new();
        let out: Vec<u32> = none.par_iter().map(|&x| x).collect();
        assert!(out.is_empty());
        let one = [5u32];
        let out: Vec<u32> = one.par_iter().map(|&x| x + 1).collect();
        assert_eq!(out, vec![6]);
    }

    #[test]
    fn uneven_work_is_balanced() {
        // Items with wildly different costs still all complete and land in
        // order (exercises splitting + stealing).
        let xs: Vec<usize> = (0..64).collect();
        let ys: Vec<usize> = xs
            .par_iter()
            .map(|&x| {
                let mut acc = 0usize;
                for i in 0..(x * 1000) {
                    acc = acc.wrapping_add(i);
                }
                let _ = acc;
                x
            })
            .collect();
        assert_eq!(ys, xs);
    }

    #[test]
    fn pool_runs_every_task_and_drains_on_drop() {
        let pool = crate::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        assert_eq!(pool.current_num_threads(), 4);
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..257 {
            let hits = Arc::clone(&hits);
            pool.spawn(move || {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        drop(pool); // graceful: joins only after the backlog drains
        assert_eq!(hits.load(Ordering::Relaxed), 257);
    }

    #[test]
    fn pool_survives_panicking_tasks() {
        let pool = crate::ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let hits = Arc::new(AtomicUsize::new(0));
        for i in 0..16 {
            let hits = Arc::clone(&hits);
            pool.spawn(move || {
                if i % 4 == 0 {
                    panic!("task {i} poisoned");
                }
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        drop(pool);
        assert_eq!(hits.load(Ordering::Relaxed), 12);
    }

    #[test]
    fn pool_dropped_from_its_own_task() {
        let pool = Arc::new(crate::ThreadPoolBuilder::new().num_threads(2).build().unwrap());
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let last = Arc::clone(&pool);
        pool.spawn(move || {
            go_rx.recv().unwrap();
            // `last` is now the only handle: dropping it runs the pool's
            // drop on one of its own workers.
            let dropped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drop(last)));
            done_tx.send(dropped.is_ok()).unwrap();
        });
        drop(pool);
        go_tx.send(()).unwrap();
        let ok = done_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the dropping task finished");
        assert!(ok, "dropping the last handle inside a pool task panicked");
    }

    #[test]
    fn pool_stats_count_executed_tasks() {
        let pool = crate::ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let gate = Arc::new(std::sync::Barrier::new(4));
        for _ in 0..3 {
            let gate = Arc::clone(&gate);
            pool.spawn(move || {
                gate.wait();
            });
        }
        gate.wait(); // all three workers are simultaneously busy here
        // Post-barrier the tasks finish immediately; wait for the drain.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while pool.stats().executed < 3 {
            assert!(std::time::Instant::now() < deadline, "pool never drained");
            std::thread::yield_now();
        }
        let stats = pool.stats();
        assert_eq!(stats.threads, 3);
        assert_eq!(stats.executed, 3);
        assert_eq!(stats.queued, 0);
    }
}
