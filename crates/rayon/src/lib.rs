//! In-tree parallel primitives for the simulator. The package is named
//! `rayon` because the benchmark's frozen lockfile lists it under that
//! name; it does not mirror that crate's API. It offers two things:
//!
//! * [`ThreadPool`] — a persistent pool of worker threads taking
//!   `'static` tasks from one FIFO queue, the substrate of the
//!   `mdd-engine` streaming scheduler and the `mddsimd` sweep service.
//!   A sweep point runs for milliseconds to seconds, so one queue of
//!   whole points is all the scheduling a sweep needs.
//! * [`scope_map`] — a gang of scoped threads, one per item, for the
//!   sharded network cycle.
//!
//! ```
//! let pool = rayon::ThreadPool::new(2);
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

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

type Task = Box<dyn FnOnce() + Send + 'static>;

/// The queue and the shutdown flag share one lock, so a worker that finds
/// the queue empty re-checks both before it waits and cannot miss a push.
struct Queue {
    tasks: VecDeque<Task>,
    shutdown: bool,
}

struct PoolShared {
    queue: Mutex<Queue>,
    /// Signalled once per spawned task, and for every worker at shutdown.
    work_cv: Condvar,
    busy: AtomicUsize,
    executed: AtomicU64,
}

/// A persistent thread pool executing `'static` tasks in submission
/// order.
///
/// Workers are OS threads created once by [`ThreadPool::new`] and parked
/// on a condition variable while the queue is empty. Dropping the pool is
/// a **graceful shutdown**: every task already submitted runs to
/// completion before the workers exit and are joined. A panicking task is
/// caught at the task boundary and never kills its worker.
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
/// `pool_workers_busy` / `pool_queue_depth` observability gauges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads owned by the pool.
    pub threads: usize,
    /// Workers currently executing a task.
    pub busy: usize,
    /// Tasks waiting in the queue.
    pub queued: usize,
    /// Cumulative tasks run to completion (panicking tasks included).
    pub executed: u64,
}

impl ThreadPool {
    /// A pool of `n` worker threads. Panics if `n` is 0.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a thread pool needs at least one worker");
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(Queue {
                tasks: VecDeque::new(),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            busy: AtomicUsize::new(0),
            executed: AtomicU64::new(0),
        });
        let workers = (0..n)
            .map(|idx| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mdd-pool-{idx}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool { shared, workers }
    }

    /// Submit a task. Never blocks on other tasks; the task runs once a
    /// worker has taken every task submitted before it.
    pub fn spawn(&self, f: impl FnOnce() + Send + 'static) {
        self.shared.lock().tasks.push_back(Box::new(f));
        self.shared.work_cv.notify_one();
    }

    /// Sample the scheduling gauges.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            threads: self.workers.len(),
            busy: self.shared.busy.load(Ordering::Relaxed),
            queued: self.shared.lock().tasks.len(),
            executed: self.shared.executed.load(Ordering::Relaxed),
        }
    }
}

impl PoolShared {
    fn lock(&self) -> std::sync::MutexGuard<'_, Queue> {
        self.queue.lock().expect("pool queue poisoned")
    }
}

impl Drop for ThreadPool {
    /// Graceful shutdown. The last handle may be dropped by one of the
    /// pool's own tasks; that worker cannot join itself, so it is left
    /// detached and exits once the queue drains, like its siblings.
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.work_cv.notify_all();
        let me = std::thread::current().id();
        for w in self.workers.drain(..) {
            if w.thread().id() != me {
                let _unused = w.join();
            }
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let task = {
            let mut queue = shared.lock();
            loop {
                if let Some(task) = queue.tasks.pop_front() {
                    break task;
                }
                // Drain-before-exit: shutdown only stops a worker once the
                // queue is empty, so Drop waits for submitted work.
                if queue.shutdown {
                    return;
                }
                queue = shared.work_cv.wait(queue).expect("pool queue poisoned");
            }
        };
        shared.busy.fetch_add(1, Ordering::Relaxed);
        // A panicking task must not take its worker (or, transitively,
        // the whole pool) down with it; the engine additionally wraps
        // every simulation point in its own catch_unwind to convert the
        // payload into a typed PointError.
        let _unused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task));
        shared.busy.fetch_sub(1, Ordering::Relaxed);
        shared.executed.fetch_add(1, Ordering::Relaxed);
    }
}

/// Run `f` once per item of `work` on scoped threads, returning the
/// results in input order.
///
/// One thread per item (minus one: the first item runs on the calling
/// thread) — the shape wanted by gang-scheduled phases such as the
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

#[cfg(test)]
mod tests {
    use crate::{scope_map, ThreadPool};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn pool_runs_every_task_and_drains_on_drop() {
        let pool = ThreadPool::new(4);
        assert_eq!(pool.stats().threads, 4);
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
        let pool = ThreadPool::new(2);
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
        let pool = Arc::new(ThreadPool::new(2));
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
            .recv_timeout(Duration::from_secs(10))
            .expect("the dropping task finished");
        assert!(ok, "dropping the last handle inside a pool task panicked");
    }

    #[test]
    fn pool_stats_count_executed_tasks() {
        let pool = ThreadPool::new(3);
        let gate = Arc::new(std::sync::Barrier::new(4));
        for _ in 0..3 {
            let gate = Arc::clone(&gate);
            pool.spawn(move || {
                gate.wait();
            });
        }
        gate.wait(); // all three workers are simultaneously busy here
                     // Post-barrier the tasks finish immediately; wait for the drain.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while pool.stats().executed < 3 {
            assert!(std::time::Instant::now() < deadline, "pool never drained");
            std::thread::yield_now();
        }
        let stats = pool.stats();
        assert_eq!(stats.threads, 3);
        assert_eq!(stats.executed, 3);
        assert_eq!(stats.queued, 0);
    }

    /// A task spawned onto an idle pool must run while the pool lives:
    /// the wake-up comes from `spawn`, not from a timed re-check or from
    /// the shutdown in `drop`.
    #[test]
    fn spawn_after_idle_runs_without_drop() {
        let pool = ThreadPool::new(1);
        let (tx, rx) = std::sync::mpsc::channel();
        for round in 0..200u32 {
            // Let the worker finish the previous round and park.
            while pool.stats().busy > 0 {
                std::thread::yield_now();
            }
            std::thread::sleep(Duration::from_micros(200));
            let tx = tx.clone();
            pool.spawn(move || tx.send(round).unwrap());
            let got = rx
                .recv_timeout(Duration::from_secs(5))
                .unwrap_or_else(|_| panic!("round {round}: task on an idle pool never ran"));
            assert_eq!(got, round);
        }
        drop(pool);
    }

    #[test]
    fn scope_map_keeps_order_runs_one_item_inline_and_propagates_panics() {
        let squares = scope_map(0..6u64, |x| x * x);
        assert_eq!(squares, vec![0, 1, 4, 9, 16, 25]);
        assert!(scope_map(Vec::<u8>::new(), |x| x).is_empty());

        let caller = std::thread::current().id();
        assert_eq!(
            scope_map([()], |()| std::thread::current().id()),
            vec![caller]
        );

        let panicked = std::panic::catch_unwind(|| {
            scope_map(0..3u32, |i| {
                assert!(i != 2, "item {i} failed");
                i
            })
        });
        let payload = panicked.expect_err("a panic in a non-first item reaches the caller");
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or_default();
        assert!(msg.contains("item 2 failed"), "payload: {msg:?}");
    }
}
