//! mddsimd — the persistent sweep service.
//!
//! Listens on a Unix domain socket and serves the line-delimited JSON
//! protocol of [`mdd_engine::proto`]: clients `submit` load sweeps, the
//! daemon schedules them on one shared FIFO worker pool (and one
//! shared result cache), and each completed point streams back on the
//! submitting connection the moment it finishes — the socket protocol
//! is a serialization of the same streaming `Engine::submit` /
//! `JobHandle::recv` API local callers use.
//!
//! ```text
//! mddsimd [--socket PATH] [--jobs N] [--out DIR] [--cache-dir DIR] [--no-cache]
//!
//! --socket PATH      listen here [/tmp/mddsimd.sock]
//! --jobs N           worker threads, N >= 1 [machine parallelism]
//! --cache-dir DIR    shared result cache [results/cache]
//! --no-cache         simulate every point
//! ```
//!
//! One connection handles any number of requests in sequence; concurrent
//! jobs come from concurrent connections, all feeding the same pool.
//! `cancel` (from any connection) marks a job's unstarted points
//! cancelled; `shutdown` lets in-flight jobs finish streaming, then the
//! daemon removes its socket and exits 0.

use mdd_bench::cli::{die, BenchCli};
use mdd_engine::proto::{Event, JobStatus, Request};
use mdd_engine::{Canceller, Engine, PointOutcome};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

struct JobRecord {
    id: u64,
    label: String,
    total: u64,
    done: Arc<AtomicU64>,
    canceller: Canceller,
    finished: Arc<AtomicBool>,
}

impl JobRecord {
    fn status(&self) -> JobStatus {
        let state = if self.canceller.is_cancelled() {
            "cancelled"
        } else if self.finished.load(Ordering::SeqCst) {
            "done"
        } else {
            "running"
        };
        JobStatus {
            job: self.id,
            label: self.label.clone(),
            state: state.to_string(),
            done: self.done.load(Ordering::SeqCst),
            total: self.total,
        }
    }
}

struct Daemon {
    engine: Engine,
    socket: PathBuf,
    jobs: Mutex<Vec<JobRecord>>,
    next_id: AtomicU64,
    shutdown: AtomicBool,
}

fn main() {
    let cli = BenchCli::parse();
    let socket = PathBuf::from(cli.value("--socket").unwrap_or(mdd_engine::DEFAULT_SOCKET));
    remove_stale_socket(&socket);
    let engine = cli.engine();
    let listener = UnixListener::bind(&socket)
        .unwrap_or_else(|e| die(&format!("cannot bind {}: {e}", socket.display())));
    let stats = engine.pool_stats();
    eprintln!(
        "mddsimd: listening on {} ({} worker{}, cache: {})",
        socket.display(),
        stats.threads,
        if stats.threads == 1 { "" } else { "s" },
        engine
            .cache()
            .map_or_else(|| "off".to_string(), |c| c.dir().display().to_string()),
    );
    let daemon = Arc::new(Daemon {
        engine,
        socket: socket.clone(),
        jobs: Mutex::new(Vec::new()),
        next_id: AtomicU64::new(1),
        shutdown: AtomicBool::new(false),
    });
    let mut handlers = Vec::new();
    for stream in listener.incoming() {
        if daemon.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match stream {
            Ok(stream) => {
                let daemon = Arc::clone(&daemon);
                handlers.push(std::thread::spawn(move || serve(&daemon, stream)));
            }
            Err(e) => eprintln!("mddsimd: accept failed: {e}"),
        }
    }
    // Let every connection finish streaming its in-flight jobs.
    for h in handlers {
        let _ = h.join();
    }
    let _ = std::fs::remove_file(&socket);
    eprintln!("mddsimd: bye");
}

/// A pre-existing socket file is either a live daemon (refuse to fight
/// it) or a leftover from a crash (remove it and proceed).
fn remove_stale_socket(path: &Path) {
    if !path.exists() {
        return;
    }
    if UnixStream::connect(path).is_ok() {
        die(&format!(
            "another mddsimd is already listening on {}",
            path.display()
        ));
    }
    if let Err(e) = std::fs::remove_file(path) {
        die(&format!(
            "cannot remove stale socket {}: {e}",
            path.display()
        ));
    }
}

/// One connection: requests in, events out, until EOF or shutdown.
fn serve(daemon: &Daemon, stream: UnixStream) {
    let reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(e) => {
            eprintln!("mddsimd: cannot clone connection: {e}");
            return;
        }
    };
    let mut writer = stream;
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let keep_going = match Request::decode(&line) {
            Err(msg) => send(&mut writer, &Event::Error { message: msg }),
            Ok(Request::Submit(spec)) => match spec.jobs() {
                Err(msg) => send(&mut writer, &Event::Error { message: msg }),
                Ok(jobs) => run_submit(daemon, &mut writer, &spec.label, jobs),
            },
            Ok(Request::Status) => {
                let rows = daemon
                    .jobs
                    .lock()
                    .expect("job registry poisoned")
                    .iter()
                    .map(JobRecord::status)
                    .collect();
                send(
                    &mut writer,
                    &Event::Status {
                        jobs: rows,
                        pool: daemon.engine.pool_stats().into(),
                        cache_points: daemon.engine.cache().map(|c| c.len() as u64),
                    },
                )
            }
            Ok(Request::Cancel { job }) => {
                let registry = daemon.jobs.lock().expect("job registry poisoned");
                match registry.iter().find(|r| r.id == job) {
                    Some(record) => {
                        record.canceller.cancel();
                        drop(registry);
                        send(&mut writer, &Event::Cancelled { job })
                    }
                    None => {
                        drop(registry);
                        send(
                            &mut writer,
                            &Event::Error {
                                message: format!("no such job: {job}"),
                            },
                        )
                    }
                }
            }
            Ok(Request::Shutdown) => {
                send(&mut writer, &Event::ShuttingDown);
                daemon.shutdown.store(true, Ordering::SeqCst);
                // Unblock the accept loop so it can notice the flag.
                let _ = UnixStream::connect(&daemon.socket);
                false
            }
        };
        if !keep_going {
            break;
        }
    }
}

/// Schedule a batch and stream every outcome back in completion order.
/// Always drains the handle — if the client disconnects mid-stream, the
/// rest of the batch is cancelled (no point simulating for no one) and
/// drained silently so the accounting still closes.
fn run_submit(
    daemon: &Daemon,
    writer: &mut UnixStream,
    label: &str,
    jobs: Vec<mdd_engine::Job>,
) -> bool {
    let id = daemon.next_id.fetch_add(1, Ordering::SeqCst);
    let total = jobs.len() as u64;
    let mut handle = daemon.engine.submit(jobs);
    let done = Arc::new(AtomicU64::new(0));
    let finished = Arc::new(AtomicBool::new(false));
    daemon
        .jobs
        .lock()
        .expect("job registry poisoned")
        .push(JobRecord {
            id,
            label: label.to_string(),
            total,
            done: Arc::clone(&done),
            canceller: handle.canceller(),
            finished: Arc::clone(&finished),
        });
    let mut alive = send(
        writer,
        &Event::Accepted {
            job: id,
            points: total,
        },
    );
    let (mut simulated, mut cached, mut failed, mut cancelled) = (0, 0, 0, 0);
    while let Some(outcome) = handle.recv() {
        done.fetch_add(1, Ordering::SeqCst);
        tally(
            &outcome,
            &mut simulated,
            &mut cached,
            &mut failed,
            &mut cancelled,
        );
        if alive && !send(writer, &Event::point(id, &outcome)) {
            alive = false;
            handle.cancel();
        }
    }
    finished.store(true, Ordering::SeqCst);
    alive
        && send(
            writer,
            &Event::Done {
                job: id,
                points: total,
                simulated,
                cached,
                failed,
                cancelled,
            },
        )
}

fn tally(
    o: &PointOutcome,
    simulated: &mut u64,
    cached: &mut u64,
    failed: &mut u64,
    cancelled: &mut u64,
) {
    if o.cancelled() {
        *cancelled += 1;
    } else if o.result.is_err() {
        *failed += 1;
    } else if o.from_cache {
        *cached += 1;
    } else {
        *simulated += 1;
    }
}

/// Write one event line; false once the client is gone.
fn send(writer: &mut UnixStream, event: &Event) -> bool {
    let mut line = event.encode();
    line.push('\n');
    writer.write_all(line.as_bytes()).is_ok()
}
