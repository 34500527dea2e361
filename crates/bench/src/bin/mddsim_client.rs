//! mddsim-client — talk to a running `mddsimd`.
//!
//! ```text
//! mddsim-client [--socket PATH] submit --sweep LO:HI:N [--label L]
//!               [--scheme sa|sa+|dr|pr] [--pattern pat100|pat721|pat451|pat271|pat280]
//!               [--vcs N] [--radix KxK[xK...]] [--bristle N]
//!               [--queue-org shared|pernet|pertype]
//!               [--warmup N] [--measure N] [--seed N]
//! mddsim-client [--socket PATH] status
//! mddsim-client [--socket PATH] cancel JOB
//! mddsim-client [--socket PATH] shutdown
//! ```
//!
//! `submit` streams one line per point as the daemon completes it and
//! finishes with the familiar sweep summary
//! (`N points: X simulated, Y cached`). Exits 1 if any point failed,
//! 2 on usage errors, 3 if the daemon cannot be reached.
//!
//! The run flags are `mddsim`'s, read by the same parser, with the same
//! defaults: scheme `pr`, pattern `pat271`, 4 VCs on an 8x8 torus.

use mdd_bench::cli::{die, run_spec, usage, Args, Flags, RUN_FLAGS};
use mdd_engine::proto::{Event, Request, SweepSpec};
use mdd_engine::DEFAULT_SOCKET;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;

/// The flags documented above beyond the run flags: every option takes
/// a value, and the command takes at most one operand.
const FLAGS: Flags = Flags {
    switches: &[],
    options: &["--socket", "--label"],
    positional: 2,
};

fn main() {
    let args = Args::parse(std::env::args().skip(1).collect(), &[RUN_FLAGS, FLAGS])
        .unwrap_or_else(|e| die(&e));
    if args.flag("--help") || args.flag("-h") {
        println!("{}", usage(include_str!("mddsim_client.rs")));
        return;
    }
    let socket = args.value("--socket").unwrap_or(DEFAULT_SOCKET).to_string();
    let (command, operand) = match args.positional() {
        [] => die("missing command (submit | status | cancel JOB | shutdown)"),
        [command] => (command.as_str(), None),
        [command, operand, ..] => (command.as_str(), Some(operand)),
    };

    let request = match command {
        "submit" => Request::Submit(submit_spec(&args)),
        "status" => Request::Status,
        "cancel" => Request::Cancel {
            job: operand
                .unwrap_or_else(|| die("cancel wants a job id"))
                .parse()
                .unwrap_or_else(|_| die("bad job id")),
        },
        "shutdown" => Request::Shutdown,
        other => die(&format!("unknown command {other:?}")),
    };

    let stream = UnixStream::connect(&socket).unwrap_or_else(|e| {
        eprintln!("error: cannot reach mddsimd at {socket}: {e}");
        std::process::exit(3)
    });
    let mut writer = stream
        .try_clone()
        .unwrap_or_else(|e| die(&format!("clone failed: {e}")));
    let mut line = request.encode();
    line.push('\n');
    writer
        .write_all(line.as_bytes())
        .unwrap_or_else(|e| die(&format!("send failed: {e}")));

    let mut failed_points = 0u64;
    for line in BufReader::new(stream).lines() {
        let line = match line {
            Ok(l) => l,
            Err(e) => die(&format!("connection lost: {e}")),
        };
        let event = match Event::decode(&line) {
            Ok(e) => e,
            Err(msg) => die(&format!("bad event from daemon ({msg}): {line}")),
        };
        match event {
            Event::Accepted { job, points } => {
                eprintln!("job {job} accepted ({points} points)");
            }
            Event::Point(p) => match &p.result {
                Ok(r) => println!(
                    "point {} load {:.3} -> throughput {:.4}, latency {:.1}{}",
                    p.id,
                    p.load,
                    r.throughput,
                    r.avg_latency,
                    if p.cached { " (cached)" } else { "" }
                ),
                Err(msg) => {
                    failed_points += 1;
                    println!("point {} load {:.3} -> FAILED: {msg}", p.id, p.load);
                }
            },
            Event::Done {
                points,
                simulated,
                cached,
                failed,
                cancelled,
                ..
            } => {
                let mut s = format!("{points} points: {simulated} simulated, {cached} cached");
                if failed > 0 {
                    s.push_str(&format!(", {failed} FAILED"));
                }
                if cancelled > 0 {
                    s.push_str(&format!(", {cancelled} cancelled"));
                }
                println!("{s}");
                break;
            }
            Event::Status {
                jobs,
                pool,
                cache_points,
            } => {
                println!(
                    "pool: {} threads, {} busy, {} queued, {} executed",
                    pool.threads, pool.busy, pool.queued, pool.executed
                );
                match cache_points {
                    Some(n) => println!("cache: {n} points"),
                    None => println!("cache: off"),
                }
                if jobs.is_empty() {
                    println!("no jobs");
                }
                for j in jobs {
                    println!(
                        "job {} [{}] {}: {}/{} points",
                        j.job, j.label, j.state, j.done, j.total
                    );
                }
                break;
            }
            Event::Cancelled { job } => {
                println!("job {job} cancelled");
                break;
            }
            Event::ShuttingDown => {
                println!("daemon shutting down");
                break;
            }
            Event::Error { message } => {
                eprintln!("daemon error: {message}");
                std::process::exit(1);
            }
        }
    }
    if failed_points > 0 {
        std::process::exit(1);
    }
}

/// The sweep a `submit` asks for: the run flags, which must include
/// `--sweep`, under `--label` when given.
fn submit_spec(args: &Args) -> SweepSpec {
    let mut spec = run_spec(args).unwrap_or_else(|e| die(&e));
    if spec.loads.is_empty() {
        die("submit wants --sweep LO:HI:N");
    }
    if let Some(label) = args.value("--label") {
        spec.label = label.to_string();
    }
    spec
}
