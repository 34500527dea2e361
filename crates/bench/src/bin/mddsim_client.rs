//! mddsim-client — talk to a running `mddsimd`.
//!
//! ```text
//! mddsim-client [--socket PATH] submit --sweep LO:HI:N [--label L]
//!               [--scheme sa|sa+|dr|pr] [--pattern pat100|pat721|pat451|pat271|pat280]
//!               [--vcs N] [--radix AxB | --topo AxB[xC]] [--bristle N]
//!               [--queue-org shared|pernet|pertype]
//!               [--warmup N] [--measure N] [--seed N] [--shards N]
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
//! Defaults mirror `mddsim`: scheme `pr`, pattern `pat271`, 4 VCs on an
//! 8x8 torus.

use mdd_engine::proto::{Event, Request, SweepSpec};
use mdd_engine::DEFAULT_SOCKET;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let socket = value("--socket").unwrap_or_else(|| DEFAULT_SOCKET.to_string());
    let mut positional = args.iter().enumerate().filter(|(i, a)| {
        !a.starts_with("--") && !matches!(i.checked_sub(1).and_then(|p| args.get(p)), Some(prev) if prev.starts_with("--"))
    });
    let command = positional.next().map_or_else(
        || die("missing command (submit | status | cancel JOB | shutdown)"),
        |(_, a)| a.clone(),
    );
    let operand = positional.next().map(|(_, a)| a.clone());

    let request = match command.as_str() {
        "submit" => Request::Submit(spec_from_flags(&value)),
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

fn spec_from_flags(value: &dyn Fn(&str) -> Option<String>) -> SweepSpec {
    let mut spec = SweepSpec::default();
    let sweep = value("--sweep").unwrap_or_else(|| die("submit wants --sweep LO:HI:N"));
    let parts: Vec<&str> = sweep.split(':').collect();
    if parts.len() != 3 {
        die("--sweep wants LO:HI:N");
    }
    let lo: f64 = parts[0].parse().unwrap_or_else(|_| die("bad sweep lo"));
    let hi: f64 = parts[1].parse().unwrap_or_else(|_| die("bad sweep hi"));
    let n: usize = parts[2].parse().unwrap_or_else(|_| die("bad sweep n"));
    spec.loads = mdd_core::default_loads(lo, hi, n);
    if let Some(v) = value("--scheme") {
        spec.scheme = v;
    }
    if let Some(v) = value("--pattern") {
        spec.pattern = v;
    }
    if let Some(v) = value("--label") {
        spec.label = v;
    } else {
        spec.label = spec.scheme.to_uppercase();
    }
    if let Some(v) = value("--vcs") {
        spec.vcs = v.parse().unwrap_or_else(|_| die("bad --vcs"));
    }
    if value("--radix").is_some() && value("--topo").is_some() {
        die("--radix and --topo are aliases; give only one");
    }
    if let Some(v) = value("--topo").or_else(|| value("--radix")) {
        spec.radix = mdd_core::SimConfig::parse_topo(&v)
            .unwrap_or_else(|e| die(&format!("bad topology spec: {e}")));
    }
    if let Some(v) = value("--bristle") {
        spec.bristle = v.parse().unwrap_or_else(|_| die("bad --bristle"));
    }
    if let Some(v) = value("--queue-org") {
        spec.queue_org = Some(v);
    }
    if let Some(v) = value("--warmup") {
        spec.warmup = v.parse().unwrap_or_else(|_| die("bad --warmup"));
    }
    if let Some(v) = value("--measure") {
        spec.measure = v.parse().unwrap_or_else(|_| die("bad --measure"));
    }
    if let Some(v) = value("--seed") {
        spec.seed = v.parse().unwrap_or_else(|_| die("bad --seed"));
    }
    if let Some(v) = value("--shards") {
        spec.shards = match v.parse() {
            Ok(0) => die("--shards needs at least one shard (got 0)"),
            Ok(n) => n,
            Err(_) => die("bad --shards"),
        };
    }
    spec
}
