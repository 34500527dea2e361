//! `mddsim` — ad-hoc simulation driver.
//!
//! Run a single configuration or a load sweep from the command line:
//!
//! ```text
//! mddsim --scheme pr --pattern pat271 --vcs 4 --load 0.30
//! mddsim --scheme dr --pattern pat721 --vcs 8 --sweep 0.05:0.45:9 --plot
//! mddsim --scheme sa --pattern pat100 --vcs 4 --radix 4x4 --measure 10000
//! ```
//!
//! Options (defaults in brackets):
//!
//! ```text
//! --scheme sa|sa+|dr|pr        [pr]
//! --pattern pat100|pat721|pat451|pat271|pat280  [pat271]
//! --vcs N                      [4]
//! --load F                     [0.2]   (ignored with --sweep)
//! --sweep LO:HI:N              run a Burton-Normal-Form sweep
//! --radix KxK[xK...]           [8x8]  (the scale-ladder rungs: 8x8,
//!                              16x16, 64x64, 8x8x8)
//! --bristle N                  [1]
//! --queue-org shared|pernet|pertype   [scheme default]
//! --warmup N / --measure N     [10000 / 30000]
//! --seed N                     [0x5eed]
//! --plot                       render the ASCII BNF plot (sweep mode)
//! --verify                     statically verify the configuration and
//!                              exit without simulating: prints
//!                              `verdict: ProvenFree|RecoverableCycles|Unsafe`
//!                              plus the witness cycle when one exists.
//!                              Exit status 0 unless the verdict is
//!                              Unsafe (then 3). A VC budget infeasible
//!                              for the scheme is verified against the
//!                              degraded map it would force; any other
//!                              invalid configuration exits 2.
//! --analyze                    like --verify, plus the minimal-VC
//!                              synthesis diagnostic: prints the smallest
//!                              per-link VC budget that makes the scheme
//!                              statically safe (searching up to the
//!                              128-slot router occupancy cap) and the
//!                              probe trail. Same exit-status contract.
//! ```
//!
//! Engine flags (shared with every bench binary):
//!
//! ```text
//! --jobs N                     cap simulation worker threads
//! --no-cache                   disable the persistent result cache
//! --cache-dir DIR              cache location [results/cache]
//! ```
//!
//! Points are served from the content-addressed result cache when an
//! identical configuration was simulated before (by any binary sharing
//! the cache directory); cache-served points carry no obs snapshot.
//!
//! Observability (either flag installs the global mdd-obs layer):
//!
//! ```text
//! --counters-out PATH          final counter snapshot as one JSON object
//! --trace-out PATH             cycle-level event trace as JSON Lines
//! --trace-cap N                [1048576] ring-buffer capacity; once
//!                              full the oldest events are dropped
//! ```
//!
//! Counters are process-wide: with --sweep they aggregate every point of
//! the sweep (which runs points in parallel), and the trace interleaves
//! their events. The engine's own progress counters (points_started,
//! points_completed, points_cached, points_failed, point_wall_micros)
//! appear in the same snapshot.

use mdd_bench::cli::{run_spec, usage, BenchCli, Flags, RUN_FLAGS};
use mdd_stats::{render_bnf, Table};

fn die(msg: &str) -> ! {
    eprintln!("mddsim: {msg}\nsee the module docs (--help is this header)");
    std::process::exit(2)
}

/// Write `write`'s output to `path`, or exit on an I/O error.
fn write_file(path: &str, write: impl FnOnce(&mut Vec<u8>) -> std::io::Result<()>) {
    let mut buf = Vec::new();
    write(&mut buf).expect("in-memory write cannot fail");
    std::fs::write(path, buf).unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
}

/// Write the final counter snapshot and/or event trace to the requested
/// paths.
fn write_obs_outputs(counters_out: Option<&str>, trace_out: Option<&str>) {
    if let Some(path) = counters_out {
        let snap = mdd_obs::counters_snapshot();
        write_file(path, |buf| mdd_obs::sink::write_counters_json(buf, &snap));
    }
    if let Some(path) = trace_out {
        let (events, recorded, dropped) = mdd_obs::trace_snapshot().expect("obs layer installed");
        write_file(path, |buf| mdd_obs::sink::write_trace_jsonl(buf, &events));
        if dropped > 0 {
            eprintln!(
                "mddsim: trace ring filled — kept the newest {} of {recorded} events \
                 (raise --trace-cap to keep more)",
                events.len()
            );
        }
    }
}

/// The flags documented above, beyond the run flags and the engine
/// flags.
const FLAGS: Flags = Flags {
    switches: &["--plot", "--verify", "--analyze"],
    options: &["--load", "--counters-out", "--trace-out", "--trace-cap"],
    positional: 0,
};

fn main() {
    let cli = BenchCli::parse(&[RUN_FLAGS, FLAGS]);
    let args = &cli.args;
    if args.flag("--help") || args.flag("-h") {
        println!("{}", usage(include_str!("mddsim.rs")));
        return;
    }
    let mut spec = run_spec(args).unwrap_or_else(|e| die(&e));
    let load: f64 = args.parse_value("--load", 0.2);
    let sweep = !spec.loads.is_empty();
    if !sweep {
        spec.loads = vec![load];
    }
    let counters_out = args.value("--counters-out");
    if args.flag("--verify") || args.flag("--analyze") {
        // Static verification mode: classify, print, exit — no simulation.
        // Every structural check runs; only scheme feasibility is skipped,
        // so infeasible VC budgets can be explained via the degraded map.
        let cfg = spec.base_config().unwrap_or_else(|e| die(&e));
        cfg.validate_structure()
            .unwrap_or_else(|e| die(&format!("infeasible configuration: {e}")));
        if counters_out.is_some() {
            mdd_obs::install(args.parse_value("--trace-cap", 1 << 20));
        }
        let verdict = mdd_core::verify_config(&cfg).unwrap_or_else(|e| {
            eprintln!("mddsim: {e}; verifying the degraded channel map it would force");
            mdd_core::verify_config_degraded(&cfg)
        });
        let radix: Vec<String> = cfg.radix.iter().map(u32::to_string).collect();
        println!(
            "config: scheme {} pattern {} vcs {} radix {} queue-org {:?}",
            cfg.scheme.label(),
            spec.pattern,
            cfg.vcs,
            radix.join("x"),
            cfg.effective_queue_org(),
        );
        println!("verdict: {}", verdict.name());
        if let Some(w) = verdict.witness() {
            println!("witness cycle:\n{w}");
        }
        if args.flag("--analyze") {
            // Minimal-VC synthesis: how cheap could this scheme get (or,
            // when unsafe, how many VCs would fix it).
            let report = mdd_core::min_safe_vcs(&cfg);
            match (report.min_vcs, &report.verdict) {
                (Some(n), Some(v)) => println!("min safe VCs: {n} (verdict {})", v.name()),
                _ => println!("min safe VCs: none within the 128-slot router occupancy cap"),
            }
            let trail: Vec<String> = report
                .probes
                .iter()
                .map(|(n, v)| format!("{n}:{v}"))
                .collect();
            println!("probes: {}", trail.join(" "));
        }
        write_obs_outputs(counters_out, None);
        std::process::exit(if verdict.is_unsafe() { 3 } else { 0 });
    }
    let jobs = spec.jobs().unwrap_or_else(|e| die(&e));
    let trace_out = args.value("--trace-out");
    if counters_out.is_some() || trace_out.is_some() {
        mdd_obs::install(args.parse_value("--trace-cap", 1 << 20));
    }
    let engine = cli.engine();

    if sweep {
        // Stream points as they complete (progress on stderr), then
        // assemble the deterministically ordered report.
        let mut handle = engine.submit(jobs);
        while let Some(outcome) = handle.recv() {
            eprintln!(
                "mddsim: point {}/{} done (load {:.3}{})",
                handle.received(),
                handle.total(),
                outcome.job.load(),
                if outcome.from_cache { ", cached" } else { "" }
            );
        }
        let report = handle.wait();
        for err in report.errors() {
            eprintln!("mddsim: {err}");
        }
        let mut t = Table::new(vec![
            "load",
            "throughput",
            "latency",
            "txns",
            "deadlocks",
            "deflects",
            "rescues",
        ]);
        for r in report.results() {
            t.row(vec![
                format!("{:.3}", r.applied_load),
                format!("{:.4}", r.throughput),
                format!("{:.1}", r.avg_latency),
                r.transactions.to_string(),
                r.deadlocks.to_string(),
                r.deflections.to_string(),
                r.rescues.to_string(),
            ]);
        }
        print!("{}", t.render());
        let curve = report.curve(&spec.label);
        if args.flag("--plot") {
            println!();
            print!("{}", render_bnf(std::slice::from_ref(&curve), 64, 18));
        }
        println!("\n{}", report.summary());
        println!(
            "saturation throughput: {:.4}",
            curve.saturation_throughput()
        );
    } else {
        let report = engine.submit(jobs).wait();
        let outcome = report.outcomes.first().expect("one job was scheduled");
        let r = match &outcome.result {
            Ok(r) => r,
            Err(e) => die(&format!("simulation failed: {e}")),
        };
        println!(
            "scheme {} | load {:.3} -> throughput {:.4} flits/node/cycle, \
             latency {:.1} cycles{}",
            spec.label,
            r.applied_load,
            r.throughput,
            r.avg_latency,
            if outcome.from_cache { " (cached)" } else { "" }
        );
        println!(
            "transactions {} | messages {} | deadlocks {} | deflections {} | \
             rescues {} | router rescues {} | MC util {:.1}%",
            r.transactions,
            r.messages_delivered,
            r.deadlocks,
            r.deflections,
            r.rescues,
            r.router_rescues,
            r.mc_utilization * 100.0
        );
        if let Some(obs) = &r.obs {
            use mdd_obs::CounterId;
            println!(
                "obs: deadlocks detected {} / recovered {} | token hops {} | \
                 lane transfers {} | events {}",
                obs.get(CounterId::DeadlocksDetected),
                obs.get(CounterId::DeadlocksRecovered),
                obs.get(CounterId::TokenHops),
                obs.get(CounterId::LaneTransfers),
                obs.events_recorded
            );
        }
    }
    write_obs_outputs(counters_out, trace_out);
}
