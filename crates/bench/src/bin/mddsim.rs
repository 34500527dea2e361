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
//! --radix KxK[xK...]           [8x8]
//! --topo KxK[xK...]            alias of --radix: the scale-ladder preset
//!                              grammar (8x8, 16x16, 64x64, 8x8x8), parsed
//!                              and bounds-checked by SimConfig::parse_topo
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
//!                              degraded map it would force.
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
//! --shards N                   execution shards inside each run [1]
//!                              (bit-identical results at any N; use
//!                              --jobs for across-point parallelism and
//!                              --shards to speed up one big run)
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

use mdd_bench::cli::{usage, BenchCli};
use mdd_core::{default_loads, PatternSpec, QueueOrg, Scheme, SimConfig};
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

fn main() {
    let cli = BenchCli::parse();
    if cli.flag("--help") || cli.flag("-h") {
        println!("{}", usage(include_str!("mddsim.rs")));
        return;
    }
    let scheme_name = cli.value("--scheme").unwrap_or("pr");
    let scheme = Scheme::from_cli_name(scheme_name)
        .unwrap_or_else(|| die(&format!("unknown scheme {scheme_name}")));
    let pattern_name = cli.value("--pattern").unwrap_or("pat271");
    let pattern = PatternSpec::from_cli_name(pattern_name)
        .unwrap_or_else(|| die(&format!("unknown pattern {pattern_name}")));
    let vcs: u8 = cli.parse_value("--vcs", 4);
    let load: f64 = cli.parse_value("--load", 0.2);
    if cli.value("--radix").is_some() && cli.value("--topo").is_some() {
        die("--radix and --topo are aliases; give only one");
    }
    let radix: Vec<u32> = match cli.value("--topo").or_else(|| cli.value("--radix")) {
        None => vec![8, 8],
        Some(s) => {
            SimConfig::parse_topo(s).unwrap_or_else(|e| die(&format!("bad topology spec: {e}")))
        }
    };
    let queue_org = cli.value("--queue-org").map(|name| {
        QueueOrg::from_cli_name(name).unwrap_or_else(|| die(&format!("unknown queue org {name}")))
    });
    let builder = SimConfig::builder()
        .scheme(scheme)
        .pattern(pattern)
        .vcs(vcs)
        .load(load)
        .radix(&radix)
        .bristle(cli.parse_value("--bristle", 1))
        .windows(
            cli.parse_value("--warmup", 10_000),
            cli.parse_value("--measure", 30_000),
        )
        .seed(cli.parse_value("--seed", 0x5eed))
        .shards(cli.shards)
        .queue_org(queue_org);
    if cli.flag("--verify") || cli.flag("--analyze") {
        // Static verification mode: classify, print, exit — no simulation.
        // Deliberately skips feasibility validation so infeasible VC
        // budgets can be explained via the degraded map.
        let cfg = builder.build_unchecked();
        let counters_out = cli.value("--counters-out").map(str::to_string);
        if counters_out.is_some() {
            mdd_obs::install(cli.parse_value("--trace-cap", 1 << 20));
        }
        let verdict = mdd_core::verify_config(&cfg).unwrap_or_else(|e| {
            eprintln!("mddsim: {e}; verifying the degraded channel map it would force");
            mdd_core::verify_config_degraded(&cfg)
        });
        println!(
            "config: scheme {} pattern {} vcs {} radix {} queue-org {:?}",
            scheme.label(),
            cli.value("--pattern").unwrap_or("pat271"),
            vcs,
            cli.value("--topo")
                .or_else(|| cli.value("--radix"))
                .unwrap_or("8x8"),
            cfg.effective_queue_org(),
        );
        println!("verdict: {}", verdict.name());
        if let Some(w) = verdict.witness() {
            println!("witness cycle:\n{w}");
        }
        if cli.flag("--analyze") {
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
        write_obs_outputs(counters_out.as_deref(), None);
        std::process::exit(if verdict.is_unsafe() { 3 } else { 0 });
    }
    let cfg = builder
        .build()
        .unwrap_or_else(|e| die(&format!("infeasible configuration: {e}")));
    let counters_out = cli.value("--counters-out").map(str::to_string);
    let trace_out = cli.value("--trace-out").map(str::to_string);
    if counters_out.is_some() || trace_out.is_some() {
        mdd_obs::install(cli.parse_value("--trace-cap", 1 << 20));
    }
    let engine = cli.engine();

    if let Some(sweep) = cli.value("--sweep") {
        let parts: Vec<&str> = sweep.split(':').collect();
        if parts.len() != 3 {
            die("--sweep wants LO:HI:N");
        }
        let lo: f64 = parts[0].parse().unwrap_or_else(|_| die("bad sweep lo"));
        let hi: f64 = parts[1].parse().unwrap_or_else(|_| die("bad sweep hi"));
        let n: usize = parts[2].parse().unwrap_or_else(|_| die("bad sweep n"));
        let loads = default_loads(lo, hi, n);
        // Stream points as they complete (progress on stderr), then
        // assemble the deterministically ordered report.
        let mut handle = engine.submit_sweep(&cfg, &loads, scheme.label());
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
        let curve = report.curve(scheme.label());
        if cli.flag("--plot") {
            println!();
            print!("{}", render_bnf(std::slice::from_ref(&curve), 64, 18));
        }
        println!("\n{}", report.summary());
        println!(
            "saturation throughput: {:.4}",
            curve.saturation_throughput()
        );
    } else {
        let report = engine.submit_sweep(&cfg, &[load], scheme.label()).wait();
        let outcome = report.outcomes.first().expect("one job was scheduled");
        let r = match &outcome.result {
            Ok(r) => r,
            Err(e) => die(&format!("simulation failed: {e}")),
        };
        println!(
            "scheme {} | load {:.3} -> throughput {:.4} flits/node/cycle, \
             latency {:.1} cycles{}",
            scheme.label(),
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
    write_obs_outputs(counters_out.as_deref(), trace_out.as_deref());
}
