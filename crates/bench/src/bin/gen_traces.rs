//! Record application traces to disk (the Section 4.2.1 methodology:
//! access streams with timing, later replayed through the simulator).
//!
//! `cargo run -p mdd-bench --release --bin gen_traces [--horizon N] [--out DIR]`
//!
//! Writes `<out>/traces/<app>.trace` in the line format
//! `cycle proc addr r|w`.

use mdd_bench::cli::{usage, BenchCli, Flags};
use mdd_coherence::record_app_trace;
use mdd_traffic::AppModel;

fn main() {
    let cli = BenchCli::parse(&[Flags {
        switches: &[],
        options: &["--horizon"],
        positional: 0,
    }]);
    if cli.args.flag("--help") || cli.args.flag("-h") {
        println!("{}", usage(include_str!("gen_traces.rs")));
        return;
    }
    let horizon: u64 = cli.args.parse_value("--horizon", 60_000);
    let dir = cli.out_dir.join("traces");
    std::fs::create_dir_all(&dir).expect("create traces directory");
    for app in AppModel::all() {
        let log = record_app_trace(&app, 16, horizon, 42);
        let path = dir.join(format!("{}.trace", app.name.to_lowercase()));
        let f = std::fs::File::create(&path).expect("create trace file");
        let mut w = std::io::BufWriter::new(f);
        log.save(&mut w).expect("write trace");
        println!(
            "{}: {} accesses over {horizon} cycles",
            path.display(),
            log.len()
        );
    }
    println!("\nReplay with TraceReplayTraffic (see crates/coherence/src/replay.rs).");
}
