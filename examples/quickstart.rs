//! Quickstart: build the paper's default system (8x8 torus, Table 2
//! parameters), run one simulation per scheme at a moderate load, and
//! print what happened.
//!
//! Run with: `cargo run --release --example quickstart`

use mdd_sim::prelude::*;

fn main() {
    let load = 0.20; // flits/node/cycle of applied traffic
    let vcs = 8;
    println!("8x8 torus | {vcs} VCs | PAT271 | applied load {load} flits/node/cycle\n");

    let mut table = Table::new(vec![
        "scheme",
        "throughput",
        "avg latency",
        "txns",
        "deadlocks",
        "deflections",
        "rescues",
    ]);

    for scheme in [
        Scheme::StrictAvoidance {
            shared_adaptive: false,
        },
        Scheme::DeflectiveRecovery,
        Scheme::ProgressiveRecovery,
    ] {
        let cfg = SimConfig::builder()
            .scheme(scheme)
            .pattern(PatternSpec::pat271())
            .vcs(vcs)
            .load(load)
            .windows(5_000, 15_000)
            .build()
            .expect("feasible configuration");
        let mut sim = Simulator::new(cfg).expect("builder already validated");
        let r = sim.run();
        table.row(vec![
            scheme.label().to_string(),
            format!("{:.4}", r.throughput),
            format!("{:.1}", r.avg_latency),
            r.transactions.to_string(),
            r.deadlocks.to_string(),
            r.deflections.to_string(),
            r.rescues.to_string(),
        ]);
    }
    print!("{}", table.render());
    println!(
        "\nThroughput is delivered flits/node/cycle over the measurement \
         window;\nlatency includes queue waiting time (Section 4.3.1)."
    );
}
