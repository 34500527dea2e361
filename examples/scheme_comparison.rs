//! Burton-Normal-Form comparison of the three schemes with scarce virtual
//! channels (the Figure 8 setting): sweep applied load, print each
//! scheme's latency/throughput curve, and report saturation throughput.
//!
//! Run with: `cargo run --release --example scheme_comparison`

use mdd_sim::prelude::*;

fn main() {
    let pattern = PatternSpec::pat721();
    let vcs = 4;
    let loads = default_loads(0.05, 0.40, 8);
    println!(
        "8x8 torus | {vcs} VCs | {} | loads {:.2}..{:.2}\n",
        pattern.name(),
        loads.first().unwrap(),
        loads.last().unwrap()
    );

    let mut curves: Vec<BnfCurve> = Vec::new();
    for scheme in [
        Scheme::StrictAvoidance {
            shared_adaptive: false,
        },
        Scheme::DeflectiveRecovery,
        Scheme::ProgressiveRecovery,
    ] {
        let mut cfg = SimConfig::paper_default(scheme, pattern.clone(), vcs, 0.0);
        cfg.warmup = 4_000;
        cfg.measure = 10_000;
        // `validate` runs the scheme feasibility probe up front, so an
        // impossible combination surfaces here, not mid-sweep.
        match cfg.validate() {
            Ok(()) => {
                let report = Engine::new()
                    .submit_sweep(&cfg, &loads, scheme.label())
                    .wait();
                curves.push(report.curve(scheme.label()));
            }
            Err(e) => println!(
                "{}: not configurable at {vcs} VCs ({e}) — exactly as the \
                 paper omits it from Figure 8\n",
                scheme.label()
            ),
        }
    }

    let mut table = Table::new(vec!["load", "scheme", "throughput", "latency"]);
    for curve in &curves {
        for p in &curve.points {
            table.row(vec![
                format!("{:.2}", p.applied_load),
                curve.label.clone(),
                format!("{:.4}", p.throughput),
                format!("{:.1}", p.latency),
            ]);
        }
    }
    print!("{}", table.render());

    println!("\nSaturation throughput (peak delivered):");
    for curve in &curves {
        println!("  {:>3}: {:.4}", curve.label, curve.saturation_throughput());
    }
    if let (Some(pr), Some(dr)) = (
        curves.iter().find(|c| c.label == "PR"),
        curves.iter().find(|c| c.label == "DR"),
    ) {
        println!(
            "\nPR/DR saturation ratio: {:.2}x (the paper reports up to 2x \
             for PAT721 at 4 VCs)",
            pr.saturation_throughput() / dr.saturation_throughput()
        );
    }
}
