//! `mdd-analyze` — the static-analysis CLI: verdict tables, fault
//! frontiers, and minimal-VC synthesis, no simulation anywhere.
//!
//! Modes (give exactly one):
//!
//! ```text
//! --verdicts     classify the golden scheme x vcs x topology x pattern
//!                matrix and write results/verdicts.json (the committed
//!                copy is a CI golden: the stage re-runs this mode and
//!                diffs bit-for-bit)
//! --frontier     enumerate all single-link faults (plus --doubles N
//!                sampled double-link faults) for the SA/DR/PR frontier
//!                configurations, classify each fault point as
//!                verdict-preserving or verdict-degrading through the
//!                engine's worker pool, and write
//!                results/fault_frontier.json
//! --min-vc       binary-search the smallest per-link VC budget that
//!                keeps each scheme statically safe (up to the 128-slot
//!                router occupancy cap) and print the probe table
//! ```
//!
//! Options:
//!
//! ```text
//! --radix KxK[xK...]  restrict --frontier / --min-vc to one topology
//!                     [frontier: 8x8 and 16x16; min-vc: 8x8]
//! --pattern NAME      pattern for --min-vc [pat271]
//! --doubles N         add N sampled double-link fault points [0]
//! --seed N            sampling seed for --doubles [42]
//! --out DIR           results directory [results]
//! --jobs N            worker threads for the per-orbit re-verdicts
//! ```
//!
//! The frontier sweep groups fault points by their translation orbit
//! along the failed link's own dimension (`mdd_verify::fault_orbit_key`)
//! and re-verifies one representative per orbit on the engine pool; in
//! debug builds every replicated point is cross-checked against a full
//! re-verdict on topologies small enough to afford it.

use mdd_bench::cli::{die, usage, BenchCli, Flags};
use mdd_core::{PatternSpec, Scheme, SimConfig};
use mdd_obs::Json;
use mdd_stats::Table;
use mdd_verify::{sampled_double_link_faults, single_link_faults};
use std::time::Instant;

fn scheme_of(label: &str) -> Scheme {
    Scheme::from_cli_name(label).unwrap_or_else(|| die(&format!("unknown scheme {label}")))
}

fn pattern_of(label: &str) -> PatternSpec {
    PatternSpec::from_cli_name(label).unwrap_or_else(|| die(&format!("unknown pattern {label}")))
}

/// The identifying fields of one analysed configuration, the leading
/// fields of every row in both artifacts.
fn cfg_fields(scheme: &str, pattern: &str, vcs: u8, topo: &str) -> Vec<(String, Json)> {
    let text = |s: &str| Json::Str(s.to_string());
    vec![
        ("scheme".to_string(), text(scheme)),
        ("pattern".to_string(), text(pattern)),
        ("vcs".to_string(), Json::Int(vcs.into())),
        ("topo".to_string(), text(topo)),
    ]
}

fn sim_cfg(scheme: &str, pattern: &str, vcs: u8, topo: &str) -> SimConfig {
    let radix =
        SimConfig::parse_topo(topo).unwrap_or_else(|e| die(&format!("bad topology spec: {e}")));
    let mut cfg = SimConfig::paper_default(scheme_of(scheme), pattern_of(pattern), vcs, 0.0);
    cfg.radix = radix;
    cfg
}

/// The golden verdict matrix: every scheme at the paper's interesting VC
/// budgets, on the ladder's small rungs, for a one-net and a two-net
/// pattern. Infeasible budgets classify via the degraded map they would
/// force, exactly like `mddsim --verify`.
fn verdicts(cli: &BenchCli) {
    let mut rows = Vec::new();
    let mut table = Table::new(vec!["scheme", "pattern", "vcs", "topo", "verdict"]);
    for topo in ["4x4", "8x8", "16x16"] {
        for scheme in Scheme::ALL.map(Scheme::cli_name) {
            for pattern in ["pat100", "pat271"] {
                for vcs in [2u8, 4, 8] {
                    let cfg = sim_cfg(scheme, pattern, vcs, topo);
                    let verdict = mdd_core::verify_config(&cfg)
                        .unwrap_or_else(|_| mdd_core::verify_config_degraded(&cfg));
                    table.row(vec![
                        scheme.into(),
                        pattern.into(),
                        vcs.to_string(),
                        topo.into(),
                        verdict.name().into(),
                    ]);
                    let mut row = cfg_fields(scheme, pattern, vcs, topo);
                    row.push(("verdict".to_string(), Json::Str(verdict.name().into())));
                    rows.push(Json::Obj(row));
                }
            }
        }
    }
    print!("{}", table.render());
    cli.write_artifact(
        "verdicts.json",
        vec![("verdicts".to_string(), Json::Arr(rows))],
    );
}

/// The frontier configurations: each scheme at the cheapest budget that
/// is statically interesting (SA needs its full partition set to start
/// `ProvenFree`; DR and PR are recoverable already at 4).
const FRONTIER_CONFIGS: &[(&str, u8)] = &[("sa", 8), ("dr", 4), ("pr", 4)];

fn frontier(cli: &BenchCli) {
    let engine = cli.engine();
    let doubles: usize = cli.args.parse_value("--doubles", 0);
    let seed: u64 = cli.args.parse_value("--seed", 42);
    let topos: Vec<&str> = match cli.args.value("--radix") {
        Some(t) => vec![t],
        None => vec!["8x8", "16x16"],
    };
    let mut rows = Vec::new();
    for topo in topos {
        for &(scheme, vcs) in FRONTIER_CONFIGS {
            let cfg = sim_cfg(scheme, "pat271", vcs, topo);
            let analysis = mdd_core::analysis_config(&cfg)
                .unwrap_or_else(|e| die(&format!("infeasible frontier config: {e}")));
            let mut faults = single_link_faults(analysis.topo());
            if doubles > 0 {
                faults.extend(sampled_double_link_faults(analysis.topo(), doubles, seed));
            }
            let t0 = Instant::now();
            let report = engine.fault_frontier(analysis, faults);
            let secs = t0.elapsed().as_secs_f64();
            println!(
                "frontier: {scheme} pat271 vcs {vcs} {topo} -> base {} | {} points: \
                 {} preserving, {} degrading ({secs:.2}s)",
                report.base_verdict,
                report.points.len(),
                report.preserving,
                report.degrading,
            );
            rows.push(report.to_json(cfg_fields(scheme, "pat271", vcs, topo)));
        }
    }
    cli.write_artifact(
        "fault_frontier.json",
        vec![("configs".to_string(), Json::Arr(rows))],
    );
}

fn min_vc(cli: &BenchCli) {
    let topo = cli.args.value("--radix").unwrap_or("8x8");
    let pattern = cli.args.value("--pattern").unwrap_or("pat271");
    let mut table = Table::new(vec![
        "scheme",
        "pattern",
        "topo",
        "min safe vcs",
        "verdict",
        "probes",
    ]);
    for scheme in Scheme::ALL.map(Scheme::cli_name) {
        let cfg = sim_cfg(scheme, pattern, 4, topo);
        let report = mdd_core::min_safe_vcs(&cfg);
        table.row(vec![
            scheme.into(),
            pattern.into(),
            topo.into(),
            report
                .min_vcs
                .map_or_else(|| "none".into(), |n| n.to_string()),
            report
                .verdict
                .as_ref()
                .map_or("Unsafe", mdd_core::Verdict::name)
                .into(),
            report
                .probes
                .iter()
                .map(|(n, v)| format!("{n}:{v}"))
                .collect::<Vec<_>>()
                .join(" "),
        ]);
    }
    print!("{}", table.render());
}

fn main() {
    let cli = BenchCli::parse(&[Flags {
        switches: &["--verdicts", "--frontier", "--min-vc"],
        options: &["--radix", "--pattern", "--doubles", "--seed"],
        positional: 0,
    }]);
    if cli.args.flag("--help") || cli.args.flag("-h") {
        println!("{}", usage(include_str!("mdd_analyze.rs")));
        return;
    }
    let modes = [
        cli.args.flag("--verdicts"),
        cli.args.flag("--frontier"),
        cli.args.flag("--min-vc"),
    ];
    match modes {
        [true, false, false] => verdicts(&cli),
        [false, true, false] => frontier(&cli),
        [false, false, true] => min_vc(&cli),
        _ => die("give exactly one of --verdicts, --frontier, --min-vc (see --help)"),
    }
}
