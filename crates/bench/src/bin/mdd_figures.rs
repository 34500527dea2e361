//! `mdd-figures` — regenerate the paper's figures, Table 1 and this
//! reproduction's ablations.
//!
//! ```text
//! mdd-figures <name>|all [--smoke | --fast] [--out DIR] [--jobs N]
//!             [--no-cache] [--cache-dir DIR]
//! ```
//!
//! Names:
//!
//! ```text
//! fig6                     load-rate histograms of the four applications
//! table1                   response-type mix per application
//! fig8 fig9 fig10          BNF curves at 4, 8 and 16 VCs
//! fig11                    message-queue organization at 16 VCs
//! ablation_sa_shared       SA vs the shared-adaptive SA+
//! ablation_threshold       PR detection time-out T
//! ablation_token           token/lane per-hop cost
//! utilization              per-VC utilization balance per scheme
//! deadlock_freq_trace      §4.2.2 trace-driven deadlocks on bristled tori
//! deadlock_freq_synthetic  deadlock frequency versus applied load
//! all                      every name above, in this order
//! ```
//!
//! Each figure prints a table (BNF figures add ASCII plots and a
//! saturation summary) and writes `<name>.json`: a `schema`, `figure`
//! and `scale` header, then one object per row. Full scale writes under
//! `--out` (default `results`), `--smoke` and `--fast` under its
//! `smoke/` and `fast/` subdirectories. Simulated points go through the
//! result cache; the trace-driven figures (fig6, table1,
//! deadlock_freq_trace) run outside it.

use mdd_bench::cli::{die, usage, BenchCli};
use mdd_bench::{figures, FIGURES};

fn main() {
    let cli = BenchCli::parse();
    let name = std::env::args().nth(1).unwrap_or_default();
    if name == "--help" || name == "-h" || name.is_empty() {
        println!("{}", usage(include_str!("mdd_figures.rs")));
        return;
    }
    let names: &[&str] = match FIGURES.iter().position(|f| *f == name) {
        Some(i) => &FIGURES[i..=i],
        None if name == "all" => &FIGURES,
        None => die(&format!("unknown figure {name} (see --help)")),
    };
    let engine = cli.engine();
    for fig in figures(names, &engine, cli.scale) {
        println!("== {}: {}\n", fig.name, fig.title);
        print!("{}", fig.render());
        if !fig.panels.is_empty() {
            print!("\n{}{}", fig.render_plots(), fig.render_summary());
        }
        println!("\n{}", fig.note);
        if fig.points_simulated + fig.points_cached + fig.points_failed > 0 {
            println!("{}", fig.engine_summary());
        }
        cli.write_artifact(&format!("{}.json", fig.name), fig.to_json(cli.scale));
        println!();
    }
}
