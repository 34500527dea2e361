//! Per-experiment drivers (see DESIGN.md §4 for the experiment index).

use mdd_coherence::{CoherenceEngine, CoherentTraffic};
use mdd_core::{BnfCurve, PatternSpec, QueueOrg, Scheme, SimConfig, SimResult, Simulator};
use mdd_engine::Engine;
use mdd_stats::{Histogram, Table};
use mdd_traffic::AppModel;
use std::io::Write as _;
use std::path::Path;

/// Scale knob so smoke runs can execute the same experiments quickly.
#[derive(Clone, Copy, Debug)]
pub struct RunScale {
    /// Warm-up cycles per simulation.
    pub warmup: u64,
    /// Measured cycles per simulation.
    pub measure: u64,
    /// Number of applied-load points per curve.
    pub load_points: usize,
}

impl RunScale {
    /// Full paper scale: 30k measured cycles (Section 4.3.1).
    pub fn full() -> Self {
        RunScale {
            warmup: 10_000,
            measure: 30_000,
            load_points: 9,
        }
    }

    /// Reduced scale for constrained machines: shorter windows and fewer
    /// points, same topology and parameters. Shapes are preserved; only
    /// statistical resolution drops.
    pub fn fast() -> Self {
        RunScale {
            warmup: 4_000,
            measure: 12_000,
            load_points: 7,
        }
    }

    /// Small scale for `--smoke` runs and tests.
    pub fn smoke() -> Self {
        RunScale {
            warmup: 1_000,
            measure: 2_000,
            load_points: 3,
        }
    }
}

/// One scheme entry of a figure panel: label, scheme, optional queue-org
/// override.
#[derive(Clone, Copy, Debug)]
pub struct SchemeEntry {
    /// Row label ("SA", "DR", "PR", "DR-QA", ...).
    pub label: &'static str,
    /// The scheme.
    pub scheme: Scheme,
    /// Queue-organization override (the QA configurations).
    pub org: Option<QueueOrg>,
}

const SA: Scheme = Scheme::StrictAvoidance {
    shared_adaptive: false,
};

fn entry(label: &'static str, scheme: Scheme) -> SchemeEntry {
    SchemeEntry {
        label,
        scheme,
        org: None,
    }
}

/// The BNF panels of one figure: per pattern, the curves of every
/// applicable scheme.
#[derive(Debug)]
pub struct FigureResult {
    /// Figure id ("fig8", ...).
    pub id: &'static str,
    /// `(pattern name, curves)` per panel.
    pub panels: Vec<(String, Vec<BnfCurve>)>,
    /// Points freshly simulated while producing this figure.
    pub points_simulated: u64,
    /// Points served from the persistent result cache.
    pub points_cached: u64,
    /// Points that failed (reported, not fatal — curves are assembled
    /// from the surviving points).
    pub points_failed: u64,
}

impl FigureResult {
    /// Render all panels as one aligned table.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "pattern", "scheme", "load", "throughput", "latency", "deadlocks",
        ]);
        for (pat, curves) in &self.panels {
            for c in curves {
                for p in &c.points {
                    t.row(vec![
                        pat.clone(),
                        c.label.clone(),
                        format!("{:.3}", p.applied_load),
                        format!("{:.4}", p.throughput),
                        format!("{:.1}", p.latency),
                        p.deadlocks.to_string(),
                    ]);
                }
            }
        }
        t.render()
    }

    /// Render the saturation-throughput summary (the paper's headline
    /// comparison per panel).
    pub fn render_summary(&self) -> String {
        let mut t = Table::new(vec!["pattern", "scheme", "saturation throughput"]);
        for (pat, curves) in &self.panels {
            for c in curves {
                t.row(vec![
                    pat.clone(),
                    c.label.clone(),
                    format!("{:.4}", c.saturation_throughput()),
                ]);
            }
        }
        t.render()
    }

    /// ASCII BNF plots, one per panel (the visual form of the paper's
    /// figures).
    pub fn render_plots(&self) -> String {
        let mut out = String::new();
        for (pat, curves) in &self.panels {
            out.push_str(&format!("--- {pat} ---\n"));
            out.push_str(&mdd_stats::render_bnf(curves, 64, 18));
            out.push('\n');
        }
        out
    }

    /// One-line account of where the points came from, e.g.
    /// `fig8: 27 points simulated, 0 cached`.
    pub fn engine_summary(&self) -> String {
        let mut s = format!(
            "{}: {} points simulated, {} cached",
            self.id, self.points_simulated, self.points_cached
        );
        if self.points_failed > 0 {
            s.push_str(&format!(", {} FAILED", self.points_failed));
        }
        s
    }

    /// CSV of every point.
    pub fn to_csv(&self) -> String {
        let mut t = Table::new(vec![
            "pattern", "scheme", "load", "throughput", "latency", "deadlocks", "messages",
        ]);
        for (pat, curves) in &self.panels {
            for c in curves {
                for p in &c.points {
                    t.row(vec![
                        pat.clone(),
                        c.label.clone(),
                        format!("{:.4}", p.applied_load),
                        format!("{:.6}", p.throughput),
                        format!("{:.3}", p.latency),
                        p.deadlocks.to_string(),
                        p.messages_delivered.to_string(),
                    ]);
                }
            }
        }
        t.to_csv()
    }
}

/// Run one figure panel set through `engine`: for each pattern, each
/// applicable scheme is swept over `loads(max_load)`. Infeasible
/// combinations are omitted at build time (as the paper omits them from
/// the figures); points that fail mid-sweep are reported and the curve
/// is assembled from the survivors.
fn run_figure(
    engine: &Engine,
    id: &'static str,
    vcs: u8,
    panels: &[(&PatternSpec, Vec<SchemeEntry>, f64)],
    scale: RunScale,
) -> FigureResult {
    let mut out = Vec::new();
    let (mut simulated, mut cached, mut failed) = (0u64, 0u64, 0u64);
    for (pattern, entries, max_load) in panels {
        let loads = mdd_core::default_loads(0.05, *max_load, scale.load_points);
        let mut curves = Vec::new();
        for e in entries {
            let cfg = match SimConfig::builder()
                .scheme(e.scheme)
                .pattern((*pattern).clone())
                .vcs(vcs)
                .queue_org(e.org)
                .windows(scale.warmup, scale.measure)
                .build()
            {
                Ok(cfg) => cfg,
                Err(err) => {
                    eprintln!("{id}: skipping {} on {}: {err}", e.label, pattern.name());
                    continue;
                }
            };
            let report = engine.submit_sweep(&cfg, &loads, e.label).wait();
            for err in report.errors() {
                eprintln!("{id}: {err}");
            }
            simulated += report.simulated();
            cached += report.cached();
            failed += report.failed();
            curves.push(report.curve(e.label));
        }
        out.push((pattern.name().to_string(), curves));
    }
    FigureResult {
        id,
        panels: out,
        points_simulated: simulated,
        points_cached: cached,
        points_failed: failed,
    }
}

/// Figure 8: 4 virtual channels. SA appears only for PAT100 (it needs
/// `E_m = 8` channels for chain length 4); DR appears for every pattern
/// except PAT100 (two types make DR collapse onto SA).
pub fn figure8(scale: RunScale) -> FigureResult {
    figure8_with(&Engine::new(), scale)
}

/// [`figure8`] through a caller-configured engine (cache, `--jobs`).
pub fn figure8_with(engine: &Engine, scale: RunScale) -> FigureResult {
    let p100 = PatternSpec::pat100();
    let p721 = PatternSpec::pat721();
    let p451 = PatternSpec::pat451();
    let p271 = PatternSpec::pat271();
    let p280 = PatternSpec::pat280();
    let pr = entry("PR", Scheme::ProgressiveRecovery);
    let dr = entry("DR", Scheme::DeflectiveRecovery);
    let panels = vec![
        (&p100, vec![entry("SA", SA), pr], 0.45),
        (&p721, vec![dr, pr], 0.42),
        (&p451, vec![dr, pr], 0.42),
        (&p271, vec![dr, pr], 0.42),
        (&p280, vec![dr, pr], 0.42),
    ];
    run_figure(engine, "fig8", 4, &panels, scale)
}

/// Figure 9: 8 virtual channels — SA becomes feasible everywhere.
pub fn figure9(scale: RunScale) -> FigureResult {
    figure9_with(&Engine::new(), scale)
}

/// [`figure9`] through a caller-configured engine (cache, `--jobs`).
pub fn figure9_with(engine: &Engine, scale: RunScale) -> FigureResult {
    let p100 = PatternSpec::pat100();
    let p721 = PatternSpec::pat721();
    let p451 = PatternSpec::pat451();
    let p271 = PatternSpec::pat271();
    let p280 = PatternSpec::pat280();
    let pr = entry("PR", Scheme::ProgressiveRecovery);
    let dr = entry("DR", Scheme::DeflectiveRecovery);
    let sa = entry("SA", SA);
    let panels = vec![
        (&p100, vec![sa, pr], 0.50),
        (&p721, vec![sa, dr, pr], 0.45),
        (&p451, vec![sa, dr, pr], 0.45),
        (&p271, vec![sa, dr, pr], 0.45),
        (&p280, vec![sa, dr, pr], 0.45),
    ];
    run_figure(engine, "fig9", 8, &panels, scale)
}

/// Figure 10: 16 virtual channels, the four multi-type patterns.
pub fn figure10(scale: RunScale) -> FigureResult {
    figure10_with(&Engine::new(), scale)
}

/// [`figure10`] through a caller-configured engine (cache, `--jobs`).
pub fn figure10_with(engine: &Engine, scale: RunScale) -> FigureResult {
    let p721 = PatternSpec::pat721();
    let p451 = PatternSpec::pat451();
    let p271 = PatternSpec::pat271();
    let p280 = PatternSpec::pat280();
    let pr = entry("PR", Scheme::ProgressiveRecovery);
    let dr = entry("DR", Scheme::DeflectiveRecovery);
    let sa = entry("SA", SA);
    let panels = vec![
        (&p721, vec![sa, dr, pr], 0.50),
        (&p451, vec![sa, dr, pr], 0.50),
        (&p271, vec![sa, dr, pr], 0.50),
        (&p280, vec![sa, dr, pr], 0.50),
    ];
    run_figure(engine, "fig10", 16, &panels, scale)
}

/// Figure 11: message-buffer organization ablation at 16 VCs on PAT271 —
/// DR and PR with their default (shared-ish) queues versus per-type "QA"
/// queues, against SA.
pub fn figure11(scale: RunScale) -> FigureResult {
    figure11_with(&Engine::new(), scale)
}

/// [`figure11`] through a caller-configured engine (cache, `--jobs`).
pub fn figure11_with(engine: &Engine, scale: RunScale) -> FigureResult {
    let p271 = PatternSpec::pat271();
    let panels = vec![(
        &p271,
        vec![
            entry("SA", SA),
            entry("DR", Scheme::DeflectiveRecovery),
            SchemeEntry {
                label: "DR-QA",
                scheme: Scheme::DeflectiveRecovery,
                org: Some(QueueOrg::PerType),
            },
            entry("PR", Scheme::ProgressiveRecovery),
            SchemeEntry {
                label: "PR-QA",
                scheme: Scheme::ProgressiveRecovery,
                org: Some(QueueOrg::PerType),
            },
        ],
        0.50,
    )];
    run_figure(engine, "fig11", 16, &panels, scale)
}

/// One application's characterization results (Figure 6 + Table 1 row +
/// the Section 4.2.2 deadlock count).
#[derive(Debug)]
pub struct AppCharacterization {
    /// Application name.
    pub app: &'static str,
    /// (direct, invalidation, forwarding) fractions — the Table 1 row.
    pub table1: (f64, f64, f64),
    /// Load-rate histogram over [0, 0.5) network capacity — Figure 6.
    pub load_hist: Histogram,
    /// Mean injected load (fraction of capacity).
    pub mean_load: f64,
    /// Fraction of execution time under 5% of capacity.
    pub under_5pct: f64,
    /// Message-dependent deadlocks detected during the run.
    pub deadlocks: u64,
    /// Transactions carried.
    pub transactions: u64,
}

/// Run one application over the network with the MSI engine.
///
/// `radix`/`bristle` select the (possibly bristled) topology of
/// Section 4.2.2: `([4,4],1)`, `([2,4],2)` or `([2,2],4)` — all 16
/// processors.
pub fn characterize_app(
    app: AppModel,
    radix: &[u32],
    bristle: u32,
    horizon: u64,
    seed: u64,
) -> AppCharacterization {
    let name = app.name;
    let traffic = CoherentTraffic::new(app, 16, horizon, seed);
    let mut cfg = SimConfig::paper_default(
        Scheme::ProgressiveRecovery,
        CoherenceEngine::msi_pattern(),
        4,
        0.0, // load comes from the application model
    );
    cfg.radix = radix.to_vec();
    cfg.bristle = bristle;
    cfg.warmup = 0;
    cfg.measure = horizon;
    let mut sim =
        Simulator::with_traffic(cfg, Box::new(traffic)).expect("PR always configurable");
    sim.set_measuring(true);
    sim.run_cycles(horizon);
    let agg = sim.aggregate_stats();
    // Recompute the source-side characterization from an identically
    // seeded engine run (the simulator owns the original source).
    let mut probe = CoherentTraffic::new(
        AppModel::all().into_iter().find(|a| a.name == name).unwrap(),
        16,
        horizon,
        seed,
    );
    let mut ids = mdd_protocol::IdAlloc::new();
    let mut store = mdd_protocol::MessageStore::new();
    for c in 0..horizon {
        mdd_traffic::TrafficSource::tick(&mut probe, c, &mut ids, &mut store);
    }
    let mut hist = Histogram::new(0.0, 0.5, 50);
    for &s in &probe.load_samples {
        hist.add(s);
    }
    AppCharacterization {
        app: name,
        table1: probe.engine().table1_row(),
        under_5pct: hist.fraction_below(0.05),
        mean_load: probe.mean_load(),
        load_hist: hist,
        deadlocks: agg.deadlocks_detected,
        transactions: agg.transactions_completed,
    }
}

/// Table 1 + Figure 6 for all four applications on the 4x4 torus.
pub fn characterize_all(horizon: u64) -> Vec<AppCharacterization> {
    AppModel::all()
        .into_iter()
        .map(|app| characterize_app(app, &[4, 4], 1, horizon, 42))
        .collect()
}

/// Section 4.2.2: deadlock frequency under bristling (2 and 4 processors
/// per router). Returns `(config label, per-app results)`.
pub fn bristling_characterization(horizon: u64) -> Vec<(String, Vec<AppCharacterization>)> {
    let configs: [(&[u32], u32, &str); 3] = [
        (&[4, 4], 1, "4x4 torus, bristle 1"),
        (&[2, 4], 2, "2x4 torus, bristle 2"),
        (&[2, 2], 4, "2x2 torus, bristle 4"),
    ];
    configs
        .iter()
        .map(|&(radix, b, label)| {
            let rows = AppModel::all()
                .into_iter()
                .map(|app| characterize_app(app, radix, b, horizon, 42))
                .collect();
            (label.to_string(), rows)
        })
        .collect()
}

/// E8: synthetic deadlock frequency versus applied load (PR, PAT271,
/// 4 VCs): the normalized number of deadlocks stays ~0 until deep
/// saturation.
pub fn synthetic_deadlock_frequency(scale: RunScale) -> Vec<SimResult> {
    synthetic_deadlock_frequency_with(&Engine::new(), scale)
}

/// [`synthetic_deadlock_frequency`] through a caller-configured engine.
pub fn synthetic_deadlock_frequency_with(engine: &Engine, scale: RunScale) -> Vec<SimResult> {
    let loads = mdd_core::default_loads(0.05, 0.50, scale.load_points.max(6));
    let cfg = SimConfig::builder()
        .scheme(Scheme::ProgressiveRecovery)
        .pattern(PatternSpec::pat271())
        .vcs(4)
        .windows(scale.warmup, scale.measure)
        // Cross-check the threshold detector against the CWG oracle
        // every 50 cycles, as FlexSim does (Section 4.1).
        .cwg_interval(Some(50))
        .build()
        .expect("PR always configurable");
    let report = engine.submit_sweep(&cfg, &loads, "PR").wait();
    for err in report.errors() {
        eprintln!("deadlock_freq: {err}");
    }
    report.into_results()
}

/// Write `contents` under `dir` (created on demand), returning the path
/// written.
pub fn write_results_in(
    dir: impl AsRef<Path>,
    name: &str,
    contents: &str,
) -> std::io::Result<String> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path)?;
    f.write_all(contents.as_bytes())?;
    Ok(path.display().to_string())
}

/// Write `contents` under the default `results/` directory.
pub fn write_results(name: &str, contents: &str) -> std::io::Result<String> {
    write_results_in("results", name, contents)
}
