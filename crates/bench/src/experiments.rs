//! The paper's figures, tables and ablations as data (see DESIGN.md §4
//! for the experiment index). [`figure`] runs one by name and returns
//! its rows as JSON objects; `mdd-figures` renders them as a console
//! table and writes them as the committed `results/<name>.json`.

use mdd_coherence::{CoherenceEngine, CoherentTraffic};
use mdd_core::{BnfCurve, PatternSpec, QueueOrg, Scheme, SimConfig, SimResult, Simulator};
use mdd_engine::{Engine, Job, SweepReport};
use mdd_obs::Json;
use mdd_stats::{Histogram, Table};
use mdd_traffic::AppModel;

/// Every figure `mdd-figures` knows, in the order `all` runs them.
pub const FIGURES: [&str; 12] = [
    "fig6",
    "table1",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "ablation_sa_shared",
    "ablation_threshold",
    "ablation_token",
    "utilization",
    "deadlock_freq_trace",
    "deadlock_freq_synthetic",
];

/// Scale knob so smoke runs can execute the same experiments quickly.
#[derive(Clone, Copy, Debug)]
pub struct RunScale {
    /// `"full"`, `"fast"` or `"smoke"`; a non-full scale writes its
    /// artifacts under `<out>/<name>/`.
    pub name: &'static str,
    /// Warm-up cycles per simulation.
    pub warmup: u64,
    /// Measured cycles per simulation.
    pub measure: u64,
    /// Number of applied-load points per curve.
    pub load_points: usize,
    /// Cycles of the Figure 6 / Table 1 application characterization.
    pub horizon: u64,
    /// Cycles of each run of the §4.2.2 bristling characterization
    /// (twelve runs, hence shorter than `horizon`).
    pub bristle_horizon: u64,
}

impl RunScale {
    /// Full paper scale: 30k measured cycles (Section 4.3.1).
    pub fn full() -> Self {
        RunScale {
            name: "full",
            warmup: 10_000,
            measure: 30_000,
            load_points: 9,
            horizon: 120_000,
            bristle_horizon: 80_000,
        }
    }

    /// Reduced scale for constrained machines: every window at 0.4x and
    /// fewer points, same topology and parameters. Shapes are preserved;
    /// only statistical resolution drops.
    pub fn fast() -> Self {
        RunScale {
            name: "fast",
            warmup: 4_000,
            measure: 12_000,
            load_points: 7,
            horizon: 48_000,
            bristle_horizon: 32_000,
        }
    }

    /// Small scale for `--smoke` runs and tests.
    pub fn smoke() -> Self {
        RunScale {
            name: "smoke",
            warmup: 1_000,
            measure: 2_000,
            load_points: 3,
            horizon: 20_000,
            bristle_horizon: 15_000,
        }
    }

    /// The scale as an artifact header field.
    pub fn to_json(&self) -> Json {
        row([
            ("name", self.name.into()),
            ("warmup", self.warmup.into()),
            ("measure", self.measure.into()),
            ("load_points", (self.load_points as u64).into()),
            ("horizon", self.horizon.into()),
            ("bristle_horizon", self.bristle_horizon.into()),
        ])
    }
}

/// One JSON row from borrowed keys.
fn row<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// One figure's output.
#[derive(Debug)]
pub struct Figure {
    /// The figure's name, one of [`FIGURES`].
    pub name: &'static str,
    /// Console heading.
    pub title: &'static str,
    /// One JSON object per row. Rows simulated through the engine carry
    /// their `config`: the configuration's content hash, which is also
    /// its result-cache key.
    pub rows: Vec<Json>,
    /// What the paper reports, for comparison.
    pub note: &'static str,
    /// The BNF panels, `(pattern name, curves)`; empty unless this is a
    /// BNF figure.
    pub panels: Vec<(String, Vec<BnfCurve>)>,
    /// Points freshly simulated by the engine.
    pub points_simulated: u64,
    /// Points served from the persistent result cache.
    pub points_cached: u64,
    /// Points that failed (reported, not fatal: rows and curves are built
    /// from the surviving points).
    pub points_failed: u64,
}

impl Figure {
    fn new(name: &'static str, title: &'static str, note: &'static str) -> Self {
        Figure {
            name,
            title,
            rows: Vec::new(),
            note,
            panels: Vec::new(),
            points_simulated: 0,
            points_cached: 0,
            points_failed: 0,
        }
    }

    /// Fold one engine report into the point accounting and print its
    /// failures; returns the successful points with their jobs.
    fn tally<'r>(
        &mut self,
        report: &'r SweepReport,
    ) -> impl Iterator<Item = (&'r Job, &'r SimResult)> {
        for err in report.errors() {
            eprintln!("{}: {err}", self.name);
        }
        self.points_simulated += report.simulated();
        self.points_cached += report.cached();
        self.points_failed += report.failed();
        report
            .outcomes
            .iter()
            .filter_map(|o| o.result.as_ref().ok().map(|r| (&o.job, r)))
    }

    /// Render the rows as one aligned table: a column per key of the
    /// first row except `config`, floats to four decimals.
    pub fn render(&self) -> String {
        let Some(Json::Obj(first)) = self.rows.first() else {
            return String::new();
        };
        let keys: Vec<&str> = first
            .iter()
            .map(|(k, _)| k.as_str())
            .filter(|&k| k != "config")
            .collect();
        let mut t = Table::new(keys.clone());
        for r in &self.rows {
            t.row(
                keys.iter()
                    .map(|&k| match r.get(k) {
                        Some(Json::Num(x)) => format!("{x:.4}"),
                        Some(Json::Str(s)) => s.clone(),
                        Some(v) => v.render(),
                        None => String::new(),
                    })
                    .collect(),
            );
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
            self.name, self.points_simulated, self.points_cached
        );
        if self.points_failed > 0 {
            s.push_str(&format!(", {} FAILED", self.points_failed));
        }
        s
    }

    /// The artifact fields after `schema`: `figure`, `scale`, `rows`.
    pub fn to_json(&self, scale: RunScale) -> Vec<(String, Json)> {
        vec![
            ("figure".to_string(), self.name.into()),
            ("scale".to_string(), scale.to_json()),
            ("rows".to_string(), Json::Arr(self.rows.clone())),
        ]
    }
}

/// Run the figure `name` through `engine`; `None` if `name` is not one
/// of [`FIGURES`].
pub fn figure(name: &str, engine: &Engine, scale: RunScale) -> Option<Figure> {
    FIGURES
        .contains(&name)
        .then(|| run(name, engine, scale, &mut None))
}

/// Run each of `names` (all from [`FIGURES`]) in order, lazily.
/// `fig6` and `table1` read the same application characterization (same
/// horizon and seed), so it is simulated once for both.
pub fn figures<'a>(
    names: &'a [&'a str],
    engine: &'a Engine,
    scale: RunScale,
) -> impl Iterator<Item = Figure> + 'a {
    let mut apps = None;
    names
        .iter()
        .map(move |name| run(name, engine, scale, &mut apps))
}

fn run(
    name: &str,
    engine: &Engine,
    scale: RunScale,
    apps: &mut Option<Vec<AppCharacterization>>,
) -> Figure {
    match name {
        "fig6" => fig6(apps.get_or_insert_with(|| characterize_all(scale.horizon))),
        "table1" => table1(apps.get_or_insert_with(|| characterize_all(scale.horizon))),
        "fig8" => fig8(engine, scale),
        "fig9" => fig9(engine, scale),
        "fig10" => fig10(engine, scale),
        "fig11" => fig11(engine, scale),
        "ablation_sa_shared" => ablation_sa_shared(engine, scale),
        "ablation_threshold" => ablation_threshold(engine, scale),
        "ablation_token" => ablation_token(engine, scale),
        "utilization" => utilization(engine, scale),
        "deadlock_freq_trace" => deadlock_freq_trace(scale),
        "deadlock_freq_synthetic" => deadlock_freq_synthetic(engine, scale),
        other => panic!("unknown figure {other}"),
    }
}

/// The scheme behind a curve label: `SA`, `SA+` (the shared adaptive
/// pool), `DR` or `PR`; a `-QA` suffix (per-type message queues, see
/// [`bnf_figure`]) names the same scheme.
fn scheme_of(label: &str) -> Scheme {
    match label.trim_end_matches("-QA") {
        "SA" => Scheme::StrictAvoidance {
            shared_adaptive: false,
        },
        "SA+" => Scheme::StrictAvoidance {
            shared_adaptive: true,
        },
        "DR" => Scheme::DeflectiveRecovery,
        "PR" => Scheme::ProgressiveRecovery,
        other => unreachable!("no scheme for curve label {other}"),
    }
}

/// One BNF panel: the pattern, its curve labels, the top applied load.
type Panel = (PatternSpec, &'static [&'static str], f64);

/// Run one BNF figure through `engine`: for each pattern, each labelled
/// scheme is swept over `load_points` loads from 0.05 to the panel's top
/// load. Infeasible combinations are omitted at build time (as the paper
/// omits them from the figures); points that fail mid-sweep are reported
/// and the curve is assembled from the survivors.
fn bnf_figure(
    mut fig: Figure,
    engine: &Engine,
    scale: RunScale,
    vcs: u8,
    panels: Vec<Panel>,
) -> Figure {
    for (pattern, labels, max_load) in panels {
        let loads = mdd_core::default_loads(0.05, max_load, scale.load_points);
        let mut curves = Vec::new();
        for &label in labels {
            let cfg = match SimConfig::builder()
                .scheme(scheme_of(label))
                .pattern(pattern.clone())
                .vcs(vcs)
                .queue_org(label.ends_with("-QA").then_some(QueueOrg::PerType))
                .windows(scale.warmup, scale.measure)
                .build()
            {
                Ok(cfg) => cfg,
                Err(err) => {
                    eprintln!(
                        "{}: skipping {label} on {}: {err}",
                        fig.name,
                        pattern.name()
                    );
                    continue;
                }
            };
            let report = engine.submit_sweep(&cfg, &loads, label).wait();
            for (job, r) in fig.tally(&report) {
                let p = r.bnf_point();
                fig.rows.push(row([
                    ("pattern", pattern.name().into()),
                    ("scheme", label.into()),
                    ("load", p.applied_load.into()),
                    ("throughput", p.throughput.into()),
                    ("latency", p.latency.into()),
                    ("deadlocks", p.deadlocks.into()),
                    ("messages", p.messages_delivered.into()),
                    ("config", Json::Str(job.key())),
                ]));
            }
            curves.push(report.curve(label));
        }
        fig.panels.push((pattern.name().to_string(), curves));
    }
    fig
}

/// Figure 8: 4 virtual channels. SA appears only for PAT100 (it needs
/// `E_m = 8` channels for chain length 4); DR appears for every pattern
/// except PAT100 (two types make DR collapse onto SA).
fn fig8(engine: &Engine, scale: RunScale) -> Figure {
    let fig = Figure::new(
        "fig8",
        "Figure 8 — BNF curves, 8x8 torus, 4 VCs",
        "Paper: PR beats SA (PAT100) and DR by up to ~100%, the margin \
         shrinking as chain length grows; SA needs 8 VCs for chain-4 patterns.",
    );
    let panels = vec![
        (PatternSpec::pat100(), &["SA", "PR"][..], 0.45),
        (PatternSpec::pat721(), &["DR", "PR"], 0.42),
        (PatternSpec::pat451(), &["DR", "PR"], 0.42),
        (PatternSpec::pat271(), &["DR", "PR"], 0.42),
        (PatternSpec::pat280(), &["DR", "PR"], 0.42),
    ];
    bnf_figure(fig, engine, scale, 4, panels)
}

/// Figure 9: 8 virtual channels — SA becomes feasible everywhere.
fn fig9(engine: &Engine, scale: RunScale) -> Figure {
    let fig = Figure::new(
        "fig9",
        "Figure 9 — BNF curves, 8x8 torus, 8 VCs",
        "Paper: SA saturates earliest for every multi-type pattern; DR is \
         close to PR, and SA to PR on PAT100.",
    );
    let panels = vec![
        (PatternSpec::pat100(), &["SA", "PR"][..], 0.50),
        (PatternSpec::pat721(), &["SA", "DR", "PR"], 0.45),
        (PatternSpec::pat451(), &["SA", "DR", "PR"], 0.45),
        (PatternSpec::pat271(), &["SA", "DR", "PR"], 0.45),
        (PatternSpec::pat280(), &["SA", "DR", "PR"], 0.45),
    ];
    bnf_figure(fig, engine, scale, 8, panels)
}

/// Figure 10: 16 virtual channels, the four multi-type patterns.
fn fig10(engine: &Engine, scale: RunScale) -> Figure {
    let fig = Figure::new(
        "fig10",
        "Figure 10 — BNF curves, 8x8 torus, 16 VCs",
        "Paper: with 16 VCs endpoint message coupling dominates and both \
         shared-queue recovery schemes fall below SA.",
    );
    let panels = [
        PatternSpec::pat721(),
        PatternSpec::pat451(),
        PatternSpec::pat271(),
        PatternSpec::pat280(),
    ];
    let panels = panels.map(|p| (p, &["SA", "DR", "PR"][..], 0.50));
    bnf_figure(fig, engine, scale, 16, panels.into())
}

/// Figure 11: message-buffer organization ablation at 16 VCs on PAT271 —
/// DR and PR with their default (shared-ish) queues versus per-type "QA"
/// queues, against SA.
fn fig11(engine: &Engine, scale: RunScale) -> Figure {
    let fig = Figure::new(
        "fig11",
        "Figure 11 — message queue organization, PAT271, 16 VCs",
        "Paper: per-type (QA) message queues lift DR and PR to or slightly \
         above SA.",
    );
    let labels = &["SA", "DR", "DR-QA", "PR", "PR-QA"][..];
    bnf_figure(
        fig,
        engine,
        scale,
        16,
        vec![(PatternSpec::pat271(), labels, 0.50)],
    )
}

/// Ablation A1: the Martinez-Torrellas-Duato shared-adaptive variant of
/// strict avoidance (\[21\], discussed in Section 2.1) against plain SA —
/// only the escape channels stay partitioned per type; all remaining
/// channels form a common adaptive pool.
fn ablation_sa_shared(engine: &Engine, scale: RunScale) -> Figure {
    let mut fig = Figure::new(
        "ablation_sa_shared",
        "Ablation A1 — SA vs SA+ (shared adaptive pool), PAT271",
        "Paper [21]: the shared pool adds adaptivity without giving up \
         avoidance; below saturation the two should coincide.",
    );
    let loads = mdd_core::default_loads(0.05, 0.50, scale.load_points);
    for vcs in [8u8, 16] {
        for label in ["SA", "SA+"] {
            let cfg = SimConfig::builder()
                .scheme(scheme_of(label))
                .pattern(PatternSpec::pat271())
                .vcs(vcs)
                .windows(scale.warmup, scale.measure)
                .build()
                .expect("feasible at 8+ VCs");
            let report = engine.submit_sweep(&cfg, &loads, label).wait();
            for (job, r) in fig.tally(&report) {
                fig.rows.push(row([
                    ("vcs", u64::from(vcs).into()),
                    ("scheme", label.into()),
                    ("load", r.applied_load.into()),
                    ("throughput", r.throughput.into()),
                    ("latency", r.avg_latency.into()),
                    ("config", Json::Str(job.key())),
                ]));
            }
        }
    }
    fig
}

/// The PR/PAT271/4-VC points of a recovery-path ablation: `knob` applies
/// one setting to the builder, each setting runs at loads 0.30 and 0.38,
/// and `key` names the setting's column.
fn pr_ablation(
    mut fig: Figure,
    engine: &Engine,
    scale: RunScale,
    key: &str,
    settings: &[u64],
    knob: fn(mdd_core::SimConfigBuilder, u64) -> mdd_core::SimConfigBuilder,
) -> Figure {
    let mut jobs = Vec::new();
    for &setting in settings {
        for load in [0.30, 0.38] {
            let builder = SimConfig::builder()
                .scheme(Scheme::ProgressiveRecovery)
                .pattern(PatternSpec::pat271())
                .vcs(4)
                .windows(scale.warmup, scale.measure);
            let cfg = knob(builder, setting)
                .build()
                .expect("PR always configurable");
            jobs.push(Job::new(
                jobs.len(),
                format!("{key}={setting}"),
                cfg.at_load(load),
            ));
        }
    }
    let report = engine.submit(jobs).wait();
    for (job, r) in fig.tally(&report) {
        fig.rows.push(row([
            (key, settings[job.id / 2].into()),
            ("load", job.load().into()),
            ("throughput", r.throughput.into()),
            ("latency", r.avg_latency.into()),
            ("detections", r.deadlocks.into()),
            ("rescues", r.rescues.into()),
            ("config", Json::Str(job.key())),
        ]));
    }
    fig
}

/// Ablation A2: sensitivity of PR to the detection time-out `T`
/// (Section 4.1 fixes T = 25 because CWG detection "typically takes 25
/// cycles on average"). A too-small T triggers rescues for transient
/// congestion; a too-large T delays genuine recovery.
fn ablation_threshold(engine: &Engine, scale: RunScale) -> Figure {
    let fig = Figure::new(
        "ablation_threshold",
        "Ablation A2 — PR detection time-out sensitivity (PAT271, 4 VCs)",
        "Paper §4.1: T = 25, the typical CWG detection time.",
    );
    pr_ablation(
        fig,
        engine,
        scale,
        "threshold",
        &[10, 25, 50, 100, 200],
        mdd_core::SimConfigBuilder::detect_threshold,
    )
}

/// Ablation A3: cost of the token/recovery-lane path. The paper notes the
/// token "can be transmitted as a control packet multiplexed over network
/// bandwidth" — here the per-hop latency of the token tour and of the
/// recovery lane is scaled x1/x2/x4 to bound how much a slower (shared)
/// path would cost PR.
fn ablation_token(engine: &Engine, scale: RunScale) -> Figure {
    let fig = Figure::new(
        "ablation_token",
        "Ablation A3 — token/lane per-hop cost (PR, PAT271, 4 VCs)",
        "Paper §3: the token can be multiplexed over ordinary network \
         bandwidth.",
    );
    pr_ablation(fig, engine, scale, "hop", &[1, 2, 4], |b, hop| {
        b.token_hop(hop).lane_hop(hop)
    })
}

/// Channel-utilization analysis: quantify the paper's Section 4.3.2
/// explanation that strict avoidance's partitioning causes "unbalanced
/// use of network resources" while fully shared routing spreads traffic
/// evenly, at a load below every scheme's saturation (equal delivered
/// load).
fn utilization(engine: &Engine, scale: RunScale) -> Figure {
    let mut fig = Figure::new(
        "utilization",
        "Channel-utilization balance at equal delivered load (0.25 flits/node/cycle, PAT721)",
        "Higher CV = more unbalanced channel usage. The paper attributes \
         SA's early saturation to exactly this imbalance (Section 4.3.2).",
    );
    let mut jobs = Vec::new();
    for vcs in [8u8, 16] {
        for label in ["SA", "SA+", "DR", "PR"] {
            let cfg = SimConfig::builder()
                .scheme(scheme_of(label))
                .pattern(PatternSpec::pat721())
                .vcs(vcs)
                .windows(scale.warmup, scale.measure)
                .build()
                .expect("feasible at 8+ VCs");
            jobs.push(Job::new(jobs.len(), label, cfg.at_load(0.25)));
        }
    }
    let report = engine.submit(jobs).wait();
    for (job, r) in fig.tally(&report) {
        fig.rows.push(row([
            ("vcs", u64::from(job.cfg.vcs).into()),
            ("scheme", job.label.as_str().into()),
            ("throughput", r.throughput.into()),
            ("util_mean", r.vc_util_mean.into()),
            ("util_max", r.vc_util_max.into()),
            ("util_cv", r.vc_util_cv.into()),
            ("config", Json::Str(job.key())),
        ]));
    }
    fig
}

/// E8: synthetic deadlock frequency versus applied load (PR, PAT271,
/// 4 VCs): the normalized number of deadlocks stays ~0 until deep
/// saturation.
fn deadlock_freq_synthetic(engine: &Engine, scale: RunScale) -> Figure {
    let mut fig = Figure::new(
        "deadlock_freq_synthetic",
        "Synthetic deadlock frequency — PR, PAT271, 4 VCs, 8x8 torus",
        "Paper ([7], confirmed in Section 4.2): message-dependent deadlocks \
         occur only once the network is driven into deep saturation.",
    );
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
    for (job, r) in fig.tally(&report) {
        fig.rows.push(row([
            ("load", r.applied_load.into()),
            ("throughput", r.throughput.into()),
            ("deadlocks", r.deadlocks.into()),
            ("router_rescues", r.router_rescues.into()),
            ("normalized", r.normalized_deadlocks().into()),
            ("cwg_deadlocked_checks", r.cwg_deadlocked_checks.into()),
            ("cwg_checks", r.cwg_checks.into()),
            ("config", Json::Str(job.key())),
        ]));
    }
    fig
}

/// Figure 6: per application, the fraction of execution time in each
/// load bucket, and the mean load.
fn fig6(apps: &[AppCharacterization]) -> Figure {
    let mut fig = Figure::new(
        "fig6",
        "Figure 6 — load-rate distributions (fraction of execution time)",
        "Paper: FFT/LU/Water under 5% of capacity for 92-99% of execution \
         time; Radix up to 30% of capacity, under 5% for ~50% of the time, \
         mean 19.4%.",
    );
    const BUCKETS: [(f64, f64, &str); 7] = [
        (0.00, 0.05, "<5%"),
        (0.05, 0.10, "5-10%"),
        (0.10, 0.15, "10-15%"),
        (0.15, 0.20, "15-20%"),
        (0.20, 0.25, "20-25%"),
        (0.25, 0.30, "25-30%"),
        (0.30, 0.50, ">=30%"),
    ];
    for a in apps {
        let mut fields = vec![("app".to_string(), a.app.into())];
        for (lo, hi, label) in BUCKETS {
            let frac = a.load_hist.fraction_below(hi) - a.load_hist.fraction_below(lo);
            fields.push((label.to_string(), frac.into()));
        }
        fields.push(("mean_load".to_string(), a.mean_load.into()));
        fig.rows.push(Json::Obj(fields));
    }
    fig
}

/// Table 1: the response-type mix per application beside the paper's.
fn table1(apps: &[AppCharacterization]) -> Figure {
    let mut fig = Figure::new(
        "table1",
        "Table 1 — response types to request messages",
        "The paper_* columns are the paper's Table 1.",
    );
    let paper = [
        ("FFT", 0.987, 0.009, 0.004),
        ("LU", 0.965, 0.030, 0.005),
        ("Radix", 0.955, 0.036, 0.008),
        ("Water", 0.152, 0.501, 0.347),
    ];
    for a in apps {
        let (d, i, f) = a.table1;
        let p = paper
            .iter()
            .find(|(n, ..)| *n == a.app)
            .expect("a paper app");
        fig.rows.push(row([
            ("app", a.app.into()),
            ("direct", d.into()),
            ("inval", i.into()),
            ("fwd", f.into()),
            ("paper_direct", p.1.into()),
            ("paper_inval", p.2.into()),
            ("paper_fwd", p.3.into()),
        ]));
    }
    fig
}

/// Section 4.2.2: the four applications on the plain and bristled tori
/// (16 processors throughout), reporting mean network load and detected
/// message-dependent deadlocks.
fn deadlock_freq_trace(scale: RunScale) -> Figure {
    let mut fig = Figure::new(
        "deadlock_freq_trace",
        "Section 4.2.2 — trace-driven deadlock frequency (bristled tori)",
        "Paper: no deadlock was observed for any application on any of the \
         three configurations.",
    );
    let topologies: [(&[u32], u32, &str); 3] = [
        (&[4, 4], 1, "4x4 torus, bristle 1"),
        (&[2, 4], 2, "2x4 torus, bristle 2"),
        (&[2, 2], 4, "2x2 torus, bristle 4"),
    ];
    for (radix, bristle, topology) in topologies {
        for app in AppModel::all() {
            let a = characterize_app(app, radix, bristle, scale.bristle_horizon, 42);
            fig.rows.push(row([
                ("topology", topology.into()),
                ("app", a.app.into()),
                ("mean_load", a.mean_load.into()),
                ("txns", a.transactions.into()),
                ("deadlocks", a.deadlocks.into()),
            ]));
        }
    }
    fig
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
    /// Message-dependent deadlocks detected during the run.
    pub deadlocks: u64,
    /// Transactions carried.
    pub transactions: u64,
}

/// Run one application over the network with the MSI engine.
///
/// `radix`/`bristle` select the (possibly bristled) topology of
/// Section 4.2.2: `([4,4],1)`, `([2,4],2)` or `([2,2],4)` — all 16
/// processors. Trace-driven runs drive the simulator with an application
/// traffic source that a `SimConfig` does not capture, so they bypass
/// the engine and its result cache.
pub fn characterize_app(
    app: AppModel,
    radix: &[u32],
    bristle: u32,
    horizon: u64,
    seed: u64,
) -> AppCharacterization {
    let name = app.name;
    let traffic = CoherentTraffic::new(app.clone(), 16, horizon, seed);
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
    let mut sim = Simulator::with_traffic(cfg, Box::new(traffic)).expect("PR always configurable");
    sim.set_measuring(true);
    sim.run_cycles(horizon);
    let agg = sim.aggregate_stats();
    // Recompute the source-side characterization from an identically
    // seeded engine run (the simulator owns the original source).
    let mut probe = CoherentTraffic::new(app, 16, horizon, seed);
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
