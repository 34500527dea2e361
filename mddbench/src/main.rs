//! `mddbench` — the mdd-sim benchmark.
//!
//! One command runs one workload, checks its outputs, and prints every
//! metric by name and unit; its last line is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`.
//!
//! ```text
//! cargo run --release --offline --manifest-path mddbench/Cargo.toml -- \
//!     --workload ladder8 --seed 24301 --seconds 10 --trace 0
//! ```
//!
//! * `--workload ladder8|big64|sparse64|frontier16` (required);
//! * `--seed N` — the workload seed (default `0x5eed` = 24301);
//! * `--seconds S` — how long the untraced run repeats its unit
//!   (at least [`MIN_REPS`] repetitions);
//! * `--trace 0|1` — `0` reports the end-to-end metrics of the workload;
//!   `1` runs the traced pass over every workload and reports the
//!   per-layer metrics, each named after the workload it measures;
//! * `--scale full|tiny` — `tiny` shrinks every workload for the
//!   benchmark's own tests (default `full`);
//! * `--pin` — print the fingerprint pin lines of the workload's points
//!   at this seed instead of measuring (to regenerate `pins/sim.txt`).
//!
//! All times are host time. Outputs are checked against pins in `pins/`;
//! every mismatch counts as a failed operation.

mod calib;
mod check;
mod layers;
mod stats;
mod workloads;

use check::{check_frontier, check_point, fingerprint, Fingerprint, Tally};
use mdd_engine::Json;
use stats::Metric;
use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Scale, Workload, DEFAULT_SEED};

/// Fewest repetitions of the unit in an untraced run.
const MIN_REPS: usize = 3;

struct Args {
    workload: Workload,
    /// The `--seed` argument.
    seed: u64,
    /// The simulation seed it selects (see [`workloads::input_seed`]).
    input: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    pin: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut scale = Scale::Full;
    let mut pin = false;
    while let Some(flag) = args.next() {
        if flag == "--pin" {
            pin = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(0.0..=600.0).contains(&seconds) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => {
                scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        input: workloads::input_seed(seed),
        seconds,
        trace,
        scale,
        pin,
    })
}

/// The commit of the checkout, when it is a git work tree.
fn git_commit() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: std::path::PathBuf| std::fs::read_to_string(p).ok();
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown (not a git checkout)".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => read(git.join(r))
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read(git.join("packed-refs"))?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            })
            .unwrap_or_else(|| format!("unknown ({r})")),
    }
}

fn provenance(a: &Args) -> Json {
    let plans = Workload::ALL
        .iter()
        .map(|w| {
            let (jobs, shards) = w.plan();
            (
                w.name().to_string(),
                Json::Obj(vec![
                    ("jobs".into(), Json::Int(jobs as u64)),
                    ("shards".into(), Json::Int(u64::from(shards))),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        (
            "available_parallelism".into(),
            Json::Int(workloads::nproc() as u64),
        ),
        ("commit".into(), Json::Str(git_commit())),
        ("rustc".into(), Json::Str(env!("MDDBENCH_RUSTC").into())),
        ("workload".into(), Json::Str(a.workload.name().into())),
        ("seed".into(), Json::Int(a.seed)),
        ("input_seed".into(), Json::Int(a.input)),
        ("seconds".into(), Json::Num(a.seconds)),
        ("trace".into(), Json::Bool(a.trace)),
        ("mode".into(), Json::Str(a.scale.name().into())),
        ("plans".into(), Json::Obj(plans)),
    ])
}

/// Peak resident set size of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// One repetition of the unit: its wall time, work done and the host
/// seconds that work took (for the rate), after checking its outputs.
struct Rep {
    wall_s: f64,
    work: f64,
    work_s: f64,
    /// `work_s` split into clock blocks, by simulation; empty on
    /// `frontier16`, which simulates nothing.
    blocks: Vec<(String, Vec<f64>)>,
}

/// Run one unit and check it. `reference` holds the first repetition's
/// fingerprints; later repetitions must reproduce them.
fn run_rep(a: &Args, reference: &mut HashMap<String, Fingerprint>, tally: &mut Tally) -> Rep {
    let w = a.workload.name();
    let mut check_sim =
        |label: &str, result: &Result<mdd_core::SimResult, String>, tally: &mut Tally| {
            let problems = check_point(a.scale, w, a.input, label, result, reference.get(label));
            if let (Ok(r), false) = (result, reference.contains_key(label)) {
                reference.insert(label.to_string(), fingerprint(r));
            }
            tally.op(&problems, &format!("{w} {label}"));
        };
    match a.workload {
        Workload::Ladder8 => {
            let cache = workloads::scratch_dir("ladder8-cache");
            let (jobs, _) = a.workload.plan();
            let run = workloads::ladder_unit(a.scale, a.input, &cache, jobs);
            for o in &run.report.outcomes {
                let r = o.result.clone().map_err(|e| e.to_string());
                check_sim(&o.job.label, &r, tally);
            }
            workloads::retire(run.engine, run.report.outcomes.len());
            let _ = std::fs::remove_dir_all(&cache);
            Rep {
                wall_s: run.wall_s,
                work: run.points.iter().map(|p| p.cycles as f64).sum(),
                work_s: run.points.iter().map(|p| p.run_s).sum(),
                blocks: run
                    .points
                    .into_iter()
                    .map(|p| (p.label, p.blocks))
                    .collect(),
            }
        }
        Workload::Big64 | Workload::Sparse64 => {
            let cfg = workloads::single_cfg(a.workload, a.scale, a.input);
            let run = workloads::sim_unit(&cfg, a.workload.block_cycles());
            check_sim(w, &run.result, tally);
            Rep {
                wall_s: run.wall_s(),
                work: run.cycles as f64,
                work_s: run.run_s,
                blocks: vec![(w.to_string(), run.blocks)],
            }
        }
        Workload::Frontier16 => {
            let (wall_s, outs) = workloads::frontier_unit(a.scale, a.input);
            let topo = workloads::frontier_topo(a.scale);
            let mut points = 0;
            for o in &outs {
                points += o.report.points.len();
                for (what, problems) in check_frontier(topo, o) {
                    tally.op(&problems, &format!("{w} {what}"));
                }
            }
            Rep {
                wall_s,
                work: points as f64,
                work_s: wall_s,
                blocks: Vec::new(),
            }
        }
    }
}

/// One set-up of the workload, in seconds.
fn setup_once(a: &Args) -> f64 {
    match a.workload {
        Workload::Ladder8 => workloads::ladder_setup(a.scale, a.input),
        Workload::Big64 | Workload::Sparse64 => {
            workloads::sim_setup(&workloads::single_cfg(a.workload, a.scale, a.input))
        }
        Workload::Frontier16 => workloads::frontier_setup(a.scale),
    }
}

/// Set-up is repeated [`MIN_SETUPS`] times before the first repetition,
/// and after each repetition for this share of its wall time, so that its
/// samples spread over the whole run; the median of many samples is
/// steadier than one.
const SETUP_SHARE: f64 = 0.1;
const MIN_SETUPS: usize = 5;

/// The end-to-end metrics of one workload, at the reference host speed
/// (see [`calib`]).
fn untraced(a: &Args, tally: &mut Tally) -> Vec<Metric> {
    let calibration = calib::Calibration::new();
    let mut cal = Vec::new();
    let mut setups: Vec<f64> = (0..MIN_SETUPS).map(|_| setup_once(a)).collect();
    let mut reference = HashMap::new();
    let mut reps = Vec::new();
    let start = Instant::now();
    // Repeat while another repetition of the mean length still fits.
    while reps.len() < MIN_REPS
        || start.elapsed().as_secs_f64() * (1.0 + 1.0 / reps.len() as f64) <= a.seconds
    {
        let rep = run_rep(a, &mut reference, tally);
        cal.push(vec![("calibration".to_string(), calibration.pass())]);
        let t = Instant::now();
        while t.elapsed().as_secs_f64() < SETUP_SHARE * rep.wall_s {
            setups.push(setup_once(a));
        }
        println!(
            "rep {} wall_s {} work_per_s {}",
            reps.len(),
            rep.wall_s,
            rep.work / rep.work_s
        );
        reps.push(rep);
    }
    let cal_s = stats::blockwise(&cal, stats::fastest).expect("calibration passes line up");
    let scale = calib::REFERENCE_S / cal_s;
    println!(
        "host calibration_s {cal_s} (reference {}): times below are raw times x {scale}",
        calib::REFERENCE_S
    );
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s * scale).collect();
    let rates: Vec<f64> = reps.iter().map(|r| r.work / (r.work_s * scale)).collect();
    let setups: Vec<f64> = setups.iter().map(|s| s * scale).collect();
    let blocks: Vec<_> = reps.iter().map(|r| r.blocks.clone()).collect();
    let (wall, rate) = match stats::blockwise(&blocks, stats::fastest) {
        // The simulated part summed block by block from the fastest
        // repetition of each block, plus the median of the rest (set-up
        // and tear-down, and on ladder8 the engine around the points).
        Some(run_s) if run_s > 0.0 => {
            let med = stats::blockwise(&blocks, |t| stats::quartiles(t).1).unwrap_or(0.0);
            println!("raw run_s blockwise fastest {run_s} (blockwise median {med})");
            let rest: Vec<f64> = reps.iter().map(|r| r.wall_s - r.work_s).collect();
            let (_, rest, _) = stats::quartiles(&rest);
            let m = |name, unit, v| Metric::one(name, unit, v);
            (
                m("wall_s", "s", (rest + run_s) * scale),
                m("work_per_s", "1/s", reps[0].work / (run_s * scale)),
            )
        }
        _ => (
            Metric::over("wall_s", "s", &walls),
            Metric::over("work_per_s", "1/s", &rates),
        ),
    };
    vec![wall, Metric::over("setup_s", "s", &setups), rate]
}

/// Print the pin lines of every simulated point at this seed.
fn pin(a: &Args) -> Result<(), String> {
    let w = a.workload.name();
    let results: Vec<(String, Result<mdd_core::SimResult, String>)> = match a.workload {
        Workload::Ladder8 => {
            let cache = workloads::scratch_dir("ladder8-pin");
            let run = workloads::ladder_unit(a.scale, a.seed, &cache, workloads::nproc());
            workloads::retire(run.engine, run.report.outcomes.len());
            let _ = std::fs::remove_dir_all(&cache);
            run.report
                .outcomes
                .into_iter()
                .map(|o| (o.job.label, o.result.map_err(|e| e.to_string())))
                .collect()
        }
        Workload::Big64 | Workload::Sparse64 => {
            let cfg = workloads::single_cfg(a.workload, a.scale, a.seed);
            vec![(
                w.to_string(),
                workloads::sim_unit(&cfg, a.workload.block_cycles()).result,
            )]
        }
        Workload::Frontier16 => {
            return Err("frontier16 verdicts are pinned from results/fault_frontier.json".into())
        }
    };
    for (label, r) in results {
        let r = r.map_err(|e| format!("{label}: {e}"))?;
        println!("{}", check::pin_line(a.scale, w, a.seed, &label, &r));
    }
    Ok(())
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mddbench: {e}");
            return ExitCode::from(2);
        }
    };
    if a.pin {
        let res = pin(&a);
        workloads::clean_scratch();
        return match res {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("mddbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    println!("provenance {}", provenance(&a).render());
    let mut tally = Tally::default();
    let metrics = if a.trace {
        layers::traced(a.scale, a.input, &mut tally)
    } else {
        untraced(&a, &mut tally)
    };
    workloads::clean_scratch();

    for m in &metrics {
        let alias = match m.name.as_str() {
            "work_per_s" => format!(" ({})", a.workload.work_name()),
            _ => String::new(),
        };
        println!(
            "metric {}{alias} = {} {} (q1 {}, q3 {}, spread {:.4}, n {})",
            m.name,
            m.value,
            m.unit,
            m.q1,
            m.q3,
            m.spread(),
            m.n
        );
        if a.trace {
            println!("  moves {}", layers::moves(&m.name));
        }
    }
    if !a.trace {
        // Informational only: with two workers the peak depends on which
        // points happen to run together, so it is too noisy to gate on.
        println!("peak_rss_mb = {}", peak_rss_mb());
    }
    let fail_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "fail_frac = {fail_frac} ({} of {} operations failed)",
        tally.failed, tally.attempted
    );
    let finite = metrics.iter().all(|m| m.value.is_finite());
    if !finite {
        eprintln!("mddbench: a metric is not finite");
    }
    let body = Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                (
                    m.name.clone(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(v)),
                        ("unit".into(), Json::Str(m.unit.into())),
                    ]),
                )
            })
            .collect(),
    );
    let summary = Json::Obj(vec![
        ("correct".into(), Json::Bool(tally.failed == 0 && finite)),
        ("attempted".into(), Json::Int(tally.attempted)),
        ("failed".into(), Json::Int(tally.failed)),
        ("metrics".into(), body),
    ]);
    println!("{}", summary.render());
    ExitCode::SUCCESS
}
