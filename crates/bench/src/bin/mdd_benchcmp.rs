//! `mdd-benchcmp` — read mddbench summary lines and compare or gate them.
//!
//! ```text
//! mdd-benchcmp pair A B
//! mdd-benchcmp floor FILE METRIC MIN
//! ```
//!
//! Every input is mddbench output (`-` reads standard input): a file may
//! hold the output of many runs, one after another, and only the JSON
//! summary lines (`{"correct":..,"metrics":{..}}`) are read.
//!
//! `pair A B` pairs the i-th run of A with the i-th run of B (run them
//! interleaved: A, B, A, B, ...). For each metric it prints both medians
//! with their quartiles, the median of the per-pair ratios B/A, a
//! bootstrap 95% interval of that median (10,000 resamples of the pairs,
//! fixed seed, so the same input prints the same interval) and how many
//! pairs each side won.
//! A metric whose unit starts with `1/` (a rate) is better higher; any
//! other is better lower. Exits 1 if any run is not `correct:true,
//! failed:0`.
//!
//! `floor FILE METRIC MIN` reads FILE's last summary line and exits 1
//! unless it is `correct:true, failed:0` and METRIC is at least MIN.

use mdd_bench::cli::{die, usage};
use mdd_obs::Json;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Read;

/// Bootstrap resamples per interval.
const RESAMPLES: usize = 10_000;
/// Bootstrap seed: the interval is a pure function of the input.
const SEED: u64 = 0x5eed;

/// One mddbench summary line.
#[derive(Debug)]
struct Summary {
    correct: bool,
    failed: u64,
    /// `(name, value, unit)` in the line's order.
    metrics: Vec<(String, f64, String)>,
}

impl Summary {
    fn parse(line: &str) -> Option<Summary> {
        let json = Json::parse(line)?;
        let Some(Json::Obj(metrics)) = json.get("metrics") else {
            return None;
        };
        let metrics = metrics
            .iter()
            .map(|(name, m)| {
                let value = m.get("value")?.as_f64()?;
                let unit = m.get("unit")?.as_str()?;
                Some((name.clone(), value, unit.to_string()))
            })
            .collect::<Option<Vec<_>>>()?;
        Some(Summary {
            correct: json.get("correct")?.as_bool()?,
            failed: json.get("failed")?.as_u64()?,
            metrics,
        })
    }

    fn ok(&self) -> bool {
        self.correct && self.failed == 0
    }

    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, ..)| n == name)
            .map(|&(_, v, _)| v)
    }
}

/// Every summary line of `path` (`-` = standard input), in order.
fn read_summaries(path: &str) -> Vec<Summary> {
    let mut text = String::new();
    let read = if path == "-" {
        std::io::stdin().read_to_string(&mut text).map(|_| ())
    } else {
        std::fs::read_to_string(path).map(|t| text = t)
    };
    read.unwrap_or_else(|e| die(&format!("{path}: {e}")));
    text.lines()
        .filter(|l| l.starts_with('{'))
        .filter_map(Summary::parse)
        .collect()
}

/// The `q`-quantile of `v`, interpolated at rank `q(n+1)` clamped to
/// the sample — the convention mddbench reports its quartiles in. At
/// `q = 0.5` it is the median (the mean of the middle two for even `n`).
fn quantile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let rank = (q * (n + 1) as f64).clamp(1.0, n as f64);
    let lo = rank as usize;
    let hi = (lo + 1).min(n);
    s[lo - 1] + (rank - lo as f64) * (s[hi - 1] - s[lo - 1])
}

/// First quartile, median and third quartile of `v`.
fn quartiles(v: &[f64]) -> [f64; 3] {
    [quantile(v, 0.25), quantile(v, 0.5), quantile(v, 0.75)]
}

/// Percentile bootstrap 95% interval of the median of `v`.
fn bootstrap_median(v: &[f64]) -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut meds: Vec<f64> = (0..RESAMPLES)
        .map(|_| {
            let sample: Vec<f64> = (0..v.len())
                .map(|_| v[rng.random_range(0..v.len())])
                .collect();
            quantile(&sample, 0.5)
        })
        .collect();
    meds.sort_by(f64::total_cmp);
    (
        meds[RESAMPLES * 25 / 1000],
        meds[RESAMPLES * 975 / 1000 - 1],
    )
}

/// One metric's paired comparison.
#[derive(Debug, PartialEq)]
struct Paired {
    /// Each side's [first quartile, median, third quartile].
    a: [f64; 3],
    b: [f64; 3],
    /// Median of the per-pair ratios B/A.
    ratio: f64,
    interval: (f64, f64),
    /// Pairs where B was strictly better, and where A was.
    b_wins: usize,
    a_wins: usize,
}

fn compare(a: &[f64], b: &[f64], higher_is_better: bool) -> Paired {
    let ratios: Vec<f64> = a.iter().zip(b).map(|(x, y)| y / x).collect();
    let b_wins = a
        .iter()
        .zip(b)
        .filter(|(x, y)| if higher_is_better { y > x } else { y < x })
        .count();
    let a_wins = a
        .iter()
        .zip(b)
        .filter(|(x, y)| if higher_is_better { x > y } else { x < y })
        .count();
    Paired {
        a: quartiles(a),
        b: quartiles(b),
        ratio: quantile(&ratios, 0.5),
        interval: bootstrap_median(&ratios),
        b_wins,
        a_wins,
    }
}

fn pair(path_a: &str, path_b: &str) -> bool {
    let (a, b) = (read_summaries(path_a), read_summaries(path_b));
    if a.is_empty() || a.len() != b.len() {
        die(&format!(
            "need the same nonzero number of runs on each side: {path_a} has {}, {path_b} has {}",
            a.len(),
            b.len()
        ));
    }
    println!(
        "{} pairs; per metric: median [quartiles] of A and of B, the median \
         paired ratio B/A [bootstrap 95% interval], and the pairs each side won",
        a.len()
    );
    for (name, _, unit) in &a[0].metrics {
        let values = |runs: &[Summary]| -> Vec<f64> {
            runs.iter()
                .map(|s| {
                    s.metric(name)
                        .unwrap_or_else(|| die(&format!("a run lacks metric {name}")))
                })
                .collect()
        };
        let p = compare(&values(&a), &values(&b), unit.starts_with("1/"));
        println!(
            "{name} ({unit}): A {:.6} [{:.6}, {:.6}]  B {:.6} [{:.6}, {:.6}]  \
             B/A {:.3}x [{:.3}x, {:.3}x]  wins B {} A {}",
            p.a[1],
            p.a[0],
            p.a[2],
            p.b[1],
            p.b[0],
            p.b[2],
            p.ratio,
            p.interval.0,
            p.interval.1,
            p.b_wins,
            p.a_wins
        );
    }
    let bad = |runs: &[Summary]| runs.iter().filter(|s| !s.ok()).count();
    let (bad_a, bad_b) = (bad(&a), bad(&b));
    println!("runs not correct:true, failed:0 — A: {bad_a}, B: {bad_b}");
    bad_a == 0 && bad_b == 0
}

fn floor(path: &str, metric: &str, min: f64) -> bool {
    let runs = read_summaries(path);
    let Some(last) = runs.last() else {
        eprintln!("{path}: no mddbench summary line");
        return false;
    };
    if !last.ok() {
        eprintln!(
            "{path}: run was not correct (correct {}, failed {})",
            last.correct, last.failed
        );
        return false;
    }
    let Some(value) = last.metric(metric) else {
        eprintln!("{path}: no metric {metric}");
        return false;
    };
    println!("{metric} = {value} (floor {min})");
    if value < min {
        eprintln!("{path}: {metric} {value} is below the floor {min}");
    }
    value >= min
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let ok = match args[..] {
        ["pair", a, b] => pair(a, b),
        ["floor", file, metric, min] => {
            let min = min
                .parse()
                .unwrap_or_else(|_| die(&format!("bad floor {min:?}")));
            floor(file, metric, min)
        }
        [] | ["--help" | "-h"] => {
            println!("{}", usage(include_str!("mdd_benchcmp.rs")));
            return;
        }
        _ => die("usage: mdd-benchcmp pair A B | floor FILE METRIC MIN (see --help)"),
    };
    std::process::exit(if ok { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &str = r#"{"correct":true,"attempted":27,"failed":0,"metrics":{"wall_s":{"value":1.5,"unit":"s"},"work_per_s":{"value":90000.0,"unit":"1/s"}}}"#;

    #[test]
    fn summary_lines_parse_and_other_lines_do_not() {
        let s = Summary::parse(LINE).expect("summary line");
        assert!(s.ok());
        assert_eq!(s.metric("work_per_s"), Some(90000.0));
        assert_eq!(s.metrics[0].2, "s");
        assert!(Summary::parse(r#"{"available_parallelism":2}"#).is_none());
        let bad = LINE.replace(r#""failed":0"#, r#""failed":3"#);
        assert!(!Summary::parse(&bad).expect("summary line").ok());
    }

    #[test]
    fn medians_ratios_wins_and_a_seeded_interval() {
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(&[4.0, 1.0, 2.0, 3.0], 0.5), 2.5);
        assert_eq!(quartiles(&[4.0, 1.0, 2.0, 3.0, 5.0]), [1.5, 3.0, 4.5]);
        let a = [100.0, 110.0, 90.0, 100.0];
        let b = [150.0, 165.0, 80.0, 150.0];
        let p = compare(&a, &b, true);
        assert_eq!((p.b_wins, p.a_wins), (3, 1));
        assert_eq!(p.ratio, 1.5);
        assert!(p.interval.0 <= p.ratio && p.ratio <= p.interval.1);
        assert_eq!(compare(&a, &b, true), p, "the bootstrap is seeded");
        // Lower-is-better flips the wins, not the ratio.
        let q = compare(&a, &b, false);
        assert_eq!((q.b_wins, q.a_wins), (1, 3));
        assert_eq!(q.ratio, 1.5);
    }
}
