//! Output correctness: pinned `SimResult` fingerprints, pinned frontier
//! verdicts, and the failure tally behind `attempted` / `failed`.

use crate::workloads::{FrontierOut, Scale, DEFAULT_SEED, HELD_OUT_SEED};
use mdd_core::SimResult;

/// Attempted and failed operations (sweep points, runs, fault points).
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one operation; a failure is reported on stderr.
    pub fn op(&mut self, problems: &[String], what: &str) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            eprintln!("mddbench: FAILED {what}: {}", problems.join("; "));
        }
    }
}

/// Every `SimResult` field, in fingerprint order.
pub const FIELDS: [&str; 19] = [
    "applied_load",
    "throughput",
    "avg_latency",
    "latency_p50",
    "latency_p95",
    "latency_p99",
    "messages_delivered",
    "transactions",
    "deadlocks",
    "router_rescues",
    "deflections",
    "rescues",
    "generated",
    "mc_utilization",
    "cwg_checks",
    "cwg_deadlocked_checks",
    "vc_util_mean",
    "vc_util_max",
    "vc_util_cv",
];

/// Bit pattern of every result field (`f64::to_bits` for floats).
pub type Fingerprint = [u64; 19];

pub fn fingerprint(r: &SimResult) -> Fingerprint {
    [
        r.applied_load.to_bits(),
        r.throughput.to_bits(),
        r.avg_latency.to_bits(),
        r.latency_quantiles.0.to_bits(),
        r.latency_quantiles.1.to_bits(),
        r.latency_quantiles.2.to_bits(),
        r.messages_delivered,
        r.transactions,
        r.deadlocks,
        r.router_rescues,
        r.deflections,
        r.rescues,
        r.generated,
        r.mc_utilization.to_bits(),
        r.cwg_checks,
        r.cwg_deadlocked_checks,
        r.vc_util_mean.to_bits(),
        r.vc_util_max.to_bits(),
        r.vc_util_cv.to_bits(),
    ]
}

/// FNV-1a over the fingerprint's little-endian bytes.
pub fn digest(fp: &Fingerprint) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in fp {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The fields where two fingerprints differ.
pub fn diff(a: &Fingerprint, b: &Fingerprint) -> Vec<&'static str> {
    FIELDS
        .iter()
        .zip(a.iter().zip(b))
        .filter(|(_, (x, y))| x != y)
        .map(|(name, _)| *name)
        .collect()
}

const SIM_PINS: &str = include_str!("../pins/sim.txt");

/// Seeds whose pins hold every field; other pinned seeds hold a digest.
const FULL_PIN_SEEDS: [u64; 2] = [DEFAULT_SEED, HELD_OUT_SEED];

/// A pinned point: every field, or (for the extra seeds) the digest.
enum Pin {
    Bits(Fingerprint),
    Digest(u64),
}

fn parse_hex(s: &str) -> u64 {
    u64::from_str_radix(s, 16).expect("pin file holds hex numbers")
}

/// Look up the pin for one point. Lines are
/// `<scale> <workload> <seed> <label> bits <19 hex>` or
/// `<scale> <workload> <seed> <label> fnv <hex>`.
fn pin(scale: Scale, workload: &str, seed: u64, label: &str) -> Option<Pin> {
    let seed = seed.to_string();
    SIM_PINS.lines().find_map(|line| {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() != 6 || f[..4] != [scale.name(), workload, seed.as_str(), label] {
            return None;
        }
        Some(match f[4] {
            "bits" => {
                let v: Vec<u64> = f[5].split(',').map(parse_hex).collect();
                Pin::Bits(v.try_into().expect("a bits pin holds every field"))
            }
            "fnv" => Pin::Digest(parse_hex(f[5])),
            other => panic!("unknown pin kind {other}"),
        })
    })
}

/// Render a pin line for one point: all fields for the default and the
/// held-out seed, the digest otherwise.
pub fn pin_line(scale: Scale, workload: &str, seed: u64, label: &str, r: &SimResult) -> String {
    let fp = fingerprint(r);
    let body = if FULL_PIN_SEEDS.contains(&seed) {
        let hex: Vec<String> = fp.iter().map(|v| format!("{v:x}")).collect();
        format!("bits {}", hex.join(","))
    } else {
        format!("fnv {:x}", digest(&fp))
    };
    format!("{} {workload} {seed} {label} {body}", scale.name())
}

/// Whether a point runs below saturation, so that its delivered
/// throughput must match the offered load. Tiny windows are too short to
/// estimate throughput that closely.
fn unsaturated(scale: Scale, workload: &str, label: &str) -> bool {
    scale == Scale::Full && (workload != "ladder8" || label.ends_with("-0.05"))
}

/// Check one simulated point against its pin (when the seed has one),
/// against a reference fingerprint of the same point (an earlier
/// repetition, or the untraced run), and against sanity bounds.
pub fn check_point(
    scale: Scale,
    workload: &str,
    seed: u64,
    label: &str,
    result: &Result<SimResult, String>,
    reference: Option<&Fingerprint>,
) -> Vec<String> {
    let r = match result {
        Ok(r) => r,
        Err(e) => return vec![format!("point error: {e}")],
    };
    let fp = fingerprint(r);
    let mut problems = Vec::new();
    match pin(scale, workload, seed, label) {
        Some(Pin::Bits(p)) if p != fp => {
            problems.push(format!("differs from its pin in {:?}", diff(&p, &fp)));
        }
        Some(Pin::Digest(d)) if d != digest(&fp) => {
            problems.push("differs from its pinned digest".to_string());
        }
        _ => {}
    }
    if let Some(reference) = reference {
        if *reference != fp {
            problems.push(format!(
                "differs from the reference run in {:?}",
                diff(reference, &fp)
            ));
        }
    }
    let floats = [
        r.throughput,
        r.avg_latency,
        r.mc_utilization,
        r.vc_util_mean,
        r.vc_util_max,
        r.vc_util_cv,
    ];
    if floats.iter().any(|x| !x.is_finite()) {
        problems.push("non-finite result field".to_string());
    }
    if r.messages_delivered == 0 || r.throughput <= 0.0 {
        problems.push("nothing delivered".to_string());
    }
    if unsaturated(scale, workload, label) && (r.throughput / r.applied_load - 1.0).abs() > 0.1 {
        problems.push(format!(
            "throughput {} is not the offered load {} below saturation",
            r.throughput, r.applied_load
        ));
    }
    problems
}

const FRONTIER_PINS: &str = include_str!("../pins/frontier.txt");

/// Check one frontier report against the verdicts pinned from
/// `results/fault_frontier.json`. Returns one problem list per fault
/// point (points are matched by label, so the seed's shuffled order does
/// not matter), plus a list for the base verdict.
pub fn check_frontier(topo: &str, out: &FrontierOut) -> Vec<(String, Vec<String>)> {
    let header = format!("config {topo} {} {}", out.scheme, out.vcs);
    let mut lines = FRONTIER_PINS.lines().skip_while(|l| *l != header);
    let Some(_) = lines.next() else {
        return vec![(header, vec!["no pinned verdicts".to_string()])];
    };
    let base = lines.next().expect("pin block has a base line");
    let mut problems = Vec::new();
    let found_base = format!("base {} {}", out.report.base_verdict, out.report.base_rank);
    let base_problems = if base == found_base {
        Vec::new()
    } else {
        vec![format!("base verdict `{found_base}`, pinned `{base}`")]
    };
    problems.push((format!("{header} base"), base_problems));
    let pinned: std::collections::HashMap<&str, &str> = lines
        .take_while(|l| !l.starts_with("config "))
        .filter_map(|l| l.split_once(','))
        .collect();
    for p in &out.report.points {
        let class = match p.class {
            mdd_verify::FaultClass::Preserving => "preserving",
            mdd_verify::FaultClass::Degrading => "degrading",
        };
        let found = format!("{},{},{class}", p.verdict, p.rank);
        let mut v = Vec::new();
        match pinned.get(p.label.as_str()) {
            Some(want) if *want == found => {}
            Some(want) => v.push(format!("verdict `{found}`, pinned `{want}`")),
            None => v.push("fault point not pinned".to_string()),
        }
        problems.push((format!("{header} {}", p.label), v));
    }
    if out.report.points.len() != pinned.len() {
        problems.push((
            header,
            vec![format!(
                "{} points classified, {} pinned",
                out.report.points.len(),
                pinned.len()
            )],
        ));
    }
    problems
}
