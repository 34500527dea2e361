//! The benchmark's own tests: every workload at tiny scale, untraced and
//! traced. Each run must emit every metric `BENCHMARK.json` names, with
//! its unit, and report no failed operation — which covers the pinned
//! fingerprints, the pinned frontier verdicts, and the traced run
//! reproducing the untraced results bit for bit.

use mdd_engine::Json;
use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["ladder8", "big64", "sparse64", "frontier16"];

/// The default seed and the held-out seed (`workloads::HELD_OUT_SEED`),
/// both pinned field by field.
const SEEDS: [&str; 2] = ["24301", "59"];

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark directory sits in the repository")
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json is readable");
    let spec = Json::parse(&text).expect("BENCHMARK.json parses");
    spec.get(list)
        .and_then(Json::as_arr)
        .expect("metric list present")
        .iter()
        .map(|m| {
            let s = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

/// Run the benchmark and return its stdout and parsed summary line.
fn run(args: &[&str]) -> (String, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_mddbench"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{args:?} failed:\n{stdout}\n{stderr}");
    let last = stdout.lines().last().expect("some output");
    let summary = Json::parse(last).expect("last line is JSON");
    (stdout, summary)
}

fn assert_clean(summary: &Json, args: &[&str]) {
    assert_eq!(
        summary.get("correct").and_then(Json::as_bool),
        Some(true),
        "{args:?}"
    );
    assert_eq!(
        summary.get("failed").and_then(Json::as_u64),
        Some(0),
        "{args:?}"
    );
    assert!(
        summary.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1,
        "{args:?}"
    );
}

fn assert_metrics(summary: &Json, expected: &[(String, String)], args: &[&str]) {
    let Some(Json::Obj(metrics)) = summary.get("metrics") else {
        panic!("{args:?}: no metrics object");
    };
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = expected.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, want, "{args:?}: metric names");
    for ((name, unit), (_, value)) in expected.iter().zip(metrics) {
        assert_eq!(
            value.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        let v = value
            .get("value")
            .and_then(Json::as_f64)
            .expect("numeric value");
        assert!(v.is_finite(), "{name} = {v}");
    }
}

#[test]
fn every_workload_emits_its_end_to_end_metrics_and_matches_its_pins() {
    let expected = declared("end_to_end");
    for w in WORKLOADS {
        for seed in SEEDS {
            let args = [
                "--workload",
                w,
                "--scale",
                "tiny",
                "--seconds",
                "0",
                "--seed",
                seed,
                "--trace",
                "0",
            ];
            let (_, summary) = run(&args);
            assert_clean(&summary, &args);
            assert_metrics(&summary, &expected, &args);
            for (name, _) in &expected {
                let v = summary
                    .get("metrics")
                    .and_then(|m| m.get(name))
                    .and_then(|m| m.get("value"));
                assert!(
                    v.and_then(Json::as_f64).unwrap_or(0.0) > 0.0,
                    "{w}: {name} is 0"
                );
            }
        }
    }
}

#[test]
fn traced_run_emits_every_layer_metric_and_agrees_with_the_untraced_run() {
    let args = [
        "--workload",
        "big64",
        "--scale",
        "tiny",
        "--seconds",
        "0",
        "--trace",
        "1",
    ];
    let (stdout, summary) = run(&args);
    // Traced results that differ from the untraced reference, from the
    // pins, or between shard counts count as failed operations.
    assert_clean(&summary, &args);
    assert_metrics(&summary, &declared("per_layer"), &args);
    assert!(
        stdout.lines().any(|l| l.starts_with("provenance {")),
        "provenance block"
    );
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        vec!["--workload", "nope"],
        vec!["--trace", "2", "--workload", "big64"],
        vec!["--seed"],
        vec![],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_mddbench"))
            .args(&args)
            .current_dir(repo_root())
            .output()
            .expect("benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
