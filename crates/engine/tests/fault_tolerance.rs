//! Fault isolation and cache-resume semantics: a poisoned point must
//! surface as a typed [`PointError`] without aborting the sweep, and a
//! re-run after a partial failure must replay the surviving points from
//! the persistent cache.

mod common;

use common::{fake_result, small_cfg, TempDir};
use mdd_engine::{Engine, Job, PointFailure, ResultCache};

#[test]
fn injected_panic_becomes_point_error_without_aborting() {
    let jobs = Job::points(&small_cfg(), &[0.10, 0.20, 0.30], "PR");
    let report = Engine::new()
        .submit_with(jobs, |job: &Job| {
            if job.id == 1 {
                panic!("boom at load {:.2}", job.load());
            }
            Ok(fake_result(job.load()))
        })
        .wait();

    assert_eq!(report.failed(), 1);
    assert_eq!(report.simulated(), 2);
    assert_eq!(report.cached(), 0);
    assert!(!report.complete());

    let errors = report.errors();
    assert_eq!(errors.len(), 1);
    let err = errors[0];
    assert_eq!(err.label, "PR");
    assert!((err.load - 0.20).abs() < 1e-12);
    match &err.failure {
        PointFailure::Panic(msg) => assert!(msg.contains("boom"), "payload preserved: {msg}"),
        other => panic!("expected Panic failure, got {other:?}"),
    }
    // The human-readable form names the point.
    let shown = err.to_string();
    assert!(shown.contains("PR") && shown.contains("boom"), "{shown}");

    // The surviving points still assemble into a curve.
    assert_eq!(report.curve("PR").points.len(), 2);
}

#[test]
fn infeasible_config_becomes_typed_config_error() {
    // Strict avoidance on PAT271 needs chain_length x 2 virtual channels;
    // one VC cannot satisfy that, and the default runner must report it
    // as a per-point config error rather than a panic.
    let mut bad = small_cfg();
    bad.scheme = mdd_core::Scheme::StrictAvoidance {
        shared_adaptive: false,
    };
    bad.vcs = 1;
    let jobs = vec![
        Job::new(0, "PR", small_cfg().at_load(0.10)),
        Job::new(1, "SA", bad.at_load(0.10)),
    ];
    let report = Engine::new().submit(jobs).wait();

    assert_eq!(report.simulated(), 1);
    assert_eq!(report.failed(), 1);
    let errors = report.errors();
    assert!(matches!(errors[0].failure, PointFailure::Config(_)));
}

#[test]
fn resume_after_partial_failure_replays_survivors_from_cache() {
    let tmp = TempDir::new("resume");
    let loads = [0.10, 0.20, 0.30];

    // First run: the middle point dies.
    let engine = Engine::with_cache_dir(tmp.path()).expect("open cache");
    let report = engine
        .submit_with(Job::points(&small_cfg(), &loads, "PR"), |job: &Job| {
            if job.id == 1 {
                panic!("interrupted");
            }
            Ok(fake_result(job.load()))
        })
        .wait();
    assert_eq!(report.simulated(), 2);
    assert_eq!(report.failed(), 1);

    // Second run, fresh engine over the same directory: only the failed
    // point may reach the runner — the other two must come from disk.
    let engine = Engine::with_cache_dir(tmp.path()).expect("reopen cache");
    let report = engine
        .submit_with(Job::points(&small_cfg(), &loads, "PR"), |job: &Job| {
            assert_eq!(job.id, 1, "cached point re-simulated");
            Ok(fake_result(job.load()))
        })
        .wait();
    assert_eq!(report.cached(), 2);
    assert_eq!(report.simulated(), 1);
    assert_eq!(report.failed(), 0);
    assert!(report.complete());
    assert_eq!(report.curve("PR").points.len(), 3);
}

#[test]
fn cache_skips_corrupt_lines_and_keeps_valid_ones() {
    let tmp = TempDir::new("corrupt");
    {
        let cache = ResultCache::open(tmp.path()).unwrap();
        cache.put("aaaa", "PR", &fake_result(0.1)).unwrap();
        cache.put("abbb", "PR", &fake_result(0.2)).unwrap();
    }
    // Simulate a crash mid-append plus unrelated garbage.
    let file = tmp.path().join("cache.jsonl");
    let mut text = std::fs::read_to_string(&file).unwrap();
    text.insert_str(0, "not json\n");
    text.push_str("{\"v\":1,\"key\":\"truncated");
    std::fs::write(&file, text).unwrap();

    let cache = ResultCache::open(tmp.path()).unwrap();
    assert_eq!(cache.len(), 2);
    assert!(cache.get("aaaa").is_some());
    assert!(cache.get("abbb").is_some());

    // And the reopened file still accepts appends — the repaired tail
    // cannot glue the next entry onto the truncated line.
    cache.put("accc", "PR", &fake_result(0.3)).unwrap();
    let cache = ResultCache::open(tmp.path()).unwrap();
    assert_eq!(cache.len(), 3);
    assert!(cache.get("accc").is_some());
}

/// A cache written in the earlier sixteen-file layout keeps hitting: every
/// `*.jsonl` in the directory is read, and new points go to `cache.jsonl`.
#[test]
fn shard_files_of_the_old_layout_keep_hitting() {
    let tmp = TempDir::new("old-layout");
    {
        let cache = ResultCache::open(tmp.path()).unwrap();
        cache.put("a123", "PR", &fake_result(0.1)).unwrap();
        cache.put("f456", "PR", &fake_result(0.2)).unwrap();
    }
    std::fs::rename(
        tmp.path().join("cache.jsonl"),
        tmp.path().join("shard-a.jsonl"),
    )
    .unwrap();
    std::fs::write(tmp.path().join("notes.txt"), "not a cache file\n").unwrap();

    let cache = ResultCache::open(tmp.path()).unwrap();
    assert_eq!(cache.len(), 2);
    assert_eq!(cache.get("f456").unwrap().applied_load, 0.2);
    cache.put("b789", "PR", &fake_result(0.3)).unwrap();
    let appended = std::fs::read_to_string(tmp.path().join("cache.jsonl")).unwrap();
    assert_eq!(
        appended.lines().count(),
        1,
        "only the new point is appended"
    );
    assert_eq!(ResultCache::open(tmp.path()).unwrap().len(), 3);
}
