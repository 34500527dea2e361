//! Engine progress counters through the process-global mdd-obs layer.
//!
//! This test lives alone in its own integration-test binary on purpose:
//! `mdd_obs::install` is process-wide, so sharing a binary with other
//! tests running in parallel would pollute the counter deltas.

mod common;

use common::{small_cfg, TempDir};
use mdd_engine::Engine;
use mdd_obs::CounterId;

fn counters() -> (u64, u64, u64, u64, u64) {
    let snap = mdd_obs::counters_snapshot();
    (
        snap.get(CounterId::PointsStarted),
        snap.get(CounterId::PointsCompleted),
        snap.get(CounterId::PointsCached),
        snap.get(CounterId::PointsFailed),
        snap.get(CounterId::PointWallMicros),
    )
}

#[test]
fn engine_counters_distinguish_simulated_cached_and_failed() {
    mdd_obs::install(64);
    let tmp = TempDir::new("obs");
    let cfg = small_cfg();
    let loads = [0.05, 0.10, 0.15];

    // Cold run: everything is simulated.
    let before = counters();
    let engine = Engine::builder()
        .cache_dir(tmp.path())
        .build()
        .expect("open cache");
    let report = engine.submit_sweep(&cfg, &loads, "PR").wait();
    assert!(report.complete());
    let after = counters();
    assert_eq!(after.0 - before.0, 3, "points_started");
    assert_eq!(after.1 - before.1, 3, "points_completed");
    assert_eq!(after.2 - before.2, 0, "points_cached");
    assert_eq!(after.3 - before.3, 0, "points_failed");
    assert!(after.4 > before.4, "wall time accumulated");

    // Warm run over the same directory: zero new simulation points —
    // only the cached counter moves (and no wall time accrues).
    let before = counters();
    let engine = Engine::builder()
        .cache_dir(tmp.path())
        .build()
        .expect("reopen cache");
    let report = engine.submit_sweep(&cfg, &loads, "PR").wait();
    assert!(report.complete());
    let after = counters();
    assert_eq!(after.0 - before.0, 0, "points_started");
    assert_eq!(after.1 - before.1, 0, "points_completed");
    assert_eq!(after.2 - before.2, 3, "points_cached");
    assert_eq!(after.3 - before.3, 0, "points_failed");
    assert_eq!(after.4, before.4, "cache hits cost no simulation time");

    // A failing point is counted as started + failed, never completed.
    let before = counters();
    let report = engine
        .submit_with(
            mdd_engine::Job::points(&cfg, &[0.20], "PR"),
            |_job: &mdd_engine::Job| -> Result<mdd_core::SimResult, mdd_core::SchemeConfigError> {
                panic!("injected")
            },
        )
        .wait();
    assert_eq!(report.failed(), 1);
    let after = counters();
    assert_eq!(after.0 - before.0, 1, "points_started");
    assert_eq!(after.1 - before.1, 0, "points_completed");
    assert_eq!(after.3 - before.3, 1, "points_failed");
}
