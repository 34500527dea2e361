//! The JSONL cache codec and the end-to-end "second run is free"
//! guarantee with the real simulator.

mod common;

use common::{fake_result, small_cfg, TempDir};
use mdd_engine::{decode_line, encode_line, Engine};

/// Encode → decode preserves every field bit-for-bit. `SimResult` has no
/// `PartialEq` (it carries an optional obs snapshot), so compare the
/// Debug rendering, which covers all fields.
#[test]
fn codec_round_trips_exactly() {
    let mut r = fake_result(0.271);
    // Awkward floats: exact binary fractions, long decimals, extremes.
    r.throughput = 0.1 + 0.2; // 0.30000000000000004
    r.avg_latency = f64::MAX / 2.0;
    r.latency_quantiles = (1e-12, 2.5, 123_456.789_012_345);
    r.mc_utilization = 0.0;
    r.vc_util_cv = 1.0 / 3.0;

    let line = encode_line("deadbeefdeadbeef", "SA+", &r);
    assert!(!line.contains('\n'), "one line per point");
    let (key, label, decoded) = decode_line(&line).expect("decodes");
    assert_eq!(key, "deadbeefdeadbeef");
    assert_eq!(label, "SA+");
    assert_eq!(format!("{r:?}"), format!("{decoded:?}"));
}

#[test]
fn codec_rejects_other_versions() {
    let line = encode_line("k", "l", &fake_result(0.1));
    let bumped = line.replacen("\"v\":1", "\"v\":999", 1);
    assert!(decode_line(&bumped).is_none());
}

/// ISSUE acceptance: a second invocation with an unchanged config
/// performs zero new simulation points, and the replayed curve is
/// identical to the simulated one.
#[test]
fn second_identical_run_simulates_nothing() {
    let tmp = TempDir::new("smoke");
    let cfg = small_cfg();
    let loads = [0.05, 0.10, 0.15];

    let engine = Engine::builder()
        .cache_dir(tmp.path())
        .build()
        .expect("open cache");
    let first = engine.submit_sweep(&cfg, &loads, "PR").wait();
    assert_eq!(first.simulated(), 3);
    assert_eq!(first.cached(), 0);
    assert!(first.complete());

    let engine = Engine::builder()
        .cache_dir(tmp.path())
        .build()
        .expect("reopen cache");
    let second = engine.submit_sweep(&cfg, &loads, "PR").wait();
    assert_eq!(second.simulated(), 0, "no new simulation points");
    assert_eq!(second.cached(), 3);
    assert!(second.outcomes.iter().all(|o| o.from_cache));

    let a = first.curve("PR");
    let b = second.curve("PR");
    assert_eq!(a.points.len(), b.points.len());
    for (p, q) in a.points.iter().zip(&b.points) {
        assert_eq!(p.applied_load, q.applied_load);
        assert_eq!(p.throughput, q.throughput);
        assert_eq!(p.latency, q.latency);
        assert_eq!(p.messages_delivered, q.messages_delivered);
    }

    // A semantically different base config misses the cache.
    let mut changed = cfg.clone();
    changed.detect_threshold += 1;
    let engine = Engine::builder()
        .cache_dir(tmp.path())
        .build()
        .expect("reopen cache");
    let third = engine.submit_sweep(&changed, &[0.05], "PR").wait();
    assert_eq!(third.cached(), 0);
    assert_eq!(third.simulated(), 1);
}

#[test]
fn uncached_engine_reports_no_cache() {
    let engine = Engine::new();
    assert!(engine.cache().is_none());
    let report = engine.submit_sweep(&small_cfg(), &[0.05], "PR").wait();
    assert_eq!(report.simulated(), 1);
    assert_eq!(report.cached(), 0);
}
