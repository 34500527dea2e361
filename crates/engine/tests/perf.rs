//! Wall-clock scaling of the engine's worker pool: a 12-point sweep must
//! run faster on more workers while producing a bit-identical report.
//!
//! - On a host with 4 or more cores, 4 workers must finish in at most
//!   half the 1-worker wall time.
//! - On a 2- or 3-core host, 3 alternating pairs of 1-worker and
//!   2-worker runs must show a median speedup of at least 1.3x. On a
//!   2-core Xeon host the median read 1.48–1.75x over seven runs.
//! - A 1-core host cannot show parallel speedup, so the test skips.
//!
//! Ignored by default (it is a timing assertion, meaningless under
//! `cargo test`'s debug build contention); ci.sh runs it explicitly in
//! release:
//!
//! ```text
//! cargo test -p mdd-engine --release --test perf -- --ignored
//! ```

use mdd_engine::{Engine, Job};
use std::time::Instant;

const LOADS: [f64; 12] = [
    0.02, 0.04, 0.06, 0.08, 0.10, 0.12, 0.14, 0.16, 0.18, 0.20, 0.22, 0.24,
];

/// Median 1-worker / 2-worker wall-time ratio required on 2–3 cores.
const MIN_TWO_WORKER_SPEEDUP: f64 = 1.3;

/// A config heavy enough (8x8 torus, longer windows) that per-point
/// simulation dominates scheduling overhead in release builds.
fn perf_cfg() -> mdd_core::SimConfig {
    let mut cfg = mdd_core::SimConfig::paper_default(
        mdd_core::Scheme::ProgressiveRecovery,
        mdd_core::PatternSpec::pat271(),
        4,
        0.0,
    );
    cfg.warmup = 1_000;
    cfg.measure = 4_000;
    cfg.validate()
        .expect("PR on an 8x8 torus is always feasible");
    cfg
}

fn timed_sweep(workers: usize) -> (f64, Vec<u64>) {
    let engine = Engine::builder().jobs(workers).build().expect("engine");
    let jobs = Job::points(&perf_cfg(), &LOADS, "PR");
    let start = Instant::now();
    let report = engine.submit(jobs).wait();
    let secs = start.elapsed().as_secs_f64();
    assert!(report.complete());
    let bits = report
        .curve("PR")
        .points
        .iter()
        .flat_map(|p| {
            [
                p.applied_load.to_bits(),
                p.throughput.to_bits(),
                p.latency.to_bits(),
            ]
        })
        .collect();
    (secs, bits)
}

#[test]
#[ignore = "wall-clock assertion; run in release on a multi-core host (see ci.sh)"]
fn more_workers_cut_the_sweep_wall_time() {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if cores < 2 {
        eprintln!("perf: skipping, host has {cores} core; speedup needs at least 2");
        return;
    }
    // Warm once so no timed run pays first-touch costs.
    let _ = timed_sweep(2);
    if cores >= 4 {
        let (t1, bits1) = timed_sweep(1);
        let (t4, bits4) = timed_sweep(4);
        assert_eq!(
            bits1, bits4,
            "reports must be bit-identical across worker counts"
        );
        eprintln!("perf: jobs=1 {t1:.3}s, jobs=4 {t4:.3}s ({:.2}x)", t1 / t4);
        assert!(
            t4 <= t1 * 0.5,
            "12-point sweep on 4 workers took {t4:.3}s, more than half of the \
             1-worker {t1:.3}s"
        );
        return;
    }
    let mut ratios: Vec<f64> = (0..3)
        .map(|pair| {
            // Alternate which side runs first, so drift in host load does
            // not always favour the same worker count.
            let ((t1, bits1), (t2, bits2)) = if pair % 2 == 0 {
                let one = timed_sweep(1);
                (one, timed_sweep(2))
            } else {
                let two = timed_sweep(2);
                (timed_sweep(1), two)
            };
            assert_eq!(
                bits1, bits2,
                "reports must be bit-identical across worker counts"
            );
            eprintln!(
                "perf: pair {pair}: jobs=1 {t1:.3}s, jobs=2 {t2:.3}s ({:.2}x)",
                t1 / t2
            );
            t1 / t2
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let median = ratios[1];
    assert!(
        median >= MIN_TWO_WORKER_SPEEDUP,
        "12-point sweep: median 1-worker/2-worker ratio {median:.2}x over 3 pairs \
         ({ratios:.2?}), below the {MIN_TWO_WORKER_SPEEDUP}x bar"
    );
}
