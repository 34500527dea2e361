//! Sharded-execution twins: a run with `shards = N` must reproduce the
//! one-shard run bit-for-bit — every `SimResult` field, float fields
//! compared via `f64::to_bits`, at every shard count.
//!
//! Sharding partitions the per-cycle network phase across scoped worker
//! threads; everything that could reorder (cross-shard flit arrivals,
//! credit returns, router wakes, packet-table mutations, endpoint
//! deliveries, schedule rewinds) is buffered and drained in a fixed
//! order at the cycle barrier. These twins are the end-to-end guardrail
//! for that protocol; debug builds additionally shadow-check every
//! sharded network cycle against the phased reference pipeline, so a
//! mid-run divergence panics at the offending cycle rather than
//! surfacing as a result diff here.

use mdd_sim::obs;
use mdd_sim::prelude::*;
use proptest::prelude::*;
use std::sync::{PoisonError, RwLock};

/// The obs counters are process-wide. The counter test below holds the
/// write side while its layer is installed and every simulation here
/// holds the read side, so no other run's shard traffic leaks into its
/// counts.
static OBS_LAYER: RwLock<()> = RwLock::new(());

const SA: Scheme = Scheme::StrictAvoidance {
    shared_adaptive: false,
};

/// Every measured field of a [`SimResult`], floats as raw bits so the
/// comparison is exact (`obs` is `None` here — no layer installed).
fn fingerprint(r: &SimResult) -> [u64; 19] {
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

fn run_at(mut cfg: SimConfig, shards: u32) -> SimResult {
    let _layer = OBS_LAYER.read().unwrap_or_else(PoisonError::into_inner);
    cfg.shards = shards;
    Simulator::new(cfg).expect("feasible configuration").run()
}

/// Run at shards 1, 2 and 4 and demand bit-identical results.
fn assert_shard_twins(cfg: SimConfig, what: &str) {
    let reference = run_at(cfg.clone(), 1);
    for shards in [2u32, 4] {
        let twin = run_at(cfg.clone(), shards);
        assert_eq!(
            fingerprint(&reference),
            fingerprint(&twin),
            "{what}: shards=1 vs shards={shards} diverged"
        );
    }
}

/// The three schemes at their feasible paper VC budgets.
fn scheme_case(idx: usize) -> (Scheme, PatternSpec, u8) {
    match idx {
        0 => (SA, PatternSpec::pat100(), 4),
        1 => (Scheme::DeflectiveRecovery, PatternSpec::pat271(), 4),
        _ => (Scheme::ProgressiveRecovery, PatternSpec::pat271(), 4),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// 8×8 torus twins across schemes × loads × seeds.
    #[test]
    fn shard_twins_8x8(
        scheme_idx in 0usize..3,
        load in prop_oneof![Just(0.10), Just(0.30), Just(0.60)],
        seed in 0u64..10_000,
    ) {
        let (scheme, pattern, vcs) = scheme_case(scheme_idx);
        let mut cfg = SimConfig::paper_default(scheme, pattern, vcs, load);
        cfg.warmup = 200;
        cfg.measure = 800;
        cfg.service_time = 10;
        cfg.seed = seed;
        assert_shard_twins(cfg, "8x8");
    }

    /// 16×16 twins: shard boundaries now fall inside the torus (the wake
    /// set spans four words), so cross-shard mailbox traffic is dense.
    #[test]
    fn shard_twins_16x16(
        scheme_idx in 0usize..3,
        seed in 0u64..10_000,
    ) {
        let (scheme, pattern, vcs) = scheme_case(scheme_idx);
        let mut cfg = SimConfig::paper_default(scheme, pattern, vcs, 0.25);
        cfg.radix = vec![16, 16];
        cfg.warmup = 100;
        cfg.measure = 500;
        cfg.service_time = 10;
        cfg.seed = seed;
        assert_shard_twins(cfg, "16x16");
    }
}

/// Shard counts that do not divide the topology evenly (empty trailing
/// shards, a mid-word final range) are valid degenerate plans.
#[test]
fn awkward_shard_counts_are_bit_identical() {
    let mut cfg =
        SimConfig::small_test(Scheme::ProgressiveRecovery, PatternSpec::pat271(), 4, 0.40);
    cfg.seed = 99;
    let reference = run_at(cfg.clone(), 1);
    // 4×4 torus = 16 routers = a fraction of one wake-set word: every
    // count beyond 1 leaves most shards empty.
    for shards in [2u32, 3, 5, 16, 33] {
        let twin = run_at(cfg.clone(), shards);
        assert_eq!(
            fingerprint(&reference),
            fingerprint(&twin),
            "4x4 at shards={shards} diverged"
        );
    }
}

/// 64×64 progressive-recovery episode: a saturating hotspot near the
/// token's starting stop drives both endpoint detections and a
/// router-capture recovery episode on the biggest ladder rung, and the
/// recovery capture schedule (detections, router captures, endpoint
/// rescues) must match the one-shard run exactly — episodes run on the
/// coordinating thread between sharded network cycles, so their NIC
/// mutations, lane transfers and wake-alls interleave identically.
#[test]
fn shard_twin_64x64_pr_episode() {
    let mut cfg =
        SimConfig::paper_default(Scheme::ProgressiveRecovery, PatternSpec::pat271(), 4, 0.85);
    cfg.radix = vec![64, 64];
    // The token tours 8192 stops, so only captures near its origin can
    // happen inside a short window — park the hotspot there.
    cfg.dest = DestPattern::Hotspot {
        node: 8,
        permille: 300,
    };
    cfg.queue_capacity = 4;
    cfg.service_time = 10;
    cfg.warmup = 0;
    cfg.measure = 400;
    cfg.sparse_arrivals = true;
    cfg.seed = 0x64;
    let reference = run_at(cfg.clone(), 1);
    assert!(
        reference.deadlocks > 0,
        "hotspot case must trigger endpoint detections (got a quiet run; retune the config)"
    );
    assert!(
        reference.router_rescues > 0,
        "hotspot case must run a router-capture episode (got a quiet run; retune the config)"
    );
    for shards in [2u32, 4] {
        let twin = run_at(cfg.clone(), shards);
        assert_eq!(
            fingerprint(&reference),
            fingerprint(&twin),
            "64x64 PR episode at shards={shards} diverged"
        );
        assert_eq!(
            (
                reference.deadlocks,
                reference.rescues,
                reference.router_rescues
            ),
            (twin.deadlocks, twin.rescues, twin.router_rescues),
            "recovery capture schedule diverged at shards={shards}"
        );
    }
}

/// The twins are not vacuous. On 16×16 a one-shard run keeps every
/// credit, arrival and wake inside its shard — no mailbox traffic and no
/// barrier joins — while two shards exchange effects across the cut.
#[test]
fn shard_counters_separate_one_and_two_shards() {
    let _layer = OBS_LAYER.write().unwrap_or_else(PoisonError::into_inner);
    let mut cfg =
        SimConfig::paper_default(Scheme::ProgressiveRecovery, PatternSpec::pat271(), 4, 0.25);
    cfg.radix = vec![16, 16];
    cfg.warmup = 100;
    cfg.measure = 300;
    cfg.service_time = 10;
    let shard_counters = |shards: u32| {
        let mut cfg = cfg.clone();
        cfg.shards = shards;
        obs::install(16);
        Simulator::new(cfg).expect("feasible configuration").run();
        let report = obs::uninstall().expect("layer was installed");
        (
            report.get(CounterId::ShardMailboxFlits),
            report.get(CounterId::ShardBarrierWaits),
        )
    };
    assert_eq!(
        shard_counters(1),
        (0, 0),
        "one shard must see no mailbox flits and no barrier waits"
    );
    let (mailbox, waits) = shard_counters(2);
    assert!(
        mailbox > 0,
        "two shards on 16x16 must exchange mailbox flits"
    );
    assert!(waits > 0, "two shards must join at the cycle barrier");
}
