//! Cross-crate property tests: randomized configurations must satisfy the
//! global invariants (liveness, conservation, determinism) regardless of
//! scheme, pattern, topology or load.

use mdd_sim::prelude::*;
use proptest::prelude::*;

const SA: Scheme = Scheme::StrictAvoidance {
    shared_adaptive: false,
};

fn arb_scheme() -> impl Strategy<Value = Scheme> {
    prop_oneof![
        Just(SA),
        Just(Scheme::StrictAvoidance {
            shared_adaptive: true
        }),
        Just(Scheme::DeflectiveRecovery),
        Just(Scheme::ProgressiveRecovery),
    ]
}

fn arb_pattern() -> impl Strategy<Value = usize> {
    0usize..5
}

fn build(scheme: Scheme, pat_idx: usize, vcs: u8, load: f64, seed: u64) -> Option<Simulator> {
    let pattern = PatternSpec::all_paper_patterns().swap_remove(pat_idx);
    let mut cfg = SimConfig::paper_default(scheme, pattern, vcs, load);
    cfg.radix = vec![4, 4];
    cfg.service_time = 10;
    cfg.seed = seed;
    cfg.warmup = 0;
    cfg.measure = 0;
    Simulator::new(cfg).ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any feasible configuration, driven at any load for a while, drains
    /// completely when the source stops — no lost messages, no unresolved
    /// deadlock, under any scheme.
    #[test]
    fn liveness_and_conservation(
        scheme in arb_scheme(),
        pat in arb_pattern(),
        vcs in prop_oneof![Just(4u8), Just(8), Just(16)],
        load in 0.05f64..0.7,
        seed in 0u64..1000,
    ) {
        let Some(mut sim) = build(scheme, pat, vcs, load, seed) else {
            return Ok(()); // infeasible combination: nothing to check
        };
        sim.set_measuring(true);
        sim.run_cycles(2_500);
        prop_assert!(sim.drain(600_000), "drain failed");
        let agg = sim.aggregate_stats();
        prop_assert_eq!(
            agg.transactions_completed,
            sim.generated(),
            "transactions lost or duplicated"
        );
    }

    /// Identical configurations are bit-for-bit deterministic.
    #[test]
    fn determinism(
        scheme in arb_scheme(),
        pat in arb_pattern(),
        load in 0.05f64..0.5,
        seed in 0u64..1000,
    ) {
        let run = |_: ()| -> Option<(u64, u64, u64)> {
            let mut sim = build(scheme, pat, 8, load, seed)?;
            sim.set_measuring(true);
            sim.run_cycles(1_500);
            let agg = sim.aggregate_stats();
            Some((
                agg.transactions_completed,
                agg.messages_consumed,
                agg.deadlocks_detected,
            ))
        };
        prop_assert_eq!(run(()), run(()));
    }

    /// Strict avoidance never reports an endpoint deadlock detection that
    /// corresponds to a real knot: the wait-for graph stays knot-free.
    #[test]
    fn sa_knot_free(
        pat in arb_pattern(),
        load in 0.2f64..0.8,
        seed in 0u64..100,
    ) {
        let Some(mut sim) = build(SA, pat, 16, load, seed) else {
            return Ok(());
        };
        for _ in 0..8 {
            sim.run_cycles(400);
            let g = build_waitfor_graph(&sim);
            prop_assert!(!g.has_deadlock(), "knot under strict avoidance");
        }
    }
}
