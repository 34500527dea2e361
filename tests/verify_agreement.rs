//! Static-vs-dynamic agreement: the verdicts of `mdd-verify` must be
//! consistent with what actually happens when the same configuration is
//! simulated.
//!
//! Two directions are checked:
//!
//! * **Soundness of `ProvenFree`** — randomized feasible configurations
//!   the verifier certifies deadlock-free never trip the CWG oracle in a
//!   bounded simulation, at any load or seed.
//! * **The `Unsafe` verdict is not a false alarm** — an SA configuration
//!   deliberately crippled to one fewer VC than the scheme requires is
//!   classified `Unsafe`, and the degraded network it describes
//!   ([`Simulator::with_degraded_vcs`]) genuinely reaches an
//!   oracle-confirmed deadlock under load.
//!
//! A third test pins the oracle itself: the simulator's periodic check,
//! which refills one graph in place, counts the same knots as the public
//! `build_waitfor_graph` at the same cycles.

use mdd_sim::prelude::*;
use proptest::prelude::*;

const SA: Scheme = Scheme::StrictAvoidance {
    shared_adaptive: false,
};

/// A small-torus config with the CWG oracle armed.
fn oracle_config(scheme: Scheme, pattern: PatternSpec, vcs: u8, load: f64, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::paper_default(scheme, pattern, vcs, load);
    cfg.radix = vec![4, 4];
    cfg.seed = seed;
    cfg.warmup = 0;
    cfg.measure = 0;
    cfg.cwg_interval = Some(100);
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Configurations the static verifier proves free never report a
    /// deadlock episode in bounded simulation. Pattern 5 is the MSI
    /// multicast pattern, whose invalidation fan-out exercises the
    /// oracle's multicast edges (partial output room, the final join).
    #[test]
    fn proven_free_never_deadlocks(
        scheme in prop_oneof![
            Just(SA),
            Just(Scheme::StrictAvoidance { shared_adaptive: true }),
            Just(Scheme::DeflectiveRecovery),
        ],
        pat in 0usize..6,
        vcs in prop_oneof![Just(4u8), Just(8)],
        load in 0.1f64..0.7,
        seed in 0u64..1000,
    ) {
        let pattern = if pat == 5 {
            CoherenceEngine::msi_pattern()
        } else {
            PatternSpec::all_paper_patterns().swap_remove(pat)
        };
        let cfg = oracle_config(scheme, pattern, vcs, load, seed);
        let Ok(verdict) = verify_config(&cfg) else {
            return Ok(()); // infeasible VC budget: nothing to agree on
        };
        if !verdict.is_proven_free() {
            return Ok(());
        }
        let mut sim = Simulator::new(cfg).expect("verifiable config must be feasible");
        sim.run_cycles(4_000);
        let (checks, deadlocked) = sim.cwg_stats();
        prop_assert!(checks > 0, "oracle never ran");
        prop_assert_eq!(
            deadlocked, 0,
            "ProvenFree config reached an oracle-confirmed deadlock"
        );
    }
}

/// Crippling SA below its feasible VC budget (PAT271 needs 8 partitions)
/// is classified `Unsafe`, with a printable cycle witness.
#[test]
fn crippled_sa_is_unsafe() {
    let cfg = oracle_config(SA, PatternSpec::pat271(), 7, 0.5, 1);
    assert!(
        verify_config(&cfg).is_err(),
        "7 VCs must be infeasible for SA on PAT271"
    );
    let verdict = verify_config_degraded(&cfg);
    assert!(verdict.is_unsafe(), "expected Unsafe, got {verdict}");
    let witness = verdict.witness().expect("Unsafe carries a witness");
    assert!(
        witness.vertices.len() >= 2 && !witness.rendered.is_empty(),
        "witness must name a non-trivial cycle"
    );
}

/// The degraded network that crippled-SA verdict describes genuinely
/// deadlocks: the CWG oracle confirms a knot during bounded simulation.
/// Whether a knot closes within the window is seed-dependent, so a few
/// seeds are tried; most deadlock within the first few thousand cycles.
#[test]
fn crippled_sa_deadlocks_dynamically() {
    let deadlocked = (0..4).any(|seed| {
        let mut cfg = oracle_config(SA, PatternSpec::pat271(), 7, 0.6, seed);
        cfg.cwg_interval = Some(50);
        let mut sim = Simulator::with_degraded_vcs(cfg);
        for _ in 0..10 {
            sim.run_cycles(2_000);
            if sim.cwg_stats().1 > 0 {
                return true;
            }
        }
        false
    });
    assert!(
        deadlocked,
        "statically-Unsafe degraded SA config never deadlocked in 20k cycles x 4 seeds"
    );
}

/// The simulator's periodic oracle refills one graph in its own buffers;
/// the public `build_waitfor_graph` builds a fresh one. Stepped past
/// saturation (8×8 PR/PAT271 at 0.55, where knots form and recovery
/// breaks them), both must find a knot at exactly the same checks.
#[test]
fn periodic_oracle_matches_fresh_graphs() {
    let mut cfg =
        SimConfig::paper_default(Scheme::ProgressiveRecovery, PatternSpec::pat271(), 4, 0.55);
    cfg.warmup = 0;
    cfg.measure = 0;
    cfg.cwg_interval = Some(50);
    let mut sim = Simulator::new(cfg).unwrap();
    let (mut checks, mut deadlocked) = (0u64, 0u64);
    for _ in 0..6_000 {
        sim.step();
        if sim.cycle().is_multiple_of(50) {
            checks += 1;
            deadlocked += u64::from(build_waitfor_graph(&sim).has_deadlock());
        }
    }
    assert_eq!(sim.cwg_stats(), (checks, deadlocked));
    assert!(deadlocked > 0, "no knot in {checks} checks");
}
