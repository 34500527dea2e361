//! Activity-driven scheduling: the wake-set and NIC idle-skip must be
//! pure optimizations — bit-identical results to the dense every-cycle
//! schedule, with the skipping observable only through the dedicated
//! counters.
//!
//! The comparison with the dense schedule runs inside every
//! `Network::step` of a debug build: the shadow check re-runs the phased
//! reference pipeline over the woken routers and diffs their state, and
//! each skipped router is asserted to be in the exact state on which all
//! four pipeline phases are no-ops. Every simulation driven here — the
//! randomized ones included — is therefore a per-cycle proof-check of the
//! scheduler; `cargo test` runs them in debug.
//!
//! The PAT271 cases below stress the burst path specifically: multi-flit
//! data messages stream head→tail through a claimed out-VC, straddle the
//! credit boundary when the downstream buffer fills mid-packet, and (in
//! the progressive-recovery cases) get whole flit runs ripped out
//! mid-burst by recovery-lane extraction.

use mdd_sim::obs;
use mdd_sim::prelude::*;
use proptest::prelude::*;

const SA: Scheme = Scheme::StrictAvoidance {
    shared_adaptive: false,
};

fn cfg_with(scheme: Scheme, load: f64, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::small_test(scheme, PatternSpec::pat100(), 4, load);
    cfg.seed = seed;
    cfg
}

/// PAT271 config: data messages span several flits, so link
/// traversal runs as wormhole bursts instead of single-flit moves.
fn cfg_271(scheme: Scheme, load: f64, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::small_test(scheme, PatternSpec::pat271(), 4, load);
    cfg.seed = seed;
    cfg
}

/// Run `cfg` for `cycles` cycles under the activity scheduler (the
/// debug shadow check compares each of them against the dense
/// reference). Returns the number of recovery router captures (0 for
/// schemes without PR recovery) so burst cases can assert extraction
/// actually fired.
fn run_scheduled(mut cfg: SimConfig, cycles: u64, stop_generation: bool) -> u64 {
    cfg.warmup = 0;
    cfg.measure = 0;
    let mut sim = Simulator::new(cfg).expect("feasible config");
    if stop_generation {
        sim.set_generation(false);
    }
    sim.run_cycles(cycles);
    assert_eq!(sim.cycle(), cycles, "the clock covers every cycle");
    if stop_generation {
        assert!(sim.is_quiescent(), "nothing was generated, nothing is left");
    }
    sim.recovery().map_or(0, |r| r.router_captures)
}

/// The obs layer is process-global, so all counter-reading checks share
/// one `#[test]` (concurrent tests in this binary could only *increase*
/// the deltas below, never hide them — every assertion is of the form
/// "delta is positive / at least X").
#[test]
fn router_and_nic_skip_counters() {
    obs::install(1 << 16);

    // Zero applied load: the clock covers the full horizon one step at a
    // time, and draining afterwards is a no-op.
    let mut cfg = cfg_with(SA, 0.0, 11);
    cfg.warmup = 100;
    cfg.measure = 5_000;
    let mut sim = Simulator::new(cfg).expect("feasible config");
    let r = sim.run();
    assert_eq!(sim.cycle(), 5_100, "horizon must be covered in full");
    assert_eq!(r.generated, 0);
    assert!(sim.drain(10), "an idle system drains immediately");
    assert!(sim.is_quiescent());

    // Low load: most routers and NICs sit out most cycles.
    let before = ObsReport::capture();
    let r = Simulator::new(cfg_with(SA, 0.05, 12))
        .expect("feasible config")
        .run();
    let after = ObsReport::capture();
    assert!(r.messages_delivered > 0, "traffic must actually flow");
    let router_skips =
        after.get(CounterId::RouterTicksSkipped) - before.get(CounterId::RouterTicksSkipped);
    let nic_skips = after.get(CounterId::NicTicksSkipped) - before.get(CounterId::NicTicksSkipped);
    assert!(router_skips > 0, "low load must skip router ticks");
    assert!(nic_skips > 0, "low load must skip NIC ticks");
}

/// Generation off from the start leaves an idle machine for the whole
/// window; with generation on, low-load sources draw arrivals every
/// cycle while most routers and NICs sleep.
#[test]
fn idle_and_low_load_windows_are_exact() {
    run_scheduled(cfg_with(SA, 0.3, 21), 4_000, true);
    run_scheduled(cfg_with(SA, 0.1, 22), 2_000, false);
    run_scheduled(cfg_with(Scheme::DeflectiveRecovery, 0.1, 23), 2_000, false);
    run_scheduled(cfg_with(Scheme::ProgressiveRecovery, 0.1, 24), 2_000, false);
}

/// Multi-flit PAT271 bursts straddling the credit boundary: at these
/// loads downstream buffers routinely fill mid-packet, so the link stream
/// pauses inside a claimed out-VC and resumes on credit return — the path
/// the burst-transfer optimization rewrote.
#[test]
fn multi_flit_bursts_straddle_credit_boundary() {
    run_scheduled(cfg_271(Scheme::DeflectiveRecovery, 0.35, 31), 3_000, false);
    run_scheduled(cfg_271(Scheme::ProgressiveRecovery, 0.35, 32), 3_000, false);
    // Near saturation: almost every burst stalls on credits at least once.
    run_scheduled(cfg_271(Scheme::DeflectiveRecovery, 0.60, 33), 3_000, false);
}

/// Recovery-lane extraction interrupting bursts: lowered detection
/// thresholds at saturating load make PR recovery capture blocked heads
/// and pull whole flit runs out of in-flight wormholes. The debug shadow
/// check proves every extraction leaves the scheduled state identical to
/// the dense reference; the returned capture count proves the case
/// actually exercised it.
#[test]
fn extraction_interrupts_bursts() {
    let mut cfg = cfg_271(Scheme::ProgressiveRecovery, 0.65, 2);
    cfg.detect_threshold = 12;
    cfg.router_block_threshold = 40;
    let captures = run_scheduled(cfg, 4_000, false);
    assert!(
        captures > 0,
        "chosen seed/load must trigger recovery extraction mid-run"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Any feasible configuration run under the activity scheduler passes
    /// the per-cycle dense shadow check of a debug build.
    #[test]
    fn activity_schedule_is_bit_exact(
        scheme in prop_oneof![
            Just(SA),
            Just(Scheme::StrictAvoidance { shared_adaptive: true }),
            Just(Scheme::DeflectiveRecovery),
            Just(Scheme::ProgressiveRecovery),
        ],
        load in 0.02f64..0.6,
        seed in 0u64..1000,
        stop in prop_oneof![Just(false), Just(true)],
    ) {
        run_scheduled(cfg_with(scheme, load, seed), 1_500, stop);
    }

    /// The same bit-exactness property over multi-flit PAT271 traffic,
    /// where link traversal runs as bursts: random loads up to saturation
    /// cover credit-boundary straddles, and the lowered recovery
    /// thresholds let PR extraction fire mid-burst when the draw blocks.
    #[test]
    fn multi_flit_burst_schedule_is_bit_exact(
        scheme in prop_oneof![
            Just(Scheme::DeflectiveRecovery),
            Just(Scheme::ProgressiveRecovery),
        ],
        load in 0.2f64..0.7,
        seed in 0u64..1000,
    ) {
        let mut cfg = cfg_271(scheme, load, seed);
        cfg.detect_threshold = 12;
        cfg.router_block_threshold = 40;
        run_scheduled(cfg, 1_500, false);
    }
}
