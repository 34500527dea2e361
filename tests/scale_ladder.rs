//! Scale-ladder correctness: the flat router state, wake sets and
//! sparse arrival machinery must change nothing observable — pinned
//! 16×16 results, scheduled runs beyond the 4×4/8×8 sizes the older
//! suites cover, and the typed validation that guards the ladder presets.
//!
//! Debug builds run the dense shadow check inside every `Network::step`,
//! so each run here also proof-checks the activity schedule against the
//! phased reference pass, whole state arrays at a time.

use mdd_sim::prelude::*;

const SA: Scheme = Scheme::StrictAvoidance {
    shared_adaptive: false,
};

/// A 16×16 torus at paper defaults with test-sized windows.
fn cfg16(scheme: Scheme, pattern: PatternSpec, load: f64) -> SimConfig {
    let mut cfg = SimConfig::paper_default(scheme, pattern, 4, load);
    cfg.radix = vec![16, 16];
    cfg.warmup = 300;
    cfg.measure = 1_200;
    cfg.service_time = 10;
    cfg
}

// ---------------------------------------------------------------------
// Ladder presets and typed validation.
// ---------------------------------------------------------------------

/// Every ladder rung builds through the spec-string path, with every
/// router's state resident from the start.
#[test]
fn ladder_presets_build() {
    for rung in SimConfig::scale_ladder() {
        let spec = rung
            .iter()
            .map(u32::to_string)
            .collect::<Vec<_>>()
            .join("x");
        let cfg = SimConfig::builder()
            .topo(&spec)
            .unwrap_or_else(|e| panic!("{spec}: {e}"))
            .scheme(Scheme::ProgressiveRecovery)
            .pattern(PatternSpec::pat100())
            .load(0.01)
            .build()
            .unwrap_or_else(|e| panic!("{spec}: {e}"));
        assert_eq!(cfg.radix, rung);
        let sim = Simulator::new(cfg).expect("ladder rung is feasible");
        let routers: u64 = rung.iter().map(|&k| u64::from(k)).product();
        assert_eq!(sim.network().routers_materialized(), routers);
    }
}

/// The port·VC budget check: the 128-bit occupancy masks bound
/// `(2·dims + bristle) · vcs`, and crossing the bound is a typed error
/// at `build()`, not a panic in the pipeline.
#[test]
fn vc_budget_is_validated_against_mask_width() {
    // 4 dims + bristle 1 = 9 ports; 14 VCs = 126 slots still fits...
    let ok = SimConfig::builder()
        .radix(&[4, 4, 4, 4])
        .scheme(Scheme::ProgressiveRecovery)
        .vcs(14)
        .load(0.1)
        .build();
    assert!(ok.is_ok(), "126 slots must fit the u128 masks: {ok:?}");
    // ...15 VCs = 135 slots does not.
    let err = SimConfig::builder()
        .radix(&[4, 4, 4, 4])
        .scheme(Scheme::ProgressiveRecovery)
        .vcs(15)
        .load(0.1)
        .build()
        .unwrap_err();
    match err {
        ConfigError::VcBudgetTooLarge { ports, vcs, slots } => {
            assert_eq!((ports, vcs, slots), (9, 15, 135));
        }
        other => panic!("expected VcBudgetTooLarge, got {other:?}"),
    }
    // Too many dimensions is its own typed error, from both entry points.
    assert!(matches!(
        SimConfig::builder().radix(&[2; 5]).build().unwrap_err(),
        ConfigError::TooManyDimensions { dims: 5 }
    ));
    assert!(matches!(
        SimConfig::parse_topo("2x2x2x2x2").unwrap_err(),
        ConfigError::TooManyDimensions { dims: 5 }
    ));
    // Malformed specs are rejected at the string.
    for bad in ["", "8x", "x8", "8x0", "1x8", "8x8x", "axb", "8 x 8"] {
        assert!(
            matches!(
                SimConfig::parse_topo(bad),
                Err(ConfigError::InvalidTopology { .. })
            ),
            "spec {bad:?} must be rejected"
        );
    }
}

// ---------------------------------------------------------------------
// 16×16 golden pin.
// ---------------------------------------------------------------------

/// One pinned 16×16 outcome per scheme (floats as `to_bits`, compared
/// exactly). Captured from this tree at the introduction of the
/// 16×16 rung; any future refactor must reproduce these bit-for-bit.
/// To re-capture after an *intentional* behaviour change, run
/// `GOLDEN_PRINT=1 cargo test --test scale_ladder -- --nocapture`.
struct Golden16 {
    name: &'static str,
    throughput: u64,
    avg_latency: u64,
    messages_delivered: u64,
    transactions: u64,
    deadlocks: u64,
    generated: u64,
    vc_util_mean: u64,
}

fn configs16() -> Vec<(&'static str, SimConfig)> {
    vec![
        ("sa16_pat100_load20", cfg16(SA, PatternSpec::pat100(), 0.20)),
        (
            "dr16_pat271_load20",
            cfg16(Scheme::DeflectiveRecovery, PatternSpec::pat271(), 0.20),
        ),
        (
            "pr16_pat271_load20",
            cfg16(Scheme::ProgressiveRecovery, PatternSpec::pat271(), 0.20),
        ),
    ]
}

const GOLDEN16: &[Golden16] = &[
    Golden16 {
        name: "sa16_pat100_load20",
        throughput: 0x3fc18e9d0369d037,
        avg_latency: 0x405bd3f1e483d4b5,
        messages_delivered: 4210,
        transactions: 1579,
        deadlocks: 0,
        generated: 2630,
        vc_util_mean: 0x3fb12e1cac083121,
    },
    Golden16 {
        name: "dr16_pat271_load20",
        throughput: 0x3fc31fc962fc9630,
        avg_latency: 0x40528e7da4758bb0,
        messages_delivered: 5375,
        transactions: 1387,
        deadlocks: 0,
        generated: 2145,
        vc_util_mean: 0x3fb2e4ccccccccba,
    },
    Golden16 {
        name: "pr16_pat271_load20",
        throughput: 0x3fc9e6d3a06d3a07,
        avg_latency: 0x404cb1c4be6b319a,
        messages_delivered: 6152,
        transactions: 2107,
        deadlocks: 0,
        generated: 2145,
        vc_util_mean: 0x3fb8b17e4b17e4a0,
    },
];

#[test]
fn golden_16x16_results_are_bit_identical() {
    let print_mode = std::env::var("GOLDEN_PRINT").is_ok();
    for (name, cfg) in configs16() {
        let r = Simulator::new(cfg)
            .unwrap_or_else(|e| panic!("{name}: infeasible: {e:?}"))
            .run();
        if print_mode {
            println!(
                "    Golden16 {{\n        name: \"{name}\",\n        \
                 throughput: {:#018x},\n        avg_latency: {:#018x},\n        \
                 messages_delivered: {},\n        transactions: {},\n        \
                 deadlocks: {},\n        generated: {},\n        \
                 vc_util_mean: {:#018x},\n    }},",
                r.throughput.to_bits(),
                r.avg_latency.to_bits(),
                r.messages_delivered,
                r.transactions,
                r.deadlocks,
                r.generated,
                r.vc_util_mean.to_bits(),
            );
            continue;
        }
        let g = GOLDEN16
            .iter()
            .find(|g| g.name == name)
            .unwrap_or_else(|| panic!("no golden row for {name}"));
        assert_eq!(r.throughput.to_bits(), g.throughput, "{name}.throughput");
        assert_eq!(r.avg_latency.to_bits(), g.avg_latency, "{name}.avg_latency");
        assert_eq!(
            r.messages_delivered, g.messages_delivered,
            "{name}.messages"
        );
        assert_eq!(r.transactions, g.transactions, "{name}.transactions");
        assert_eq!(r.deadlocks, g.deadlocks, "{name}.deadlocks");
        assert_eq!(r.generated, g.generated, "{name}.generated");
        assert_eq!(
            r.vc_util_mean.to_bits(),
            g.vc_util_mean,
            "{name}.vc_util_mean"
        );
    }
}

// ---------------------------------------------------------------------
// Scheduled runs at ladder sizes.
// ---------------------------------------------------------------------

/// Run `cfg` for `cycles` cycles under the activity scheduler; in debug
/// builds every cycle passes the dense shadow check (same contract as
/// `tests/activity.rs`, here at 16×16 where the shard-sized state slices
/// and the wake set span several words).
fn run_scheduled(mut cfg: SimConfig, cycles: u64) -> Simulator {
    cfg.warmup = 0;
    cfg.measure = 0;
    let mut sim = Simulator::new(cfg).expect("feasible config");
    sim.run_cycles(cycles);
    assert_eq!(sim.cycle(), cycles, "the clock covers every cycle");
    sim
}

/// All three schemes pass the per-cycle shadow check at 16×16.
#[test]
fn twin_schedules_agree_at_16x16() {
    let mut cfg = cfg16(SA, PatternSpec::pat100(), 0.10);
    cfg.seed = 161;
    run_scheduled(cfg, 800);
    let mut cfg = cfg16(Scheme::DeflectiveRecovery, PatternSpec::pat271(), 0.10);
    cfg.seed = 162;
    run_scheduled(cfg, 800);
    let mut cfg = cfg16(Scheme::ProgressiveRecovery, PatternSpec::pat271(), 0.10);
    cfg.seed = 163;
    run_scheduled(cfg, 800);
}

/// The sparse geometric arrival mode passes the per-cycle shadow check
/// too (`tests/ladder_work.rs` and the `sparse64` benchmark workload run
/// exactly this mode), and its generated count matches the Bernoulli
/// expectation.
#[test]
fn sparse_arrivals_twin_agrees_and_hits_rate() {
    let mut cfg = cfg16(Scheme::ProgressiveRecovery, PatternSpec::pat100(), 0.10);
    cfg.seed = 164;
    cfg.sparse_arrivals = true;
    cfg.dest = DestPattern::Neighbor;
    let sim = run_scheduled(cfg.clone(), 2_000);
    // Rate sanity: over a long window the realized arrival count should
    // sit near cycles·nodes·rate (loose 3-sigma-ish bounds; the point is
    // the geometric resampling isn't off by a constant factor).
    let expect = 2_000.0 * 256.0 * (0.10 / cfg.pattern.flits_per_txn());
    let got = sim.generated() as f64;
    assert!(
        (got - expect).abs() < 4.0 * expect.sqrt() + 10.0,
        "sparse arrivals off-rate: got {got}, expected about {expect:.0}"
    );
}

/// 64×64 smoke: the biggest rung's flat router state has exactly the
/// closed-form footprint, keeps it under load, and every router starts
/// pristine — empty VCs, full credits, no owner, not blocked. The last
/// check pins the initial encodings of the state arrays.
#[test]
fn flat_router_state_is_resident_and_pristine_at_64x64() {
    use mdd_sim::protocol::MsgHandle;
    use mdd_sim::router::Flit;
    use std::mem::size_of;

    let mut cfg =
        SimConfig::paper_default(Scheme::ProgressiveRecovery, PatternSpec::pat100(), 4, 0.002);
    cfg.radix = vec![64, 64];
    cfg.dest = DestPattern::Neighbor;
    cfg.sparse_arrivals = true;
    cfg.warmup = 0;
    cfg.measure = 0;
    let mut sim = Simulator::new(cfg).expect("feasible config");
    let net = sim.network();
    let routers = 4_096usize;
    let (ports, vcs, depth) = (
        net.topo().ports_per_router(),
        net.vcs() as usize,
        net.buf_depth() as usize,
    );
    let slots = ports * vcs;
    // Per slot: `depth` flits, head and len (u16), route port and VC
    // (u8), blocked and stall epoch (u32), owner handle, credits (u16),
    // busy counter (u32); per port a u8 round-robin pointer; per router
    // one 48-byte header.
    let per_slot =
        depth * size_of::<Flit>() + 2 + 2 + 1 + 1 + 4 + 4 + size_of::<MsgHandle>() + 2 + 4;
    let closed_form = (routers * (slots * per_slot + ports + 48)) as u64;
    assert_eq!(net.routers_materialized(), routers as u64);
    assert_eq!(net.router_state_bytes(), closed_form);
    for node in net.topo().routers() {
        let router = net.router(node);
        assert_eq!(router.buffered_flits(), 0);
        for (port, vc, view) in router.iter_vcs() {
            assert!(
                view.is_empty() && view.front().is_none(),
                "{node} {port:?}/{vc}"
            );
            assert_eq!(view.route(), None, "{node} {port:?}/{vc} routed");
            assert_eq!(view.blocked_since(), None, "{node} {port:?}/{vc} blocked");
            let out = router.out_vc(port, vc);
            assert!(out.is_free(), "{node} {port:?}/{vc} owned");
            assert_eq!(out.credits, depth as u32, "{node} {port:?}/{vc} credits");
        }
    }
    sim.run_cycles(200);
    assert!(
        sim.network().counters().flits_injected > 0,
        "the 200 cycles must carry traffic"
    );
    assert_eq!(sim.network().router_state_bytes(), closed_form);
    assert_eq!(sim.network().routers_materialized(), routers as u64);
}
