//! Golden determinism test: fixed-seed 4×4 points for each scheme whose
//! full `SimResult` is snapshotted and compared bit-exactly.
//!
//! The constants below were captured from the tree *before* the
//! single-owner `MessageStore` data-plane refactor, so this test proves
//! the refactor (and any future one) is behaviour-invariant: identical
//! RNG draw order, identical round-robin decisions, identical scheme
//! actions, identical floating-point accumulation order.
//!
//! To re-capture after an *intentional* behaviour change, run
//! `GOLDEN_PRINT=1 cargo test --test golden_results -- --nocapture`
//! and paste the printed rows over the `GOLDEN` table.

use mdd_sim::prelude::*;

const SA: Scheme = Scheme::StrictAvoidance {
    shared_adaptive: false,
};

/// One pinned simulation outcome. Floating-point fields are stored as
/// `f64::to_bits` so the comparison is exact, not epsilon-based.
struct Golden {
    name: &'static str,
    throughput: u64,
    avg_latency: u64,
    p50: u64,
    p95: u64,
    p99: u64,
    messages_delivered: u64,
    transactions: u64,
    deadlocks: u64,
    router_rescues: u64,
    deflections: u64,
    rescues: u64,
    generated: u64,
    mc_utilization: u64,
    vc_util_mean: u64,
    vc_util_max: u64,
    vc_util_cv: u64,
}

fn configs() -> Vec<(&'static str, SimConfig)> {
    vec![
        (
            "sa_pat100_vc4_load30",
            SimConfig::small_test(SA, PatternSpec::pat100(), 4, 0.30),
        ),
        (
            "dr_pat271_vc4_load80",
            SimConfig::small_test(Scheme::DeflectiveRecovery, PatternSpec::pat271(), 4, 0.80),
        ),
        (
            "pr_pat271_vc4_load55",
            SimConfig::small_test(Scheme::ProgressiveRecovery, PatternSpec::pat271(), 4, 0.55),
        ),
        (
            "pr_pat271_vc4_load80",
            SimConfig::small_test(Scheme::ProgressiveRecovery, PatternSpec::pat271(), 4, 0.80),
        ),
    ]
}

/// Captured from the pre-refactor tree (see module docs).
const GOLDEN: &[Golden] = &[
    Golden {
        name: "sa_pat100_vc4_load30",
        throughput: 0x3fd3bba5e353f7cf,
        avg_latency: 0x403bfce3b19d1576,
        p50: 0x403542acbe17eee0,
        p95: 0x4053ff016f0567d5,
        p99: 0x405ab9e7778d3874,
        messages_delivered: 1646,
        transactions: 825,
        deadlocks: 0,
        router_rescues: 0,
        deflections: 0,
        rescues: 0,
        generated: 822,
        mc_utilization: 0x3fc05a1cac083127,
        vc_util_mean: 0x3fa44c2f837b4a22,
        vc_util_max: 0x3fd1205bc01a36e3,
        vc_util_cv: 0x3ff830f9fd647258,
    },
    Golden {
        name: "dr_pat271_vc4_load80",
        throughput: 0x3fe08c28f5c28f5c,
        avg_latency: 0x407f7f4805980bce,
        p50: 0x40800cc427a490bd,
        p95: 0x40989ce786312dbf,
        p99: 0x409bc4271913d121,
        messages_delivered: 3295,
        transactions: 1125,
        deadlocks: 29,
        router_rescues: 0,
        deflections: 0,
        rescues: 0,
        generated: 1752,
        mc_utilization: 0x3fd6f5c28f5c28f6,
        vc_util_mean: 0x3fb131de69ad42c3,
        vc_util_max: 0x3fd64c2f837b4a23,
        vc_util_cv: 0x3ff4a40d4085df17,
    },
    Golden {
        name: "pr_pat271_vc4_load55",
        throughput: 0x3fdf2dd2f1a9fbe7,
        avg_latency: 0x40665e2554077f8d,
        p50: 0x40647068e88c1218,
        p95: 0x407eea8c43f9a657,
        p99: 0x4087f7271db7878d,
        messages_delivered: 3141,
        transactions: 1041,
        deadlocks: 20,
        router_rescues: 0,
        deflections: 0,
        rescues: 7,
        generated: 1202,
        mc_utilization: 0x3fd4be76c8b43958,
        vc_util_mean: 0x3fb044816f0068db,
        vc_util_max: 0x3fbbda5119ce075f,
        vc_util_cv: 0x3fd19720a4023ea4,
    },
    Golden {
        name: "pr_pat271_vc4_load80",
        throughput: 0x3fdec45a1cac0831,
        avg_latency: 0x408178602ccb3814,
        p50: 0x40811fab68e2a4af,
        p95: 0x409c2a427cafabcd,
        p99: 0x40a085d7236759fa,
        messages_delivered: 3109,
        transactions: 1040,
        deadlocks: 39,
        router_rescues: 3,
        deflections: 0,
        rescues: 25,
        generated: 1752,
        mc_utilization: 0x3fd528f5c28f5c29,
        vc_util_mean: 0x3fb01a0f9096bb9b,
        vc_util_max: 0x3fbbda5119ce075f,
        vc_util_cv: 0x3fd197f181d5d8fb,
    },
];

fn row(name: &str, r: &SimResult) -> String {
    let (p50, p95, p99) = r.latency_quantiles;
    format!(
        "    Golden {{\n        name: \"{name}\",\n        \
         throughput: {:#018x},\n        avg_latency: {:#018x},\n        \
         p50: {:#018x},\n        p95: {:#018x},\n        p99: {:#018x},\n        \
         messages_delivered: {},\n        transactions: {},\n        \
         deadlocks: {},\n        router_rescues: {},\n        \
         deflections: {},\n        rescues: {},\n        generated: {},\n        \
         mc_utilization: {:#018x},\n        vc_util_mean: {:#018x},\n        \
         vc_util_max: {:#018x},\n        vc_util_cv: {:#018x},\n    }},",
        r.throughput.to_bits(),
        r.avg_latency.to_bits(),
        p50.to_bits(),
        p95.to_bits(),
        p99.to_bits(),
        r.messages_delivered,
        r.transactions,
        r.deadlocks,
        r.router_rescues,
        r.deflections,
        r.rescues,
        r.generated,
        r.mc_utilization.to_bits(),
        r.vc_util_mean.to_bits(),
        r.vc_util_max.to_bits(),
        r.vc_util_cv.to_bits(),
    )
}

#[test]
fn golden_sim_results_are_bit_identical() {
    let print_mode = std::env::var("GOLDEN_PRINT").is_ok();
    for (name, cfg) in configs() {
        let r = Simulator::new(cfg)
            .unwrap_or_else(|e| panic!("{name}: infeasible config: {e:?}"))
            .run();
        if print_mode {
            println!("{}", row(name, &r));
            continue;
        }
        let g = GOLDEN
            .iter()
            .find(|g| g.name == name)
            .unwrap_or_else(|| panic!("no golden row for {name}"));
        let (p50, p95, p99) = r.latency_quantiles;
        let checks: &[(&str, u64, u64)] = &[
            ("throughput", r.throughput.to_bits(), g.throughput),
            ("avg_latency", r.avg_latency.to_bits(), g.avg_latency),
            ("p50", p50.to_bits(), g.p50),
            ("p95", p95.to_bits(), g.p95),
            ("p99", p99.to_bits(), g.p99),
            (
                "messages_delivered",
                r.messages_delivered,
                g.messages_delivered,
            ),
            ("transactions", r.transactions, g.transactions),
            ("deadlocks", r.deadlocks, g.deadlocks),
            ("router_rescues", r.router_rescues, g.router_rescues),
            ("deflections", r.deflections, g.deflections),
            ("rescues", r.rescues, g.rescues),
            ("generated", r.generated, g.generated),
            (
                "mc_utilization",
                r.mc_utilization.to_bits(),
                g.mc_utilization,
            ),
            ("vc_util_mean", r.vc_util_mean.to_bits(), g.vc_util_mean),
            ("vc_util_max", r.vc_util_max.to_bits(), g.vc_util_max),
            ("vc_util_cv", r.vc_util_cv.to_bits(), g.vc_util_cv),
        ];
        for (field, actual, expect) in checks {
            assert_eq!(
                actual,
                expect,
                "{name}.{field}: got {actual:#018x}, golden {expect:#018x} \
                 (as f64: {} vs {})",
                f64::from_bits(*actual),
                f64::from_bits(*expect),
            );
        }
    }
}
