//! Tests for workload generation.

use crate::*;
use mdd_protocol::{IdAlloc, MessageStore, PatternSpec};
use mdd_topology::NicId;
use std::sync::Arc;

#[test]
fn generation_rate_matches_load() {
    let pat = Arc::new(PatternSpec::pat100());
    // PAT100: 24 flits per transaction. Load 0.24 flits/node/cycle =>
    // 0.01 transactions/node/cycle.
    let mut tr = SyntheticTraffic::new(pat, 64, 0.24, DestPattern::Random, 42);
    assert!((tr.txn_rate() - 0.01).abs() < 1e-12);
    let mut ids = IdAlloc::new();
    let mut store = MessageStore::new();
    let cycles = 20_000u64;
    for c in 0..cycles {
        tr.tick(c, &mut ids, &mut store);
    }
    let expected = 0.01 * 64.0 * cycles as f64;
    let got = tr.generated as f64;
    assert!(
        (got - expected).abs() < expected * 0.05,
        "generated {got}, expected ≈{expected}"
    );
}

#[test]
fn requests_are_well_formed() {
    let pat = Arc::new(PatternSpec::pat271());
    let mut tr = SyntheticTraffic::new(pat.clone(), 16, 0.2, DestPattern::Random, 7);
    let mut ids = IdAlloc::new();
    for i in 0..500 {
        let m = tr.make_request(NicId(i % 16), 0, &mut ids);
        assert_ne!(m.dst, m.src, "never self-addressed");
        assert_eq!(m.requester, m.src);
        assert_eq!(m.home, m.dst);
        assert_eq!(m.chain_pos, 0);
        let shape = pat.shape(m.shape);
        assert_eq!(shape.mtype(0), m.mtype);
        if shape.uses_owner() {
            assert_ne!(m.owner, m.src);
            assert_ne!(m.owner, m.home);
        }
        assert_eq!(m.length_flits, pat.protocol().length(m.mtype));
    }
}

#[test]
fn pending_queue_fifo() {
    let pat = Arc::new(PatternSpec::pat100());
    let mut tr = SyntheticTraffic::new(pat, 4, 10.0, DestPattern::Random, 1);
    let mut ids = IdAlloc::new();
    let mut store = MessageStore::new();
    for c in 0..10 {
        tr.tick(c, &mut ids, &mut store);
    }
    assert!(tr.backlog() > 0, "rate 10 flits/cycle floods the queues");
    let first = tr.pending_head(NicId(0)).unwrap();
    let popped = tr.pop_pending(NicId(0)).unwrap();
    assert_eq!(popped, first);
    assert_eq!(store.get(popped).src, NicId(0));
}

#[test]
fn dest_patterns_never_self_address() {
    let pat = Arc::new(PatternSpec::pat100());
    let mut ids = IdAlloc::new();
    for dest in [
        DestPattern::Random,
        DestPattern::Neighbor,
        DestPattern::Hotspot {
            node: 3,
            permille: 300,
        },
    ] {
        let mut tr = SyntheticTraffic::new(pat.clone(), 16, 0.2, dest, 11);
        for i in 0..200 {
            let m = tr.make_request(NicId(i % 16), 0, &mut ids);
            assert_ne!(m.dst, m.src, "{dest:?} self-addressed");
            assert!(m.dst.0 < 16);
        }
    }
}

#[test]
fn hotspot_concentrates_traffic() {
    let pat = Arc::new(PatternSpec::pat100());
    let mut tr = SyntheticTraffic::new(
        pat,
        16,
        0.2,
        DestPattern::Hotspot {
            node: 5,
            permille: 500,
        },
        13,
    );
    let mut ids = IdAlloc::new();
    let mut hits = 0;
    let n = 2000;
    for i in 0..n {
        let m = tr.make_request(NicId(i % 16), 0, &mut ids);
        if m.dst == NicId(5) {
            hits += 1;
        }
    }
    let frac = hits as f64 / n as f64;
    assert!(frac > 0.4, "hotspot fraction {frac} too low");
}

#[test]
fn app_models_match_published_characteristics() {
    for app in AppModel::all() {
        let total: f64 = app.phases.iter().map(|p| p.time_fraction).sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "{}: phases must sum to 1",
            app.name
        );
        assert!(
            app.avg_load() < 0.35,
            "{}: all apps stay below saturation",
            app.name
        );
    }
    // FFT/LU/Water stay under 5% of capacity for >= 92% of time (Fig. 6).
    for app in [AppModel::fft(), AppModel::lu(), AppModel::water()] {
        let low_time: f64 = app
            .phases
            .iter()
            .filter(|p| p.load_fraction < 0.05)
            .map(|p| p.time_fraction)
            .sum();
        assert!(low_time >= 0.92, "{}: low-load time {low_time}", app.name);
    }
    // Radix is the only one approaching saturation loads.
    assert!(AppModel::radix().avg_load() > 0.15);
    assert!(AppModel::radix()
        .phases
        .iter()
        .any(|p| p.load_fraction >= 0.30));
    // Water is sharing-heavy; the others are private-heavy.
    assert!(AppModel::water().p_private < 0.2);
    assert!(AppModel::fft().p_private > 0.9);
}

#[test]
fn app_load_schedule_lookup() {
    let app = AppModel::radix();
    assert!((app.load_at(0.0) - 0.045).abs() < 1e-9);
    assert!((app.load_at(0.5) - 0.27).abs() < 1e-9);
    assert!((app.load_at(0.9) - 0.30).abs() < 1e-9);
    assert!((app.load_at(0.9999) - 0.30).abs() < 1e-9);
}

#[test]
fn app_access_streams_are_deterministic_and_partitioned() {
    let app = AppModel::fft();
    let mut r1 = app.rng(9);
    let mut r2 = app.rng(9);
    for _ in 0..100 {
        assert_eq!(
            app.sample_access(3, 16, &mut r1),
            app.sample_access(3, 16, &mut r2)
        );
    }
    // Private regions are disjoint across processors.
    let mut rng = app.rng(1);
    for _ in 0..500 {
        let (addr, _) = app.sample_access(2, 16, &mut rng);
        if addr >= app.shared_lines {
            let region = (addr - app.shared_lines) / app.private_lines;
            assert_eq!(region, 2, "private access must stay in own region");
        }
    }
}
