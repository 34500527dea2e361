//! Tests for the MSI directory and coherence engine.

use crate::*;
use mdd_protocol::IdAlloc;
use mdd_traffic::AppModel;

#[test]
fn msi_transition_table() {
    let mut d = Directory::new();
    // I --read--> S, direct.
    assert_eq!(d.access(1, 100, false), (TxnClass::DirectReply, None));
    assert_eq!(d.block(100).state, LineState::Shared);
    // S --read by another--> S, direct; both sharers recorded.
    assert_eq!(d.access(2, 100, false), (TxnClass::DirectReply, None));
    assert_eq!(d.block(100).sharer_count(), 2);
    // S --write by sharer with other sharers--> invalidate one; M.
    let (class, party) = d.access(1, 100, true);
    assert_eq!(class, TxnClass::Invalidation);
    assert_eq!(party, Some(2));
    assert_eq!(d.block(100).state, LineState::Modified);
    assert_eq!(d.block(100).owner, 1);
    // M --read by another--> forwarding; downgrades to S {owner, reader}.
    let (class, party) = d.access(3, 100, false);
    assert_eq!(class, TxnClass::Forwarding);
    assert_eq!(party, Some(1));
    assert_eq!(d.block(100).state, LineState::Shared);
    assert_eq!(d.block(100).sharer_count(), 2);
    // S --write with no other sharer--> upgrade: direct.
    let mut d2 = Directory::new();
    d2.access(4, 7, false);
    assert_eq!(d2.access(4, 7, true), (TxnClass::DirectReply, None));
    assert_eq!(d2.block(7).state, LineState::Modified);
    // I --write--> M, direct.
    let mut d3 = Directory::new();
    assert_eq!(d3.access(0, 9, true), (TxnClass::DirectReply, None));
    assert_eq!(d3.block(9).state, LineState::Modified);
    // M --write by another--> forwarding (ownership transfer).
    let (class, party) = d3.access(1, 9, true);
    assert_eq!(class, TxnClass::Forwarding);
    assert_eq!(party, Some(0));
    assert_eq!(d3.block(9).owner, 1);
}

#[test]
fn owner_hit_is_direct_and_silent_statewise() {
    let mut d = Directory::new();
    d.access(5, 1, true);
    let before = d.block(1).clone();
    assert_eq!(d.access(5, 1, true), (TxnClass::DirectReply, None));
    let after = d.block(1);
    assert_eq!(before.state, after.state);
    assert_eq!(before.owner, after.owner);
}

#[test]
fn fractions_sum_to_one() {
    let mut d = Directory::new();
    for i in 0..100u64 {
        d.access((i % 8) as u32, i % 13, i % 3 == 0);
    }
    let s = d.fraction(TxnClass::DirectReply)
        + d.fraction(TxnClass::Invalidation)
        + d.fraction(TxnClass::Forwarding);
    assert!((s - 1.0).abs() < 1e-9);
    assert_eq!(d.total(), 100);
    assert!(d.lines_touched() <= 13);
}

#[test]
fn engine_emits_well_formed_requests() {
    let mut eng = CoherenceEngine::new(16, 0.05, 3);
    let mut ids = IdAlloc::new();
    let app = AppModel::water();
    let mut rng = app.rng(3);
    let mut txns = 0;
    for c in 0..5000u64 {
        let p = (c % 16) as u32;
        let (addr, write) = app.sample_access(p, 16, &mut rng);
        if let Some(acc) = eng.access(p, addr, write, c, &mut ids) {
            txns += 1;
            let m = &acc.request;
            assert_eq!(m.src.0, p);
            assert_eq!(m.dst.0, eng.home_of(addr));
            assert_ne!(m.src, m.dst, "local-home accesses are filtered out");
            assert_eq!(m.chain_pos, 0);
            let shape = eng.pattern().shape(m.shape).clone();
            match acc.class {
                TxnClass::DirectReply => assert_eq!(shape.len(), 2),
                _ => assert_eq!(shape.len(), 4),
            }
        }
    }
    assert!(txns > 100, "sharing-heavy app must generate traffic");
    assert!(eng.silent_hits > 0, "caches must hit sometimes");
}

/// Qualitative Table 1 reproduction: private-heavy apps are dominated by
/// direct replies; Water is dominated by invalidations + forwardings.
#[test]
fn table1_qualitative_shape() {
    let mut ids = IdAlloc::new();
    let mut rows = Vec::new();
    for app in AppModel::all() {
        let mut eng = CoherenceEngine::new(16, 0.05, 17);
        let mut rng = app.rng(17);
        for c in 0..60_000u64 {
            let p = (c % 16) as u32;
            let (addr, write) = app.sample_access(p, 16, &mut rng);
            let _ = eng.access(p, addr, write, c, &mut ids);
        }
        rows.push((app.name, eng.table1_row()));
    }
    for (name, (direct, inval, fwd)) in &rows {
        let s = direct + inval + fwd;
        assert!((s - 1.0).abs() < 1e-9, "{name}: fractions sum to {s}");
        match *name {
            "FFT" | "LU" | "Radix" => {
                assert!(
                    *direct > 0.85,
                    "{name}: expected direct-reply dominated, got {direct:.3}"
                );
            }
            "Water" => {
                assert!(
                    *direct < 0.45,
                    "Water: expected sharing-dominated, direct = {direct:.3}"
                );
                assert!(inval + fwd > 0.55);
            }
            _ => unreachable!(),
        }
    }
}

#[test]
fn msi_pattern_structure() {
    let pat = CoherenceEngine::msi_pattern();
    assert_eq!(pat.num_shapes(), 3);
    assert_eq!(pat.protocol().chain_length(), 4);
    assert_eq!(pat.shape(mdd_protocol::ShapeId(0)).len(), 2);
    assert_eq!(pat.shape(mdd_protocol::ShapeId(1)).len(), 4);
    assert_eq!(pat.shape(mdd_protocol::ShapeId(2)).len(), 4);
}

#[test]
fn eviction_model_regenerates_traffic() {
    // With eviction, repeated private writes keep producing transactions.
    let mut hot = CoherenceEngine::new(4, 0.5, 1);
    let mut cold = CoherenceEngine::new(4, 0.0, 1);
    let mut ids = IdAlloc::new();
    let mut hot_txns = 0;
    let mut cold_txns = 0;
    for c in 0..2000u64 {
        if hot.access(1, 6, true, c, &mut ids).is_some() {
            hot_txns += 1;
        }
        if cold.access(1, 6, true, c, &mut ids).is_some() {
            cold_txns += 1;
        }
    }
    assert!(
        hot_txns > 100,
        "evictions must regenerate misses: {hot_txns}"
    );
    assert_eq!(
        cold_txns, 1,
        "no eviction: single cold miss then silent hits"
    );
}
