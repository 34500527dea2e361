//! Property tests of the canonical configuration hash that keys the
//! mdd-engine result cache: stable under construction order and
//! round-trips, sensitive to every semantic field, indifferent to the
//! observability-only knob.

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

fn base() -> SimConfig {
    SimConfig::paper_default(Scheme::ProgressiveRecovery, PatternSpec::pat271(), 4, 0.25)
}

/// Every way one semantic field of [`base`] can be nudged. The cache key
/// must react to each of them — a stale hit would silently return the
/// wrong experiment.
fn mutate(cfg: &mut SimConfig, field: usize) {
    match field {
        0 => cfg.radix = vec![4, 4],
        1 => cfg.bristle = 2,
        2 => cfg.vcs = 8,
        3 => cfg.flit_buf = 4,
        4 => cfg.scheme = Scheme::DeflectiveRecovery,
        5 => cfg.queue_org = Some(QueueOrg::PerType), // PR default is Shared
        6 => cfg.pattern = std::sync::Arc::new(PatternSpec::pat721()),
        7 => cfg.queue_capacity = 32,
        8 => cfg.service_time = 80,
        9 => cfg.mshr_limit = 8,
        10 => cfg.detect_threshold = 50,
        11 => cfg.router_block_threshold = 400,
        12 => cfg.token_hop = 2,
        13 => cfg.lane_hop = 2,
        14 => cfg.dest = DestPattern::Neighbor,
        15 => cfg.seed = cfg.seed.wrapping_add(1),
        16 => cfg.warmup += 1,
        17 => cfg.measure += 1,
        18 => cfg.load += 0.01,
        19 => cfg.cwg_interval = Some(50),
        _ => unreachable!("field index out of range"),
    }
}

const NUM_FIELDS: usize = 20;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The hash is a pure function of the field values: passing a field
    /// to `paper_default` or assigning it afterwards, in any order, or
    /// cloning, cannot change the canonical form or the key.
    #[test]
    fn hash_stable_under_construction_order(
        scheme in arb_scheme(),
        vcs in prop_oneof![Just(4u8), Just(8), Just(16)],
        seed in 0u64..10_000,
        load in 0.0f64..0.9,
    ) {
        let mut a = SimConfig::paper_default(scheme, PatternSpec::pat271(), vcs, load);
        a.seed = seed;
        let mut b = base();
        b.load = load;
        b.seed = seed;
        b.vcs = vcs;
        b.scheme = scheme;
        prop_assert_eq!(a.canonical_string(), b.canonical_string());
        prop_assert_eq!(a.content_hash_hex(), b.content_hash_hex());
        let c = a.clone();
        prop_assert_eq!(a.content_hash(), c.content_hash());
    }

    /// Changing any single semantic field changes the key.
    #[test]
    fn hash_changes_on_any_semantic_field(field in 0usize..NUM_FIELDS) {
        let reference = base();
        let mut mutated = base();
        mutate(&mut mutated, field);
        // If this fires for some index, that field fell out of
        // canonical_string and stale cache hits would follow.
        prop_assert_ne!(reference.content_hash(), mutated.content_hash());
    }

    /// Distinct mutations produce distinct keys (no accidental collisions
    /// between the single-field variants).
    #[test]
    fn distinct_mutations_do_not_collide(
        a in 0usize..NUM_FIELDS,
        offset in 1usize..NUM_FIELDS,
    ) {
        let b = (a + offset) % NUM_FIELDS;
        let mut one = base();
        let mut two = base();
        mutate(&mut one, a);
        mutate(&mut two, b);
        prop_assert_ne!(one.content_hash(), two.content_hash());
    }
}

/// The key of [`base`] is pinned: every committed `config` key in
/// `results/` and every on-disk cache entry depends on the canonical
/// string staying byte for byte, its fixed `mesh=false` line included.
#[test]
fn base_key_is_pinned() {
    assert_eq!(base().content_hash_hex(), "20c5049fc83b423e");
}

/// `obs_sample_every` only controls gauge sampling of the observability
/// layer — it cannot change a measured result, so it must not invalidate
/// cached points.
#[test]
fn observability_knob_does_not_change_hash() {
    let reference = base();
    let mut mutated = base();
    mutated.obs_sample_every = reference.obs_sample_every * 8 + 1;
    assert_eq!(reference.content_hash(), mutated.content_hash());
}

/// `shards` is inert (kept only because the frozen benchmark writes it),
/// so it must not split the cache.
#[test]
fn shard_count_does_not_change_hash() {
    let reference = base();
    for shards in [2, 4, 7] {
        let mut mutated = base();
        mutated.shards = shards;
        assert_eq!(reference.content_hash(), mutated.content_hash());
        assert_eq!(reference.canonical_string(), mutated.canonical_string());
    }
}

/// An explicit queue-organization override equal to the scheme default
/// describes the same machine as no override, and hashes identically —
/// while a genuinely different override does not.
#[test]
fn queue_org_override_matching_default_hashes_identically() {
    let implicit = base(); // PR: default Shared
    let mut explicit = base();
    explicit.queue_org = Some(QueueOrg::Shared);
    assert_eq!(implicit.content_hash(), explicit.content_hash());

    let mut per_type = base();
    per_type.queue_org = Some(QueueOrg::PerType);
    assert_ne!(implicit.content_hash(), per_type.content_hash());
}

/// The per-point seed derivation is deterministic: the same base config
/// evaluated at the same load twice yields identical keys, and different
/// loads decorrelate.
#[test]
fn at_load_keys_are_reproducible() {
    let cfg = base();
    assert_eq!(
        cfg.at_load(0.30).content_hash(),
        cfg.at_load(0.30).content_hash()
    );
    assert_ne!(
        cfg.at_load(0.30).content_hash(),
        cfg.at_load(0.35).content_hash()
    );
}
