//! Unit and property tests for protocol descriptions and patterns.

use crate::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn two_type_protocol_structure() {
    let p = ProtocolSpec::two_type();
    assert_eq!(p.num_types(), 2);
    assert_eq!(p.chain_length(), 2);
    assert!(p.may_generate(MsgType(0), MsgType(1)));
    assert!(p.is_terminating(MsgType(1)));
    assert!(!p.is_terminating(MsgType(0)));
    assert_eq!(p.kind(MsgType(0)), MsgKind::Request);
    assert_eq!(p.kind(MsgType(1)), MsgKind::Reply);
    assert_eq!(p.length(MsgType(0)), 4);
    assert_eq!(p.length(MsgType(1)), 20);
    assert_eq!(p.backoff_type(), None);
    assert_eq!(p.terminating_type(), MsgType(1));
}

#[test]
fn s1_generic_chain_length_is_four() {
    let p = ProtocolSpec::s1_generic();
    assert_eq!(p.chain_length(), 4, "RQ ≺ FRQ ≺ FRP ≺ RP");
    assert_eq!(p.num_types(), 5, "four chain types plus the backoff type");
    assert_eq!(
        p.num_partition_types(),
        4,
        "backoff shares the reply partition"
    );
}

#[test]
fn origin2000_matches_figure_2() {
    let p = ProtocolSpec::origin2000();
    // Absent deadlock, the maximum chain is ORQ ≺ FRQ ≺ TRP: length 3.
    assert_eq!(p.chain_length(), 3);
    assert_eq!(p.backoff_type(), Some(MsgType(1)));
    // With the backoff chain, ORQ ≺ BRP ≺ FRQ ≺ TRP is permitted.
    assert!(p.may_generate(MsgType(1), MsgType(2)));
    // Partitions: ORQ, FRQ, TRP get their own; BRP shares TRP's.
    assert_eq!(p.sa_partition(MsgType(0)), 0);
    assert_eq!(p.sa_partition(MsgType(2)), 1);
    assert_eq!(p.sa_partition(MsgType(3)), 2);
    assert_eq!(p.sa_partition(MsgType(1)), p.sa_partition(MsgType(3)));
    assert_eq!(p.num_partition_types(), 3);
}

#[test]
fn dr_network_split_by_kind() {
    let p = ProtocolSpec::s1_generic();
    assert_eq!(p.dr_network(MsgType(0)), 0, "RQ rides the request network");
    assert_eq!(p.dr_network(MsgType(1)), 0, "FRQ rides the request network");
    assert_eq!(p.dr_network(MsgType(2)), 1, "FRP rides the reply network");
    assert_eq!(p.dr_network(MsgType(3)), 1, "RP rides the reply network");
    assert_eq!(p.dr_network(MsgType(4)), 1, "BKF rides the reply network");
}

#[test]
fn sa_partition_is_dense_and_injective_for_chain_types() {
    for p in [
        ProtocolSpec::two_type(),
        ProtocolSpec::s1_generic(),
        ProtocolSpec::origin2000(),
    ] {
        let mut seen = vec![false; p.num_partition_types()];
        for t in p.msg_types() {
            if Some(t) == p.backoff_type() {
                continue;
            }
            let part = p.sa_partition(t);
            assert!(part < p.num_partition_types());
            assert!(!seen[part], "two chain types mapped to one partition");
            seen[part] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}

#[test]
fn validation_rejects_cycles() {
    let r = std::panic::catch_unwind(|| {
        ProtocolSpec::new(
            "bad",
            vec![
                MsgTypeSpec::request("A"),
                MsgTypeSpec::request("B"),
                MsgTypeSpec::reply("T").terminating(),
            ],
            &[(0, 1), (1, 0), (1, 2)],
            None,
        )
    });
    assert!(r.is_err(), "cyclic dependency must be rejected");
}

#[test]
fn validation_rejects_dead_end_chains() {
    let r = std::panic::catch_unwind(|| {
        ProtocolSpec::new(
            "bad",
            vec![
                MsgTypeSpec::request("A"),
                MsgTypeSpec::request("B"), // non-terminating, no subordinates
                MsgTypeSpec::reply("T").terminating(),
            ],
            &[(0, 2)],
            None,
        )
    });
    assert!(r.is_err(), "non-terminating dead ends must be rejected");
}

#[test]
fn validation_rejects_multiple_terminators() {
    let r = std::panic::catch_unwind(|| {
        ProtocolSpec::new(
            "bad",
            vec![
                MsgTypeSpec::request("A"),
                MsgTypeSpec::reply("T1").terminating(),
                MsgTypeSpec::reply("T2").terminating(),
            ],
            &[(0, 1), (0, 2)],
            None,
        )
    });
    assert!(r.is_err());
}

/// Table 3 check: the implied message-type distributions. The paper's
/// PAT721 row prints 47.7% for m1/m4 where the chain-length mix implies
/// 41.7% (see DESIGN.md §6); every other row matches to rounding.
#[test]
fn table3_type_distributions() {
    let tol = 0.002;
    let check = |pat: PatternSpec, want: &[(usize, f64)]| {
        let dist = pat.type_distribution();
        for &(ty, frac) in want {
            assert!(
                (dist[ty] - frac).abs() < tol,
                "{}: type m{} expected {:.3}, got {:.3}",
                pat.name(),
                ty + 1,
                frac,
                dist[ty]
            );
        }
    };
    check(PatternSpec::pat100(), &[(0, 0.5), (1, 0.5)]);
    check(
        PatternSpec::pat721(),
        &[(0, 0.417), (1, 0.125), (2, 0.042), (3, 0.417)],
    );
    check(
        PatternSpec::pat451(),
        &[(0, 0.371), (1, 0.222), (2, 0.037), (3, 0.371)],
    );
    check(
        PatternSpec::pat271(),
        &[(0, 0.345), (1, 0.276), (2, 0.034), (3, 0.345)],
    );
    // PAT280 uses the Origin protocol: m1=ORQ, m2=BRP (0%), m3=FRQ, m4=TRP.
    check(
        PatternSpec::pat280(),
        &[(0, 0.357), (1, 0.0), (2, 0.286), (3, 0.357)],
    );
}

#[test]
fn avg_chain_lengths_match_mixes() {
    assert!((PatternSpec::pat100().avg_chain_length() - 2.0).abs() < 1e-9);
    assert!((PatternSpec::pat721().avg_chain_length() - 2.4).abs() < 1e-9);
    assert!((PatternSpec::pat451().avg_chain_length() - 2.7).abs() < 1e-9);
    assert!((PatternSpec::pat271().avg_chain_length() - 2.9).abs() < 1e-9);
    assert!((PatternSpec::pat280().avg_chain_length() - 2.8).abs() < 1e-9);
}

#[test]
fn sampling_matches_weights() {
    let pat = PatternSpec::pat451();
    let mut rng = StdRng::seed_from_u64(7);
    let n = 200_000;
    let mut counts = vec![0u32; pat.num_shapes()];
    for _ in 0..n {
        counts[pat.sample_shape(&mut rng).index()] += 1;
    }
    let fracs: Vec<f64> = counts.iter().map(|&c| c as f64 / n as f64).collect();
    assert!((fracs[0] - 0.4).abs() < 0.01);
    assert!((fracs[1] - 0.5).abs() < 0.01);
    assert!((fracs[2] - 0.1).abs() < 0.01);
}

#[test]
fn flit_accounting() {
    // PAT100: 4-flit request + 20-flit reply per transaction.
    assert!((PatternSpec::pat100().flits_per_txn() - 24.0).abs() < 1e-9);
    // PAT721 chain-2: 4+20, chain-3: 4+4+20, chain-4: 4+4+20+20.
    let want = 0.7 * 24.0 + 0.2 * 28.0 + 0.1 * 48.0;
    assert!((PatternSpec::pat721().flits_per_txn() - want).abs() < 1e-9);
}

#[test]
fn message_target_resolution() {
    use mdd_topology::NicId;
    let msg = Message {
        id: MessageId(1),
        txn: TransactionId(1),
        mtype: MsgType(0),
        shape: ShapeId(0),
        chain_pos: 0,
        src: NicId(3),
        dst: NicId(5),
        requester: NicId(3),
        home: NicId(5),
        owner: NicId(9),
        length_flits: 4,
        created: 0,
        is_backoff: false,
        rescued: false,
        sharers: 0,
    };
    assert_eq!(msg.resolve_target(HopTarget::Home), NicId(5));
    assert_eq!(msg.resolve_target(HopTarget::Owner), NicId(9));
    assert_eq!(msg.resolve_target(HopTarget::Requester), NicId(3));
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Any generic chain-length mix yields a valid distribution whose
        /// type frequencies follow the Table 3 arithmetic.
        #[test]
        fn generic_mix_arithmetic(p2 in 0.01f64..1.0, p3 in 0.01f64..1.0, p4 in 0.01f64..1.0) {
            let total = p2 + p3 + p4;
            let (p2, p3, p4) = (p2 / total, p3 / total, p4 / total);
            let pat = PatternSpec::generic_mix("prop", p2, p3, p4);
            let dist = pat.type_distribution();
            let msgs = 2.0 * p2 + 3.0 * p3 + 4.0 * p4;
            prop_assert!((dist[0] - 1.0 / msgs).abs() < 1e-9);        // m1 once per txn
            prop_assert!((dist[1] - (p3 + p4) / msgs).abs() < 1e-9);  // FRQ in chains 3,4
            prop_assert!((dist[2] - p4 / msgs).abs() < 1e-9);         // FRP in chain 4
            prop_assert!((dist[3] - 1.0 / msgs).abs() < 1e-9);        // RP once per txn
            prop_assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }

        /// Chains sampled from any paper pattern respect the protocol's
        /// dependency relation hop by hop.
        #[test]
        fn sampled_shapes_respect_partial_order(seed in 0u64..1000, which in 0usize..5) {
            let pats = PatternSpec::all_paper_patterns();
            let pat = &pats[which];
            let mut rng = StdRng::seed_from_u64(seed);
            let sid = pat.sample_shape(&mut rng);
            let shape = pat.shape(sid);
            let proto = pat.protocol();
            for w in shape.chain.windows(2) {
                prop_assert!(proto.may_generate(w[0], w[1]),
                    "{} -> {} not allowed by {}",
                    proto.spec(w[0]).name, proto.spec(w[1]).name, proto.name());
            }
            // Chains end terminally.
            prop_assert!(proto.is_terminating(*shape.chain.last().unwrap()));
        }
    }
}

#[test]
fn validation_rejects_lengths_outside_sixteen_bits() {
    let build = |flits: u32| {
        ProtocolSpec::try_new(
            "len",
            vec![
                MsgTypeSpec::request("RQ"),
                MsgTypeSpec::reply("RP").terminating().with_length(flits),
            ],
            &[(0, 1)],
            None,
        )
    };
    let max = u32::from(u16::MAX);
    assert_eq!(
        build(max).expect("u16::MAX flits fit").length(MsgType(1)),
        max
    );
    for flits in [0, max + 1, u32::MAX] {
        assert_eq!(
            build(flits).unwrap_err(),
            ProtocolError::Length { name: "RP", flits },
            "{flits} flits"
        );
    }
    let r = std::panic::catch_unwind(|| build(max + 1).map(|_| ()).map_err(|e| e.to_string()));
    assert!(r
        .expect("try_new does not panic")
        .unwrap_err()
        .contains("65536 flits"));
}

#[test]
fn validation_rejects_unknown_type_indices() {
    let types = || {
        vec![
            MsgTypeSpec::request("RQ"),
            MsgTypeSpec::reply("RP").terminating(),
        ]
    };
    let err = |deps: &[(usize, usize)], backoff| {
        ProtocolSpec::try_new("idx", types(), deps, backoff).unwrap_err()
    };
    assert_eq!(err(&[(0, 1), (2, 1)], None), ProtocolError::UnknownType(2));
    // 256 would wrap to type 0 if it reached the `u8` index.
    assert_eq!(err(&[(0, 256)], None), ProtocolError::UnknownType(256));
    assert_eq!(
        err(&[(0, 1)], Some(MsgType(7))),
        ProtocolError::UnknownType(7)
    );
}

/// `cli_name` and `from_cli_name` are one table read both ways, and the
/// names are pinned: they are also the canonical-config spelling that
/// every committed result key hashes.
#[test]
fn queue_org_cli_names_round_trip() {
    let names: Vec<&str> = QueueOrg::ALL.iter().map(|o| o.cli_name()).collect();
    assert_eq!(names, ["shared", "pernet", "pertype"]);
    for o in QueueOrg::ALL {
        assert_eq!(QueueOrg::from_cli_name(o.cli_name()), Some(o));
    }
    assert_eq!(QueueOrg::from_cli_name("per-type"), None);
}
