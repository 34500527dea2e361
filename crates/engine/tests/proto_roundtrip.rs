//! The daemon wire protocol: every request and event must survive an
//! encode → decode round trip, point events must carry the full result
//! bit-for-bit, and a submit spec must expand to the exact job batch a
//! local caller would build.

mod common;

use common::fake_result;
use mdd_engine::proto::{Event, Request, SweepSpec};
use mdd_engine::{Job, PointError, PointFailure, PointOutcome};

#[test]
fn requests_round_trip() {
    let spec = SweepSpec {
        label: "SA+".to_string(),
        scheme: "sa+".to_string(),
        pattern: "pat721".to_string(),
        vcs: 6,
        radix: vec![4, 4],
        bristle: 2,
        queue_org: Some("pernet".to_string()),
        warmup: 500,
        measure: 1_500,
        seed: 77,
        shards: 4,
        loads: vec![0.05, 0.1 + 0.2, 0.15],
    };
    for request in [
        Request::Submit(spec),
        Request::Status,
        Request::Cancel { job: 42 },
        Request::Shutdown,
    ] {
        let line = request.encode();
        assert!(!line.contains('\n'), "one line per request");
        assert_eq!(Request::decode(&line), Ok(request));
    }
}

#[test]
fn malformed_requests_are_errors_not_panics() {
    for bad in [
        "",
        "not json",
        "{}",
        r#"{"op":"frobnicate"}"#,
        r#"{"op":"cancel"}"#,
        r#"{"op":"submit","loads":"nope"}"#,
    ] {
        assert!(Request::decode(bad).is_err(), "{bad:?}");
    }
}

#[test]
fn point_events_carry_the_result_bit_for_bit() {
    let mut r = fake_result(0.271);
    r.throughput = 0.1 + 0.2;
    r.vc_util_cv = 1.0 / 3.0;
    let job = Job::points(&common::small_cfg(), &[0.271], "PR").remove(0);
    let outcome = PointOutcome {
        job,
        result: Ok(r.clone()),
        from_cache: true,
        wall_micros: 0,
        verdict: None,
    };
    let line = Event::point(7, &outcome).encode();
    match Event::decode(&line).expect("decodes") {
        Event::Point(p) => {
            assert_eq!(p.job, 7);
            assert_eq!(p.id, 0);
            assert!(p.cached);
            let back = p.result.expect("ok point");
            assert_eq!(format!("{r:?}"), format!("{back:?}"));
        }
        other => panic!("expected point event, got {other:?}"),
    }
}

#[test]
fn failed_and_cancelled_points_keep_their_kind() {
    let job = Job::points(&common::small_cfg(), &[0.1], "PR").remove(0);
    let failure_of = |failure: PointFailure| PointOutcome {
        result: Err(PointError {
            job: job.id,
            label: job.label.clone(),
            load: job.load(),
            failure,
        }),
        job: job.clone(),
        from_cache: false,
        wall_micros: 5,
        verdict: None,
    };
    let cases = [
        (
            failure_of(PointFailure::Panic("boom".to_string())),
            "panic: boom",
        ),
        (failure_of(PointFailure::Cancelled), "cancelled"),
    ];
    for (outcome, want) in cases {
        let line = Event::point(1, &outcome).encode();
        match Event::decode(&line).expect("decodes") {
            Event::Point(p) => assert_eq!(p.result.expect_err("failed point"), want),
            other => panic!("expected failed point, got {other:?}"),
        }
    }
}

#[test]
fn submit_spec_expands_to_the_local_job_batch() {
    let spec = SweepSpec {
        loads: vec![0.05, 0.10],
        radix: vec![4, 4],
        warmup: 100,
        measure: 300,
        seed: 0x5eed,
        ..SweepSpec::default()
    };
    let jobs = spec.jobs().expect("feasible spec");
    assert_eq!(jobs.len(), 2);
    // Same parameters built locally produce the same cache keys — the
    // daemon and a local sweep share cache entries.
    let base = mdd_core::SimConfig::builder()
        .scheme(mdd_core::Scheme::ProgressiveRecovery)
        .pattern(mdd_core::PatternSpec::pat271())
        .vcs(4)
        .radix(&[4, 4])
        .windows(100, 300)
        .seed(0x5eed)
        .build()
        .expect("feasible");
    let local = Job::points(&base, &[0.05, 0.10], "PR");
    for (remote, local) in jobs.iter().zip(&local) {
        assert_eq!(remote.key(), local.key());
        assert_eq!(remote.id, local.id);
        assert_eq!(remote.label, local.label);
    }
    // Infeasible and empty specs are typed errors, not panics.
    assert!(SweepSpec {
        loads: vec![],
        ..SweepSpec::default()
    }
    .jobs()
    .is_err());
    let bad = SweepSpec {
        scheme: "sa".to_string(),
        vcs: 1,
        loads: vec![0.05],
        ..SweepSpec::default()
    };
    assert!(bad.jobs().is_err(), "SA with one VC is infeasible");
}

#[test]
fn control_events_round_trip() {
    use mdd_engine::proto::{JobStatus, PoolStatus};
    let events = [
        Event::Accepted { job: 3, points: 12 },
        Event::Done {
            job: 3,
            points: 12,
            simulated: 7,
            cached: 3,
            failed: 1,
            cancelled: 1,
        },
        Event::Status {
            jobs: vec![JobStatus {
                job: 3,
                label: "PR".to_string(),
                state: "running".to_string(),
                done: 5,
                total: 12,
            }],
            pool: PoolStatus {
                threads: 4,
                busy: 2,
                queued: 9,
                executed: 101,
            },
            cache_points: None,
        },
        Event::Cancelled { job: 3 },
        Event::ShuttingDown,
        Event::Error {
            message: "unknown scheme \"xa\"".to_string(),
        },
    ];
    for event in events {
        let line = event.encode();
        assert!(!line.contains('\n'));
        let back = Event::decode(&line).expect("decodes");
        // Event has no PartialEq (it carries SimResults); compare the
        // canonical encoding instead.
        assert_eq!(line, back.encode());
    }
}
