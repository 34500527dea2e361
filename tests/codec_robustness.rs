//! Malformed input through the JSON codec yields a typed error, never a
//! panic: protocol lines, cache lines and trace lines, cut short or with
//! one byte replaced, nesting deep enough to overflow a recursive parser,
//! and arbitrary bytes (also through the `--radix` parser).

use mdd_sim::engine::proto::{Request, SweepSpec};
use mdd_sim::engine::{decode_line, encode_line};
use mdd_sim::obs::{sink, Event, Json};
use mdd_sim::prelude::{SimConfig, SimResult};
use mdd_sim::topology::MAX_DIMS;
use proptest::prelude::*;

fn cache_line() -> String {
    let r = SimResult {
        applied_load: 0.25,
        throughput: 0.1 + 0.2,
        avg_latency: 42.5,
        latency_quantiles: (30.0, 90.5, 120.25),
        messages_delivered: 1_000,
        transactions: 250,
        deadlocks: 3,
        router_rescues: 1,
        deflections: 0,
        rescues: 2,
        generated: 260,
        mc_utilization: 0.5,
        cwg_checks: 7,
        cwg_deadlocked_checks: 1,
        vc_util_mean: 0.25,
        vc_util_max: 0.75,
        vc_util_cv: 1.0 / 3.0,
        obs: None,
    };
    encode_line("0123456789abcdef", "PR", &r)
}

fn submit_line() -> String {
    let spec = SweepSpec {
        radix: vec![4, 4],
        queue_org: Some("pernet".to_string()),
        loads: vec![0.05, 0.1],
        ..SweepSpec::default()
    };
    Request::Submit(spec).encode()
}

fn trace_line() -> String {
    let ev = Event::RecoveryStart {
        cycle: 812,
        episode: 1,
        msg: 4711,
        at: 9,
        at_nic: true,
    };
    let mut buf = Vec::new();
    sink::write_trace_jsonl(&mut buf, &[ev]).unwrap();
    String::from_utf8(buf).unwrap().trim_end().to_string()
}

/// Each decoder under test, as "decode, then re-encode what decoded".
type Codec = fn(&str) -> Option<String>;

fn codecs() -> [(&'static str, String, Codec); 3] {
    [
        ("cache", cache_line(), |l| {
            decode_line(l).map(|(k, lbl, r)| encode_line(&k, &lbl, &r))
        }),
        ("submit", submit_line(), |l| {
            Request::decode(l).ok().map(|r| r.encode())
        }),
        ("trace", trace_line(), |l| {
            let events = sink::parse_trace_jsonl(l).ok()?;
            let mut buf = Vec::new();
            sink::write_trace_jsonl(&mut buf, &events).unwrap();
            String::from_utf8(buf).ok()
        }),
    ]
}

#[test]
fn every_prefix_is_rejected() {
    for (what, line, codec) in codecs() {
        assert_eq!(
            codec(&line).as_deref().map(str::trim_end),
            Some(line.as_str()),
            "{what}"
        );
        // Every proper, non-empty prefix: an empty trace file is simply
        // a trace with no events.
        for end in 1..line.len() {
            assert_eq!(
                codec(&line[..end]),
                None,
                "{what}: prefix {:?} decoded",
                &line[..end]
            );
        }
    }
}

#[test]
fn single_byte_substitutions_are_rejected_or_decode_faithfully() {
    for (what, line, codec) in codecs() {
        for at in 0..line.len() {
            for b in [b'"', b'{', b']', b'-', b'9', b'x'] {
                let mut bytes = line.clone().into_bytes();
                bytes[at] = b;
                // The sample lines are ASCII, so every substitution is
                // still UTF-8. Some stay valid (a digit becomes `9`, a
                // label letter becomes `x`); what decodes must then be a
                // value the codec writes and reads back unchanged.
                let mutated = String::from_utf8(bytes).unwrap();
                if let Some(canonical) = codec(&mutated) {
                    assert_eq!(
                        codec(&canonical),
                        Some(canonical.clone()),
                        "{what}: {mutated}"
                    );
                }
            }
        }
    }
}

#[test]
fn million_deep_nesting_is_an_error_not_a_stack_overflow() {
    // A spawned thread gets the default 2 MiB stack, like a daemon
    // connection handler or a sweep worker.
    std::thread::spawn(|| {
        let n = 1_000_000;
        let arrays = "[".repeat(n);
        let balanced = format!("{arrays}{}", "]".repeat(n));
        let objects = r#"{"a":"#.repeat(n);
        for line in [&arrays, &balanced, &objects] {
            assert_eq!(Json::parse(line), None);
            assert!(Request::decode(line).is_err());
            assert!(decode_line(line).is_none());
            assert!(sink::parse_trace_jsonl(line).is_err());
        }
    })
    .join()
    .expect("deep nesting must not crash the parser");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes (lossily decoded, as a line read off a socket or a
    /// file would be) are rejected or yield a value that survives a
    /// round trip; no parser panics.
    #[test]
    fn arbitrary_bytes_never_panic_a_parser(
        text in proptest::collection::vec(0u16..256, 0..512)
            .prop_map(|v| v.into_iter().map(|b| b as u8).collect::<Vec<u8>>())
            .prop_map(|b| String::from_utf8_lossy(&b).into_owned()),
    ) {
        if let Some(v) = Json::parse(&text) {
            prop_assert_eq!(Json::parse(&v.render()), Some(v));
        }
        if let Some((key, label, r)) = decode_line(&text) {
            let line = encode_line(&key, &label, &r);
            prop_assert_eq!(decode_line(&line).map(|(k, l, _)| (k, l)), Some((key, label)));
        }
        if let Ok(req) = Request::decode(&text) {
            prop_assert!(Request::decode(&req.encode()).is_ok());
        }
        if let Ok(events) = sink::parse_trace_jsonl(&text) {
            let mut buf = Vec::new();
            sink::write_trace_jsonl(&mut buf, &events).unwrap();
            prop_assert!(sink::parse_trace_jsonl(&String::from_utf8(buf).unwrap()).is_ok());
        }
        if let Ok(radix) = SimConfig::parse_topo(&text) {
            prop_assert!(!radix.is_empty() && radix.len() <= MAX_DIMS);
            prop_assert!(radix.iter().all(|&k| k >= 2), "{:?}", radix);
        }
    }
}
