//! A submit request narrows every field with a check: a present field
//! of the wrong type, or an integer out of its field's range, is an
//! error, never a silently truncated or dropped value; a missing field
//! takes its default.

use mdd_engine::proto::{Request, SweepSpec};

/// Decode a submit line carrying the extra `fields` (a JSON fragment).
fn submit(fields: &str) -> Result<Request, String> {
    Request::decode(&format!(r#"{{"op":"submit","loads":[0.1]{fields}}}"#))
}

fn spec(fields: &str) -> SweepSpec {
    match submit(fields) {
        Ok(Request::Submit(spec)) => spec,
        other => panic!("{fields}: {other:?}"),
    }
}

#[test]
fn missing_fields_take_their_defaults() {
    let d = SweepSpec::default();
    let s = spec("");
    assert_eq!(
        (s.vcs, s.radix, s.bristle, s.shards),
        (d.vcs, d.radix, d.bristle, d.shards)
    );
}

#[test]
fn vcs_out_of_u8_range_is_an_error_not_truncated() {
    assert_eq!(spec(r#","vcs":255"#).vcs, 255);
    assert_eq!(submit(r#","vcs":260"#), Err("submit: bad vcs".to_string()));
}

#[test]
fn bristle_out_of_u32_range_is_an_error_not_truncated() {
    assert_eq!(spec(r#","bristle":4294967295"#).bristle, u32::MAX);
    assert_eq!(
        submit(r#","bristle":4294967297"#),
        Err("submit: bad bristle".to_string())
    );
}

#[test]
fn shards_out_of_u32_range_is_an_error_not_truncated() {
    assert_eq!(
        submit(r#","shards":4294967298"#),
        Err("submit: bad shards".to_string())
    );
}

#[test]
fn seed_past_u64_max_is_an_error_not_saturated() {
    assert_eq!(spec(r#","seed":18446744073709551615"#).seed, u64::MAX);
    assert_eq!(
        submit(r#","seed":18446744073709551616"#),
        Err("submit: bad seed".to_string())
    );
}

#[test]
fn radix_with_a_non_integer_is_an_error_not_a_shorter_radix() {
    assert_eq!(spec(r#","radix":[8,4]"#).radix, [8, 4]);
    for bad in [
        r#"[8,"x"]"#,
        "[8,4294967296]",
        "[8,-1]",
        "[8,1.5]",
        "[]",
        "8",
    ] {
        assert_eq!(
            submit(&format!(r#","radix":{bad}"#)),
            Err("submit: bad radix".to_string())
        );
    }
}

#[test]
fn loads_with_a_non_number_is_an_error_not_a_shorter_list() {
    let line = r#"{"op":"submit","loads":[0.1,"x"]}"#;
    assert_eq!(Request::decode(line), Err("submit: bad loads".to_string()));
}

#[test]
fn wrongly_typed_fields_are_errors() {
    for (key, value) in [
        ("vcs", r#""4""#),
        ("vcs", "-4"),
        ("vcs", "4.5"),
        ("warmup", "true"),
        ("seed", "null"),
        ("label", "7"),
        ("scheme", "[]"),
        ("queue_org", "1"),
    ] {
        assert_eq!(
            submit(&format!(r#","{key}":{value}"#)),
            Err(format!("submit: bad {key}")),
            "{key}: {value}"
        );
    }
}
