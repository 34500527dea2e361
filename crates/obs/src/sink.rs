//! Snapshot sinks: a counter snapshot as one JSON object and an event
//! trace as JSON Lines, both written and read back through [`Json`].

use crate::counters::CounterSnapshot;
use crate::event::Event;
use crate::json::{Json, ARTIFACT_SCHEMA};
use std::io::{self, Write};

// ---------------------------------------------------------------------
// Counter snapshots.
// ---------------------------------------------------------------------

/// Write a snapshot as one flat JSON object in the compact layout, plus
/// a trailing newline: the [`ARTIFACT_SCHEMA`] tag as `schema`, then the
/// counters in registry order (counter name to integer value).
pub fn write_counters_json<W: Write>(w: &mut W, snap: &CounterSnapshot) -> io::Result<()> {
    let schema = ("schema".to_string(), ARTIFACT_SCHEMA.into());
    let counters = snap
        .entries
        .iter()
        .map(|e| (e.name().to_string(), Json::Int(e.value)));
    let fields = std::iter::once(schema).chain(counters).collect();
    writeln!(w, "{}", Json::Obj(fields).render())
}

// ---------------------------------------------------------------------
// Event traces.
// ---------------------------------------------------------------------

/// Write events as JSON Lines: one object per event, its `type` name
/// first, then `cycle`, then the event's own fields in declaration order.
pub fn write_trace_jsonl<W: Write>(w: &mut W, events: &[Event]) -> io::Result<()> {
    let mut line = String::new();
    for ev in events {
        line.clear();
        Json::render_fields_into(&mut line, &event_fields(ev));
        line.push('\n');
        w.write_all(line.as_bytes())?;
    }
    Ok(())
}

fn event_fields(ev: &Event) -> Vec<(&'static str, Json)> {
    let int = |k, v: u64| (k, Json::Int(v));
    let flag = |k, v: bool| (k, Json::Bool(v));
    let mut fields = Vec::with_capacity(6);
    fields.extend([
        ("type", Json::Str(ev.kind().to_string())),
        int("cycle", ev.cycle()),
    ]);
    match *ev {
        Event::Inject {
            nic, msg, mtype, ..
        }
        | Event::Consume {
            nic, msg, mtype, ..
        } => {
            fields.extend([
                int("nic", nic.into()),
                int("msg", msg),
                int("mtype", mtype.into()),
            ]);
        }
        Event::TokenPass { at, at_nic, .. } => {
            fields.extend([int("at", at.into()), flag("at_nic", at_nic)]);
        }
        Event::DeadlockDetected { nic, msg, .. } => {
            fields.extend([int("nic", nic.into()), int("msg", msg)]);
        }
        Event::RecoveryStart {
            episode,
            msg,
            at,
            at_nic,
            ..
        } => fields.extend([
            int("episode", episode),
            int("msg", msg),
            int("at", at.into()),
            flag("at_nic", at_nic),
        ]),
        Event::RecoveryEnd {
            episode,
            msg,
            moved,
            depth,
            ..
        } => fields.extend([
            int("episode", episode),
            int("msg", msg),
            int("moved", moved.into()),
            int("depth", depth.into()),
        ]),
        Event::BackoffReply {
            nic,
            msg,
            deflected,
            ..
        } => {
            fields.extend([
                int("nic", nic.into()),
                int("msg", msg),
                int("deflected", deflected),
            ]);
        }
    }
    fields
}

/// Parse JSON Lines produced by [`write_trace_jsonl`] back into events.
/// A malformed line, a missing field, or an integer that does not fit
/// its event field is an error naming the line.
pub fn parse_trace_jsonl(text: &str) -> Result<Vec<Event>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(parse_jsonl_line)
        .collect()
}

/// One parsed trace line, with typed field access for error reporting.
struct TraceLine<'a> {
    json: Json,
    text: &'a str,
}

impl TraceLine<'_> {
    fn bad(&self, key: &str) -> String {
        format!("missing or invalid {key} in {:?}", self.text)
    }

    /// An integer field narrowed to the event field's own type: a value
    /// out of that type's range is an error, never truncated.
    fn int<T: TryFrom<u64>>(&self, key: &str) -> Result<T, String> {
        self.json
            .get(key)
            .and_then(Json::as_int)
            .ok_or_else(|| self.bad(key))
    }

    fn flag(&self, key: &str) -> Result<bool, String> {
        self.json
            .get(key)
            .and_then(Json::as_bool)
            .ok_or_else(|| self.bad(key))
    }
}

fn parse_jsonl_line(text: &str) -> Result<Event, String> {
    let json = Json::parse(text).ok_or_else(|| format!("malformed JSON: {text:?}"))?;
    let l = TraceLine { json, text };
    let cycle = l.int("cycle")?;
    Ok(
        match l
            .json
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| l.bad("type"))?
        {
            "inject" => Event::Inject {
                cycle,
                nic: l.int("nic")?,
                msg: l.int("msg")?,
                mtype: l.int("mtype")?,
            },
            "consume" => Event::Consume {
                cycle,
                nic: l.int("nic")?,
                msg: l.int("msg")?,
                mtype: l.int("mtype")?,
            },
            "token_pass" => Event::TokenPass {
                cycle,
                at: l.int("at")?,
                at_nic: l.flag("at_nic")?,
            },
            "deadlock_detected" => Event::DeadlockDetected {
                cycle,
                nic: l.int("nic")?,
                msg: l.int("msg")?,
            },
            "recovery_start" => Event::RecoveryStart {
                cycle,
                episode: l.int("episode")?,
                msg: l.int("msg")?,
                at: l.int("at")?,
                at_nic: l.flag("at_nic")?,
            },
            "recovery_end" => Event::RecoveryEnd {
                cycle,
                episode: l.int("episode")?,
                msg: l.int("msg")?,
                moved: l.int("moved")?,
                depth: l.int("depth")?,
            },
            "backoff_reply" => Event::BackoffReply {
                cycle,
                nic: l.int("nic")?,
                msg: l.int("msg")?,
                deflected: l.int("deflected")?,
            },
            other => return Err(format!("unknown event type {other:?}")),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::{CounterId, Counters};

    fn sample_events() -> Vec<Event> {
        vec![
            Event::Inject {
                cycle: 1,
                nic: 3,
                msg: 100,
                mtype: 0,
            },
            Event::TokenPass {
                cycle: 2,
                at: 7,
                at_nic: false,
            },
            Event::TokenPass {
                cycle: 3,
                at: 7,
                at_nic: true,
            },
            Event::DeadlockDetected {
                cycle: 40,
                nic: 7,
                msg: 100,
            },
            Event::RecoveryStart {
                cycle: 41,
                episode: 1,
                msg: 100,
                at: 7,
                at_nic: true,
            },
            Event::RecoveryEnd {
                cycle: 90,
                episode: 1,
                msg: 100,
                moved: 2,
                depth: 1,
            },
            Event::BackoffReply {
                cycle: 95,
                nic: 2,
                msg: 200,
                deflected: 150,
            },
            Event::Consume {
                cycle: 99,
                nic: 0,
                msg: 100,
                mtype: 2,
            },
        ]
    }

    #[test]
    fn jsonl_roundtrip_preserves_events() {
        let events = sample_events();
        let mut buf = Vec::new();
        write_trace_jsonl(&mut buf, &events).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), events.len());
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        let parsed = parse_trace_jsonl(&text).unwrap();
        assert_eq!(parsed, events);
    }

    #[test]
    fn jsonl_lines_keep_their_field_order() {
        let mut buf = Vec::new();
        write_trace_jsonl(&mut buf, &sample_events()[4..5]).unwrap();
        let line = Json::parse(std::str::from_utf8(&buf).unwrap()).unwrap();
        let Json::Obj(fields) = line else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["type", "cycle", "episode", "msg", "at", "at_nic"]);
    }

    /// Write `ev` as a trace line with field `key` replaced by the JSON
    /// text `value`, and parse it back.
    fn parse_with(ev: Event, key: &str, value: &str) -> Result<Vec<Event>, String> {
        let mut buf = Vec::new();
        write_trace_jsonl(&mut buf, &[ev]).unwrap();
        let line = Json::parse(std::str::from_utf8(&buf).unwrap()).unwrap();
        let Json::Obj(mut fields) = line else {
            unreachable!()
        };
        fields.iter_mut().find(|(k, _)| k == key).unwrap().1 = Json::parse(value).unwrap();
        parse_trace_jsonl(&Json::Obj(fields).render())
    }

    #[test]
    fn out_of_range_nic_is_rejected_not_truncated() {
        let ev = Event::Inject {
            cycle: 1,
            nic: 3,
            msg: 100,
            mtype: 0,
        };
        assert!(parse_with(ev, "nic", "4294967295").is_ok());
        let err = parse_with(ev, "nic", "4294967296").unwrap_err();
        assert!(err.contains("nic"), "{err}");
    }

    #[test]
    fn out_of_range_mtype_is_rejected_not_truncated() {
        let ev = Event::Consume {
            cycle: 1,
            nic: 3,
            msg: 100,
            mtype: 0,
        };
        assert!(parse_with(ev, "mtype", "255").is_ok());
        assert!(parse_with(ev, "mtype", "256")
            .unwrap_err()
            .contains("mtype"));
    }

    #[test]
    fn out_of_range_at_is_rejected_not_truncated() {
        let ev = Event::TokenPass {
            cycle: 2,
            at: 7,
            at_nic: false,
        };
        assert!(parse_with(ev, "at", "4294967296")
            .unwrap_err()
            .contains("at"));
    }

    #[test]
    fn out_of_range_moved_is_rejected_not_truncated() {
        let ev = Event::RecoveryEnd {
            cycle: 90,
            episode: 1,
            msg: 100,
            moved: 2,
            depth: 1,
        };
        assert!(parse_with(ev, "moved", "4294967296")
            .unwrap_err()
            .contains("moved"));
    }

    #[test]
    fn out_of_range_depth_is_rejected_not_truncated() {
        let ev = Event::RecoveryEnd {
            cycle: 90,
            episode: 1,
            msg: 100,
            moved: 2,
            depth: 1,
        };
        assert!(parse_with(ev, "depth", "4294967296")
            .unwrap_err()
            .contains("depth"));
    }

    #[test]
    fn u64_fields_past_u64_max_are_rejected_not_saturated() {
        let ev = Event::BackoffReply {
            cycle: 95,
            nic: 2,
            msg: 200,
            deflected: 150,
        };
        for key in ["cycle", "msg", "deflected"] {
            assert!(parse_with(ev, key, "18446744073709551615").is_ok(), "{key}");
            let err = parse_with(ev, key, "18446744073709551616").unwrap_err();
            assert!(err.contains(key), "{err}");
        }
    }

    #[test]
    fn wrongly_typed_fields_are_rejected() {
        let ev = Event::TokenPass {
            cycle: 2,
            at: 7,
            at_nic: false,
        };
        assert!(parse_with(ev, "at", "\"7\"").is_err());
        assert!(parse_with(ev, "at", "-1").is_err());
        assert!(parse_with(ev, "at_nic", "1").is_err());
        assert!(parse_with(ev, "type", "\"teleport\"").is_err());
    }

    #[test]
    fn counters_json_is_one_flat_object() {
        let c = Counters::new();
        c.add(CounterId::TokenHops, 9);
        let mut buf = Vec::new();
        write_counters_json(&mut buf, &c.snapshot()).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("{\"schema\":\"mdd-artifact/1\",") && text.ends_with("}\n"));
        // `--counters-out` keeps the compact layout byte for byte.
        assert!(text.contains("\"token_hops\":9"));
        assert!(text.contains("\"deadlocks_detected\":0"));
        assert!(!text.contains(' '));
        let obj = Json::parse(&text).unwrap();
        assert_eq!(obj.get("token_hops"), Some(&Json::Int(9)));
        assert_eq!(obj.get("deadlocks_detected"), Some(&Json::Int(0)));
    }
}
