//! JSONL encoding of cached points.
//!
//! One flat JSON object per line: the cache key, the label, a format
//! version, and every measured field of [`SimResult`]. Built on the
//! shared [`Json`] value type (floats render in Rust's shortest
//! round-trip form), so decode(encode(r)) == r bit-for-bit — and the
//! daemon protocol's `result` objects are the same serialization, minus
//! the key/label/version envelope. The observability snapshot is *not*
//! persisted — obs counters are process-cumulative and meaningless
//! outside the run that produced them — so cache-served results carry
//! `obs: None`.

use mdd_core::SimResult;
use mdd_obs::Json;

/// Format version written into every line; lines with any other version
/// are ignored on load (bulk invalidation when the schema changes).
pub const CACHE_LINE_VERSION: u64 = 1;

/// Encode one cached point as a single JSONL line (no trailing newline).
pub fn encode_line(key: &str, label: &str, r: &SimResult) -> String {
    let mut fields = vec![
        ("v".to_string(), Json::Int(CACHE_LINE_VERSION)),
        ("key".to_string(), Json::Str(key.to_string())),
        ("label".to_string(), Json::Str(label.to_string())),
    ];
    fields.extend(result_fields(r));
    Json::Obj(fields).render()
}

/// Decode one line back into `(key, label, result)`. `None` on any
/// malformed, truncated or version-mismatched line — the cache treats
/// such lines as absent rather than failing, so a file cut short by an
/// interrupt only loses its final entry.
pub fn decode_line(line: &str) -> Option<(String, String, SimResult)> {
    let j = Json::parse(line.trim())?;
    if j.get("v")?.as_u64()? != CACHE_LINE_VERSION {
        return None;
    }
    let result = result_from_json(&j)?;
    Some((
        j.get("key")?.as_str()?.to_string(),
        j.get("label")?.as_str()?.to_string(),
        result,
    ))
}

/// The measured fields of a result, in canonical write order.
fn result_fields(r: &SimResult) -> Vec<(String, Json)> {
    let (q50, q95, q99) = r.latency_quantiles;
    let f = |k: &str, v: f64| (k.to_string(), Json::Num(v));
    let i = |k: &str, v: u64| (k.to_string(), Json::Int(v));
    vec![
        f("applied_load", r.applied_load),
        f("throughput", r.throughput),
        f("avg_latency", r.avg_latency),
        f("q50", q50),
        f("q95", q95),
        f("q99", q99),
        i("messages_delivered", r.messages_delivered),
        i("transactions", r.transactions),
        i("deadlocks", r.deadlocks),
        i("router_rescues", r.router_rescues),
        i("deflections", r.deflections),
        i("rescues", r.rescues),
        i("generated", r.generated),
        f("mc_utilization", r.mc_utilization),
        i("cwg_checks", r.cwg_checks),
        i("cwg_deadlocked_checks", r.cwg_deadlocked_checks),
        f("vc_util_mean", r.vc_util_mean),
        f("vc_util_max", r.vc_util_max),
        f("vc_util_cv", r.vc_util_cv),
    ]
}

/// A result as a bare JSON object (no key/label/version envelope) — the
/// shape the daemon protocol streams inside point events.
pub(crate) fn result_to_json(r: &SimResult) -> Json {
    Json::Obj(result_fields(r))
}

/// Rebuild a result from an object carrying the measured fields (either
/// a full cache line or a protocol `result` object). `None` if any field
/// is missing or mistyped.
pub(crate) fn result_from_json(j: &Json) -> Option<SimResult> {
    let num = |k: &str| j.get(k)?.as_f64();
    let int = |k: &str| j.get(k)?.as_u64();
    Some(SimResult {
        applied_load: num("applied_load")?,
        throughput: num("throughput")?,
        avg_latency: num("avg_latency")?,
        latency_quantiles: (num("q50")?, num("q95")?, num("q99")?),
        messages_delivered: int("messages_delivered")?,
        transactions: int("transactions")?,
        deadlocks: int("deadlocks")?,
        router_rescues: int("router_rescues")?,
        deflections: int("deflections")?,
        rescues: int("rescues")?,
        generated: int("generated")?,
        mc_utilization: num("mc_utilization")?,
        cwg_checks: int("cwg_checks")?,
        cwg_deadlocked_checks: int("cwg_deadlocked_checks")?,
        vc_util_mean: num("vc_util_mean")?,
        vc_util_max: num("vc_util_max")?,
        vc_util_cv: num("vc_util_cv")?,
        obs: None,
    })
}
