//! The one JSON value type of the workspace: the cache codec, the
//! daemon wire protocol, the obs counter/trace sinks and the committed
//! figure and analysis artifacts all serialize through it.
//!
//! Scope is exactly what those need and nothing more:
//!
//! * **Integers and floats are distinct.** `u64`s (counters, seeds,
//!   ids) render as integer digits and round-trip exactly; `f64`s render
//!   in Rust's shortest round-trip `{:?}` form, so
//!   `parse(render(x)) == x` bit-for-bit. Non-finite floats render as
//!   `NaN` / `inf` (as the cache format always has) and are accepted
//!   back by the parser — a deliberate departure from strict JSON kept
//!   for cache-file compatibility.
//! * **Objects preserve insertion order** (a `Vec` of pairs, not a
//!   map), so encoded lines are byte-stable across runs.
//! * **Two layouts:** compact [`Json::render`] for one value per line,
//!   and [`Json::render_pretty`] for the committed `results/*.json`.
//! * **Bounded nesting** (64 levels), so no line overflows the stack.
//!
//! This is not a general-purpose JSON library; it has no escape hatches
//! for streaming, comments, or duplicate-key policy (last one wins via
//! linear `get`, first match).

use std::fmt::Write;

/// The deepest container nesting [`Json::parse`] accepts. Every shape
/// the workspace writes nests at most four levels.
const MAX_DEPTH: usize = 64;

/// The `schema` tag that leads every JSON artifact the workspace writes:
/// the committed `results/` files and the `--counters-out` snapshot.
pub const ARTIFACT_SCHEMA: &str = "mdd-artifact/1";

/// One JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer that fits `u64`, rendered as digits.
    Int(u64),
    /// Any other number, rendered in shortest round-trip form.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one complete JSON value (trailing whitespace allowed,
    /// trailing garbage not). `None` on any malformed input, including
    /// containers nested more than 64 deep.
    pub fn parse(text: &str) -> Option<Json> {
        let mut chars = text.chars().peekable();
        let value = parse_value(&mut chars, MAX_DEPTH)?;
        skip_ws(&mut chars);
        chars.peek().is_none().then_some(value)
    }

    /// Render compactly (no whitespace, no trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, None);
        out
    }

    /// Append the compact rendering of an object with borrowed keys to
    /// `out`, without building a [`Json::Obj`] (a trace writes millions).
    pub fn render_fields_into(out: &mut String, fields: &[(&str, Json)]) {
        render_members(
            out,
            None,
            '{',
            '}',
            fields.iter().map(|(k, v)| (Some(*k), v)),
        );
    }

    /// Render for a human-read artifact (no trailing newline): a
    /// container whose members are all scalars (or empty containers)
    /// prints on one line with `", "` / `": "` separators; any other
    /// container prints one member per line, indented two spaces a level.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, Some(0));
        out
    }

    /// `pretty` is this value's indent level, or `None` for compact.
    fn render_into(&self, out: &mut String, pretty: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => write!(out, "{n}").unwrap(),
            Json::Num(x) => write!(out, "{x:?}").unwrap(),
            Json::Str(s) => quote_into(s, out),
            Json::Arr(xs) => render_members(out, pretty, '[', ']', xs.iter().map(|v| (None, v))),
            Json::Obj(fields) => {
                let members = fields.iter().map(|(k, v)| (Some(k.as_str()), v));
                render_members(out, pretty, '{', '}', members);
            }
        }
    }

    /// Field lookup on an object (first match); `None` on other shapes.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a `u64`: integers directly, floats only when whole
    /// and in range (cache files written before the integer/float split
    /// carry counters as floats).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => Some(*n),
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x < u64::MAX as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The value as an integer of type `T`: [`Json::as_u64`] narrowed
    /// with a range check, so an out-of-range value is `None`, never
    /// truncated.
    pub fn as_int<T: TryFrom<u64>>(&self) -> Option<T> {
        self.as_u64().and_then(|n| T::try_from(n).ok())
    }

    /// The value as an `f64` (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Int(n)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

/// Render a container's members between `open` and `close`; one member
/// per line only if pretty and some member is a non-empty container.
fn render_members<'a>(
    out: &mut String,
    pretty: Option<usize>,
    open: char,
    close: char,
    members: impl Iterator<Item = (Option<&'a str>, &'a Json)> + Clone,
) {
    let nested = |(_, v): &(Option<&str>, &Json)| match v {
        Json::Arr(items) => !items.is_empty(),
        Json::Obj(fields) => !fields.is_empty(),
        _ => false,
    };
    let block = pretty.filter(|_| members.clone().any(|m| nested(&m)));
    let sep = if pretty.is_some() && block.is_none() {
        ", "
    } else {
        ","
    };
    let colon = if pretty.is_some() { ": " } else { ":" };
    out.push(open);
    for (i, (key, value)) in members.enumerate() {
        if i > 0 {
            out.push_str(sep);
        }
        if let Some(level) = block {
            out.push_str(&format!("\n{}", "  ".repeat(level + 1)));
        }
        if let Some(key) = key {
            quote_into(key, out);
            out.push_str(colon);
        }
        value.render_into(out, block.map_or(pretty, |level| Some(level + 1)));
    }
    if let Some(level) = block {
        out.push_str(&format!("\n{}", "  ".repeat(level)));
    }
    out.push(close);
}

fn quote_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

type Chars<'a> = std::iter::Peekable<std::str::Chars<'a>>;

fn skip_ws(chars: &mut Chars<'_>) {
    while chars.peek().is_some_and(|c| c.is_whitespace()) {
        chars.next();
    }
}

/// Parse one value; `depth` is how many more container levels may open.
fn parse_value(chars: &mut Chars<'_>, depth: usize) -> Option<Json> {
    skip_ws(chars);
    match chars.peek()? {
        '"' => {
            chars.next();
            Some(Json::Str(read_string_tail(chars)?))
        }
        '{' => {
            let inner = depth.checked_sub(1)?;
            chars.next();
            let mut fields = Vec::new();
            skip_ws(chars);
            if chars.peek() == Some(&'}') {
                chars.next();
                return Some(Json::Obj(fields));
            }
            loop {
                skip_ws(chars);
                if chars.next()? != '"' {
                    return None;
                }
                let key = read_string_tail(chars)?;
                skip_ws(chars);
                if chars.next()? != ':' {
                    return None;
                }
                fields.push((key, parse_value(chars, inner)?));
                skip_ws(chars);
                match chars.next()? {
                    ',' => {}
                    '}' => return Some(Json::Obj(fields)),
                    _ => return None,
                }
            }
        }
        '[' => {
            let inner = depth.checked_sub(1)?;
            chars.next();
            let mut items = Vec::new();
            skip_ws(chars);
            if chars.peek() == Some(&']') {
                chars.next();
                return Some(Json::Arr(items));
            }
            loop {
                items.push(parse_value(chars, inner)?);
                skip_ws(chars);
                match chars.next()? {
                    ',' => {}
                    ']' => return Some(Json::Arr(items)),
                    _ => return None,
                }
            }
        }
        _ => {
            // Bare token: literal or number (including the non-standard
            // NaN / inf spellings `{:?}` produces for f64).
            let mut tok = String::new();
            while let Some(&c) = chars.peek() {
                if c == ',' || c == ']' || c == '}' || c.is_whitespace() {
                    break;
                }
                tok.push(c);
                chars.next();
            }
            match tok.as_str() {
                "null" => Some(Json::Null),
                "true" => Some(Json::Bool(true)),
                "false" => Some(Json::Bool(false)),
                "" => None,
                t if !t.starts_with('-') && !t.contains(['.', 'e', 'E']) => {
                    match t.parse::<u64>() {
                        Ok(n) => Some(Json::Int(n)),
                        Err(_) => t.parse::<f64>().ok().map(Json::Num),
                    }
                }
                t => t.parse::<f64>().ok().map(Json::Num),
            }
        }
    }
}

/// Read a JSON string after its opening quote, consuming the closing one.
fn read_string_tail(chars: &mut Chars<'_>) -> Option<String> {
    let mut out = String::new();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                't' => out.push('\t'),
                'u' => {
                    let code: String = (0..4).filter_map(|_| chars.next()).collect();
                    out.push(char::from_u32(u32::from_str_radix(&code, 16).ok()?)?);
                }
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars_and_containers() {
        let v = Json::Obj(vec![
            ("a".to_string(), Json::Int(18_446_744_073_709_551_615)),
            ("b".to_string(), Json::Num(0.1 + 0.2)),
            ("c".to_string(), Json::Str("q\"\\\n".to_string())),
            (
                "d".to_string(),
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::Bool(false)]),
            ),
            ("e".to_string(), Json::Obj(vec![])),
        ]);
        assert_eq!(Json::parse(&v.render()), Some(v));
    }

    #[test]
    fn floats_round_trip_bit_for_bit() {
        for x in [
            0.05,
            1.0 / 3.0,
            f64::MAX,
            5e-324,
            -0.0,
            f64::NAN,
            f64::INFINITY,
        ] {
            let back = Json::parse(&Json::Num(x).render()).unwrap();
            let y = back.as_f64().unwrap();
            assert_eq!(x.to_bits(), y.to_bits(), "{x:?} -> {back:?}");
        }
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\"1}", "{\"a\":1} extra", "tru", "nul"] {
            assert_eq!(Json::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_some());
        assert_eq!(Json::parse(&nested(MAX_DEPTH + 1)), None);
    }

    #[test]
    fn pretty_layout_inlines_only_all_scalar_containers() {
        let v = Json::Obj(vec![
            (
                "flat".to_string(),
                Json::Arr(vec![Json::Int(1), Json::Str("x".to_string())]),
            ),
            ("empty".to_string(), Json::Obj(vec![])),
            (
                "deep".to_string(),
                Json::Arr(vec![Json::Arr(vec![Json::Null])]),
            ),
        ]);
        assert_eq!(
            v.render_pretty(),
            "{\n  \"flat\": [1, \"x\"],\n  \"empty\": {},\n  \"deep\": [\n    [null]\n  ]\n}"
        );
        assert_eq!(Json::parse(&v.render_pretty()), Some(v));
    }

    #[test]
    fn as_int_narrows_with_a_range_check() {
        assert_eq!(Json::Int(255).as_int::<u8>(), Some(255));
        assert_eq!(Json::Int(260).as_int::<u8>(), None);
        assert_eq!(Json::Int(1 << 32).as_int::<u32>(), None);
        assert_eq!(Json::Str("4".to_string()).as_int::<u8>(), None);
    }

    #[test]
    fn whole_floats_read_back_as_u64() {
        // Pre-split cache lines carry counters as floats ("42.0").
        assert_eq!(Json::parse("42.0").unwrap().as_u64(), Some(42));
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
        assert_eq!(Json::parse("1.5").unwrap().as_u64(), None);
        // 2^64 is past u64::MAX: out of range, not saturated.
        assert_eq!(Json::parse("18446744073709551616").unwrap().as_u64(), None);
    }
}
