//! Minimal JSON document model with a deterministic writer and a
//! round-trip parser.
//!
//! The run-artifact store needs byte-stable serialization (records are
//! compared with `==` across thread counts and re-runs) and the build
//! environment has no `serde_json`, so this module hand-rolls the small
//! subset the store needs:
//!
//! * objects render with keys in **ascending sorted order**, whatever
//!   order they were inserted in, so artifacts are canonical: two
//!   logically equal values always serialize to identical bytes, and no
//!   map-iteration or construction order can leak into an artifact;
//! * [`Json::obj`] and [`Json::parse`] canonicalize (sort) object pairs
//!   on construction, so `parse(render(x)) == x` for values built through
//!   the public constructors;
//! * unsigned integers are kept exact via [`Json::Uint`] — seeds are
//!   full-width `u64` values that do not survive an `f64` round-trip;
//! * floats print via Rust's shortest-round-trip `{:?}` formatting, so
//!   `parse(render(x)) == x` for every finite `f64`.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-negative integer that must stay exact (e.g. a 64-bit seed).
    Uint(u64),
    /// A finite float.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: key/value pairs, canonically in ascending key order.
    /// (`render` sorts defensively even if a value was hand-built with
    /// unsorted pairs.)
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from pairs; keys are sorted (stably) so the value
    /// is canonical regardless of the order the caller listed them in.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        let mut pairs: Vec<(String, Json)> =
            pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        Json::Obj(pairs)
    }

    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// This value as a u64, if it is an exact unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Uint(u) => Some(*u),
            _ => None,
        }
    }

    /// This value as an f64 (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::Uint(u) => Some(*u as f64),
            _ => None,
        }
    }

    /// This value as a str.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value as an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Render as pretty-printed JSON (2-space indent, `\n` line ends).
    /// The output is a pure function of the value — no timestamps, no
    /// map-iteration order — so equal values render to equal bytes.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Uint(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Num(n) => {
                assert!(n.is_finite(), "cannot serialize non-finite float {n}");
                // {:?} gives the shortest representation that round-trips.
                let _ = write!(out, "{n:?}");
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                // Canonical order even for hand-built `Json::Obj` values:
                // sort an index so duplicate keys keep their relative order.
                let mut order: Vec<usize> = (0..pairs.len()).collect();
                order.sort_by(|&a, &b| pairs[a].0.cmp(&pairs[b].0).then(a.cmp(&b)));
                out.push('{');
                for (i, &p) in order.iter().enumerate() {
                    let (key, value) = &pairs[p];
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Parse a JSON document. Numbers without `.`, `e`, or a minus sign
    /// parse as [`Json::Uint`]; everything else numeric parses as
    /// [`Json::Num`]. Object pairs are canonicalized (stably sorted by
    /// key), so parsing a legacy insertion-ordered document yields the
    /// same value as parsing its canonical re-render.
    pub fn parse(input: &str) -> Result<Json, String> {
        let bytes = input.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// --- parser ----------------------------------------------------------------

/// Deepest array/object nesting [`Json::parse`] accepts — the spec XML
/// parser's limit. The parser recurses once per level, so without a
/// limit a long run of `[` overflows the stack instead of failing.
const MAX_DEPTH: usize = 256;

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parse one value that sits inside `depth` arrays and objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    if depth == MAX_DEPTH && matches!(bytes.get(*pos), Some(b'[' | b'{')) {
        return Err(format!(
            "arrays and objects nest deeper than {MAX_DEPTH} levels at byte {pos}"
        ));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    other => return Err(format!("expected ',' or ']', got {other:?}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let value = parse_value(bytes, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        pairs.sort_by(|a: &(String, Json), b| a.0.cmp(&b.0));
                        return Ok(Json::Obj(pairs));
                    }
                    other => return Err(format!("expected ',' or '}}', got {other:?}")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).ok_or("invalid \\u escape")?);
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 character (may be multi-byte).
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    if text.is_empty() {
        return Err(format!("expected number at byte {start}"));
    }
    let is_integral = !text.contains(['.', 'e', 'E', '-']);
    if is_integral {
        if let Ok(u) = text.parse::<u64>() {
            return Ok(Json::Uint(u));
        }
    }
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|e| format!("bad number {text:?}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        Json::obj(vec![
            ("schema_version", Json::Uint(1)),
            ("label", Json::Str("density-120".to_string())),
            ("seed", Json::Uint(u64::MAX - 12345)),
            ("revenue", Json::Num(1234.5678901234567)),
            ("negative", Json::Num(-7.25)),
            ("flag", Json::Bool(true)),
            ("nothing", Json::Null),
            (
                "series",
                Json::Arr(vec![
                    Json::Uint(1),
                    Json::Num(2.5),
                    Json::Str("x\"y\n".into()),
                ]),
            ),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
        ])
    }

    #[test]
    fn round_trips_exactly() {
        let value = sample();
        let text = value.render();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, value);
        // And the re-render is byte-identical.
        assert_eq!(back.render(), text);
    }

    #[test]
    fn u64_seeds_survive() {
        let v = Json::Uint(u64::MAX);
        let back = Json::parse(&v.render()).unwrap();
        assert_eq!(back.as_u64(), Some(u64::MAX));
    }

    #[test]
    fn float_precision_survives() {
        for x in [0.1, 1.0 / 3.0, f64::MIN_POSITIVE, 1e300, -0.0] {
            let back = Json::parse(&Json::Num(x).render()).unwrap();
            assert_eq!(back.as_f64().unwrap().to_bits(), x.to_bits());
        }
    }

    #[test]
    fn objects_render_in_sorted_key_order() {
        // Same logical object, three construction orders (including a
        // hand-built unsorted Json::Obj) — all render to identical bytes.
        let a = Json::obj(vec![("zulu", Json::Uint(1)), ("alpha", Json::Uint(2))]);
        let b = Json::obj(vec![("alpha", Json::Uint(2)), ("zulu", Json::Uint(1))]);
        let c = Json::Obj(vec![
            ("zulu".to_string(), Json::Uint(1)),
            ("alpha".to_string(), Json::Uint(2)),
        ]);
        assert_eq!(a.render(), b.render());
        assert_eq!(a.render(), c.render());
        let text = a.render();
        let alpha = text.find("alpha").expect("alpha rendered");
        let zulu = text.find("zulu").expect("zulu rendered");
        assert!(alpha < zulu, "keys must render sorted:\n{text}");
    }

    #[test]
    fn insertion_ordered_documents_parse_to_canonical_values() {
        // A legacy (pre-canonicalization) artifact with unsorted keys
        // round-trips to the same value and canonical bytes as its
        // sorted twin.
        let legacy = "{\n  \"b\": 2,\n  \"a\": 1\n}\n";
        let sorted = "{\n  \"a\": 1,\n  \"b\": 2\n}\n";
        let from_legacy = Json::parse(legacy).unwrap();
        let from_sorted = Json::parse(sorted).unwrap();
        assert_eq!(from_legacy, from_sorted);
        assert_eq!(from_legacy.render(), sorted);
    }

    #[test]
    fn nested_round_trip_is_canonical() {
        let value = Json::obj(vec![
            (
                "outer",
                Json::obj(vec![("z", Json::Bool(true)), ("a", Json::Null)]),
            ),
            (
                "arr",
                Json::Arr(vec![Json::obj(vec![("k", Json::Uint(9))])]),
            ),
        ]);
        let text = value.render();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, value);
        assert_eq!(back.render(), text);
    }

    #[test]
    fn nesting_is_limited_instead_of_overflowing_the_stack() {
        assert!(Json::parse(&"[".repeat(200_000)).is_err());
        assert!(Json::parse(&"{\"k\":".repeat(200_000)).is_err());
        let nested = |levels: usize| format!("{}{}", "[".repeat(levels), "]".repeat(levels));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nest deeper than 256"), "{err}");
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(Json::parse("{} extra").is_err());
        assert!(Json::parse("[1, 2").is_err());
    }

    #[test]
    fn accessors() {
        let v = sample();
        assert_eq!(v.get("label").and_then(Json::as_str), Some("density-120"));
        assert_eq!(v.get("schema_version").and_then(Json::as_u64), Some(1));
        assert_eq!(
            v.get("series").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
        assert!(v.get("missing").is_none());
    }
}
