//! One tiny JSON tree shared by every emitter (no crates.io): `reproduce
//! chaos` and the `benchmark/` package both build a [`Json`] value and
//! serialize through this module;
//! the parser exists so a round-trip test can pin the emitted bytes to a
//! real JSON grammar.

use std::fmt::Write as _;

/// A JSON value. Object keys keep insertion order (emitted files are
/// diffed by humans and git).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number; integers ≤ 2⁵³ survive the f64 round-trip unchanged.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (ordered key/value pairs).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Integer helper (`Json::int(3)` reads better than `Num(3.0)`).
    pub fn int(v: u64) -> Json {
        Json::Num(v as f64)
    }

    /// String helper.
    pub fn str(v: impl Into<String>) -> Json {
        Json::Str(v.into())
    }

    /// Look up a key in an object (`None` elsewhere).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kvs) => kvs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Serialize with two-space indentation and a trailing newline — the
    /// layout `BENCH_results.json` blocks use.
    pub fn to_pretty(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, 0);
        s.push('\n');
        s
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        '\r' => out.push_str("\\r"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    indent(out, depth + 1);
                    item.write(out, depth + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(kvs) => {
                if kvs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in kvs.iter().enumerate() {
                    indent(out, depth + 1);
                    Json::Str(k.clone()).write(out, depth + 1);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                    out.push_str(if i + 1 < kvs.len() { ",\n" } else { "\n" });
                }
                indent(out, depth);
                out.push('}');
            }
        }
    }

    /// Parse a JSON document (strict enough for round-trip tests; rejects
    /// trailing garbage).
    pub fn parse(s: &str) -> Result<Json, String> {
        let b = s.as_bytes();
        let mut pos = 0;
        let v = parse_value(b, &mut pos)?;
        skip_ws(b, &mut pos);
        if pos != b.len() {
            return Err(format!("trailing bytes at {pos}"));
        }
        Ok(v)
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\n' | b'\t' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end".into()),
        Some(b'n') => lit(b, pos, "null", Json::Null),
        Some(b't') => lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => lit(b, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at {}", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut kvs = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(kvs));
            }
            loop {
                skip_ws(b, pos);
                let k = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let v = parse_value(b, pos)?;
                kvs.push((k, v));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(kvs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at {}", *pos)),
                }
            }
        }
        Some(_) => parse_number(b, pos),
    }
}

fn lit(b: &[u8], pos: &mut usize, word: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(v)
    } else {
        Err(format!("bad literal at {}", *pos))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut s = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(s);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'n') => s.push('\n'),
                    Some(b't') => s.push('\t'),
                    Some(b'r') => s.push('\r'),
                    Some(b'u') => {
                        let hex = std::str::from_utf8(&b[*pos + 1..*pos + 5])
                            .map_err(|_| "bad \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        s.push(char::from_u32(code).ok_or("bad \\u codepoint")?);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at {}", *pos)),
                }
                *pos += 1;
            }
            Some(&c) => {
                // Consume one UTF-8 scalar (the input is a &str, so byte
                // boundaries are valid).
                let start = *pos;
                let len = match c {
                    _ if c < 0x80 => 1,
                    _ if c >= 0xF0 => 4,
                    _ if c >= 0xE0 => 3,
                    _ => 2,
                };
                s.push_str(std::str::from_utf8(&b[start..start + len]).unwrap());
                *pos += len;
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_bench_shaped_document() {
        let doc = Json::Obj(vec![
            ("label".into(), Json::str("pr7-adaptive")),
            ("seed".into(), Json::int(0xC0FFEE)),
            (
                "curves".into(),
                Json::Arr(vec![Json::Obj(vec![
                    ("name".into(), Json::str("move_heavy \"zipf\"")),
                    ("threads".into(), Json::int(4)),
                    ("ops_per_sec".into(), Json::Num(123456.78)),
                    ("oversubscribed".into(), Json::Bool(true)),
                    ("note".into(), Json::Null),
                ])]),
            ),
            ("empty_arr".into(), Json::Arr(vec![])),
            ("empty_obj".into(), Json::Obj(vec![])),
        ]);
        let text = doc.to_pretty();
        let back = Json::parse(&text).expect("parse own output");
        assert_eq!(back, doc);
    }

    #[test]
    fn integers_emit_without_decimal_point() {
        assert_eq!(Json::int(42).to_pretty(), "42\n");
        assert_eq!(Json::Num(1.5).to_pretty(), "1.5\n");
    }

    #[test]
    fn escapes_round_trip() {
        let s = Json::Str("a\"b\\c\nd\te—ü".into());
        assert_eq!(Json::parse(&s.to_pretty()).unwrap(), s);
    }

    #[test]
    fn get_finds_keys() {
        let doc = Json::Obj(vec![("x".into(), Json::int(1))]);
        assert_eq!(doc.get("x"), Some(&Json::Num(1.0)));
        assert_eq!(doc.get("y"), None);
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(Json::parse("{} x").is_err());
    }
}
