//! The workspace's one JSON codec.
//!
//! Every wire format in the workspace is JSON: request and response
//! frames, metric snapshots, the fleet ring export, trace records and
//! the `repro` reports. This module holds the single reader, the single
//! string escaper and the two writers they share:
//!
//! * [`parse`] — strict and small: UTF-8 input, RFC 8259 numbers, no
//!   trailing garbage, recursion depth capped (hostile clients send
//!   `[[[[…`), numbers as `f64`, `\uXXXX` escapes supported (surrogate
//!   pairs included). It reads every request frame off the network.
//! * [`escape`] — the contents of a string literal. Hand-built JSON
//!   lines elsewhere in the workspace go through it too.
//! * [`Value::render`] — compact, deterministic (object keys sorted).
//! * [`to_string_pretty`] — two-space indented, fields in the order the
//!   caller lists them ([`write_object`]), integers printed exactly
//!   (no `f64` round trip above 2^53). `repro summary` and `BENCH.json`
//!   are written with it.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// Maximum nesting depth accepted from the network.
const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Value>),
    Object(BTreeMap<String, Value>),
}

impl Value {
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Object field lookup; `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The full field map of an object (the fleet scraper walks every
    /// numeric field of a shard's `stats` reply); `None` on non-objects.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Serialize back to compact JSON. Deterministic: object keys are
    /// already sorted (`BTreeMap`), numbers print shortest round-trip,
    /// non-finite numbers (never produced by [`parse`]) render `null`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => b.write_json(out, 0),
            Value::Number(n) => n.write_json(out, 0),
            Value::String(s) => s.write_json(out, 0),
            Value::Array(a) => {
                out.push('[');
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Value::Object(m) => {
                out.push('{');
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    k.write_json(out, 0);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Why parsing failed (offset + reason).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub offset: usize,
    pub reason: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.reason, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Parse one complete JSON value; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, reason: &'static str) -> ParseError {
        ParseError {
            offset: self.pos,
            reason,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, reason: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(reason))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'{', "expected '{'")?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':'")?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u', "expected low surrogate")?;
                                    let lo = self.hex4()?;
                                    if !(0xdc00..0xe000).contains(&lo) {
                                        return Err(self.err("bad low surrogate"));
                                    }
                                    let cp = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                                    char::from_u32(cp)
                                } else {
                                    return Err(self.err("lone surrogate"));
                                }
                            } else if (0xdc00..0xe000).contains(&hi) {
                                return Err(self.err("lone surrogate"));
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| self.err("bad codepoint"))?);
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("control char in string")),
                Some(_) => {
                    // Copy one whole UTF-8 scalar (input is a &str, so
                    // boundaries are valid).
                    let start = self.pos;
                    let mut end = start + 1;
                    while end < self.bytes.len() && (self.bytes[end] & 0xc0) == 0x80 {
                        end += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..end]).unwrap());
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self.peek().ok_or_else(|| self.err("bad \\u escape"))?;
            let d = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a' + 10),
                b'A'..=b'F' => u32::from(b - b'A' + 10),
                _ => return Err(self.err("bad \\u escape")),
            };
            v = (v << 4) | d;
            self.pos += 1;
        }
        Ok(v)
    }

    /// Skip one or more ASCII digits; zero digits is an error.
    fn digits(&mut self) -> Result<(), ParseError> {
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.err("bad number"));
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        Ok(())
    }

    /// RFC 8259: `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`. A
    /// leading zero ends the integer part, so `01` leaves `1` behind as
    /// trailing input and the caller rejects it.
    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.peek() == Some(b'0') {
            self.pos += 1;
        } else {
            self.digits()?;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.err("bad number"))
    }
}

/// Escape `s` as the contents of a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A value the pretty writer can render. `indent` is the nesting depth
/// of the value's context; only containers use it, to place their
/// closing bracket.
pub trait ToJson {
    fn write_json(&self, out: &mut String, indent: usize);
}

macro_rules! to_json_display {
    ($($t:ty),* $(,)?) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String, _indent: usize) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
to_json_display!(u8, u32, u64, usize, bool);

impl ToJson for f64 {
    /// Shortest round-trip digits; JSON has no NaN or infinity, so
    /// non-finite values render `null`.
    fn write_json(&self, out: &mut String, _indent: usize) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            out.push_str("null");
        }
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String, _indent: usize) {
        out.push('"');
        out.push_str(&escape(self));
        out.push('"');
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String, indent: usize) {
        self.as_str().write_json(out, indent);
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String, indent: usize) {
        (**self).write_json(out, indent);
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String, indent: usize) {
        if self.is_empty() {
            out.push_str("[]");
            return;
        }
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_newline_indent(out, indent + 1);
            v.write_json(out, indent + 1);
        }
        push_newline_indent(out, indent);
        out.push(']');
    }
}

/// Render an object with its fields in the order given: the body of a
/// struct's [`ToJson`] impl (see [`json_object!`](crate::json_object)).
pub fn write_object(out: &mut String, indent: usize, fields: &[(&str, &dyn ToJson)]) {
    if fields.is_empty() {
        out.push_str("{}");
        return;
    }
    out.push('{');
    for (i, (name, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_newline_indent(out, indent + 1);
        name.write_json(out, indent + 1);
        out.push_str(": ");
        value.write_json(out, indent + 1);
    }
    push_newline_indent(out, indent);
    out.push('}');
}

/// Implement [`ToJson`] for a struct as an object of the listed fields,
/// written in the order listed:
/// `silentcert_obs::json_object!(Point { x, y });`.
#[macro_export]
macro_rules! json_object {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn write_json(&self, out: &mut String, indent: usize) {
                $crate::json::write_object(out, indent, &[$((stringify!($field), &self.$field)),+]);
            }
        }
    };
}

fn push_newline_indent(out: &mut String, indent: usize) {
    out.push('\n');
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Render `value` as pretty JSON: two-space indent, `": "` after keys,
/// empty containers as `[]` / `{}`, no trailing newline.
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value.write_json(&mut out, 0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_protocol_shaped_requests() {
        let v = parse(
            r#"{"op":"classify","id":"r1","cert":"TUlJ","chain":["QQ=="],"deadline_ms":250}"#,
        )
        .unwrap();
        assert_eq!(v.get("op").unwrap().as_str(), Some("classify"));
        assert_eq!(v.get("deadline_ms").unwrap().as_f64(), Some(250.0));
        assert_eq!(v.get("chain").unwrap().as_array().unwrap().len(), 1);
    }

    #[test]
    fn rejects_garbage_and_truncation() {
        assert!(parse("not json").is_err());
        assert!(parse(r#"{"op":"#).is_err());
        assert!(parse(r#"{"a":1} trailing"#).is_err());
        assert!(parse("").is_err());
        for bad in ["01", "-01", "1.", "1.e5", "[00]"] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn depth_bomb_is_rejected_not_overflowed() {
        let bomb = "[".repeat(10_000);
        assert_eq!(parse(&bomb).unwrap_err().reason, "nesting too deep");
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = parse(r#""a\"b\\c\ndA😀""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nd\u{41}\u{1f600}"));
        assert_eq!(escape("a\"b\\c\nd"), r#"a\"b\\c\nd"#);
    }

    #[test]
    fn scalars() {
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("-2.5e2").unwrap(), Value::Number(-250.0));
        assert_eq!(parse("[]").unwrap(), Value::Array(vec![]));
        assert_eq!(parse("-0").unwrap(), Value::Number(-0.0));
        assert_eq!(parse("0.5").unwrap(), Value::Number(0.5));
        assert_eq!(parse("1E+5").unwrap(), Value::Number(100_000.0));
    }

    #[test]
    fn render_round_trips_compact_json() {
        let text = r#"{"a":[1,2.5,null,true],"b":{"nested":"q\"uote"},"z":-3}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.render(), text);
        assert_eq!(parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn scalars_and_strings() {
        assert_eq!(to_string_pretty(&42u64), "42");
        assert_eq!(to_string_pretty("a \"b\"\n"), r#""a \"b\"\n""#);
        assert_eq!(to_string_pretty(&f64::NAN), "null");
        assert_eq!(to_string_pretty(&u64::MAX), "18446744073709551615");
    }

    #[test]
    fn structs_render_pretty() {
        let mut out = String::new();
        write_object(&mut out, 0, &[("b", &1u32), ("a", &"x")]);
        assert_eq!(out, "{\n  \"b\": 1,\n  \"a\": \"x\"\n}");
        let mut out = String::new();
        write_object(&mut out, 0, &[]);
        assert_eq!(out, "{}");
    }

    #[test]
    fn vectors_nest() {
        assert_eq!(to_string_pretty(&vec![1u8, 2]), "[\n  1,\n  2\n]");
        assert_eq!(to_string_pretty(&Vec::<u8>::new()), "[]");
        let nested = vec![vec![1u8], vec![]];
        assert_eq!(to_string_pretty(&nested), "[\n  [\n    1\n  ],\n  []\n]");
        struct Point {
            x: u8,
            y: &'static str,
        }
        crate::json_object!(Point { x, y });
        let points = vec![Point { x: 1, y: "a" }];
        assert_eq!(
            to_string_pretty(&points),
            "[\n  {\n    \"x\": 1,\n    \"y\": \"a\"\n  }\n]"
        );
    }

    /// Code points weighted towards the ones the escaper treats
    /// specially: controls, `"`, `\`, and non-BMP (surrogate pairs when
    /// a reader `\u`-escapes them).
    fn any_char() -> impl Strategy<Value = char> {
        prop_oneof![
            0u32..0x20,
            Just(u32::from(b'"')),
            Just(u32::from(b'\\')),
            0x20u32..0x80,
            0x80u32..0xd800,
            0xe000u32..0x1_0000,
            0x1_0000u32..0x11_0000,
        ]
        .prop_map(|c| char::from_u32(c).unwrap())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn escape_then_parse_is_identity(chars in proptest::collection::vec(any_char(), 0..24)) {
            let s: String = chars.into_iter().collect();
            let quoted = format!("\"{}\"", escape(&s));
            prop_assert_eq!(parse(&quoted).unwrap(), Value::String(s.clone()));
            let rendered = Value::String(s.clone()).render();
            prop_assert_eq!(&rendered, &quoted);
            prop_assert_eq!(parse(&rendered).unwrap(), Value::String(s));
        }
    }
}
