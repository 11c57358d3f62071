//! The one hand-rolled JSON codec of the whole stack.
//!
//! Every byte of JSON this repository emits — the wire tier's `/estimate`,
//! `/ingest`, `/healthz`, `/trace`, `/audit` and error bodies — goes through
//! [`JsonWriter`], and every byte it accepts comes back through [`parse`]. One module is the
//! single source of truth for the wire format: escaping rules, number
//! formatting and nesting cannot drift between the HTTP listener and the
//! client. Strings are escaped by [`escape_json_into`], which the audit
//! journal's JSONL lines share.
//!
//! The build environment has no registry access (see `crates/compat/`), so
//! this is a deliberate, minimal, dependency-free implementation rather than
//! a serde stand-in: objects, arrays, strings (with `\uXXXX` escapes),
//! finite numbers, booleans and null. Non-finite floats serialize as `null`
//! (JSON has no NaN), and the parser enforces a nesting-depth cap so
//! adversarial input cannot blow the stack.

use ccdp_obs::audit::escape_json_into;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Maximum nesting depth [`parse`] accepts before refusing the document.
pub const MAX_PARSE_DEPTH: usize = 32;

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// An append-only JSON object/array writer.
///
/// The writer tracks comma placement itself, so call sites just emit fields
/// in order:
///
/// ```
/// use ccdp_serve::json::JsonWriter;
///
/// let mut w = JsonWriter::object();
/// w.field_str("tenant", "acme");
/// w.field_u64("requests", 3);
/// w.field_f64("epsilon", 0.5);
/// assert_eq!(w.finish(), r#"{"tenant":"acme","requests":3,"epsilon":0.5}"#);
/// ```
#[derive(Debug)]
pub struct JsonWriter {
    buf: String,
    /// Stack of "has this scope already emitted an element" flags; the last
    /// entry is the open scope.
    scopes: Vec<bool>,
    closer: Vec<char>,
}

impl JsonWriter {
    /// A writer with `{` already open; [`finish`](Self::finish) closes it.
    pub fn object() -> Self {
        JsonWriter {
            buf: String::from("{"),
            scopes: vec![false],
            closer: vec!['}'],
        }
    }

    /// A writer with `[` already open; [`finish`](Self::finish) closes it.
    pub fn array() -> Self {
        JsonWriter {
            buf: String::from("["),
            scopes: vec![false],
            closer: vec![']'],
        }
    }

    fn comma(&mut self) {
        if let Some(emitted) = self.scopes.last_mut() {
            if *emitted {
                self.buf.push(',');
            }
            *emitted = true;
        }
    }

    fn key(&mut self, name: &str) {
        self.comma();
        self.buf.push('"');
        escape_json_into(name, &mut self.buf);
        self.buf.push_str("\":");
    }

    /// Emits `"name": "value"` with full string escaping.
    pub fn field_str(&mut self, name: &str, value: &str) -> &mut Self {
        self.key(name);
        self.buf.push('"');
        escape_json_into(value, &mut self.buf);
        self.buf.push('"');
        self
    }

    /// Emits `"name": value` for an unsigned integer.
    pub fn field_u64(&mut self, name: &str, value: u64) -> &mut Self {
        self.key(name);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Emits `"name": value` for a float (`null` when non-finite — JSON has
    /// no NaN/Infinity).
    pub fn field_f64(&mut self, name: &str, value: f64) -> &mut Self {
        self.key(name);
        push_f64(&mut self.buf, value);
        self
    }

    /// Emits `"name": value` rounded to `digits` decimal places (the report
    /// format; full precision is rarely wire-worthy).
    pub fn field_f64_rounded(&mut self, name: &str, value: f64, digits: usize) -> &mut Self {
        self.key(name);
        if value.is_finite() {
            let _ = write!(self.buf, "{value:.digits$}");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Emits `"name": true|false`.
    pub fn field_bool(&mut self, name: &str, value: bool) -> &mut Self {
        self.key(name);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Opens a nested object under `name`; close with
    /// [`end`](Self::end).
    pub fn begin_object(&mut self, name: &str) -> &mut Self {
        self.key(name);
        self.buf.push('{');
        self.scopes.push(false);
        self.closer.push('}');
        self
    }

    /// Opens a nested array under `name`; close with [`end`](Self::end).
    pub fn begin_array(&mut self, name: &str) -> &mut Self {
        self.key(name);
        self.buf.push('[');
        self.scopes.push(false);
        self.closer.push(']');
        self
    }

    /// Opens an object element inside the open array.
    pub fn begin_element_object(&mut self) -> &mut Self {
        self.comma();
        self.buf.push('{');
        self.scopes.push(false);
        self.closer.push('}');
        self
    }

    /// Closes the innermost open object/array (not the root; the root closes
    /// in [`finish`](Self::finish)).
    pub fn end(&mut self) -> &mut Self {
        if self.scopes.len() > 1 {
            self.scopes.pop();
            let c = self.closer.pop().expect("closer stack tracks scopes");
            self.buf.push(c);
        }
        self
    }

    /// Closes every open scope and returns the document.
    pub fn finish(mut self) -> String {
        while let Some(c) = self.closer.pop() {
            self.buf.push(c);
        }
        self.buf
    }
}

fn push_f64(buf: &mut String, value: f64) {
    if value.is_finite() {
        let _ = write!(buf, "{value}");
    } else {
        buf.push_str("null");
    }
}

/// One top-level convenience: `{"error": {"code": ..., "message": ...}}` —
/// the error-body shape shared by the wire tier and the CLI.
pub fn error_body(code: &str, message: &str) -> String {
    let mut w = JsonWriter::object();
    w.begin_object("error");
    w.field_str("code", code);
    w.field_str("message", message);
    w.end();
    w.finish()
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// A parsed JSON value (the minimal model the wire tier needs).
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always held as `f64`).
    Number(f64),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object. A `BTreeMap` keeps key order deterministic; duplicate keys
    /// keep the last occurrence (the common lenient behavior).
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The value under `key` if this is an object holding it.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// This value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// This value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// This value as a non-negative integer, if it is a whole number that
    /// fits `u64` exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// This value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Why a document failed to parse. The offset is a byte position into the
/// input, good enough to point an operator at the problem.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonParseError {}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<JsonValue, JsonParseError> {
    let mut p = Parser { text, pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.text.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonParseError {
        JsonParseError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonParseError> {
        if depth > MAX_PARSE_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected byte 0x{c:02x}"))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, JsonParseError> {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected `{lit}`")))
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value(depth + 1)?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
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
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hex = self
                                .text
                                .as_bytes()
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ASCII \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogates are refused rather than paired: the
                            // writer never emits them, so accepting lone
                            // halves would only launder invalid input.
                            let ch = char::from_u32(code)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(ch);
                            self.pos += 3; // the +1 below completes the 4
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(self.err("raw control character in string"));
                }
                Some(_) => {
                    // Consume one UTF-8 scalar: `pos` only ever advances by
                    // ASCII bytes or whole scalars, so it is a char boundary.
                    let ch = self.text[self.pos..].chars().next().expect("non-empty");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        // Digits and punctuation are ASCII, so both ends are char boundaries.
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .ok()
            .filter(|n| n.is_finite())
            .map(JsonValue::Number)
            .ok_or_else(|| self.err(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_emits_nested_documents() {
        let mut w = JsonWriter::object();
        w.field_str("name", "a \"quoted\"\nline");
        w.field_u64("count", 7);
        w.field_f64("nan", f64::NAN);
        w.begin_object("inner");
        w.field_bool("ok", true);
        w.end();
        w.begin_array("xs");
        w.begin_element_object().field_f64("x", 1.5).end();
        w.begin_element_object().field_str("x", "two").end();
        w.end();
        let text = w.finish();
        let v = parse(&text).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("a \"quoted\"\nline"));
        assert_eq!(v.get("count").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("nan"), Some(&JsonValue::Null));
        assert_eq!(
            v.get("inner").unwrap().get("ok").unwrap().as_bool(),
            Some(true)
        );
        let xs = match v.get("xs") {
            Some(JsonValue::Array(xs)) => xs,
            other => panic!("xs is not an array: {other:?}"),
        };
        assert_eq!(xs.len(), 2);
        assert_eq!(xs[0].get("x"), Some(&JsonValue::Number(1.5)));
        assert_eq!(xs[1].get("x"), Some(&JsonValue::String("two".into())));
    }

    #[test]
    fn finish_closes_unbalanced_scopes() {
        let mut w = JsonWriter::object();
        w.begin_object("a");
        w.begin_array("b");
        w.begin_element_object().field_f64("x", 1.0);
        let text = w.finish();
        assert!(parse(&text).is_ok(), "{text}");
    }

    #[test]
    fn error_body_shape_is_stable() {
        let body = error_body("queue_full", "request queue full (capacity 8)");
        let v = parse(&body).unwrap();
        let e = v.get("error").unwrap();
        assert_eq!(e.get("code").unwrap().as_str(), Some("queue_full"));
        assert!(e.get("message").unwrap().as_str().unwrap().contains('8'));
    }

    #[test]
    fn parser_round_trips_escapes_and_numbers() {
        let v = parse(r#"{"s":"\u0041\n\"","n":-1.5e2,"b":[true,false,null]}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("A\n\""));
        assert_eq!(v.get("n").unwrap().as_f64(), Some(-150.0));
        assert_eq!(
            v.get("b"),
            Some(&JsonValue::Array(vec![
                JsonValue::Bool(true),
                JsonValue::Bool(false),
                JsonValue::Null
            ]))
        );
    }

    #[test]
    fn parser_refuses_malformed_documents_with_typed_errors() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "{\"a\":}",
            "\"unterminated",
            "tru",
            "01x",
            "{} trailing",
            "\"\\u12\"",
            "\"\\ud800\"", // lone surrogate
            "nan",
            "\u{1}",
        ] {
            assert!(parse(bad).is_err(), "must refuse {bad:?}");
        }
        // Depth bomb: refused, not a stack overflow.
        let bomb = "[".repeat(4096) + &"]".repeat(4096);
        assert!(parse(&bomb).is_err());
    }

    #[test]
    fn parser_accepts_unicode_and_whitespace() {
        let v = parse(" { \"k\" : \"héllo ☂\" } ").unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some("héllo ☂"));
        assert_eq!(parse("3").unwrap().as_f64(), Some(3.0));
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(parse("3.5").unwrap().as_u64(), None);
        assert_eq!(parse("-3").unwrap().as_u64(), None);
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
    }
}
