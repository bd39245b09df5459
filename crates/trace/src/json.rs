//! The workspace's one JSON module: a small escaping-safe writer, shared
//! by every machine-readable output (the JSONL and Chrome-trace sinks, the
//! metrics report, the service's responses, the benchmark files), and its
//! read-side counterpart, a strict recursive-descent parser.
//!
//! The workspace deliberately has no serde dependency; before this module,
//! each JSON producer hand-rolled its formatting and none escaped strings —
//! a workload or function name containing `"` or `\` produced invalid
//! output. [`JsonWriter`] centralises comma placement and escaping.
//! [`parse`] reads one document (the service's request lines, the metrics
//! a client polls); [`validate`] is the same grammar as a syntax check,
//! used by tests and the fuzz/CI smoke paths to prove emitted documents
//! parse. Nesting is bounded by [`MAX_DEPTH`], so no input can overflow
//! the stack.

use std::fmt;
use std::fmt::Write as _;

/// Escapes `s` as JSON string *contents* (no surrounding quotes) into
/// `out`: `"`, `\`, and control characters become escape sequences.
///
/// Every byte that needs escaping is ASCII, so the bytes between two of
/// them always form whole characters: each such run is copied with one
/// `push_str` rather than character by character.
pub fn escape_into(out: &mut String, s: &str) {
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// The escaped form of `s`, quotes included.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_into(&mut out, s);
    out.push('"');
    out
}

/// What the writer is inside of, for comma placement.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Ctx {
    Object,
    Array,
}

/// An append-only JSON document builder with automatic comma placement and
/// mandatory string escaping.
///
/// ```
/// use lsra_trace::json::JsonWriter;
/// let mut w = JsonWriter::new();
/// w.begin_object();
/// w.key("name");
/// w.string("say \"hi\"");
/// w.key("xs");
/// w.begin_array();
/// w.uint(1);
/// w.uint(2);
/// w.end_array();
/// w.end_object();
/// let doc = w.finish();
/// assert_eq!(doc, r#"{"name": "say \"hi\"", "xs": [1, 2]}"#);
/// lsra_trace::json::validate(&doc).unwrap();
/// ```
#[derive(Debug, Default)]
pub struct JsonWriter {
    buf: String,
    stack: Vec<Ctx>,
    /// A value has already been written at the current nesting level.
    has_value: bool,
    /// A key was just written; the next value follows `: ` with no comma.
    after_key: bool,
}

impl JsonWriter {
    /// An empty document.
    pub fn new() -> Self {
        JsonWriter::default()
    }

    /// The finished document text, with no spare capacity: callers keep
    /// large documents (service replies, a load generator's expected
    /// replies) alive, and a buffer grown by doubling can hold nearly twice
    /// its length.
    pub fn finish(mut self) -> String {
        debug_assert!(self.stack.is_empty(), "unclosed object/array");
        self.buf.shrink_to_fit();
        self.buf
    }

    /// Bytes written so far (for inspection mid-build).
    pub fn as_str(&self) -> &str {
        &self.buf
    }

    fn pre_value(&mut self) {
        if self.after_key {
            self.after_key = false;
        } else if self.has_value {
            self.buf.push_str(", ");
        }
        self.has_value = true;
    }

    /// Opens `{`.
    pub fn begin_object(&mut self) {
        self.pre_value();
        self.buf.push('{');
        self.stack.push(Ctx::Object);
        self.has_value = false;
    }

    /// Closes `}`.
    pub fn end_object(&mut self) {
        debug_assert_eq!(self.stack.pop(), Some(Ctx::Object));
        self.buf.push('}');
        self.has_value = true;
    }

    /// Opens `[`.
    pub fn begin_array(&mut self) {
        self.pre_value();
        self.buf.push('[');
        self.stack.push(Ctx::Array);
        self.has_value = false;
    }

    /// Closes `]`.
    pub fn end_array(&mut self) {
        debug_assert_eq!(self.stack.pop(), Some(Ctx::Array));
        self.buf.push(']');
        self.has_value = true;
    }

    /// Writes an object key (escaped); the next call writes its value.
    pub fn key(&mut self, k: &str) {
        debug_assert_eq!(self.stack.last(), Some(&Ctx::Object));
        if self.has_value {
            self.buf.push_str(", ");
        }
        self.buf.push('"');
        escape_into(&mut self.buf, k);
        self.buf.push_str("\": ");
        self.has_value = true;
        self.after_key = true;
    }

    /// Writes a string value (escaped).
    pub fn string(&mut self, s: &str) {
        self.pre_value();
        self.buf.push('"');
        escape_into(&mut self.buf, s);
        self.buf.push('"');
    }

    /// Writes an unsigned integer value.
    pub fn uint(&mut self, v: u64) {
        self.pre_value();
        let _ = write!(self.buf, "{v}");
    }

    /// Writes a signed integer value.
    pub fn int(&mut self, v: i64) {
        self.pre_value();
        let _ = write!(self.buf, "{v}");
    }

    /// Writes a float value (shortest round-trip form; non-finite values
    /// become `null`, which JSON requires).
    pub fn float(&mut self, v: f64) {
        self.pre_value();
        if v.is_finite() {
            // `{:?}` guarantees a decimal point or exponent, so the value
            // reads back as a float, not an integer.
            let _ = write!(self.buf, "{v:?}");
        } else {
            self.buf.push_str("null");
        }
    }

    /// Writes a boolean value.
    pub fn bool(&mut self, v: bool) {
        self.pre_value();
        self.buf.push_str(if v { "true" } else { "false" });
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.pre_value();
        self.buf.push_str("null");
    }

    /// Convenience: `key` + string value.
    pub fn field_str(&mut self, k: &str, v: &str) {
        self.key(k);
        self.string(v);
    }

    /// Convenience: `key` + unsigned value.
    pub fn field_uint(&mut self, k: &str, v: u64) {
        self.key(k);
        self.uint(v);
    }

    /// Convenience: `key` + float value.
    pub fn field_float(&mut self, k: &str, v: f64) {
        self.key(k);
        self.float(v);
    }
}

/// Strictly checks that `s` is one complete JSON value (objects, arrays,
/// strings, numbers, `true`/`false`/`null`; trailing whitespace allowed):
/// exactly what [`parse`] accepts.
///
/// # Errors
///
/// Returns a byte offset and message for the first syntax error.
pub fn validate(s: &str) -> Result<(), String> {
    parse(s).map(|_| ()).map_err(|e| e.to_string())
}

/// One parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (the protocol only uses non-negative integers, but
    /// the parser accepts the full grammar).
    Num(f64),
    /// A string, with escapes already decoded.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source order (the protocol rejects duplicate keys at a
    /// higher level, not here).
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// The object's field `key`, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if this is a number that is
    /// one (finite, integral, in `u64` range).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The number payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// A short name for the value's type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            JsonValue::Null => "null",
            JsonValue::Bool(_) => "boolean",
            JsonValue::Num(_) => "number",
            JsonValue::Str(_) => "string",
            JsonValue::Array(_) => "array",
            JsonValue::Object(_) => "object",
        }
    }
}

/// A parse error: byte offset plus message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error in the input.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.at)
    }
}

/// The deepest nesting of arrays and objects [`parse`] accepts. The
/// parser recurses once per level, so the bound keeps a hostile document
/// from overflowing the stack; every document the workspace writes nests
/// fewer than 8 levels.
pub const MAX_DEPTH: usize = 128;

/// Parses `s` as exactly one JSON value (trailing whitespace allowed).
///
/// # Errors
///
/// Returns the first syntax error with its byte offset, including arrays
/// and objects nested deeper than [`MAX_DEPTH`].
pub fn parse(s: &str) -> Result<JsonValue, ParseError> {
    let mut p = Parser { s, b: s.as_bytes(), i: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(p.err("trailing data"));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a str,
    b: &'a [u8],
    i: usize,
    /// Arrays and objects open at the current position.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError { at: self.i, msg: msg.to_string() }
    }

    fn skip_ws(&mut self) {
        while matches!(self.b.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), ParseError> {
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn value(&mut self) -> Result<JsonValue, ParseError> {
        match self.b.get(self.i) {
            Some(&c @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
                }
                self.depth += 1;
                let v = if c == b'{' { self.object() } else { self.array() };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, ParseError> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.err("bad literal"))
        }
    }

    fn object(&mut self) -> Result<JsonValue, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.b.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.b.get(self.i) == Some(&b']') {
            self.i += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy each run of plain characters in one piece: a run ends
            // only at an ASCII byte, so it is always whole UTF-8.
            let run = self.i;
            while self.b.get(self.i).is_some_and(|&c| c != b'"' && c != b'\\' && c >= 0x20) {
                self.i += 1;
            }
            out.push_str(&self.s[run..self.i]);
            match self.b.get(self.i) {
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.b.get(self.i) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let v = self
                                .b
                                .get(self.i + 1..self.i + 5)
                                .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            // Surrogates are rejected rather than paired;
                            // the writer never emits them.
                            out.push(char::from_u32(v).ok_or_else(|| self.err("bad \\u scalar"))?);
                            self.i += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.i += 1;
                }
                Some(_) => return Err(self.err("raw control character")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, ParseError> {
        let start = self.i;
        if self.b.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        let digits = |p: &mut Self| {
            let s = p.i;
            while p.b.get(p.i).is_some_and(u8::is_ascii_digit) {
                p.i += 1;
            }
            p.i > s
        };
        if !digits(self) {
            return Err(self.err("bad number"));
        }
        if self.b.get(self.i) == Some(&b'.') {
            self.i += 1;
            if !digits(self) {
                return Err(self.err("bad fraction"));
            }
        }
        if matches!(self.b.get(self.i), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.b.get(self.i), Some(b'+' | b'-')) {
                self.i += 1;
            }
            if !digits(self) {
                return Err(self.err("bad exponent"));
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).unwrap();
        text.parse::<f64>().map(JsonValue::Num).map_err(|_| self.err("unrepresentable number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quotes_and_backslashes_round_trip() {
        // Workload and function names containing `"` and `\` (or any other
        // escaped character) must quote to valid JSON and parse back exactly.
        for name in [
            r#"fn "quoted""#,
            r"path\to\fn",
            "tab\there",
            "line\nbreak",
            "\"\\\"",
            "mixed \\\" end",
            "é—☃",
        ] {
            let q = quote(name);
            assert_eq!(parse(&q), Ok(JsonValue::Str(name.to_string())), "round-trip of {q}");
        }
    }

    #[test]
    fn parses_the_request_shape() {
        let v =
            parse(r#"{"id": "r1", "workload": "wc", "options": {"run": true}, "n": 3}"#).unwrap();
        assert_eq!(v.get("id").and_then(JsonValue::as_str), Some("r1"));
        assert_eq!(v.get("options").unwrap().get("run").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(v.get("n").and_then(JsonValue::as_u64), Some(3));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn numbers_parse_to_f64() {
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("1e3").unwrap().as_u64(), Some(1000));
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        parse(&nest(MAX_DEPTH)).expect("MAX_DEPTH levels parse");
        let err = parse(&nest(MAX_DEPTH + 1)).expect_err("one level more is refused");
        assert_eq!(err.at, MAX_DEPTH, "{err}");
        assert!(err.msg.contains("nesting deeper than 128"), "{err}");
        // Far past the bound, an unclosed document fails the same way
        // instead of recursing.
        let err = parse(&"[{\"a\": ".repeat(50_000)).unwrap_err();
        assert!(err.msg.starts_with("nesting deeper"), "{err}");
    }

    #[test]
    fn writer_builds_valid_documents() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("workload", "we\"ird\\name");
        w.key("entries");
        w.begin_array();
        for k in 0..3 {
            w.begin_object();
            w.field_uint("k", k);
            w.field_float("v", 0.5 * k as f64);
            w.key("flag");
            w.bool(k == 1);
            w.end_object();
        }
        w.end_array();
        w.key("nothing");
        w.null();
        w.end_object();
        let doc = w.finish();
        validate(&doc).unwrap_or_else(|e| panic!("{doc}: {e}"));
        assert!(doc.contains(r#""workload": "we\"ird\\name""#));
    }

    #[test]
    fn floats_are_rereadable() {
        let mut w = JsonWriter::new();
        w.begin_array();
        w.float(1.0);
        w.float(0.1);
        w.float(f64::NAN);
        w.end_array();
        let doc = w.finish();
        validate(&doc).unwrap();
        assert_eq!(doc, "[1.0, 0.1, null]");
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        for bad in [
            "{",
            "[1,",
            "{\"a\" 1}",
            "\"\\x\"",
            "01x",
            "{} extra",
            "nul",
            "\"unterminated",
            "[1 2]",
            "\"\\ud800\"",
            "\"\\u+0e9\"",
            "\"\\u00e\"",
        ] {
            assert!(validate(bad).is_err(), "accepted {bad:?}");
        }
        for good in ["{}", "[]", "3.5e-2", "-0", "\"a\\u00e9b\"", "  [null, true]  "] {
            validate(good).unwrap_or_else(|e| panic!("rejected {good:?}: {e}"));
        }
    }
}
