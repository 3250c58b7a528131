//! A minimal JSON layer shared by every machine-readable artifact.
//!
//! The workspace builds offline, so instead of depending on `serde_json`
//! this module hand-rolls the small JSON subset the compiler actually
//! speaks: the `BENCH.json` bench-gate artifact and the newline-delimited
//! wire protocol of the `plimd` compile service (both in `plim-service`).
//!
//! [`Value::parse`] produces a [`Value`] tree and rejects, with byte-accurate
//! positions, exactly the malformed documents a hand-edited artifact or a
//! buggy client is likely to produce: truncated input, trailing garbage,
//! duplicate object keys, bad escapes, and malformed numbers. [`Value::to_json`]
//! writes a compact single-line document whose string escaping round-trips
//! arbitrary text — including embedded newlines, which is what makes
//! newline-delimited framing safe for multi-line circuit dumps.
//!
//! Object member order is preserved on both sides (objects are association
//! lists, not maps), so writers control their layout and tests can assert
//! byte-exact output.
//!
//! ```
//! use plim_compiler::json::Value;
//!
//! let value = Value::parse("{\"name\": \"adder\", \"rams\": 12}").unwrap();
//! assert_eq!(value.get("name").and_then(Value::as_str), Some("adder"));
//! assert_eq!(value.get("rams").and_then(Value::as_u64), Some(12));
//! ```

use std::borrow::Cow;
use std::collections::HashSet;
use std::fmt;
use std::fmt::Write as _;

#[cfg(test)]
mod oracle;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`, like the artifacts require).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, as an association list in document order. [`Value::parse`]
    /// guarantees the keys are distinct.
    Object(Vec<(String, Value)>),
}

/// Error produced when parsing a JSON document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseJsonError {
    /// Byte offset of the error in the input.
    pub at: usize,
    /// Explanation of the problem.
    pub message: String,
}

impl fmt::Display for ParseJsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseJsonError {}

impl Value {
    /// Parses a complete JSON document (trailing garbage is an error).
    ///
    /// # Errors
    ///
    /// Returns [`ParseJsonError`] naming the first byte that violates the
    /// grammar; duplicate keys within one object are rejected.
    pub fn parse(text: &str) -> Result<Value, ParseJsonError> {
        let mut parser = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        parser.skip_ws();
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(parser.err("trailing content after the document"));
        }
        Ok(value)
    }

    /// Writes the value as compact single-line JSON. All control characters
    /// in strings are escaped, so the output never contains a raw newline.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => write_number(*n, out),
            Value::String(s) => write_str(s, out),
            Value::Array(items) => {
                out.push('[');
                for (index, item) in items.iter().enumerate() {
                    if index > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Object(members) => {
                let mut object = ObjectWriter::new(out);
                for (key, value) in members {
                    object.member(key, value);
                }
                object.finish();
            }
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an unsigned integer, if this is a
    /// non-negative whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            // Strictly below 2^64: `u64::MAX as f64` rounds UP to 2^64,
            // so `<=` would let 2^64 through and saturate the cast.
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n < u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(members) => Some(members),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Looks up a key in an object (`None` for other value kinds).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Looks up a key in an object for changing its value in place, for
    /// instance to move a large string out with [`std::mem::take`].
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        match self {
            Value::Object(members) => members.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn object(members: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
        Value::Object(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Builds a string value.
    pub fn string(text: impl Into<String>) -> Value {
        Value::String(text.into())
    }

    /// Builds a number value from an unsigned integer.
    pub fn number(value: u64) -> Value {
        Value::Number(value as f64)
    }
}

fn write_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        // JSON has no NaN/Infinity; emit null (serde_json's choice) so
        // the output always parses back.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 1e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// Appends `text` as a JSON string literal: quoted, with `"`, `\` and the
/// control characters escaped (`\n`, `\r`, `\t`, else `\u00xx`).
///
/// Everything between two such bytes is copied in one run, the string
/// scanning of Langdale and Lemire's "Parsing Gigabytes of JSON per
/// Second" without the SIMD: plimd's responses carry listings of tens of
/// kilobytes whose only escapes are their line ends.
fn write_str(text: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.reserve(text.len() + 2);
    out.push('"');
    let bytes = text.as_bytes();
    let mut start = 0;
    loop {
        // A run ends at an ASCII byte or at the end, so both ends of the
        // slice are char boundaries.
        let end = start + plain_run(&bytes[start..]);
        out.push_str(&text[start..end]);
        let Some(&byte) = bytes.get(end) else {
            break;
        };
        match byte {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(byte >> 4)]));
                out.push(char::from(HEX[usize::from(byte & 0xF)]));
            }
        }
        start = end + 1;
    }
    out.push('"');
}

/// Writes one JSON object member by member, byte for byte as
/// [`Value::to_json`] writes the same members, for a caller that holds a
/// large string it should not first copy into a [`Value`].
///
/// ```
/// use plim_compiler::json::{ObjectWriter, Value};
///
/// let mut line = String::new();
/// let mut object = ObjectWriter::new(&mut line);
/// object.member("ok", &Value::Bool(true)).str_member("output", "a\nb");
/// object.finish();
/// assert_eq!(line, r#"{"ok":true,"output":"a\nb"}"#);
/// ```
#[derive(Debug)]
pub struct ObjectWriter<'o> {
    out: &'o mut String,
    empty: bool,
}

impl<'o> ObjectWriter<'o> {
    /// Opens an object at the end of `out`.
    pub fn new(out: &'o mut String) -> ObjectWriter<'o> {
        out.push('{');
        ObjectWriter { out, empty: true }
    }

    /// Appends the member `key: value`.
    pub fn member(&mut self, key: &str, value: &Value) -> &mut Self {
        self.key(key);
        value.write(self.out);
        self
    }

    /// Appends the member `key: text`, a string, without copying `text`
    /// into a [`Value`].
    pub fn str_member(&mut self, key: &str, text: &str) -> &mut Self {
        self.key(key);
        write_str(text, self.out);
        self
    }

    /// Closes the object.
    pub fn finish(self) {
        self.out.push('}');
    }

    fn key(&mut self, key: &str) {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        write_str(key, self.out);
        self.out.push(':');
    }
}

/// The length of the prefix of `bytes` that a JSON string holds verbatim:
/// the offset of the first `"`, `\` or control byte (below 0x20), or the
/// length when there is none. Scans a word of eight bytes per step.
fn plain_run(bytes: &[u8]) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    let mut words = bytes.chunks_exact(8);
    let mut offset = 0;
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("eight-byte chunk"));
        let quote = word ^ (ONES * u64::from(b'"'));
        let backslash = word ^ (ONES * u64::from(b'\\'));
        // `(x - ONES) & !x & HIGHS` flags the zero bytes of `x`, and
        // `(x - 0x20 * ONES) & !x & HIGHS` the bytes below 0x20. A borrow
        // can flag a byte above a true hit but never one below it, so the
        // lowest flag is exact. Bytes from 0x80 up (all of UTF-8's
        // multi-byte sequences) are never flagged.
        let hits = (quote.wrapping_sub(ONES) & !quote
            | backslash.wrapping_sub(ONES) & !backslash
            | word.wrapping_sub(ONES * 0x20) & !word)
            & HIGHS;
        if hits != 0 {
            return offset + (hits.trailing_zeros() / 8) as usize;
        }
        offset += 8;
    }
    let tail = words.remainder();
    offset
        + tail
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
            .unwrap_or(tail.len())
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: u32,
}

/// Maximum container nesting. The parser is recursive-descent, and plimd
/// feeds it untrusted network input: without a cap, a line of 200k `[`
/// bytes overflows the connection thread's stack and aborts the whole
/// process. 128 matches serde_json's default.
const MAX_DEPTH: u32 = 128;

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> ParseJsonError {
        ParseJsonError {
            at: self.pos,
            message: message.into(),
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

    fn expect(&mut self, byte: u8) -> Result<(), ParseJsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", byte as char)))
        }
    }

    fn keyword(&mut self, word: &str, value: Value) -> Result<Value, ParseJsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseJsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Parser::object),
            Some(b'[') => self.nested(Parser::array),
            Some(b'"') => Ok(Value::String(self.string()?.into_owned())),
            Some(b't') => self.keyword("true", Value::Bool(true)),
            Some(b'f') => self.keyword("false", Value::Bool(false)),
            Some(b'n') => self.keyword("null", Value::Null),
            Some(b'0'..=b'9' | b'-') => self.number(),
            Some(_) => Err(self.err("expected a JSON value")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Runs a container parser one nesting level deeper, erroring out
    /// instead of recursing past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Value, ParseJsonError>,
    ) -> Result<Value, ParseJsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Value, ParseJsonError> {
        self.expect(b'{')?;
        let mut members: Vec<(String, Value)> = Vec::new();
        // Every key seen so far, so an object of n keys costs O(n) and not
        // O(n²); a key without escapes borrows the input.
        let mut keys: HashSet<Cow<'a, str>> = HashSet::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            let key_at = self.pos;
            let key = self.string()?;
            if !keys.insert(key.clone()) {
                return Err(ParseJsonError {
                    at: key_at,
                    message: format!("duplicate key \"{key}\""),
                });
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key.into_owned(), value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(members));
                }
                _ => return Err(self.err("expected `,` or `}` in an object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseJsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]` in an array")),
            }
        }
    }

    /// A string literal, copied run by run: everything up to the next `"`,
    /// `\` or control byte at once. The input is a `&str`, so no UTF-8 is
    /// checked again, and a run ends on a char boundary (at an ASCII byte).
    /// A string without escapes borrows the input.
    fn string(&mut self) -> Result<Cow<'a, str>, ParseJsonError> {
        self.expect(b'"')?;
        let mut decoded: Option<String> = None;
        let mut start = self.pos;
        loop {
            self.pos += plain_run(&self.bytes[self.pos..]);
            let run = &self.text[start..self.pos];
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match decoded {
                        None => Cow::Borrowed(run),
                        Some(mut out) => {
                            out.push_str(run);
                            Cow::Owned(out)
                        }
                    });
                }
                Some(b'\\') => {
                    let out = decoded.get_or_insert_with(String::new);
                    out.push_str(run);
                    self.pos += 1;
                    self.escape(out)?;
                    start = self.pos;
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
            }
        }
    }

    /// Decodes the escape after a `\` onto `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), ParseJsonError> {
        let Some(escape) = self.peek() else {
            return Err(self.err("unterminated escape"));
        };
        self.pos += 1;
        match escape {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let unit = self.hex4()?;
                // Combine a UTF-16 surrogate pair when the lead half is
                // immediately followed by `\uXXXX`.
                let c = if (0xD800..0xDC00).contains(&unit) {
                    if self.peek() == Some(b'\\') && self.bytes.get(self.pos + 1) == Some(&b'u') {
                        self.pos += 2;
                        let trail = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&trail) {
                            return Err(self.err("invalid low surrogate"));
                        }
                        let code =
                            0x10000 + ((unit as u32 - 0xD800) << 10) + (trail as u32 - 0xDC00);
                        char::from_u32(code)
                    } else {
                        return Err(self.err("unpaired surrogate"));
                    }
                } else {
                    char::from_u32(unit as u32)
                };
                match c {
                    Some(c) => out.push(c),
                    None => return Err(self.err("invalid \\u escape")),
                }
            }
            other => {
                self.pos -= 1;
                return Err(self.err(format!("unsupported escape `\\{}`", other as char)));
            }
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u16, ParseJsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        // Exactly four hex digits: `from_str_radix` alone would also
        // accept a sign (`\u+041`), which is not valid JSON.
        let digits = &self.bytes[self.pos..end];
        if !digits.iter().all(u8::is_ascii_hexdigit) {
            return Err(self.err("non-hex \\u escape"));
        }
        let hex = std::str::from_utf8(digits).expect("ascii hex digits");
        let unit = u16::from_str_radix(hex, 16).expect("checked hex digits");
        self.pos = end;
        Ok(unit)
    }

    fn number(&mut self) -> Result<Value, ParseJsonError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Value::Number(n)),
            _ => {
                self.pos = start;
                Err(self.err(format!("invalid number `{text}`")))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;

    #[test]
    fn parses_scalars() {
        assert_eq!(Value::parse("null").unwrap(), Value::Null);
        assert_eq!(Value::parse("true").unwrap(), Value::Bool(true));
        assert_eq!(Value::parse(" false ").unwrap(), Value::Bool(false));
        assert_eq!(Value::parse("42").unwrap(), Value::Number(42.0));
        assert_eq!(Value::parse("-1.5e2").unwrap(), Value::Number(-150.0));
        assert_eq!(Value::parse("\"hi\"").unwrap(), Value::string("hi"));
    }

    #[test]
    fn parses_nested_structures_in_order() {
        let value = Value::parse(r#"{"b": [1, {"x": null}], "a": "s"}"#).unwrap();
        let members = value.as_object().unwrap();
        assert_eq!(members[0].0, "b");
        assert_eq!(members[1].0, "a");
        let items = members[0].1.as_array().unwrap();
        assert_eq!(items[0].as_u64(), Some(1));
        assert_eq!(items[1].get("x"), Some(&Value::Null));
    }

    #[test]
    fn round_trips_tricky_strings() {
        for text in [
            "plain",
            "with \"quotes\" and \\backslashes\\",
            "newline\nand\ttab\rand\u{8}bell",
            "non-ascii Σ µ ←",
            "control \u{1} char",
        ] {
            let value = Value::string(text);
            let json = value.to_json();
            assert!(!json.contains('\n'), "framing-unsafe output: {json}");
            assert_eq!(Value::parse(&json).unwrap(), value, "{json}");
        }
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(
            Value::parse(r#""\u0041\u00e9\u20ac""#).unwrap(),
            Value::string("Aé€")
        );
        // Surrogate pair: 𝄞 (U+1D11E).
        assert_eq!(
            Value::parse(r#""\ud834\udd1e""#).unwrap(),
            Value::string("\u{1D11E}")
        );
        assert!(Value::parse(r#""\ud834""#).is_err());
        assert!(Value::parse(r#""\ud834\u0041""#).is_err());
    }

    #[test]
    fn truncated_documents_error_with_position() {
        for text in [
            "",
            "[",
            "[1,",
            "{\"a\"",
            "{\"a\": 1",
            "\"unterminated",
            "tru",
        ] {
            let err = Value::parse(text).unwrap_err();
            assert!(err.at <= text.len(), "{text:?}: {err}");
            assert!(err.to_string().starts_with("byte "), "{text:?}: {err}");
        }
    }

    #[test]
    fn trailing_content_is_rejected() {
        let err = Value::parse("[] extra").unwrap_err();
        assert!(err.message.contains("trailing"), "{err}");
        assert!(Value::parse("1 2").is_err());
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let err = Value::parse(r#"{"a": 1, "b": 2, "a": 3}"#).unwrap_err();
        assert!(err.message.contains("duplicate key \"a\""), "{err}");
        // Nested objects have their own key namespaces.
        assert!(Value::parse(r#"{"a": {"a": 1}, "b": {"a": 2}}"#).is_ok());
    }

    #[test]
    fn malformed_numbers_and_escapes_are_rejected() {
        assert!(Value::parse("1.2.3").is_err());
        assert!(Value::parse("--5").is_err());
        assert!(Value::parse("\"\\q\"").is_err());
        assert!(Value::parse("\"\\u12g4\"").is_err());
        assert!(Value::parse("{\"a\" 1}").is_err());
    }

    #[test]
    fn number_accessors_check_domains() {
        assert_eq!(Value::Number(7.0).as_u64(), Some(7));
        assert_eq!(Value::Number(7.5).as_u64(), None);
        assert_eq!(Value::Number(-7.0).as_u64(), None);
        // 2^64 is not representable as u64; it must not saturate through.
        assert_eq!(Value::parse("18446744073709551616").unwrap().as_u64(), None);
        assert_eq!(Value::Number(7.5).as_f64(), Some(7.5));
        assert_eq!(Value::string("7").as_u64(), None);
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
    }

    #[test]
    fn object_builder_and_lookup() {
        let value = Value::object([("op", Value::string("stats")), ("count", Value::number(3))]);
        assert_eq!(value.to_json(), r#"{"op":"stats","count":3}"#);
        assert_eq!(value.get("count").and_then(Value::as_u64), Some(3));
        assert_eq!(value.get("missing"), None);
        assert_eq!(Value::Null.get("count"), None);
    }

    #[test]
    fn large_and_fractional_numbers_write_correctly() {
        assert_eq!(Value::Number(0.25).to_json(), "0.25");
        assert_eq!(Value::Number(3.0).to_json(), "3");
        assert_eq!(Value::Number(-2.0).to_json(), "-2");
        let big = Value::Number(1e18);
        assert_eq!(Value::parse(&big.to_json()).unwrap(), big);
        // Non-finite values have no JSON spelling; they become null so
        // the output still parses.
        assert_eq!(Value::Number(f64::NAN).to_json(), "null");
        assert_eq!(Value::Number(f64::INFINITY).to_json(), "null");
        assert_eq!(Value::parse("null").unwrap(), Value::Null);
    }

    #[test]
    fn unicode_escape_rejects_signed_digits() {
        // `from_str_radix` would accept a sign; JSON requires 4 hex digits.
        assert!(Value::parse(r#""\u+041""#).is_err());
        assert!(Value::parse(r#""\u-041""#).is_err());
    }

    #[test]
    fn nesting_depth_is_bounded_not_stack_fatal() {
        // 200k unbalanced brackets used to overflow the stack and abort
        // the process; now it is an ordinary parse error.
        let deep = "[".repeat(200_000);
        let err = Value::parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting deeper"), "{err}");
        let deep_objects = "{\"k\":".repeat(200_000);
        assert!(Value::parse(&deep_objects).is_err());
        // Reasonable nesting still parses, and the depth budget resets
        // between sibling containers.
        let ok = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(Value::parse(&ok).is_ok());
        let siblings = "[[[1]],[[2]],[[3]]]";
        assert!(Value::parse(siblings).is_ok());
    }

    #[test]
    fn raw_newlines_in_strings_are_rejected() {
        assert!(Value::parse("\"line\nbreak\"").is_err());
    }

    /// Text the codec treats specially, drawn far more often than its
    /// share of real text: the quote, the backslash, control bytes and
    /// DEL, two- to four-byte chars, and plain runs of several lengths.
    const PIECES: &[&str] = &[
        "\"",
        "\\",
        "\n",
        "\r",
        "\t",
        "\u{0}",
        "\u{8}",
        "\u{c}",
        "\u{1b}",
        "\u{1f}",
        "\u{7f}",
        "¬",
        "←",
        "\u{1D11E}",
        "\u{1F600}",
        "a",
        "0, 1, @X1",
        "a plain run of text that spans several words",
    ];

    /// What may follow a `\` inside a literal: every valid escape, paired,
    /// unpaired and reversed surrogates, and malformed ones.
    const ESCAPES: &[&str] = &[
        "\\\"",
        "\\\\",
        "\\/",
        "\\b",
        "\\f",
        "\\n",
        "\\r",
        "\\t",
        "\\u0041",
        "\\u00e9",
        "\\u20AC",
        "\\u0000",
        "\\u001f",
        "\\ud834\\udd1e",
        "\\uD83D\\uDE00",
        "\\ud834",
        "\\ud834x",
        "\\ud834\\u0041",
        "\\ud834\\n",
        "\\udc00",
        "\\udd1e\\ud834",
        "\\u12",
        "\\u12g4",
        "\\u+041",
        "\\q",
        "\\",
    ];

    fn pick<'t>(rng: &mut TestRng, items: &[&'t str]) -> &'t str {
        items[rng.next_u64() as usize % items.len()]
    }

    /// A string of up to `max` pieces, with any control byte as a piece.
    fn arbitrary_text(rng: &mut TestRng, max: u64) -> String {
        let mut text = String::new();
        for _ in 0..rng.next_u64() % (max + 1) {
            if rng.next_u64().is_multiple_of(8) {
                text.push(char::from((rng.next_u64() % 0x20) as u8));
            } else {
                text.push_str(pick(rng, PIECES));
            }
        }
        text
    }

    /// A string literal as a client might write it: escapes valid or not,
    /// raw text (control bytes included), sometimes unterminated.
    fn arbitrary_literal(rng: &mut TestRng) -> String {
        let mut literal = String::from("\"");
        for _ in 0..rng.next_u64() % 8 {
            match rng.next_u64() % 3 {
                0 => literal.push_str(pick(rng, ESCAPES)),
                1 => literal.push_str(&arbitrary_text(rng, 3).replace('"', "")),
                _ => write_str(&arbitrary_text(rng, 4), &mut literal),
            }
        }
        if !rng.next_u64().is_multiple_of(16) {
            literal.push('"');
        }
        literal
    }

    /// A document of nested containers whose object keys repeat often
    /// (`a` also spelled `\u0061`), in objects of up to 19 members.
    fn arbitrary_document(rng: &mut TestRng, depth: u32, out: &mut String) {
        const KEYS: &[&str] = &["\"a\"", "\"\\u0061\"", "\"b\"", "\"\u{1D11E}\"", "\"\""];
        const SCALARS: &[&str] = &["0", "-1.5e2", "12", "1.2.3", "--5", "true", "null", "fals"];
        match rng.next_u64() % if depth == 0 { 2 } else { 4 } {
            0 => out.push_str(&arbitrary_literal(rng)),
            1 => out.push_str(pick(rng, SCALARS)),
            2 => {
                out.push('[');
                for index in 0..rng.next_u64() % 4 {
                    if index > 0 {
                        out.push(',');
                    }
                    arbitrary_document(rng, depth - 1, out);
                }
                out.push(']');
            }
            _ => {
                out.push('{');
                let members = rng.next_u64() % 20;
                for index in 0..members {
                    if index > 0 {
                        out.push_str(", ");
                    }
                    if rng.next_u64().is_multiple_of(4) {
                        out.push_str(pick(rng, KEYS));
                    } else {
                        let _ = write!(out, "\"k{}\"", rng.next_u64() % 64);
                    }
                    out.push(':');
                    arbitrary_document(rng, depth - 1, out);
                }
                out.push('}');
            }
        }
    }

    /// Cuts or splices a document at a char boundary, so the parsers meet
    /// truncated and garbled input.
    fn mutate(rng: &mut TestRng, document: &mut String) {
        if document.is_empty() {
            return;
        }
        let mut at = rng.next_u64() as usize % document.len();
        while !document.is_char_boundary(at) {
            at -= 1;
        }
        match rng.next_u64() % 3 {
            0 => document.truncate(at),
            1 => document.insert_str(at, pick(rng, PIECES)),
            _ => document.insert_str(at, pick(rng, ESCAPES)),
        }
    }

    /// Cases per property: the release-mode CI step runs 40 times more.
    fn codec_cases() -> ProptestConfig {
        ProptestConfig::with_cases(if cfg!(debug_assertions) { 512 } else { 20_480 })
    }

    proptest! {
        #![proptest_config(codec_cases())]

        /// Run-copying encodes byte for byte like the char-at-a-time
        /// writer, and its output decodes back to the string.
        #[test]
        fn encoding_matches_the_char_oracle(seed in any::<u64>()) {
            let rng = &mut TestRng::new(seed);
            let text = arbitrary_text(rng, 24);
            let value = Value::Array(vec![
                Value::string(text.clone()),
                Value::Object(vec![(text.clone(), Value::Number(0.5))]),
            ]);
            let json = value.to_json();
            prop_assert_eq!(&json, &oracle::to_json(&value));
            prop_assert_eq!(Value::parse(&json), Ok(value));
            let mut literal = String::new();
            write_str(&text, &mut literal);
            prop_assert_eq!(Value::parse(&literal), Ok(Value::String(text)));
        }

        /// Run-copying decodes every document, well-formed or not, to the
        /// char-at-a-time parser's value or to its error, offset included.
        #[test]
        fn decoding_matches_the_char_oracle(seed in any::<u64>()) {
            let rng = &mut TestRng::new(seed);
            let mut document = String::new();
            arbitrary_document(rng, 3, &mut document);
            for _ in 0..2 {
                prop_assert_eq!(Value::parse(&document), oracle::parse(&document), "{}", document);
                mutate(rng, &mut document);
            }
        }

        /// Flat objects of up to 40 members, their keys (some spelled with
        /// an escape) drawn from 48, so the hash-set duplicate check meets
        /// repeats at every position past its first members.
        #[test]
        fn large_objects_find_the_duplicates_the_char_oracle_finds(seed in any::<u64>()) {
            let rng = &mut TestRng::new(seed);
            let mut document = String::from("{");
            for index in 0..rng.next_u64() % 41 {
                if index > 0 {
                    document.push(',');
                }
                let key = rng.next_u64() % 48;
                if rng.next_u64().is_multiple_of(4) {
                    let _ = write!(document, "\"\\u006b{key}\":{index}");
                } else {
                    let _ = write!(document, "\"k{key}\":{index}");
                }
            }
            document.push('}');
            prop_assert_eq!(Value::parse(&document), oracle::parse(&document), "{}", document);
        }
    }

    #[test]
    fn the_word_scan_finds_each_special_byte_at_each_offset() {
        for special in (0u8..0x20).chain([b'"', b'\\']) {
            for len in 0..20 {
                for at in 0..len {
                    let mut bytes = vec![b'x'; len];
                    bytes[at] = special;
                    assert_eq!(plain_run(&bytes), at, "{special:#x} at {at} of {len}");
                }
                assert_eq!(plain_run(&vec![b'x'; len]), len);
            }
        }
        // Bytes next to the special ones, and every UTF-8 byte, run on.
        let plain: Vec<u8> = (b' '..=0xFF)
            .filter(|b| !matches!(b, b'"' | b'\\'))
            .collect();
        assert_eq!(plain_run(&plain), plain.len());
    }

    /// The duplicate check is linear: 200,000 keys took minutes when each
    /// new key was compared with every earlier one.
    #[test]
    fn objects_of_many_keys_decode_in_linear_time() {
        const KEYS: usize = 200_000;
        let mut text = String::from("{");
        for key in 0..KEYS {
            let _ = write!(text, "\"k{key}\":{key},");
        }
        text.push_str("\"last\":0}");
        let value = Value::parse(&text).unwrap();
        assert_eq!(value.as_object().map(<[_]>::len), Some(KEYS + 1));
        assert_eq!(value.get("k199999").and_then(Value::as_u64), Some(199_999));

        // The duplicate as the last key is found, at its own offset, also
        // when spelled with an escape.
        let at = text.len() - "\"last\":0}".len();
        for spelling in ["\"k7\"", "\"\\u006b7\""] {
            let duplicated = format!("{}{spelling}:0}}", &text[..at]);
            let err = Value::parse(&duplicated).unwrap_err();
            assert_eq!(err.message, "duplicate key \"k7\"");
            assert_eq!(err.at, at);
        }
    }

    #[test]
    fn object_writer_matches_the_value_writer() {
        let members = vec![
            ("ok".to_string(), Value::Bool(true)),
            ("n".to_string(), Value::number(7)),
            ("text".to_string(), Value::string("line\\n\"quoted\"\\u{1}")),
        ];
        let mut line = String::new();
        let mut object = ObjectWriter::new(&mut line);
        object
            .member("ok", &Value::Bool(true))
            .member("n", &Value::number(7));
        object.str_member("text", "line\\n\"quoted\"\\u{1}");
        object.finish();
        assert_eq!(line, Value::Object(members).to_json());
        let mut empty = String::from("[");
        ObjectWriter::new(&mut empty).finish();
        assert_eq!(empty, "[{}");
    }
}
