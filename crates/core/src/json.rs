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

use std::fmt;
use std::fmt::Write as _;

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
            Value::String(s) => write_string(s, out),
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
                out.push('{');
                for (index, (key, value)) in members.iter().enumerate() {
                    if index > 0 {
                        out.push(',');
                    }
                    write_string(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
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

fn write_string(s: &str, out: &mut String) {
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: u32,
}

/// Maximum container nesting. The parser is recursive-descent, and plimd
/// feeds it untrusted network input: without a cap, a line of 200k `[`
/// bytes overflows the connection thread's stack and aborts the whole
/// process. 128 matches serde_json's default.
const MAX_DEPTH: u32 = 128;

impl Parser<'_> {
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
            Some(b'"') => Ok(Value::String(self.string()?)),
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
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            let key_at = self.pos;
            let key = self.string()?;
            if members.iter().any(|(k, _)| *k == key) {
                return Err(ParseJsonError {
                    at: key_at,
                    message: format!("duplicate key \"{key}\""),
                });
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
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

    fn string(&mut self) -> Result<String, ParseJsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(byte) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match byte {
                b'"' => return Ok(out),
                b'\\' => {
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
                            // Combine a UTF-16 surrogate pair when the lead
                            // half is immediately followed by `\uXXXX`.
                            let c = if (0xD800..0xDC00).contains(&unit) {
                                if self.peek() == Some(b'\\')
                                    && self.bytes.get(self.pos + 1) == Some(&b'u')
                                {
                                    self.pos += 2;
                                    let trail = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&trail) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let code = 0x10000
                                        + ((unit as u32 - 0xD800) << 10)
                                        + (trail as u32 - 0xDC00);
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
                            return Err(
                                self.err(format!("unsupported escape `\\{}`", other as char))
                            );
                        }
                    }
                }
                b if b < 0x20 => {
                    self.pos -= 1;
                    return Err(self.err("unescaped control character in string"));
                }
                _ => {
                    // Re-assemble the full UTF-8 sequence starting here.
                    let start = self.pos - 1;
                    let len = utf8_len(byte);
                    let end = start + len;
                    if len == 0 || end > self.bytes.len() {
                        self.pos = start;
                        return Err(self.err("invalid UTF-8 in string"));
                    }
                    match std::str::from_utf8(&self.bytes[start..end]) {
                        Ok(s) => {
                            out.push_str(s);
                            self.pos = end;
                        }
                        Err(_) => {
                            self.pos = start;
                            return Err(self.err("invalid UTF-8 in string"));
                        }
                    }
                }
            }
        }
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Value::Number(n)),
            _ => {
                self.pos = start;
                Err(self.err(format!("invalid number `{text}`")))
            }
        }
    }
}

/// Length of the UTF-8 sequence introduced by `byte` (0 for invalid leads).
fn utf8_len(byte: u8) -> usize {
    match byte {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        0xF0..=0xF7 => 4,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
