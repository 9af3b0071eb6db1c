//! A minimal JSON value model, writer, parser and typed reader.
//!
//! The exporter needs to *emit* JSON-lines and the tooling needs to
//! *validate* them (`clockmark-cli metrics`, the exporter round-trip
//! tests), and the build environment has no serde — so this module
//! implements the small subset of JSON the metrics format uses: objects,
//! arrays, strings, finite numbers, booleans and null. Non-finite floats
//! are written as `null`, matching what `JSON.stringify` does.
//!
//! Numbers keep their lexeme, so integers are exact. Persisted records
//! decode through one typed reader, [`Record`] and [`FromJson`]: a missing
//! field takes the caller's default, an unknown one is ignored, and a
//! wrong-typed, inexact or non-finite value is a [`DecodeError`] naming
//! its JSON path (`sequential.max_cycles`, `attacks[2].kind`, `snrs[1]`).

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A parsed JSON value.
///
/// Objects use a [`BTreeMap`] so iteration (and re-serialisation) is
/// deterministic regardless of input key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, as its source lexeme (one that parses as an
    /// `f64`), so integers past 2^53 stay exact.
    Number(String),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object.
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// The value of `key` when `self` is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The string content when `self` is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value when `self` is a number: exactly what Rust's
    /// `f64` parser makes of the lexeme (`-0` is −0.0, and a long integer
    /// lexeme is its nearest float).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(lexeme) => lexeme.parse().ok(),
            _ => None,
        }
    }

    /// The value when `self` is a plain integer — digits only, no sign,
    /// fraction or exponent — that fits a `u64`.
    fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Number(lexeme) if lexeme.bytes().all(|b| b.is_ascii_digit()) => {
                lexeme.parse().ok()
            }
            _ => None,
        }
    }
}

/// Appends `s` to `out` as a JSON string literal (quoted, escaped).
pub fn write_str(out: &mut String, s: &str) {
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

/// Appends `v` to `out` as a JSON number, or `null` when non-finite.
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // `{}` on a finite f64 always produces a valid JSON number
        // (integers print without an exponent or dot, which is fine).
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Appends `items` to `out` as a JSON array, each written by `write`.
pub fn write_list<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut write: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write(out, item);
    }
    out.push(']');
}

/// A parse failure, with the byte offset where it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What was wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Parses one complete JSON value; trailing whitespace is allowed,
/// anything else after the value is an error.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing data after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_owned(),
            offset: self.pos,
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

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{text}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(map));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = self.peek().ok_or_else(|| self.error("dangling escape"))?;
                    self.pos += 1;
                    match escaped {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogates (used by JSON for astral-plane
                            // characters) are replaced; the metrics format
                            // never emits them.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is a &str, so the
                    // encoding is already valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.error("invalid UTF-8"))?;
                    let c = s.chars().next().expect("peek saw a byte");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Digits, `.`, `e`, `E` and `+`; a `-` only as an exponent's sign.
        while let Some(b) = self.peek() {
            let exponent_sign = b == b'-' && matches!(self.bytes[self.pos - 1], b'e' | b'E');
            if !(b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+') || exponent_sign) {
                break;
            }
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII");
        text.parse::<f64>()
            .map(|_| Json::Number(text.to_owned()))
            .map_err(|_| self.error("invalid number"))
    }
}

/// A persisted value that does not decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// JSON path of the offending value; empty for the document itself.
    pub path: String,
    /// What was wrong.
    pub message: String,
}

impl DecodeError {
    fn expected(path: String, what: &str, got: &Json) -> Self {
        let got = match got {
            Json::Number(lexeme) => lexeme.clone(),
            Json::String(s) => format!("{s:?}"),
            Json::Array(_) => "an array".to_owned(),
            Json::Object(_) => "an object".to_owned(),
            Json::Bool(b) => b.to_string(),
            Json::Null => "null".to_owned(),
        };
        let message = format!("expected {what}, got {got}");
        DecodeError { path, message }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.path.as_str() {
            "" => f.write_str(&self.message),
            path => write!(f, "field `{path}`: {}", self.message),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A type a JSON value decodes into.
pub trait FromJson<'a>: Sized {
    /// Decodes `value`, found at the JSON path `path()`; an error names
    /// the path of the offending value.
    fn from_json(value: &'a Json, path: impl FnOnce() -> String) -> Result<Self, DecodeError>;
}

/// Parses `text` and decodes the whole document as a `T`.
pub fn decode<T: for<'a> FromJson<'a>>(text: &str) -> Result<T, DecodeError> {
    let value = parse(text).map_err(|e| DecodeError {
        path: String::new(),
        message: format!("invalid JSON: {e}"),
    })?;
    T::from_json(&value, String::new)
}

/// A JSON object being decoded: its fields, read by type. Each getter
/// fails with a [`DecodeError`] when a present field does not decode.
#[derive(Debug)]
pub struct Record<'a> {
    path: String,
    fields: &'a BTreeMap<String, Json>,
}

impl<'a> Record<'a> {
    fn path_of(&self, key: &str) -> String {
        match self.path.as_str() {
            "" => key.to_owned(),
            parent => format!("{parent}.{key}"),
        }
    }

    /// The field `key`, or `None` when it is absent.
    pub fn opt<T: FromJson<'a>>(&self, key: &str) -> Result<Option<T>, DecodeError> {
        self.fields
            .get(key)
            .map(|value| T::from_json(value, || self.path_of(key)))
            .transpose()
    }

    /// The field `key`, which must be present.
    pub fn req<T: FromJson<'a>>(&self, key: &str) -> Result<T, DecodeError> {
        self.opt(key)?.ok_or_else(|| self.error(key, "missing"))
    }

    /// The field `key`, or `default` when it is absent.
    pub fn or<T: FromJson<'a>>(&self, key: &str, default: T) -> Result<T, DecodeError> {
        Ok(self.opt(key)?.unwrap_or(default))
    }

    /// An error about the field `key`, for checks beyond its type.
    pub fn error(&self, key: &str, message: impl Into<String>) -> DecodeError {
        DecodeError {
            path: self.path_of(key),
            message: message.into(),
        }
    }
}

impl<'a> FromJson<'a> for Record<'a> {
    fn from_json(value: &'a Json, path: impl FnOnce() -> String) -> Result<Self, DecodeError> {
        match value {
            Json::Object(fields) => Ok(Record {
                path: path(),
                fields,
            }),
            other => Err(DecodeError::expected(path(), "an object", other)),
        }
    }
}

impl<'a, T: FromJson<'a>> FromJson<'a> for Vec<T> {
    fn from_json(value: &'a Json, path: impl FnOnce() -> String) -> Result<Self, DecodeError> {
        let path = path();
        match value {
            Json::Array(items) => items
                .iter()
                .enumerate()
                .map(|(i, item)| T::from_json(item, || format!("{path}[{i}]")))
                .collect(),
            other => Err(DecodeError::expected(path, "an array", other)),
        }
    }
}

/// A `u64` written as an exact integer or as its decimal string, the form
/// persisted seeds take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecimalU64(pub u64);

macro_rules! scalars {
    ($($ty:ty => $expected:literal, $read:expr;)*) => {$(
        impl<'a> FromJson<'a> for $ty {
            fn from_json(
                value: &'a Json,
                path: impl FnOnce() -> String,
            ) -> Result<Self, DecodeError> {
                let read: fn(&'a Json) -> Option<$ty> = $read;
                read(value).ok_or_else(|| DecodeError::expected(path(), $expected, value))
            }
        }
    )*};
}

scalars! {
    bool => "a boolean", |v| match v { Json::Bool(b) => Some(*b), _ => None };
    &'a str => "a string", Json::as_str;
    String => "a string", |v| v.as_str().map(str::to_owned);
    f64 => "a finite number", |v| v.as_f64().filter(|x| x.is_finite());
    u64 => "a u64 integer", Json::as_u64;
    usize => "a usize integer", |v| v.as_u64().and_then(|n| n.try_into().ok());
    u32 => "a u32 integer", |v| v.as_u64().and_then(|n| n.try_into().ok());
    u16 => "a u16 integer", |v| v.as_u64().and_then(|n| n.try_into().ok());
    DecimalU64 => "a u64 integer or decimal string", |v| match v {
        Json::String(s) => s.parse().ok(),
        other => other.as_u64(),
    }.map(DecimalU64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_objects_and_arrays() {
        let v = parse(r#"{"a": [1, 2.5, -3e-2], "b": {"c": true, "d": null}}"#).expect("valid");
        assert_eq!(
            v.get("a"),
            Some(&Json::Array(vec![
                Json::Number("1".to_owned()),
                Json::Number("2.5".to_owned()),
                Json::Number("-3e-2".to_owned()),
            ]))
        );
        assert_eq!(v.get("b").and_then(|b| b.get("c")), Some(&Json::Bool(true)));
        assert_eq!(v.get("b").and_then(|b| b.get("d")), Some(&Json::Null));
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "a \"quoted\" line\nwith\ttabs \\ and unicode ρ≈0.02";
        let mut encoded = String::new();
        write_str(&mut encoded, original);
        assert_eq!(
            parse(&encoded).expect("valid"),
            Json::String(original.to_owned())
        );
    }

    #[test]
    fn control_characters_are_escaped() {
        let mut encoded = String::new();
        write_str(&mut encoded, "\u{1}");
        assert_eq!(encoded, "\"\\u0001\"");
        assert_eq!(
            parse(&encoded).expect("valid"),
            Json::String("\u{1}".to_owned())
        );
    }

    #[test]
    fn non_finite_numbers_become_null() {
        let mut out = String::new();
        write_f64(&mut out, f64::NAN);
        out.push(' ');
        write_f64(&mut out, f64::INFINITY);
        out.push(' ');
        write_f64(&mut out, 0.015);
        assert_eq!(out, "null null 0.015");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse(r#"{"a": }"#).is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("true false").is_err());
        assert!(parse(r#""unterminated"#).is_err());
    }

    #[test]
    fn accepts_scientific_notation() {
        assert_eq!(parse("1e-9").expect("valid").as_f64(), Some(1e-9));
        assert_eq!(parse("2.5E+3").expect("valid").as_f64(), Some(2500.0));
        assert_eq!(parse("-0.125").expect("valid").as_f64(), Some(-0.125));
    }
}
