//! A minimal, hardened JSON subset: parse untrusted request bodies, escape
//! response strings, write response objects ([`Object`]).
//!
//! Hand-rolled because the build is offline (no serde); deliberately small
//! because the wire schema is flat. The parser is the security boundary for
//! request bodies, so it is bounded in depth and input size by
//! construction, rejects trailing garbage, and never panics on any byte
//! sequence — `tests/http_errors.rs` proptests that.

use std::fmt::{self, Display, Write as _};

/// Maximum nesting depth the parser accepts — the wire schema needs 2.
const MAX_DEPTH: usize = 16;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always finite: the grammar has no NaN/Infinity).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (duplicate keys: last one wins via
    /// [`Json::get`] scanning from the front of the reversed list — we keep
    /// first-wins for determinism).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// First value under `key` when this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, when this is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string, when this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Why a body failed to parse. One variant per grammar rule violated keeps
/// diagnostics stable for tests without leaking buffer contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What was expected or violated.
    pub what: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.what, self.at)
    }
}

impl std::error::Error for JsonError {}

/// Parses exactly one JSON value spanning the whole input.
///
/// # Errors
///
/// A [`JsonError`] naming the first violated grammar rule; never a panic,
/// for any byte sequence.
pub fn parse(input: &[u8]) -> Result<Json, JsonError> {
    let mut p = Parser { b: input, at: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.at != p.b.len() {
        return Err(p.err("trailing data after value"));
    }
    Ok(v)
}

/// Escapes `s` for inclusion inside a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

fn escape_into(out: &mut String, s: &str) {
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
}

/// An ordered JSON object being written: members appear in call order, and
/// keys and string values are escaped on the way in. Every body the server
/// sends — replies, the error envelope, `/stats` — is built with it, so a
/// key sits next to its value in the source instead of being paired with
/// it by position in a format string.
#[derive(Debug, Default)]
pub struct Object(String);

impl Object {
    /// An object with no members yet (and room for a typical reply, so
    /// writing one does not regrow the buffer member by member).
    pub fn new() -> Object {
        Object(String::with_capacity(128))
    }

    /// Appends `"key":value` for a `value` that displays as JSON already: an
    /// integer, a bool, `null`, another [`Object`], a rendered array.
    pub fn raw(mut self, key: &str, value: impl Display) -> Object {
        self.key(key);
        // `fmt::Write` for `String` cannot fail.
        let _ = write!(self.0, "{value}");
        self
    }

    /// Appends `"key":"value"`, escaping `value`.
    pub fn string(mut self, key: &str, value: &str) -> Object {
        self.key(key);
        self.0.push('"');
        escape_into(&mut self.0, value);
        self.0.push('"');
        self
    }

    /// Closes the object and returns its text.
    pub fn finish(self) -> String {
        self.to_string()
    }

    fn key(&mut self, key: &str) {
        if !self.0.is_empty() {
            self.0.push(',');
        }
        self.0.push('"');
        escape_into(&mut self.0, key);
        self.0.push_str("\":");
    }
}

/// The object's text, so a nested object can be handed to [`Object::raw`].
impl Display for Object {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{}}}", self.0)
    }
}

/// Renders `items`, each already JSON, as a JSON array.
pub(crate) fn array(items: impl IntoIterator<Item = impl Display>) -> String {
    let mut out = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{item}");
    }
    out.push(']');
    out
}

struct Parser<'a> {
    b: &'a [u8],
    at: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: &'static str) -> JsonError {
        JsonError { at: self.at, what }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn eat(&mut self, c: u8, what: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn lit(&mut self, word: &'static [u8], v: Json) -> Result<Json, JsonError> {
        if self.b[self.at..].starts_with(word) {
            self.at += word.len();
            Ok(v)
        } else {
            Err(self.err("expected literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.lit(b"null", Json::Null),
            Some(b't') => self.lit(b"true", Json::Bool(true)),
            Some(b'f') => self.lit(b"false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected byte")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        let digits_from = self.at;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.at += 1;
        }
        if self.at == digits_from {
            return Err(self.err("expected digits"));
        }
        if self.peek() == Some(b'.') {
            self.at += 1;
            let frac_from = self.at;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.at += 1;
            }
            if self.at == frac_from {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.at += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.at += 1;
            }
            let exp_from = self.at;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.at += 1;
            }
            if self.at == exp_from {
                return Err(self.err("expected exponent digits"));
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.at])
            .expect("number bytes are ASCII by construction");
        let n: f64 = text.parse().map_err(|_| self.err("number out of range"))?;
        if !n.is_finite() {
            return Err(self.err("number out of range"));
        }
        Ok(Json::Num(n))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected string")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .b
                                .get(self.at + 1..self.at + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogates are rejected rather than paired —
                            // the wire schema has no astral-plane needs.
                            out.push(
                                char::from_u32(code).ok_or_else(|| self.err("bad \\u escape"))?,
                            );
                            self.at += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.at += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("control byte in string")),
                Some(_) => {
                    // Decode one UTF-8 scalar; invalid sequences are errors.
                    // The shortest valid prefix of a well-formed stream is
                    // exactly its first character, so try lengths 1..=4.
                    let rest = &self.b[self.at..];
                    let ch = (1..=rest.len().min(4))
                        .find_map(|len| std::str::from_utf8(&rest[..len]).ok())
                        .and_then(|s| s.chars().next());
                    match ch {
                        Some(ch) => {
                            out.push(ch);
                            self.at += ch.len_utf8();
                        }
                        None => return Err(self.err("invalid utf-8 in string")),
                    }
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'[', "expected array")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'{', "expected object")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':'")?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_wire_schema() {
        let v = parse(br#"{"shape":[2,2],"pixels":[0.5,-1,1e-2,3]}"#).unwrap();
        let shape: Vec<f64> =
            v.get("shape").unwrap().as_arr().unwrap().iter().map(|j| j.as_num().unwrap()).collect();
        assert_eq!(shape, [2.0, 2.0]);
        assert_eq!(v.get("pixels").unwrap().as_arr().unwrap().len(), 4);
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_tokens() {
        assert!(parse(b"{}x").is_err());
        assert!(parse(b"[1,]").is_err());
        assert!(parse(b"{\"a\"1}").is_err());
        assert!(parse(b"nul").is_err());
        assert!(parse(b"NaN").is_err());
        assert!(parse(b"1e999").is_err(), "overflowing numbers are errors, not inf");
        assert!(parse(b"").is_err());
        assert!(parse(&[0xff, 0xfe]).is_err());
    }

    #[test]
    fn depth_is_bounded() {
        let mut deep = Vec::new();
        deep.extend(std::iter::repeat_n(b'[', 100));
        deep.extend(std::iter::repeat_n(b']', 100));
        assert_eq!(parse(&deep).unwrap_err().what, "nesting too deep");
    }

    #[test]
    fn strings_roundtrip_escapes() {
        let v = parse(br#""a\"b\\c\nA""#).unwrap();
        assert_eq!(v, Json::Str("a\"b\\c\nA".into()));
        let unicode = parse("\"ab€é\"".as_bytes()).unwrap();
        assert_eq!(unicode, Json::Str("ab€é".into()));
        assert_eq!(escape("a\"b\\c\n\u{1}"), "a\\\"b\\\\c\\n\\u0001");
    }
}
