//! The JSON `home` writes — `home static --json`, the `serve` daemon's
//! reply lines, the benchmark report's raw series — and the one document it
//! reads back: a daemon reply, on the client side.
//!
//! A [`Json`] value renders through `Display`: `{}` is compact, `{:#}`
//! indents by two spaces. [`parse`] reads one document and bounds its
//! nesting, so a hostile reply is an error, not a stack overflow.

use std::fmt;

/// Deepest nesting [`parse`] accepts. Replies nest three levels.
const MAX_DEPTH: usize = 64;

/// One JSON value.
#[derive(Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A non-negative integer.
    Unsigned(u64),
    /// Any other number; written as Rust's `{}` prints it, `null` when it
    /// is not finite.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, keys in the order they are written.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An object with `fields` in order.
    pub fn object<const N: usize>(fields: [(&str, Json); N]) -> Json {
        Json::Object(fields.map(|(k, v)| (k.to_string(), v)).into())
    }

    fn write(&self, pretty: bool, level: usize, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Unsigned(n) => write!(f, "{n}"),
            Json::Float(n) if n.is_finite() => write!(f, "{n}"),
            Json::Float(_) => f.write_str("null"),
            Json::Str(s) => write_str(s, f),
            Json::Array(items) => write_seq(f, pretty, level, ('[', ']'), items, |item, f| {
                item.write(pretty, level + 1, f)
            }),
            Json::Object(fields) => {
                write_seq(f, pretty, level, ('{', '}'), fields, |(key, value), f| {
                    write_str(key, f)?;
                    f.write_str(if pretty { ": " } else { ":" })?;
                    value.write(pretty, level + 1, f)
                })
            }
        }
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Unsigned(n)
    }
}

impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::Unsigned(n.into())
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Unsigned(n as u64)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Float(n)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(value: Option<T>) -> Json {
        value.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Json {
        Json::Array(items.into_iter().map(Into::into).collect())
    }
}

impl fmt::Display for Json {
    /// Compact, or indented by two spaces under `{:#}`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f.alternate(), 0, f)
    }
}

/// `open`, the items each on a line of its own when `pretty`, `close`.
fn write_seq<T>(
    f: &mut fmt::Formatter<'_>,
    pretty: bool,
    level: usize,
    (open, close): (char, char),
    items: &[T],
    mut item: impl FnMut(&T, &mut fmt::Formatter<'_>) -> fmt::Result,
) -> fmt::Result {
    let newline = |f: &mut fmt::Formatter<'_>, level: usize| {
        if pretty {
            write!(f, "\n{:1$}", "", 2 * level)
        } else {
            Ok(())
        }
    };
    write!(f, "{open}")?;
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            f.write_str(",")?;
        }
        newline(f, level + 1)?;
        item(x, f)?;
    }
    if !items.is_empty() {
        newline(f, level)?;
    }
    write!(f, "{close}")
}

fn write_str(s: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    f.write_str("\"")?;
    let mut plain = 0;
    for (i, c) in s.char_indices() {
        if c != '"' && c != '\\' && c >= ' ' {
            continue;
        }
        f.write_str(&s[plain..i])?;
        match c {
            '"' => f.write_str("\\\""),
            '\\' => f.write_str("\\\\"),
            '\n' => f.write_str("\\n"),
            '\r' => f.write_str("\\r"),
            '\t' => f.write_str("\\t"),
            c => write!(f, "\\u{:04x}", u32::from(c)),
        }?;
        // Every escaped character is one byte long.
        plain = i + 1;
    }
    f.write_str(&s[plain..])?;
    f.write_str("\"")
}

/// Read one JSON document. An error names what was wrong and the byte
/// offset it was found at.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.eat(byte) {
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", byte as char)))
        }
    }

    fn keyword(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.keyword("null", Json::Null),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[' | b'{') if depth == MAX_DEPTH => {
                Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")))
            }
            Some(b'[') => {
                self.pos += 1;
                self.seq(b']', |p| p.value(depth + 1)).map(Json::Array)
            }
            Some(b'{') => {
                self.pos += 1;
                self.seq(b'}', |p| {
                    p.skip_ws();
                    let key = p.string()?;
                    p.skip_ws();
                    p.expect(b':')?;
                    Ok((key, p.value(depth + 1)?))
                })
                .map(Json::Object)
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.error(&format!("unexpected character `{}`", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// Comma-separated items up to `close`; the opening bracket is read.
    fn seq<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(close) {
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            self.skip_ws();
            if self.eat(close) {
                return Ok(items);
            }
            if !self.eat(b',') {
                return Err(self.error(&format!("expected `,` or `{}`", close as char)));
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            // Both stops are ASCII, so a run never splits a UTF-8 scalar.
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.error("invalid UTF-8"))?,
            );
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
            }
        }
    }

    /// The character a `\` escape stands for, the `\` read: one the writer
    /// emits, or `\uXXXX` for any scalar value (a surrogate is not one).
    fn escape(&mut self) -> Result<char, String> {
        let (c, len) = match self.peek() {
            Some(b'"') => (Some('"'), 1),
            Some(b'\\') => (Some('\\'), 1),
            Some(b'n') => (Some('\n'), 1),
            Some(b'r') => (Some('\r'), 1),
            Some(b't') => (Some('\t'), 1),
            Some(b'u') => {
                let hex = self
                    .bytes
                    .get(self.pos + 1..self.pos + 5)
                    .unwrap_or_default();
                let scalar = std::str::from_utf8(hex)
                    .ok()
                    .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                    .and_then(|hex| u32::from_str_radix(hex, 16).ok());
                (scalar.and_then(char::from_u32), 5)
            }
            _ => (None, 0),
        };
        let c = c.ok_or_else(|| self.error("invalid escape"))?;
        self.pos += len;
        Ok(c)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        // Only ASCII was consumed, so the slice is valid UTF-8.
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or_default();
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Json::Unsigned(n));
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.error("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(value: &Json) {
        assert_eq!(&parse(&value.to_string()).unwrap(), value, "compact");
        assert_eq!(&parse(&format!("{value:#}")).unwrap(), value, "pretty");
    }

    #[test]
    fn scalar_roundtrips() {
        for value in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Unsigned(0),
            Json::Unsigned(42),
            Json::Float(0.5),
            Json::Float(-2.25),
            Json::Float(1e-7),
            Json::from("plain"),
            Json::from(""),
        ] {
            roundtrip(&value);
        }
        assert_eq!(Json::Float(1.0).to_string(), "1");
        assert_eq!(Json::Float(0.1 + 0.2).to_string(), "0.30000000000000004");
    }

    #[test]
    fn non_finite_floats_are_written_as_null() {
        for n in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::Float(n).to_string(), "null");
        }
    }

    #[test]
    fn nested_roundtrip() {
        let value = Json::object([
            ("ok", true.into()),
            ("runs", 4u64.into()),
            ("missing", Option::<u64>::None.into()),
            ("empty", Json::Array(vec![])),
            ("none", Json::Object(vec![])),
            (
                "violations",
                [Json::object([("runs", 2u64.into())]), "x".into()]
                    .into_iter()
                    .collect(),
            ),
        ]);
        roundtrip(&value);
        assert_eq!(
            value.to_string(),
            r#"{"ok":true,"runs":4,"missing":null,"empty":[],"none":{},"violations":[{"runs":2},"x"]}"#
        );
    }

    #[test]
    fn pretty_output_is_indented_and_reparses() {
        let value = Json::object([
            ("a", [1u64, 2].into_iter().collect()),
            ("b", Json::object([("c", Json::Null)])),
            ("d", Json::Array(vec![])),
        ]);
        let text = format!("{value:#}");
        assert_eq!(
            text,
            "{\n  \"a\": [\n    1,\n    2\n  ],\n  \"b\": {\n    \"c\": null\n  },\n  \"d\": []\n}"
        );
        assert_eq!(parse(&text).unwrap(), value);
    }

    #[test]
    fn object_keys_keep_insertion_order() {
        let value = Json::object([("z", 1u64.into()), ("a", 2u64.into()), ("m", 3u64.into())]);
        assert_eq!(value.to_string(), r#"{"z":1,"a":2,"m":3}"#);
        assert_eq!(
            parse(r#"{"z":1,"a":2}"#).unwrap().to_string(),
            r#"{"z":1,"a":2}"#
        );
    }

    #[test]
    fn unicode_escapes() {
        let s = "quote \" backslash \\ tab \t nl \n cr \r bell \u{7} é 😀";
        let text = Json::from(s).to_string();
        assert_eq!(
            text,
            "\"quote \\\" backslash \\\\ tab \\t nl \\n cr \\r bell \\u0007 é 😀\""
        );
        assert_eq!(parse(&text).unwrap(), Json::from(s));
        assert_eq!(parse(r#""\u00e9\u0041""#).unwrap(), Json::from("éA"));
        for (text, error) in [
            (r#""\ud83d\ude00""#, "invalid escape at byte 2"),
            (r#""\u12""#, "invalid escape at byte 2"),
            (r#""\u+123""#, "invalid escape at byte 2"),
            (r#""\/""#, "invalid escape at byte 2"),
        ] {
            assert_eq!(parse(text).unwrap_err(), error, "{text}");
        }
    }

    #[test]
    fn big_u64_survives() {
        roundtrip(&Json::Unsigned(u64::MAX));
        assert_eq!(Json::Unsigned(u64::MAX).to_string(), "18446744073709551615");
        assert_eq!(parse("-3").unwrap(), Json::Float(-3.0));
        assert_eq!(parse("2.5e3").unwrap(), Json::Float(2500.0));
    }

    #[test]
    fn errors_carry_position() {
        for (text, error) in [
            ("", "unexpected end of input at byte 0"),
            ("  [1,", "unexpected end of input at byte 5"),
            ("[1 2]", "expected `,` or `]` at byte 3"),
            (r#"{"a" 1}"#, "expected `:` at byte 5"),
            (r#"{1:2}"#, "expected `\"` at byte 1"),
            ("tru", "expected `true` at byte 0"),
            ("\"abc", "unterminated string at byte 4"),
            ("1 2", "trailing characters after JSON value at byte 2"),
            ("@", "unexpected character `@` at byte 0"),
            ("-", "invalid number at byte 1"),
        ] {
            assert_eq!(parse(text).unwrap_err(), error, "{text:?}");
        }
    }

    #[test]
    fn nesting_is_bounded_without_recursing_past_the_bound() {
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok());
        let deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert_eq!(
            parse(&deep).unwrap_err(),
            format!("nesting deeper than {MAX_DEPTH} levels at byte {MAX_DEPTH}")
        );
        let hostile = "{\"a\":".repeat(1_000_000);
        assert!(parse(&hostile).is_err());
        assert!(parse(&"[".repeat(1_000_000)).is_err());
    }
}
