//! The workspace's one JSON reader (the build environment is hermetic — no
//! serde): journals, telemetry sidecars, flight postmortems and the
//! exporters' round-trip tests all decode through it.
//!
//! It is byte-oriented and linear in its input. Each string is scanned once,
//! and one without escapes — every key, and almost every value the writers
//! emit — borrows from the input. Numbers stay as their source text, so a
//! `u64` above 2^53 or an `f32` in its shortest `Display` form parses
//! exactly ([`Value::as_num`]). JSON-lines files are read as bytes:
//! [`lines`] splits them and [`parse_line`] checks each line's UTF-8, so a
//! line torn inside a multi-byte character is just another unparseable line.

use std::borrow::Cow;

/// Nesting depth past which a document is refused, so a corrupted line
/// cannot overflow the reader's stack.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value, borrowing from its input where it can.
#[derive(Debug, Clone, PartialEq)]
pub enum Value<'a> {
    Null,
    Bool(bool),
    /// A number, as its source text (checked when an accessor parses it).
    Num(Cow<'a, str>),
    Str(Cow<'a, str>),
    Arr(Vec<Value<'a>>),
    /// Fields in input order.
    Obj(Vec<(Cow<'a, str>, Value<'a>)>),
}

impl<'a> Value<'a> {
    /// Object field lookup (the first field of that name).
    pub fn get(&self, key: &str) -> Option<&Value<'a>> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value<'a>]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The number's source text, if this is a number: parse it as the type
    /// the writer wrote (`u64`, `f32`, ...) to get its exact value back.
    pub fn as_num(&self) -> Option<&str> {
        match self {
            Value::Num(n) => Some(n),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        self.as_num()?.parse().ok()
    }

    /// The number as a `u64`, if it is a non-negative integer that fits
    /// (exactly, at any magnitude).
    pub fn as_u64(&self) -> Option<u64> {
        self.as_num()?.parse().ok()
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// This value with its borrowed strings copied, so it outlives its input.
    pub fn into_owned(self) -> Value<'static> {
        let own = |s: Cow<'a, str>| Cow::Owned(s.into_owned());
        match self {
            Value::Null => Value::Null,
            Value::Bool(b) => Value::Bool(b),
            Value::Num(n) => Value::Num(own(n)),
            Value::Str(s) => Value::Str(own(s)),
            Value::Arr(v) => Value::Arr(v.into_iter().map(Value::into_owned).collect()),
            Value::Obj(f) => Value::Obj(
                f.into_iter()
                    .map(|(k, v)| (own(k), v.into_owned()))
                    .collect(),
            ),
        }
    }
}

/// Parses one JSON document, requiring it to consume the whole input, into
/// a value that owns its strings.
pub fn parse_json(input: &str) -> Result<Value<'static>, String> {
    parse_str(input).map(Value::into_owned)
}

/// Parses one line of a JSON-lines file, borrowing from it; bytes that are
/// not UTF-8 are a parse error like any other.
pub fn parse_line(line: &[u8]) -> Result<Value<'_>, String> {
    parse_str(std::str::from_utf8(line).map_err(|e| e.to_string())?)
}

fn parse_str(text: &str) -> Result<Value<'_>, String> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(value)
}

/// Splits a JSON-lines file into `(line, terminated)` pairs, each line
/// without its `\n`. Only the final line can be unterminated: the torn tail
/// a kill mid-write leaves.
pub fn lines(bytes: &[u8]) -> impl Iterator<Item = (&[u8], bool)> {
    bytes
        .split_inclusive(|&b| b == b'\n')
        .map(|seg| match seg.split_last() {
            Some((b'\n', line)) => (line, true),
            _ => (seg, false),
        })
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            return Ok(());
        }
        Err(format!("expected '{}' at byte {}", b as char, self.pos))
    }

    fn value(&mut self, depth: usize) -> Result<Value<'a>, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nested too deep at byte {}", self.pos));
        }
        self.skip_ws();
        let start = self.pos;
        match self.peek() {
            Some(b'{') => Ok(Value::Obj(self.items(b'}', |p| {
                p.skip_ws();
                let key = p.string()?;
                p.skip_ws();
                p.expect(b':')?;
                Ok((key, p.value(depth + 1)?))
            })?)),
            Some(b'[') => Ok(Value::Arr(self.items(b']', |p| p.value(depth + 1))?)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => {
                while matches!(
                    self.peek(),
                    Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                ) {
                    self.pos += 1;
                }
                Ok(Value::Num(Cow::Borrowed(&self.text[start..self.pos])))
            }
            Some(c) => Err(format!("unexpected byte {c:?} at {start}")),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, lit: &str, value: Value<'a>) -> Result<Value<'a>, String> {
        if !self.text[self.pos..].starts_with(lit) {
            return Err(format!("expected {lit} at byte {}", self.pos));
        }
        self.pos += lit.len();
        Ok(value)
    }

    /// The comma-separated items of an object or array, from its opening
    /// bracket through `close`.
    fn items<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.pos += 1;
        let mut items = Vec::with_capacity(8);
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
            self.expect(b',')?;
        }
    }

    /// One string, scanned once: each run up to a quote or backslash is
    /// found in one pass and copied whole, and a string without escapes is
    /// borrowed. Slicing `text` there is safe: the delimiters are ASCII.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let mut owned: Option<String> = None;
        loop {
            let run = self.text.as_bytes()[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            let chunk = &self.text[self.pos..self.pos + run];
            self.pos += run + 1;
            if self.text.as_bytes()[self.pos - 1] == b'"' {
                return Ok(match owned {
                    None => Cow::Borrowed(chunk),
                    Some(s) => Cow::Owned(s + chunk),
                });
            }
            let s = owned.get_or_insert_with(String::new);
            s.push_str(chunk);
            s.push(match self.peek() {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'u') => {
                    let hex = self.text.get(self.pos + 1..self.pos + 5);
                    let code = hex
                        .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                        .and_then(|h| u32::from_str_radix(h, 16).ok());
                    self.pos += 4;
                    char::from_u32(code.ok_or("bad \\u escape")?).unwrap_or('\u{fffd}')
                }
                other => return Err(format!("bad escape {other:?} at byte {}", self.pos)),
            });
            self.pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = parse_json(r#"{"a":[1,2.5,-3e2],"b":{"c":"x\"y\n"},"d":true,"e":null,"f":false}"#)
            .unwrap();
        assert_eq!(
            v.get("a").and_then(|a| a.as_array()).map(|a| a.len()),
            Some(3)
        );
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")).and_then(|c| c.as_str()),
            Some("x\"y\n")
        );
        assert_eq!(v.get("e"), Some(&Value::Null));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_json("{\"a\":1").is_err());
        assert!(parse_json("{\"a\":1}x").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("\"unterminated").is_err());
    }

    #[test]
    fn deep_nesting_is_refused_without_overflowing_the_stack() {
        let deep = format!("{}{}", "[".repeat(100_000), "]".repeat(100_000));
        assert!(parse_json(&deep).is_err());
        let shallow = format!("{}{}", "[".repeat(100), "]".repeat(100));
        assert!(parse_json(&shallow).is_ok());
    }

    #[test]
    fn unicode_escapes_decode() {
        let v = parse_json("{\"s\":\"\\u0041é\\u000a\"}").unwrap();
        assert_eq!(v.get("s").and_then(|s| s.as_str()), Some("Aé\n"));
    }
}
