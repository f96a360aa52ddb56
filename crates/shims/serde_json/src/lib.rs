//! In-tree stand-in for `serde_json`, covering the subset the workspace's
//! tests use: parse a JSON document into a [`Value`] tree and inspect it
//! through `as_*` accessors and `value["key"]` / `value[index]` indexing.
//!
//! There is no serde integration (the workspace builds offline with no
//! registry access) and no serializer — tests only ever *read* JSON the
//! crates emitted through their hand-rolled writers, so a strict parser
//! plus a navigable tree is the whole contract. The parser is a plain
//! recursive-descent over bytes: strict about structure (trailing
//! garbage, unterminated strings and malformed escapes are errors), and
//! numbers are held as `f64` (ample for timestamps, durations and ids in
//! probe exports).

use std::collections::BTreeMap;
use std::fmt;

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

/// Parse failure: a message and the byte offset it was detected at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
    at: usize,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for Error {}

/// Parse a complete JSON document. Trailing non-whitespace is an error.
pub fn from_str(s: &str) -> Result<Value, Error> {
    let mut p = Parser { bytes: s.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(v)
}

/// Parse a byte slice (must be UTF-8).
pub fn from_slice(bytes: &[u8]) -> Result<Value, Error> {
    let s = std::str::from_utf8(bytes)
        .map_err(|e| Error { msg: format!("invalid UTF-8: {e}"), at: e.valid_up_to() })?;
    from_str(s)
}

impl Value {
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// Integer view of a number, `None` when it has a fractional part or
    /// falls outside the exactly-representable range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n)
                if n.fract() == 0.0 && *n >= -(2f64.powi(53)) && *n <= 2f64.powi(53) =>
            {
                Some(*n as i64)
            }
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|v| u64::try_from(v).ok())
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Non-panicking lookup: `None` on missing key / out-of-range index /
    /// wrong container kind.
    pub fn get<I: Index>(&self, index: I) -> Option<&Value> {
        index.index_into(self)
    }
}

/// Lookup key for [`Value::get`] and the `[]` operator: a string key into
/// an object or a usize index into an array.
pub trait Index {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value>;
}

impl Index for &str {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        match v {
            Value::Object(o) => o.get(*self),
            _ => None,
        }
    }
}

impl Index for String {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        self.as_str().index_into(v)
    }
}

impl Index for usize {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        match v {
            Value::Array(a) => a.get(*self),
            _ => None,
        }
    }
}

/// `value["key"]` / `value[3]` sugar, `Null` (not a panic) on a miss —
/// the behaviour tests lean on when probing optional fields.
impl<I: Index> std::ops::Index<I> for Value {
    type Output = Value;

    fn index(&self, index: I) -> &Value {
        const NULL: Value = Value::Null;
        index.index_into(self).unwrap_or(&NULL)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> Error {
        Error { msg: msg.into(), at: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.eat_literal("true", Value::Bool(true)),
            Some(b'f') => self.eat_literal("false", Value::Bool(false)),
            Some(b'n') => self.eat_literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
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
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
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
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pair: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(combined)
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&cp) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid code point"))?);
                            // hex4 advanced past the digits; undo the
                            // shared `pos += 1` below.
                            self.pos -= 1;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(self.err("raw control byte in string"));
                }
                Some(_) => {
                    // Copy one UTF-8 scalar (the input is a checked &str).
                    let start = self.pos;
                    let s = unsafe { std::str::from_utf8_unchecked(&self.bytes[start..]) };
                    let ch = s.chars().next().unwrap();
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("non-ASCII in \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, Error> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| Error { msg: format!("bad number '{text}'"), at: start })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        let v = from_str(r#"{"a": 1, "b": [true, null, "x\ny"], "c": {"d": -2.5e3}}"#).unwrap();
        assert_eq!(v["a"].as_u64(), Some(1));
        assert_eq!(v["b"][0].as_bool(), Some(true));
        assert!(v["b"][1].is_null());
        assert_eq!(v["b"][2].as_str(), Some("x\ny"));
        assert_eq!(v["c"]["d"].as_f64(), Some(-2500.0));
        assert!(v["missing"].is_null());
        assert_eq!(v.get("a").and_then(Value::as_i64), Some(1));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn unicode_escapes_round_trip() {
        assert_eq!(from_str(r#""Aé😀""#).unwrap().as_str(), Some("Aé😀"));
        assert!(from_str(r#""\ud800""#).is_err(), "lone surrogate rejected");
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in
            ["", "{", "[1,", "{\"a\" 1}", "tru", "\"unterminated", "1 2", "{\"a\":1} x", "[01x]"]
        {
            assert!(from_str(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn numbers_classify_integer_vs_float() {
        let v = from_str("[3, 3.5, -7, 1e300]").unwrap();
        assert_eq!(v[0].as_i64(), Some(3));
        assert_eq!(v[1].as_i64(), None);
        assert_eq!(v[1].as_f64(), Some(3.5));
        assert_eq!(v[2].as_u64(), None);
        assert_eq!(v[2].as_i64(), Some(-7));
        assert_eq!(v[3].as_i64(), None);
    }
}
