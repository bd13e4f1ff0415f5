//! Minimal JSON utilities: string quoting for the trace exporter, a
//! validating parser used to assert that exported traces (and the bench
//! JSON) parse, and a [`Value`] tree parser for the `pao serve` JSON-RPC
//! framing — std-only, no serde.

use std::fmt;

/// Quotes `s` as a JSON string literal (with surrounding quotes),
/// escaping control characters, quotes and backslashes.
#[must_use]
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON syntax error: byte offset and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Validates that `text` is one well-formed JSON document.
///
/// # Errors
///
/// Returns the first [`JsonError`] encountered.
pub fn validate(text: &str) -> Result<(), JsonError> {
    parse(text).map(|_| ())
}

/// A parsed JSON document: the dynamic value tree behind the `pao serve`
/// request framing. Objects keep their key order (duplicate keys keep the
/// first occurrence on [`Value::get`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (integers are exact up to 2^53).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source key order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object member lookup (`None` for non-objects and absent keys).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an integer (rejects fractional values and
    /// magnitudes beyond the f64-exact integer range).
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        let n = self.as_f64()?;
        let exact = 2f64.powi(53);
        (n.fract() == 0.0 && n.abs() <= exact).then_some(n as i64)
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// `true` for `null`.
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

/// Parses one well-formed JSON document into a [`Value`] tree.
///
/// # Errors
///
/// Returns the first [`JsonError`] encountered.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after document"));
    }
    Ok(v)
}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, m: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: m.to_owned(),
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Value::Bool(false)),
            Some(b'n') => self.literal("null").map(|()| Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number().map(Value::Num),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        self.skip_ws();
        let mut members = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value(depth + 1)?;
            members.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        self.skip_ws();
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    /// Parses four hex digits after `\u` into their code unit.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut unit = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => u32::from(c - b'0'),
                Some(c @ b'a'..=b'f') => u32::from(c - b'a') + 10,
                Some(c @ b'A'..=b'F') => u32::from(c - b'A') + 10,
                _ => return Err(self.err("bad \\u escape")),
            };
            unit = unit * 16 + d;
            self.pos += 1;
        }
        Ok(unit)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let start = self.pos;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    // Fast path: no escapes — slice the raw bytes out.
                    if out.is_empty() && self.pos > start {
                        out = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
                    }
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    if out.is_empty() && self.pos > start {
                        out = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
                    }
                    self.pos += 1;
                    match self.peek() {
                        Some(c @ (b'"' | b'\\' | b'/')) => {
                            out.push(c as char);
                            self.pos += 1;
                        }
                        Some(b'b') => {
                            out.push('\u{8}');
                            self.pos += 1;
                        }
                        Some(b'f') => {
                            out.push('\u{c}');
                            self.pos += 1;
                        }
                        Some(b'n') => {
                            out.push('\n');
                            self.pos += 1;
                        }
                        Some(b'r') => {
                            out.push('\r');
                            self.pos += 1;
                        }
                        Some(b't') => {
                            out.push('\t');
                            self.pos += 1;
                        }
                        Some(b'u') => {
                            self.pos += 1;
                            let unit = self.hex4()?;
                            // Surrogate pair: a high surrogate must pair
                            // with a following \uDC00-\uDFFF low half.
                            let c = if (0xD800..0xDC00).contains(&unit) {
                                if self.peek() == Some(b'\\')
                                    && self.bytes.get(self.pos + 1) == Some(&b'u')
                                {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(self.err("unpaired surrogate"));
                                    }
                                    0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
                                } else {
                                    return Err(self.err("unpaired surrogate"));
                                }
                            } else {
                                unit
                            };
                            out.push(char::from_u32(c).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) if out.is_empty() => self.pos += 1,
                Some(_) => {
                    // Slow path after an escape: copy whole unescaped runs
                    // so multi-byte UTF-8 sequences stay contiguous.
                    let run_start = self.pos;
                    while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                        self.pos += 1;
                    }
                    out.push_str(&String::from_utf8_lossy(&self.bytes[run_start..self.pos]));
                }
            }
        }
    }

    fn number(&mut self) -> Result<f64, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Self| -> Result<(), JsonError> {
            if !matches!(p.peek(), Some(b'0'..=b'9')) {
                return Err(p.err("expected digit"));
            }
            while matches!(p.peek(), Some(b'0'..=b'9')) {
                p.pos += 1;
            }
            Ok(())
        };
        // Integer part: `0` or a non-zero digit followed by more digits
        // (JSON forbids leading zeros).
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => digits(self)?,
            _ => return Err(self.err("expected digit")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            digits(self)?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            digits(self)?;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .ok_or_else(|| self.err("unrepresentable number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_well_formed_documents() {
        for doc in [
            "{}",
            "[]",
            "0",
            "-1.5e-3",
            "\"a\\n\\u00e9\"",
            "true",
            " { \"a\" : [ 1 , { \"b\" : null } , false ] } ",
            "{\"ts\":1.500,\"dur\":2.750}",
        ] {
            validate(doc).unwrap_or_else(|e| panic!("{doc}: {e}"));
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for doc in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "\"unterminated",
            "01", // leading zero is invalid JSON
            "1 2",
            "nul",
            "{\"a\":1}}",
            "\"bad\\escape\"",
        ] {
            assert!(validate(doc).is_err(), "should reject: {doc}");
        }
    }

    #[test]
    fn quote_escapes() {
        assert_eq!(quote("plain"), "\"plain\"");
        assert_eq!(quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(quote("l1\nl2\t\u{1}"), "\"l1\\nl2\\t\\u0001\"");
        // Round-trip through the validator.
        validate(&quote("tricky \" \\ \n value")).expect("quoted strings are valid JSON");
    }

    #[test]
    fn error_reports_offset() {
        let e = validate("[1, x]").unwrap_err();
        assert_eq!(e.offset, 4);
        assert!(e.to_string().contains("byte 4"));
    }

    #[test]
    fn parse_builds_value_tree() {
        let v = parse(r#"{"method":"eco","id":7,"params":{"moves":[{"inst":"u1","dx":-40}]}}"#)
            .expect("parses");
        assert_eq!(v.get("method").and_then(Value::as_str), Some("eco"));
        assert_eq!(v.get("id").and_then(Value::as_i64), Some(7));
        let moves = v
            .get("params")
            .and_then(|p| p.get("moves"))
            .and_then(Value::as_array)
            .expect("array");
        assert_eq!(moves.len(), 1);
        assert_eq!(moves[0].get("inst").and_then(Value::as_str), Some("u1"));
        assert_eq!(moves[0].get("dx").and_then(Value::as_i64), Some(-40));
    }

    #[test]
    fn parse_unescapes_strings() {
        assert_eq!(
            parse(r#""l1\nl2\t\" \\ é 😀""#).expect("parses"),
            Value::Str("l1\nl2\t\" \\ \u{e9} \u{1f600}".to_owned())
        );
        assert!(parse(r#""\ud800 lone""#).is_err(), "lone surrogate");
        // quote -> parse round-trip.
        let tricky = "a\"b\\c\nd\té";
        assert_eq!(
            parse(&quote(tricky)).expect("round-trips"),
            Value::Str(tricky.to_owned())
        );
    }

    #[test]
    fn parse_numbers_and_scalars() {
        assert_eq!(parse("-1.5e2").expect("num").as_f64(), Some(-150.0));
        assert_eq!(parse("42").expect("num").as_i64(), Some(42));
        assert_eq!(parse("1.5").expect("num").as_i64(), None, "not integral");
        assert_eq!(parse("true").expect("bool"), Value::Bool(true));
        assert!(parse("null").expect("null").is_null());
        assert_eq!(
            parse("[]").expect("arr").as_array().map(<[Value]>::len),
            Some(0)
        );
    }
}
