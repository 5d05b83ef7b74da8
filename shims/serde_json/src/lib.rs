//! Offline stand-in for the `serde_json` crate.
//!
//! Renders the [`serde::Value`] tree produced by the serde shim as JSON
//! text. Output is valid JSON: strings are escaped per RFC 8259, non-finite
//! floats become `null` (matching serde_json's behaviour for `to_string`
//! on `f64::NAN` under default settings — it errors there; here `null`
//! keeps figure dumps total), and map field order is preserved.
//!
//! The shim also parses: [`from_str`] reads JSON text back into a
//! [`Value`] tree (the scenarios what-if service's wire protocol is
//! length-prefixed JSON, so the workspace finally has a call site that
//! deserializes). Parsing is strict RFC 8259 — trailing garbage, bare
//! words, and unterminated structures are errors — with one
//! representation choice: numbers land in the narrowest arm that holds
//! them (`U64`, then `I64`, then `F64`), matching what the renderer
//! emits. Rust's float parsing is correctly rounded, and the renderer
//! prints shortest-round-trip decimals, so a finite `f64` survives a
//! render→parse round trip bit-exactly. Containers may nest 128
//! deep — real `serde_json`'s default — because the parser recurses per
//! level and its input arrives off a socket: deeper input is an error, not a
//! stack overflow.

pub use serde::Value;
use std::fmt;

/// Serialization/parse error.
#[derive(Debug, Clone)]
pub struct Error(String);

impl Error {
    fn parse(msg: impl Into<String>) -> Error {
        Error(msg.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json serialization error: {}", self.0)
    }
}

impl std::error::Error for Error {}

fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn fmt_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v == v.trunc() && v.abs() < 1e15 {
        // Keep integral floats readable ("3.0" rather than "3").
        out.push_str(&format!("{v:.1}"));
    } else {
        out.push_str(&format!("{v}"));
    }
}

fn render(out: &mut String, v: &Value, indent: usize, pretty: bool) {
    let (nl, pad, pad_in) = if pretty {
        ("\n", "  ".repeat(indent), "  ".repeat(indent + 1))
    } else {
        ("", String::new(), String::new())
    };
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::F64(x) => fmt_f64(out, *x),
        Value::Str(s) => escape_into(out, s),
        Value::Seq(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(nl);
                out.push_str(&pad_in);
                render(out, item, indent + 1, pretty);
            }
            out.push_str(nl);
            out.push_str(&pad);
            out.push(']');
        }
        Value::Map(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(nl);
                out.push_str(&pad_in);
                escape_into(out, k);
                out.push(':');
                if pretty {
                    out.push(' ');
                }
                render(out, val, indent + 1, pretty);
            }
            out.push_str(nl);
            out.push_str(&pad);
            out.push('}');
        }
    }
}

/// Serialize `value` as compact JSON.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    render(&mut out, &value.to_value(), 0, false);
    Ok(out)
}

/// Serialize `value` as pretty-printed JSON (two-space indent).
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    render(&mut out, &value.to_value(), 0, true);
    Ok(out)
}

/// How deep arrays and objects may nest before [`from_str`] refuses.
const MAX_DEPTH: usize = 128;

/// Parse JSON text into a [`Value`] tree. Strict: the whole input must be
/// one JSON value (plus surrounding whitespace).
pub fn from_str(text: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::parse(format!(
            "trailing characters at byte {}",
            p.pos
        )));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                _ => break,
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::parse(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(Error::parse(format!(
                "invalid literal at byte {}",
                self.pos
            )))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.nested(Self::seq),
            Some(b'{') => self.nested(Self::map),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(Error::parse(format!(
                "unexpected `{}` at byte {}",
                c as char, self.pos
            ))),
            None => Err(Error::parse("unexpected end of input")),
        }
    }

    /// Parse one array or object a level deeper, refusing past [`MAX_DEPTH`]:
    /// `value → seq/map → value` recurses on the thread's stack.
    fn nested(&mut self, container: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::parse(format!(
                "recursion limit exceeded at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn seq(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => {
                    return Err(Error::parse(format!(
                        "expected `,` or `]` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn map(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            entries.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => {
                    return Err(Error::parse(format!(
                        "expected `,` or `}}` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Consume a run of plain (non-escape, non-quote) bytes at once
            // so multi-byte UTF-8 passes through untouched.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| Error::parse("invalid UTF-8 in string"))?,
            );
            match self.peek() {
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by `\uDC00`-`\uDFFF`.
                            let c = if (0xd800..0xdc00).contains(&cp) {
                                if self.peek() != Some(b'\\') {
                                    return Err(Error::parse("unpaired surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(Error::parse("unpaired surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(Error::parse("invalid low surrogate"));
                                }
                                let combined = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
                                char::from_u32(combined)
                                    .ok_or_else(|| Error::parse("invalid surrogate pair"))?
                            } else {
                                char::from_u32(cp)
                                    .ok_or_else(|| Error::parse("invalid \\u escape"))?
                            };
                            out.push(c);
                            continue; // hex4 advanced past the digits
                        }
                        _ => {
                            return Err(Error::parse(format!(
                                "invalid escape at byte {}",
                                self.pos
                            )))
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    return Err(Error::parse(format!(
                        "unescaped control character at byte {}",
                        self.pos
                    )))
                }
                None => return Err(Error::parse("unterminated string")),
            }
        }
    }

    /// Four hex digits starting at `pos`; advances past them.
    fn hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(Error::parse("truncated \\u escape"));
        }
        let digits = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| Error::parse("invalid \\u escape"))?;
        let cp = u32::from_str_radix(digits, 16).map_err(|_| Error::parse("invalid \\u escape"))?;
        self.pos = end;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if !is_float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::U64(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::I64(n));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| Error::parse(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_rendering() {
        let v = Value::Map(vec![
            ("a".into(), Value::U64(1)),
            ("b".into(), Value::Seq(vec![Value::Bool(true), Value::Null])),
            ("c".into(), Value::Str("x\"y".into())),
        ]);
        assert_eq!(
            to_string(&v).unwrap(),
            r#"{"a":1,"b":[true,null],"c":"x\"y"}"#
        );
    }

    #[test]
    fn pretty_rendering_is_indented() {
        let v = Value::Map(vec![("k".into(), Value::Seq(vec![Value::U64(1)]))]);
        let s = to_string_pretty(&v).unwrap();
        assert_eq!(s, "{\n  \"k\": [\n    1\n  ]\n}");
    }

    #[test]
    fn floats_render_as_json_numbers() {
        assert_eq!(to_string(&3.0f64).unwrap(), "3.0");
        assert_eq!(to_string(&0.25f64).unwrap(), "0.25");
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
    }

    #[test]
    fn parse_round_trips_rendered_values() {
        let v = Value::Map(vec![
            ("num".into(), Value::U64(7)),
            ("neg".into(), Value::I64(-3)),
            ("f".into(), Value::F64(0.1)),
            ("s".into(), Value::Str("tab\there \"quote\" \\ done".into())),
            (
                "seq".into(),
                Value::Seq(vec![Value::Bool(true), Value::Null, Value::F64(1e-9)]),
            ),
            ("empty_map".into(), Value::Map(vec![])),
            ("empty_seq".into(), Value::Seq(vec![])),
        ]);
        for text in [to_string(&v).unwrap(), to_string_pretty(&v).unwrap()] {
            assert_eq!(from_str(&text).unwrap(), v);
        }
    }

    #[test]
    fn parse_is_bit_exact_for_finite_floats() {
        // Shortest-round-trip rendering + correctly rounded parsing: the
        // bit pattern must survive.
        for bits in [
            0.1f64.to_bits(),
            0.1f64.to_bits() + 1,
            (-0.0f64).to_bits(),
            f64::MIN_POSITIVE.to_bits(),
            1.234_567_890_123_456_8e300_f64.to_bits(),
        ] {
            let x = f64::from_bits(bits);
            let text = to_string(&x).unwrap();
            match from_str(&text).unwrap() {
                Value::F64(y) => assert_eq!(y.to_bits(), bits, "{text}"),
                // Integral floats render as "n.0" so they stay F64; -0.0
                // renders "-0.0" likewise.
                other => panic!("{text} parsed as {other:?}"),
            }
        }
    }

    #[test]
    fn parse_handles_escapes_and_unicode() {
        assert_eq!(
            from_str(r#""a\u00e9b\u0041""#).unwrap(),
            Value::Str("aébA".into())
        );
        // Surrogate pair: U+1F600.
        assert_eq!(
            from_str(r#""\ud83d\ude00""#).unwrap(),
            Value::Str("😀".into())
        );
        // Raw multi-byte UTF-8 passes through.
        assert_eq!(from_str("\"héllo→\"").unwrap(), Value::Str("héllo→".into()));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\" 1}",
            "[1]extra",
            "\"\\q\"",
            "\"\\ud800\"",
            "nul",
            "--1",
            "{1: 2}",
        ] {
            assert!(from_str(bad).is_err(), "`{bad}` should fail");
        }
    }

    #[test]
    fn parse_bounds_nesting_depth_instead_of_overflowing_the_stack() {
        // 1 MB of openers: an error, where unbounded recursion aborted the
        // process (stack overflow is not a panic).
        for opener in ["[", "{\"a\":"] {
            let err = from_str(&opener.repeat(1_000_000 / opener.len())).unwrap_err();
            let at = MAX_DEPTH * opener.len();
            assert_eq!(
                err.to_string(),
                format!("json serialization error: recursion limit exceeded at byte {at}")
            );
        }
        // Exactly MAX_DEPTH levels still parse; one more does not.
        let nest = |n: usize| format!("{}1{}", "[".repeat(n), "]".repeat(n));
        let mut v = &from_str(&nest(MAX_DEPTH)).unwrap();
        let mut levels = 0;
        while let Value::Seq(items) = v {
            v = &items[0];
            levels += 1;
        }
        assert_eq!((levels, v), (MAX_DEPTH, &Value::U64(1)));
        assert!(from_str(&nest(MAX_DEPTH + 1)).is_err());
        let maps = format!("{}1{}", "{\"a\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(from_str(&maps).is_ok());
    }

    #[test]
    fn parse_picks_narrowest_number_arm() {
        assert_eq!(
            from_str("18446744073709551615").unwrap(),
            Value::U64(u64::MAX)
        );
        assert_eq!(from_str("-1").unwrap(), Value::I64(-1));
        assert_eq!(from_str("1.5").unwrap(), Value::F64(1.5));
        assert_eq!(from_str("1e3").unwrap(), Value::F64(1000.0));
    }
}
