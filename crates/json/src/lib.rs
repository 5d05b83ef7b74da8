//! # json — the workspace's JSON
//!
//! Every artifact byte — the goldens, the trace-replay reference, sweep
//! artifacts and the what-if service's wire frames — is written and read
//! here. [`ToJson`] converts a typed value into a [`Value`] tree (maps keep
//! their order); [`impl_to_json!`] writes it for a named-field struct.
//! [`to_string`] and [`to_string_pretty`] render a tree and cannot fail:
//! strings are escaped per RFC 8259 and non-finite floats become `null`.
//! Every finite float renders with a `.` or an exponent in
//! shortest-round-trip form, and Rust's float parsing is correctly rounded,
//! so a float survives a render→parse round trip bit-exactly, as an `F64`.
//!
//! [`from_str`] parses strict RFC 8259 — trailing garbage, bare words,
//! malformed numbers (`01`, `1.`, `-.5`) and unterminated structures are
//! errors — into the narrowest number arm (`U64`, then `I64`, then `F64`).
//! Nothing decodes into a typed value: readers walk the [`Value`]. The
//! parser recurses per level and its input arrives off a socket, so
//! containers may nest 128 deep and deeper input is an error, not a stack
//! overflow.

#![forbid(unsafe_code)]

use std::fmt::{self, Write};

/// A self-describing serialized tree (JSON data model).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// Unsigned integers.
    U64(u64),
    /// Signed integers that don't fit the unsigned arm.
    I64(i64),
    F64(f64),
    Str(String),
    Seq(Vec<Value>),
    /// Field order is preserved (the listed order for [`impl_to_json!`]
    /// structs).
    Map(Vec<(String, Value)>),
}

impl Value {
    /// The value under `key` if this is a [`Value::Map`] that has one.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Map(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Conversion into a [`Value`] tree.
pub trait ToJson {
    fn to_value(&self) -> Value;
}

/// Implements [`ToJson`] for a struct with named fields as a [`Value::Map`]
/// with one entry per field, in the order listed: `impl_to_json!(Row { a,
/// b })`. The impl destructures the struct without `..`, so a field left out
/// of the list is a compile error.
#[macro_export]
macro_rules! impl_to_json {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_value(&self) -> $crate::Value {
                let $ty { $($field),+ } = self;
                $crate::Value::Map(::std::vec![$((
                    ::std::string::String::from(::std::stringify!($field)),
                    $crate::ToJson::to_value($field),
                )),+])
            }
        }
    };
}

macro_rules! impl_to_json_unsigned {
    ($($ty:ty),*) => {$(
        impl ToJson for $ty {
            fn to_value(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
    )*};
}

macro_rules! impl_to_json_signed {
    ($($ty:ty),*) => {$(
        impl ToJson for $ty {
            fn to_value(&self) -> Value {
                let v = *self as i64;
                if v >= 0 { Value::U64(v as u64) } else { Value::I64(v) }
            }
        }
    )*};
}

impl_to_json_unsigned!(u8, u16, u32, u64, usize);
impl_to_json_signed!(i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl ToJson for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl ToJson for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_owned())
    }
}

impl ToJson for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(ToJson::to_value).collect())
    }
}

macro_rules! impl_to_json_tuple {
    ($(($($name:ident),+))*) => {$(
        impl<$($name: ToJson),+> ToJson for ($($name,)+) {
            fn to_value(&self) -> Value {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                Value::Seq(vec![$($name.to_value()),+])
            }
        }
    )*};
}

impl_to_json_tuple! {
    (A, B)
    (A, B, C, D)
}

/// A copy of the tree. The writers take `&Value` and render it in place;
/// this serves generic callers, such as the `serde_json` facade.
impl ToJson for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

/// Parse error.
#[derive(Debug, Clone)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json parse error: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Writes `s` as a JSON string, copying each run of bytes that need no
/// escape in one piece. Every escaped byte is ASCII, so a run never ends
/// inside a multi-byte character.
fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
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
    out.push('"');
}

/// Every finite float is written with a `.` or an exponent, so the parser
/// reads it back as an `F64`: `{}` would print `1e15` as sixteen bare
/// digits, which parse as an integer.
fn fmt_f64(out: &mut String, v: f64) {
    // Writing into a `String` cannot fail.
    let _ = if !v.is_finite() {
        out.write_str("null")
    } else if v == v.trunc() && v.abs() < 1e15 {
        // Keep integral floats readable ("3.0" rather than "3").
        write!(out, "{v:.1}")
    } else if v == v.trunc() {
        write!(out, "{v:e}")
    } else {
        write!(out, "{v}")
    };
}

fn render(out: &mut String, v: &Value, indent: usize, pretty: bool) {
    // Pretty output starts each element on a new line, indented two
    // spaces a level; compact output has no whitespace.
    let newline = |out: &mut String, level: usize| {
        if pretty {
            out.push('\n');
            for _ in 0..level {
                out.push_str("  ");
            }
        }
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
                newline(out, indent + 1);
                render(out, item, indent + 1, pretty);
            }
            newline(out, indent);
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
                newline(out, indent + 1);
                escape_into(out, k);
                out.push(':');
                if pretty {
                    out.push(' ');
                }
                render(out, val, indent + 1, pretty);
            }
            newline(out, indent);
            out.push('}');
        }
    }
}

/// Render `value` as compact JSON.
pub fn to_string(value: &Value) -> String {
    let mut out = String::new();
    render(&mut out, value, 0, false);
    out
}

/// Render `value` as pretty-printed JSON (two-space indent).
pub fn to_string_pretty(value: &Value) -> String {
    let mut out = String::new();
    render(&mut out, value, 0, true);
    out
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
        return Err(Error(format!("trailing characters at byte {}", p.pos)));
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
            Err(Error(format!(
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
            Err(Error(format!("invalid literal at byte {}", self.pos)))
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
            Some(c) => Err(Error(format!(
                "unexpected `{}` at byte {}",
                c as char, self.pos
            ))),
            None => Err(Error("unexpected end of input".into())),
        }
    }

    /// Parse one array or object a level deeper, refusing past [`MAX_DEPTH`]:
    /// `value → seq/map → value` recurses on the thread's stack.
    fn nested(&mut self, container: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error(format!(
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
                _ => return Err(Error(format!("expected `,` or `]` at byte {}", self.pos))),
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
                _ => return Err(Error(format!("expected `,` or `}}` at byte {}", self.pos))),
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
                    .map_err(|_| Error("invalid UTF-8 in string".into()))?,
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
                                    return Err(Error("unpaired surrogate".into()));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(Error("unpaired surrogate".into()));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(Error("invalid low surrogate".into()));
                                }
                                let combined = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
                                char::from_u32(combined)
                                    .ok_or_else(|| Error("invalid surrogate pair".into()))?
                            } else {
                                char::from_u32(cp)
                                    .ok_or_else(|| Error("invalid \\u escape".into()))?
                            };
                            out.push(c);
                            continue; // hex4 advanced past the digits
                        }
                        _ => return Err(Error(format!("invalid escape at byte {}", self.pos))),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    return Err(Error(format!(
                        "unescaped control character at byte {}",
                        self.pos
                    )))
                }
                None => return Err(Error("unterminated string".into())),
            }
        }
    }

    /// Four hex digits starting at `pos`; advances past them.
    fn hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(Error("truncated \\u escape".into()));
        }
        let digits = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| Error("invalid \\u escape".into()))?;
        let cp = u32::from_str_radix(digits, 16).map_err(|_| Error("invalid \\u escape".into()))?;
        self.pos = end;
        Ok(cp)
    }

    /// Advances past a run of ASCII digits and returns its length.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while let Some(b'0'..=b'9') = self.peek() {
            self.pos += 1;
        }
        self.pos - start
    }

    /// `-? (0 | [1-9][0-9]*) (\.[0-9]+)? ([eE][+-]?[0-9]+)?`, checked before
    /// Rust's parsers (which also take `01`, `1.` and `.5`) see the text.
    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        let invalid = || Error(format!("invalid number at byte {start}"));
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        let int_digits = self.digits();
        if int_digits == 0 || (int_digits > 1 && self.bytes[int_start] == b'0') {
            return Err(invalid());
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            is_float = true;
            if self.digits() == 0 {
                return Err(invalid());
            }
        }
        if let Some(b'e' | b'E') = self.peek() {
            self.pos += 1;
            is_float = true;
            if let Some(b'+' | b'-') = self.peek() {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(invalid());
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
            .map_err(|_| Error(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_map_to_expected_arms() {
        assert_eq!(5u32.to_value(), Value::U64(5));
        assert_eq!((-3i64).to_value(), Value::I64(-3));
        assert_eq!(7i64.to_value(), Value::U64(7));
        assert_eq!(true.to_value(), Value::Bool(true));
        assert_eq!("hi".to_value(), Value::Str("hi".into()));
    }

    #[test]
    fn collections_nest() {
        let v = vec![1u8, 2, 3].to_value();
        assert_eq!(
            v,
            Value::Seq(vec![Value::U64(1), Value::U64(2), Value::U64(3)])
        );
        let m = Value::Map(vec![("a".into(), (1u8, 2.5f64).to_value())]);
        assert_eq!(
            m.get("a"),
            Some(&Value::Seq(vec![Value::U64(1), Value::F64(2.5)]))
        );
        assert_eq!(m.get("b"), None);
        assert_eq!(v.get("a"), None, "only maps have keys");
    }

    #[test]
    fn impl_to_json_writes_fields_in_listed_order() {
        struct Row {
            size: usize,
            label: String,
            med: f64,
        }
        impl_to_json!(Row { size, label, med });
        let row = Row {
            size: 4,
            label: "x".into(),
            med: f64::NAN,
        };
        assert_eq!(
            to_string(&row.to_value()),
            r#"{"size":4,"label":"x","med":null}"#
        );
    }

    #[test]
    fn compact_rendering() {
        let v = Value::Map(vec![
            ("a".into(), Value::U64(1)),
            ("b".into(), Value::Seq(vec![Value::Bool(true), Value::Null])),
            ("c".into(), Value::Str("x\"y".into())),
        ]);
        assert_eq!(to_string(&v), r#"{"a":1,"b":[true,null],"c":"x\"y"}"#);
    }

    #[test]
    fn pretty_rendering_is_indented() {
        let v = Value::Map(vec![("k".into(), Value::Seq(vec![Value::U64(1)]))]);
        let s = to_string_pretty(&v);
        assert_eq!(s, "{\n  \"k\": [\n    1\n  ]\n}");
    }

    #[test]
    fn floats_render_as_json_numbers() {
        let f = |x: f64| to_string(&Value::F64(x));
        assert_eq!(f(3.0), "3.0");
        assert_eq!(f(0.25), "0.25");
        assert_eq!(f(f64::NAN), "null");
        assert_eq!(f(999_999_999_999_999.0), "999999999999999.0");
        assert_eq!(f(1e15), "1e15");
        assert_eq!(f(-(2f64.powi(60))), "-1.152921504606847e18");
    }

    #[test]
    fn parse_round_trips_rendered_values() {
        let v = Value::Map(vec![
            ("num".into(), Value::U64(7)),
            ("neg".into(), Value::I64(-3)),
            ("f".into(), Value::F64(0.1)),
            ("s".into(), Value::Str("tab\there \"quote\" \\ done".into())),
            ("u".into(), Value::Str("héllo→\u{1}😀\r\n".into())),
            (
                "seq".into(),
                Value::Seq(vec![Value::Bool(true), Value::Null, Value::F64(1e-9)]),
            ),
            ("empty_map".into(), Value::Map(vec![])),
            ("empty_seq".into(), Value::Seq(vec![])),
        ]);
        for text in [to_string(&v), to_string_pretty(&v)] {
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
            1e15f64.to_bits(),
            2f64.powi(53).to_bits(),
            (-(2f64.powi(60))).to_bits(),
            f64::MAX.to_bits(),
        ] {
            let x = f64::from_bits(bits);
            let text = to_string(&Value::F64(x));
            match from_str(&text).unwrap() {
                Value::F64(y) => assert_eq!(y.to_bits(), bits, "{text}"),
                // Integral floats render as "n.0" or with an exponent so
                // they stay F64; -0.0 renders "-0.0" likewise.
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
            // Numbers outside RFC 8259's grammar.
            "01",
            "-01",
            "[00]",
            "1.",
            "-.5",
            ".5",
            "1.e3",
            "1e",
            "1e+",
            "-",
            "+1",
            "1-2",
            "1.5.2",
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
                format!("json parse error: recursion limit exceeded at byte {at}")
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
        assert_eq!(from_str("0").unwrap(), Value::U64(0));
        assert_eq!(from_str("1.5").unwrap(), Value::F64(1.5));
        assert_eq!(from_str("1e3").unwrap(), Value::F64(1000.0));
        assert_eq!(from_str("-0.5E-2").unwrap(), Value::F64(-0.005));
        assert_eq!(from_str("0e+1").unwrap(), Value::F64(0.0));
    }
}
