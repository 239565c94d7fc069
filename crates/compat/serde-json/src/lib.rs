//! Offline stand-in for the `serde_json` crate: renders the serde stand-in's [`Value`]
//! data model as JSON text and parses it back.
//!
//! Covers the surface this workspace uses — [`to_string`], [`to_string_pretty`],
//! [`from_str`], the [`Value`] re-export and the [`Error`] type.  Numbers are `f64`-backed
//! (integers up to 2^53 round-trip exactly); `NaN`/infinite numbers are rejected at
//! serialization time, matching upstream's behaviour of refusing non-finite floats.
//! Like upstream, the parser refuses arrays and objects nested deeper than 128 levels,
//! so hostile input gets an error instead of exhausting the stack.

#![forbid(unsafe_code)]

pub use serde::{Error, Value};

/// The deepest nesting of arrays and objects the parser accepts, as in upstream
/// `serde_json`: the parser recurses once per level.
const MAX_DEPTH: usize = 128;

/// Serializes a value to compact JSON.
///
/// # Errors
///
/// Returns an error when the value contains a non-finite number.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0)?;
    Ok(out)
}

/// Serializes a value to human-readable JSON with two-space indentation.
///
/// # Errors
///
/// Returns an error when the value contains a non-finite number.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0)?;
    Ok(out)
}

/// Parses a value from JSON text.
///
/// # Errors
///
/// Returns an error describing the first syntax or shape mismatch.
pub fn from_str<T: serde::Deserialize>(text: &str) -> Result<T, Error> {
    let value = parse_value_complete(text)?;
    T::from_value(&value)
}

fn parse_value_complete(text: &str) -> Result<Value, Error> {
    let mut pos = 0;
    let value = parse_value(text, &mut pos, 0)?;
    skip_whitespace(text.as_bytes(), &mut pos);
    if pos != text.len() {
        return Err(Error::custom(format!("trailing characters at byte {pos}")));
    }
    Ok(value)
}

fn write_value(
    out: &mut String,
    value: &Value,
    indent: Option<usize>,
    depth: usize,
) -> Result<(), Error> {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => {
            if !n.is_finite() {
                return Err(Error::custom(format!(
                    "cannot serialize non-finite number {n}"
                )));
            }
            if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
                out.push_str(&format!("{}", *n as i64));
            } else {
                // `{:?}` prints the shortest representation that round-trips through
                // `str::parse::<f64>`, including exponents where shorter.
                out.push_str(&format!("{n:?}"));
            }
        }
        Value::String(s) => write_string(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return Ok(());
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1)?;
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return Ok(());
            }
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_string(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, depth + 1)?;
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
    Ok(())
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(width * depth));
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

fn skip_whitespace(bytes: &[u8], pos: &mut usize) {
    while let Some(b) = bytes.get(*pos) {
        if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        } else {
            break;
        }
    }
}

/// Parses the value at `pos`, which `depth` arrays and objects enclose.
fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Value, Error> {
    let bytes = text.as_bytes();
    skip_whitespace(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'[' | b'{')) && depth == MAX_DEPTH {
        return Err(Error::custom(format!(
            "recursion limit exceeded: arrays and objects nest deeper than {MAX_DEPTH} \
             levels at byte {pos}"
        )));
    }
    match bytes.get(*pos) {
        None => Err(Error::custom("unexpected end of input")),
        Some(b'n') => parse_literal(bytes, pos, "null", Value::Null),
        Some(b't') => parse_literal(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Value::Bool(false)),
        Some(b'"') => parse_string(text, pos).map(Value::String),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_whitespace(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(parse_value(text, pos, depth + 1)?);
                skip_whitespace(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(Error::custom(format!("expected `,` or `]` at byte {pos}"))),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut entries = Vec::new();
            skip_whitespace(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Object(entries));
            }
            loop {
                skip_whitespace(bytes, pos);
                let key = parse_string(text, pos)?;
                skip_whitespace(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(Error::custom(format!("expected `:` at byte {pos}")));
                }
                *pos += 1;
                let value = parse_value(text, pos, depth + 1)?;
                entries.push((key, value));
                skip_whitespace(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Object(entries));
                    }
                    _ => return Err(Error::custom(format!("expected `,` or `}}` at byte {pos}"))),
                }
            }
        }
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
        Some(_) => Err(Error::custom(format!("expected value at byte {pos}"))),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Value,
) -> Result<Value, Error> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(Error::custom(format!("invalid literal at byte {pos}")))
    }
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String, Error> {
    let bytes = text.as_bytes();
    if bytes.get(*pos) != Some(&b'"') {
        return Err(Error::custom(format!("expected string at byte {pos}")));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        // Copy the run of unescaped bytes in one go.  It ends at an ASCII quote or
        // backslash (or the end of input), so both ends lie on `&str` boundaries.
        let run = bytes[*pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .unwrap_or(bytes.len() - *pos);
        out.push_str(&text[*pos..*pos + run]);
        *pos += run;
        match bytes.get(*pos) {
            None => return Err(Error::custom("unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            // A backslash.
            Some(_) => match bytes.get(*pos + 1) {
                Some(b'u') => out.push(parse_unicode_escape(bytes, pos)?),
                next => {
                    out.push(match next {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        _ => return Err(Error::custom(format!("invalid escape at byte {pos}"))),
                    });
                    *pos += 2;
                }
            },
        }
    }
}

/// Decodes the `\uXXXX` escape whose backslash sits at `*pos` — or, for a high
/// surrogate, the `\uD8xx\uDCxx` pair — and moves `*pos` past it.  Lone, reversed or
/// mismatched surrogates are errors.
fn parse_unicode_escape(bytes: &[u8], pos: &mut usize) -> Result<char, Error> {
    let at = *pos;
    let unpaired = || Error::custom(format!("unpaired surrogate in \\u escape at byte {at}"));
    let first = hex4(bytes, at + 2)?;
    *pos = at + 6;
    let code = if (0xD800..0xDC00).contains(&first) {
        if bytes.get(at + 6..at + 8) != Some(&b"\\u"[..]) {
            return Err(unpaired());
        }
        let second = hex4(bytes, at + 8)?;
        if !(0xDC00..0xE000).contains(&second) {
            return Err(unpaired());
        }
        *pos = at + 12;
        0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
    } else {
        first
    };
    // A lone low surrogate is the one code `from_u32` still refuses.
    char::from_u32(code).ok_or_else(unpaired)
}

/// Reads the exactly four hex digits of a `\u` escape starting at byte `at`.
fn hex4(bytes: &[u8], at: usize) -> Result<u32, Error> {
    let bad = || Error::custom(format!("invalid \\u escape at byte {at}"));
    bytes
        .get(at..at + 4)
        .ok_or_else(bad)?
        .iter()
        .try_fold(0, |code, &b| {
            Ok((code << 4) | char::from(b).to_digit(16).ok_or_else(bad)?)
        })
}

/// Parses a number by JSON's grammar, `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`:
/// no leading `+`, no leading zeros, digits on both sides of the point.
fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, Error> {
    let start = *pos;
    let invalid = || Error::custom(format!("invalid number at byte {start}"));
    let digits = |pos: &mut usize| {
        let from = *pos;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos > from
    };
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    match bytes.get(*pos) {
        Some(b'0') => *pos += 1,
        Some(b'1'..=b'9') => {
            digits(pos);
        }
        _ => return Err(invalid()),
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(pos) {
            return Err(invalid());
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(pos) {
            return Err(invalid());
        }
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Value::Number)
        .ok_or_else(invalid)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_compact_and_pretty() {
        let value = Value::Object(vec![
            ("name".to_string(), Value::String("n14".to_string())),
            ("count".to_string(), Value::Number(3.0)),
            (
                "xs".to_string(),
                Value::Array(vec![Value::Number(1.5e-12), Value::Bool(true), Value::Null]),
            ),
        ]);
        let compact = to_string(&value).unwrap();
        assert_eq!(
            compact,
            "{\"name\":\"n14\",\"count\":3,\"xs\":[1.5e-12,true,null]}"
        );
        let pretty = to_string_pretty(&value).unwrap();
        assert!(pretty.contains("\n  \"name\": \"n14\""));
        let back: Value = from_str(&pretty).unwrap();
        assert_eq!(back, value);
    }

    #[test]
    fn parses_escapes_and_numbers() {
        let v: Value = from_str(r#"{"s":"a\"b\\c\ndA","n":-2.5e3,"m":[0,1.25E+2]}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str().unwrap(), "a\"b\\c\ndA");
        assert_eq!(v.get("n").unwrap().as_f64().unwrap(), -2500.0);
        assert_eq!(
            v.get("m").unwrap(),
            &Value::Array(vec![Value::Number(0.0), Value::Number(125.0)])
        );
    }

    #[test]
    fn float_round_trip_is_exact() {
        for x in [1.0e-13, 5.0900000001e-12, 0.7342859, f64::MAX, 5e-324] {
            let text = to_string(&x).unwrap();
            let back: f64 = from_str(&text).unwrap();
            assert_eq!(back, x, "text = {text}");
        }
        assert!(to_string(&f64::NAN).is_err());
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "not json",
            "{\"a\":1,}",
            "[1 2]",
            "{\"a\":1} extra",
            // `\u` takes exactly four hex digits, no sign.
            "\"\\u+041\"",
            "\"\\u004\"",
            "\"\\u00g1\"",
            // Numbers follow JSON's grammar: no `+`, bare point or leading zero.
            "+1",
            "[1,+2]",
            ".5",
            "1.",
            "01",
            "-",
            "1e+",
            "--1",
        ] {
            assert!(from_str::<Value>(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn parser_accepts_the_trace_grammar() {
        let json: Value = from_str(
            "{\"type\":\"span\",\"id\":3,\"thread\":2,\"name\":\"a \\\"b\\\"\\n\",\"start_ns\":1,\"dur_ns\":2,\"attrs\":{\"k\":\"v\"}}",
        )
        .expect("parses");
        assert_eq!(json.get("id").and_then(Value::as_u64), Some(3));
        assert_eq!(json.get("name").and_then(Value::as_str), Some("a \"b\"\n"));
    }

    #[test]
    fn parser_rejects_truncated_lines() {
        assert!(from_str::<Value>("{\"type\":\"span\",\"id\":3,\"na").is_err());
        assert!(from_str::<Value>("{\"a\":1} trailing").is_err());
        assert!(from_str::<Value>("").is_err());
    }

    #[test]
    fn surrogate_pairs_decode() {
        let json: Value = from_str("{\"k\":\"\\ud83d\\ude00\"}").expect("parses");
        assert_eq!(json.get("k").and_then(Value::as_str), Some("\u{1F600}"));
        let upper: Value = from_str("\"\\uD83D\\uDE00 \\u00e9\"").expect("parses");
        assert_eq!(upper.as_str(), Some("\u{1F600} \u{e9}"));
        for bad in [
            "\"\\ud83d\"",        // lone high surrogate
            "\"\\ud83d\\u0041\"", // high surrogate paired with a non-surrogate
            "\"\\ud83d\\ud83d\"", // two high surrogates
            "\"\\ude00\"",        // lone low surrogate
            "\"\\ude00\\ud83d\"", // reversed pair
            "\"\\ud83d\\ude0\"",  // truncated low half
        ] {
            assert!(from_str::<Value>(bad).is_err(), "{bad} must be rejected");
        }
    }
}
