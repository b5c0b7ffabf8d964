//! Hand-rolled JSON: a deterministic object writer and a
//! whitespace-tolerant flat-object reader.
//!
//! The workspace is offline (no serde). Responses are assembled with
//! [`JsonObj`] — insertion-ordered keys, fixed float formatting — so a
//! given pipeline result always renders to the *same bytes*, which is
//! what makes the result cache's byte-identical guarantee and the golden
//! response tests possible. Request bodies are read with
//! [`parse_object`], a lenient cousin of the checkpoint journal's
//! `parse_flat`: same flat shape (string keys; string / unsigned-integer
//! / boolean values), but whitespace and newlines between tokens are
//! allowed, because humans write curl bodies.

use oiso_core::{escape_json, JsonScalar};
use std::fmt::Write as _;

/// An insertion-ordered JSON object under construction.
#[derive(Debug, Default)]
pub struct JsonObj {
    buf: String,
    first: bool,
}

impl JsonObj {
    /// Starts an empty object.
    pub fn new() -> Self {
        JsonObj {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, key: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        let _ = write!(self.buf, "\"{}\":", escape_json(key));
    }

    /// Adds a string field.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        let _ = write!(self.buf, "\"{}\"", escape_json(value));
        self
    }

    /// Adds an unsigned integer field.
    pub fn int(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Adds a boolean field.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Adds a float field rendered with [`fmt_f64`] (fixed 6-decimal
    /// formatting — deterministic for a deterministic value).
    pub fn float(&mut self, key: &str, value: f64) -> &mut Self {
        self.key(key);
        self.buf.push_str(&fmt_f64(value));
        self
    }

    /// Adds a pre-rendered JSON value (array, nested object) verbatim.
    pub fn raw(&mut self, key: &str, json: &str) -> &mut Self {
        self.key(key);
        self.buf.push_str(json);
        self
    }

    /// Closes the object and returns it.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Renders a float deterministically: fixed 6-decimal notation, with the
/// non-finite values JSON cannot express mapped to quoted strings.
pub fn fmt_f64(value: f64) -> String {
    if value.is_finite() {
        format!("{value:.6}")
    } else if value.is_nan() {
        "\"NaN\"".to_string()
    } else if value > 0.0 {
        "\"+Inf\"".to_string()
    } else {
        "\"-Inf\"".to_string()
    }
}

/// Joins pre-rendered JSON values into an array.
pub fn json_array<I: IntoIterator<Item = String>>(items: I) -> String {
    let mut out = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&item);
    }
    out.push(']');
    out
}

/// Parses one flat JSON object — string keys, scalar values
/// ([`JsonScalar`]: string, unsigned integer, or boolean) — tolerating
/// arbitrary whitespace between tokens. Duplicate keys are rejected.
///
/// # Errors
///
/// A human-readable description of the first malformation; the caller
/// wraps it into a structured `bad_json` API error.
pub fn parse_object(text: &str) -> Result<Vec<(String, JsonScalar)>, String> {
    let mut chars = text.chars().peekable();
    let mut fields: Vec<(String, JsonScalar)> = Vec::new();
    skip_ws(&mut chars);
    if chars.next() != Some('{') {
        return Err("body must be a JSON object (or raw .oiso text)".into());
    }
    skip_ws(&mut chars);
    if chars.peek() == Some(&'}') {
        chars.next();
    } else {
        loop {
            skip_ws(&mut chars);
            if chars.peek() != Some(&'"') {
                return Err(format!(
                    "expected a quoted key, found {}",
                    describe(chars.peek())
                ));
            }
            let key = parse_string(&mut chars)?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate key {key:?}"));
            }
            skip_ws(&mut chars);
            if chars.next() != Some(':') {
                return Err(format!("expected ':' after key {key:?}"));
            }
            skip_ws(&mut chars);
            let value = parse_scalar(&mut chars, &key)?;
            fields.push((key, value));
            skip_ws(&mut chars);
            match chars.next() {
                Some(',') => continue,
                Some('}') => break,
                other => {
                    return Err(format!("expected ',' or '}}', found {}", describe(other)))
                }
            }
        }
    }
    skip_ws(&mut chars);
    if chars.next().is_some() {
        return Err("trailing characters after the object".into());
    }
    Ok(fields)
}

/// A parsed JSON value for the endpoints whose bodies are *not* flat —
/// `/v1/batch` nests one request object per item. Scalars reuse the
/// checkpoint journal's [`JsonScalar`] (string / unsigned integer /
/// boolean), so the per-item field validation is exactly the single-
/// request validation.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// A scalar leaf.
    Scalar(JsonScalar),
    /// An ordered array.
    Array(Vec<JsonValue>),
    /// An insertion-ordered object (duplicate keys rejected at parse).
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// The scalar, if this is a leaf.
    pub fn as_scalar(&self) -> Option<&JsonScalar> {
        match self {
            JsonValue::Scalar(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The fields, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(fields) => Some(fields),
            _ => None,
        }
    }
}

/// Nesting cap for [`parse_value`] — far above any legitimate request
/// body, low enough that hostile deeply-nested input cannot overflow the
/// worker's stack.
const MAX_DEPTH: usize = 16;

/// Parses one complete JSON value (object, array, or scalar) with
/// arbitrary nesting up to `MAX_DEPTH` (16) levels, tolerating
/// whitespace between tokens. Duplicate object keys are rejected, exactly
/// like [`parse_object`].
///
/// # Errors
///
/// A human-readable description of the first malformation.
pub fn parse_value(text: &str) -> Result<JsonValue, String> {
    let mut chars = text.chars().peekable();
    skip_ws(&mut chars);
    let value = parse_value_at(&mut chars, "body", 0)?;
    skip_ws(&mut chars);
    if chars.next().is_some() {
        return Err("trailing characters after the value".into());
    }
    Ok(value)
}

fn parse_value_at(
    chars: &mut std::iter::Peekable<std::str::Chars<'_>>,
    key: &str,
    depth: usize,
) -> Result<JsonValue, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} levels"));
    }
    match chars.peek() {
        Some('{') => {
            chars.next();
            let mut fields: Vec<(String, JsonValue)> = Vec::new();
            skip_ws(chars);
            if chars.peek() == Some(&'}') {
                chars.next();
                return Ok(JsonValue::Object(fields));
            }
            loop {
                skip_ws(chars);
                if chars.peek() != Some(&'"') {
                    return Err(format!(
                        "expected a quoted key, found {}",
                        describe(chars.peek())
                    ));
                }
                let field_key = parse_string(chars)?;
                if fields.iter().any(|(k, _)| *k == field_key) {
                    return Err(format!("duplicate key {field_key:?}"));
                }
                skip_ws(chars);
                if chars.next() != Some(':') {
                    return Err(format!("expected ':' after key {field_key:?}"));
                }
                skip_ws(chars);
                let value = parse_value_at(chars, &field_key, depth + 1)?;
                fields.push((field_key, value));
                skip_ws(chars);
                match chars.next() {
                    Some(',') => continue,
                    Some('}') => return Ok(JsonValue::Object(fields)),
                    other => {
                        return Err(format!("expected ',' or '}}', found {}", describe(other)))
                    }
                }
            }
        }
        Some('[') => {
            chars.next();
            let mut items = Vec::new();
            skip_ws(chars);
            if chars.peek() == Some(&']') {
                chars.next();
                return Ok(JsonValue::Array(items));
            }
            loop {
                skip_ws(chars);
                items.push(parse_value_at(chars, key, depth + 1)?);
                skip_ws(chars);
                match chars.next() {
                    Some(',') => continue,
                    Some(']') => return Ok(JsonValue::Array(items)),
                    other => {
                        return Err(format!("expected ',' or ']', found {}", describe(other)))
                    }
                }
            }
        }
        _ => Ok(JsonValue::Scalar(parse_scalar(chars, key)?)),
    }
}

fn describe(c: Option<impl std::borrow::Borrow<char>>) -> String {
    match c {
        Some(c) => format!("{:?}", c.borrow()),
        None => "end of body".into(),
    }
}

fn skip_ws(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) {
    while chars.peek().is_some_and(|c| c.is_ascii_whitespace()) {
        chars.next();
    }
}

fn parse_scalar(
    chars: &mut std::iter::Peekable<std::str::Chars<'_>>,
    key: &str,
) -> Result<JsonScalar, String> {
    match chars.peek() {
        Some('"') => Ok(JsonScalar::Str(parse_string(chars)?)),
        Some(c) if c.is_ascii_digit() => {
            let mut digits = String::new();
            while chars.peek().is_some_and(|c| c.is_ascii_digit()) {
                digits.push(chars.next().expect("peeked"));
            }
            // A fractional or exponent tail means a float, which no field
            // of the request schema accepts — say so precisely.
            if chars.peek().is_some_and(|&c| c == '.' || c == 'e' || c == 'E') {
                return Err(format!("field {key:?} must be an unsigned integer"));
            }
            digits
                .parse()
                .map(JsonScalar::Int)
                .map_err(|e| format!("bad number for {key:?}: {e}"))
        }
        Some(c) if c.is_ascii_alphabetic() => {
            let mut word = String::new();
            while chars.peek().is_some_and(|c| c.is_ascii_alphabetic()) {
                word.push(chars.next().expect("peeked"));
            }
            match word.as_str() {
                "true" => Ok(JsonScalar::Bool(true)),
                "false" => Ok(JsonScalar::Bool(false)),
                other => Err(format!("unknown literal {other:?} for {key:?}")),
            }
        }
        Some('-') => Err(format!("field {key:?} must be an unsigned integer")),
        other => Err(format!(
            "expected a value for {key:?}, found {}",
            describe(other.copied())
        )),
    }
}

fn parse_string(
    chars: &mut std::iter::Peekable<std::str::Chars<'_>>,
) -> Result<String, String> {
    if chars.next() != Some('"') {
        return Err("expected '\"'".into());
    }
    let mut out = String::new();
    loop {
        match chars.next() {
            Some('"') => return Ok(out),
            Some('\\') => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('/') => out.push('/'),
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some('r') => out.push('\r'),
                Some('u') => {
                    let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                    let code = u32::from_str_radix(&hex, 16)
                        .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                    out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                }
                other => return Err(format!("bad escape {}", describe(other))),
            },
            Some(c) => out.push(c),
            None => return Err("unterminated string".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_renders_every_scalar_kind() {
        let mut obj = JsonObj::new();
        obj.str("s", "a\"b")
            .int("n", 42)
            .bool("t", true)
            .float("f", 1.5)
            .raw("a", "[1,2]");
        assert_eq!(
            obj.finish(),
            "{\"s\":\"a\\\"b\",\"n\":42,\"t\":true,\"f\":1.500000,\"a\":[1,2]}"
        );
        assert_eq!(JsonObj::new().finish(), "{}");
    }

    #[test]
    fn floats_are_fixed_precision_and_total() {
        assert_eq!(fmt_f64(16.2601626), "16.260163");
        assert_eq!(fmt_f64(-0.0), "-0.000000");
        assert_eq!(fmt_f64(f64::NAN), "\"NaN\"");
        assert_eq!(fmt_f64(f64::INFINITY), "\"+Inf\"");
        assert_eq!(fmt_f64(f64::NEG_INFINITY), "\"-Inf\"");
    }

    #[test]
    fn reader_tolerates_whitespace_and_newlines() {
        let fields = parse_object(
            "{\n  \"design\" : \"figure1\",\n  \"cycles\": 800,\n  \"lookahead\": true\n}\n",
        )
        .unwrap();
        assert_eq!(fields.len(), 3);
        assert_eq!(fields[0].1.as_str(), Some("figure1"));
        assert_eq!(fields[1].1.as_int(), Some(800));
        assert_eq!(fields[2].1.as_bool(), Some(true));
    }

    #[test]
    fn reader_accepts_the_empty_object() {
        assert!(parse_object("{}").unwrap().is_empty());
        assert!(parse_object("  { }  ").unwrap().is_empty());
    }

    #[test]
    fn reader_rejects_malformations_with_reasons() {
        for (body, needle) in [
            ("", "JSON object"),
            ("[1]", "JSON object"),
            ("{\"a\":1", "expected ','"),
            ("{\"a\" 1}", "expected ':'"),
            ("{a:1}", "quoted key"),
            ("{\"a\":1}{", "trailing"),
            ("{\"a\":1,\"a\":2}", "duplicate key"),
            ("{\"a\":nul}", "unknown literal"),
            ("{\"a\":-1}", "unsigned integer"),
            ("{\"a\":1.5}", "unsigned integer"),
            ("{\"a\":\"x}", "unterminated"),
        ] {
            let err = parse_object(body).unwrap_err();
            assert!(err.contains(needle), "{body:?} -> {err:?}");
        }
    }

    #[test]
    fn nested_reader_parses_batch_shaped_bodies() {
        let v = parse_value(
            "{\"items\":[{\"design\":\"figure1\",\"cycles\":300},{\"design\":\"soc\"}],\
             \"stream\":false}",
        )
        .unwrap();
        let fields = v.as_object().unwrap();
        assert_eq!(fields[0].0, "items");
        let items = fields[0].1.as_array().unwrap();
        assert_eq!(items.len(), 2);
        let first = items[0].as_object().unwrap();
        assert_eq!(first[0].1.as_scalar().unwrap().as_str(), Some("figure1"));
        assert_eq!(first[1].1.as_scalar().unwrap().as_int(), Some(300));
        assert_eq!(fields[1].1.as_scalar().unwrap().as_bool(), Some(false));
        assert_eq!(parse_value("[]").unwrap(), JsonValue::Array(Vec::new()));
        assert_eq!(parse_value(" { } ").unwrap(), JsonValue::Object(Vec::new()));
    }

    #[test]
    fn nested_reader_rejects_malformations_with_reasons() {
        for (body, needle) in [
            ("{\"a\":[1,}", "expected"),
            ("{\"a\":[1", "expected ','"),
            ("{\"a\":1}x", "trailing"),
            ("{\"a\":{\"b\":1,\"b\":2}}", "duplicate key"),
            (&format!("{}1{}", "[".repeat(40), "]".repeat(40)), "nesting"),
        ] {
            let err = parse_value(body).unwrap_err();
            assert!(err.contains(needle), "{body:?} -> {err:?}");
        }
    }

    #[test]
    fn array_helper_joins() {
        assert_eq!(json_array(Vec::new()), "[]");
        assert_eq!(
            json_array(vec!["1".to_string(), "\"x\"".to_string()]),
            "[1,\"x\"]"
        );
    }
}
