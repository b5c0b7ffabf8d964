//! The one JSON reader, and the string escaper every writer shares.
//!
//! Every JSON text the workspace reads goes through [`parse`]: the
//! optimizer's checkpoint journal and `oiso-verify`'s fuzz journal (one
//! object per line), the records of `oiso-serve`'s result store, and
//! every `/v1/*` request body. Writers stay hand-rolled, so their bytes
//! are fixed; they share only [`escape_json`].
//!
//! The grammar is the subset of JSON those formats use: strings, unsigned
//! integers, `true`/`false`, arrays and objects, with whitespace allowed
//! between tokens. Every string escape of RFC 8259 is accepted, UTF-16
//! surrogate pairs included. Rejected, each with a reason: `null`,
//! negative and fractional numbers, duplicate object keys, a lone
//! surrogate, and nesting deeper than 16 levels.

use std::fmt::Write as _;

/// Nesting cap of [`parse`]: far above any journal line or request body,
/// low enough that hostile deeply nested input cannot overflow a stack.
const MAX_DEPTH: usize = 16;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonValue {
    /// A string, unescaped.
    Str(String),
    /// An unsigned integer.
    Int(u64),
    /// A `true` / `false` literal.
    Bool(bool),
    /// An ordered array.
    Array(Vec<JsonValue>),
    /// An object in key order as written; keys are distinct.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// The value of field `key`, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer, if this is one.
    pub fn as_int(&self) -> Option<u64> {
        match self {
            JsonValue::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean: a literal `true`/`false`, or an integer `0`/`1` (the
    /// pre-boolean encoding some clients still send).
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            JsonValue::Int(0) => Some(false),
            JsonValue::Int(1) => Some(true),
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

    /// True for a string, integer or boolean.
    pub fn is_scalar(&self) -> bool {
        !matches!(self, JsonValue::Array(_) | JsonValue::Object(_))
    }

    /// The string field `key` of a record.
    ///
    /// # Errors
    ///
    /// Names the field when it is missing or not a string.
    pub fn str_field(&self, key: &str) -> Result<&str, String> {
        self.field(key)?
            .as_str()
            .ok_or_else(|| format!("field {key:?} must be a string"))
    }

    /// The integer field `key` of a record.
    ///
    /// # Errors
    ///
    /// Names the field when it is missing or not an unsigned integer.
    pub fn int_field(&self, key: &str) -> Result<u64, String> {
        self.field(key)?
            .as_int()
            .ok_or_else(|| format!("field {key:?} must be an unsigned integer"))
    }

    fn field(&self, key: &str) -> Result<&JsonValue, String> {
        self.get(key)
            .ok_or_else(|| format!("missing field {key:?}"))
    }
}

/// Parses one complete JSON value.
///
/// # Errors
///
/// A human-readable description of the first malformation.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value("body", 0)?;
    p.skip_ws();
    if p.pos < text.len() {
        return Err("trailing characters after the value".into());
    }
    Ok(value)
}

/// Escapes `s` for embedding between the quotes of a JSON string. Only
/// `"`, `\` and control characters are escaped, so the output is as close
/// to the input as JSON allows.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A cursor over the input. `pos` only ever stops on an ASCII byte or at
/// the end, so every slice of `text` it takes is on a char boundary.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    /// Describes the token at the cursor for an error message.
    fn found(&self) -> String {
        match self.text[self.pos..].chars().next() {
            Some(c) => format!("{c:?}"),
            None => "end of input".into(),
        }
    }

    /// Parses the value at the cursor; `key` is the field it belongs to,
    /// for error messages.
    fn value(&mut self, key: &str, depth: usize) -> Result<JsonValue, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} levels"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(key, depth),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b'0'..=b'9') => self.int(key),
            Some(b'-') => Err(format!("field {key:?} must be an unsigned integer")),
            Some(b) if b.is_ascii_alphabetic() => {
                let start = self.pos;
                while self.peek().is_some_and(|b| b.is_ascii_alphabetic()) {
                    self.pos += 1;
                }
                match &self.text[start..self.pos] {
                    "true" => Ok(JsonValue::Bool(true)),
                    "false" => Ok(JsonValue::Bool(false)),
                    other => Err(format!("unknown literal {other:?} for {key:?}")),
                }
            }
            _ => Err(format!(
                "expected a value for {key:?}, found {}",
                self.found()
            )),
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.pos += 1;
        let mut fields: Vec<(String, JsonValue)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(format!("expected a quoted key, found {}", self.found()));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(format!(
                    "expected ':' after key {key:?}, found {}",
                    self.found()
                ));
            }
            self.pos += 1;
            let value = self.value(&key, depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    break;
                }
                _ => return Err(format!("expected ',' or '}}', found {}", self.found())),
            }
        }
        // Sorted, not pairwise: a body of many keys must stay cheap to
        // reject.
        let mut keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        if let Some(pair) = keys.windows(2).find(|pair| pair[0] == pair[1]) {
            return Err(format!("duplicate key {:?}", pair[0]));
        }
        Ok(JsonValue::Object(fields))
    }

    fn array(&mut self, key: &str, depth: usize) -> Result<JsonValue, String> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.value(key, depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected ',' or ']', found {}", self.found())),
            }
        }
    }

    fn int(&mut self, key: &str) -> Result<JsonValue, String> {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        // A fraction or exponent makes a float, which no format accepts.
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(format!("field {key:?} must be an unsigned integer"));
        }
        self.text[start..self.pos]
            .parse()
            .map(JsonValue::Int)
            .map_err(|e| format!("bad number for {key:?}: {e}"))
    }

    /// Parses the string at the cursor (which is on its opening quote).
    fn string(&mut self) -> Result<String, String> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            let run = self.text[self.pos..]
                .find(['"', '\\'])
                .ok_or("unterminated string")?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run + 1;
            if self.text.as_bytes()[self.pos - 1] == b'"' {
                return Ok(out);
            }
            if self.peek() == Some(b'u') {
                self.pos += 1;
                out.push(self.unicode_escape()?);
                continue;
            }
            out.push(match self.peek() {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                None => return Err("unterminated string".into()),
                _ => return Err(format!("bad escape, found {}", self.found())),
            });
            self.pos += 1;
        }
    }

    /// Decodes the code point of a `\u` escape whose `\u` is consumed,
    /// joining a surrogate pair written as two escapes.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let high = self.hex4()?;
        let code = match high {
            0xD800..=0xDBFF => {
                if !self.text[self.pos..].starts_with("\\u") {
                    return Err(format!("lone surrogate \\u{high:04x}"));
                }
                self.pos += 2;
                let low = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&low) {
                    return Err(format!("bad surrogate pair \\u{high:04x}\\u{low:04x}"));
                }
                0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
            }
            0xDC00..=0xDFFF => return Err(format!("lone surrogate \\u{high:04x}")),
            _ => high,
        };
        char::from_u32(code).ok_or_else(|| format!("bad \\u code point {code:#x}"))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| format!("bad \\u escape at {}", self.found()))?;
        self.pos += 4;
        Ok(u32::from_str_radix(digits, 16).expect("four hex digits"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Parses a record the way every caller does: the text must be one
    /// JSON object.
    fn parse_record(text: &str) -> Result<JsonValue, String> {
        let value = parse(text)?;
        value.as_object().ok_or("not an object")?;
        Ok(value)
    }

    #[test]
    fn reader_tolerates_whitespace_and_newlines() {
        let v = parse_record(
            "{\n  \"design\" : \"figure1\",\n  \"cycles\": 800,\n  \"lookahead\": true\n}\n",
        )
        .unwrap();
        assert_eq!(v.as_object().unwrap().len(), 3);
        assert_eq!(v.get("design").and_then(JsonValue::as_str), Some("figure1"));
        assert_eq!(v.get("cycles").and_then(JsonValue::as_int), Some(800));
        assert_eq!(v.get("lookahead").and_then(JsonValue::as_bool), Some(true));
        assert!(parse_record("{}").unwrap().as_object().unwrap().is_empty());
        assert!(parse_record("  { }  ")
            .unwrap()
            .as_object()
            .unwrap()
            .is_empty());
    }

    #[test]
    fn scalars_and_their_accessors() {
        let v = parse("{\"a\":true,\"b\":false,\"n\":1,\"s\":\"x\"}").unwrap();
        let field = |key| v.get(key).unwrap();
        assert_eq!(field("a").as_bool(), Some(true));
        assert_eq!(field("b").as_bool(), Some(false));
        assert_eq!(field("n").as_bool(), Some(true), "int 1 coerces");
        assert_eq!(field("s").as_bool(), None);
        assert_eq!(field("a").as_str(), None);
        assert_eq!(field("a").as_int(), None);
        assert!(field("s").is_scalar());
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.str_field("s"), Ok("x"));
        assert_eq!(v.int_field("n"), Ok(1));
        assert!(v.str_field("n").unwrap_err().contains("must be a string"));
        assert!(v.int_field("s").unwrap_err().contains("unsigned integer"));
        assert!(v.int_field("zz").unwrap_err().contains("missing field"));
        assert_eq!(JsonValue::Int(3).get("a"), None, "get on a non-object");
    }

    #[test]
    fn nested_values_parse() {
        let v = parse(
            "{\"items\":[{\"design\":\"figure1\",\"cycles\":300},{\"design\":\"soc\"}],\
             \"stream\":false}",
        )
        .unwrap();
        let items = v.get("items").and_then(JsonValue::as_array).unwrap();
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].str_field("design"), Ok("figure1"));
        assert_eq!(items[0].int_field("cycles"), Ok(300));
        assert!(!v.get("items").unwrap().is_scalar());
        assert_eq!(v.get("stream").and_then(JsonValue::as_bool), Some(false));
        assert_eq!(parse("[]").unwrap(), JsonValue::Array(Vec::new()));
        assert_eq!(parse(" { } ").unwrap(), JsonValue::Object(Vec::new()));
    }

    #[test]
    fn every_string_escape_parses() {
        for (escaped, want) in [
            ("\\\"\\\\\\/", "\"\\/"),
            ("\\b\\f\\n\\r\\t", "\u{8}\u{c}\n\r\t"),
            ("\\u00e9\\u4e2d", "é中"),
            ("\\ud83d\\ude00", "😀"),
            ("\\uDBFF\\uDFFF", "\u{10FFFF}"),
            ("a\\u0000b", "a\0b"),
        ] {
            let text = format!("{{\"s\":\"{escaped}\"}}");
            assert_eq!(parse(&text).unwrap().str_field("s"), Ok(want), "{text}");
        }
    }

    #[test]
    fn malformed_input_is_rejected_with_reasons() {
        let deep = format!("{}1{}", "[".repeat(40), "]".repeat(40));
        for (text, needle) in [
            ("", "expected a value"),
            ("[1]", "not an object"),
            ("not json at all", "unknown literal"),
            ("{\"a\":1", "expected ','"),
            ("{\"a\" 1}", "expected ':'"),
            ("{a:1}", "quoted key"),
            ("{\"a\":1}{", "trailing"),
            ("{\"a\":1}x", "trailing"),
            ("{\"a\":1,\"a\":2}", "duplicate key"),
            ("{\"a\":{\"b\":1,\"b\":2}}", "duplicate key"),
            ("{\"a\":nul}", "unknown literal"),
            ("{\"a\":null}", "unknown literal"),
            ("{\"a\":truthy}", "unknown literal"),
            ("{\"a\":-1}", "unsigned integer"),
            ("{\"a\":1.5}", "unsigned integer"),
            ("{\"a\":1e3}", "unsigned integer"),
            ("{\"a\":99999999999999999999}", "bad number"),
            ("{\"a\":\"x}", "unterminated"),
            ("{\"a\":\"x\\", "unterminated"),
            ("{\"a\":[1,}", "expected"),
            ("{\"a\":[1", "expected ','"),
            ("{\"a\":\"\\x\"}", "bad escape"),
            ("{\"a\":\"\\u12\"}", "bad \\u escape"),
            ("{\"a\":\"\\u12é\"}", "bad \\u escape"),
            ("{\"a\":\"\\ud83d\"}", "lone surrogate"),
            ("{\"a\":\"\\ud83dx\"}", "lone surrogate"),
            ("{\"a\":\"\\ude00\\ud83d\"}", "lone surrogate"),
            ("{\"a\":\"\\ud83d\\u0041\"}", "bad surrogate pair"),
            (&deep, "nesting"),
        ] {
            let err = parse_record(text).unwrap_err();
            assert!(err.contains(needle), "{text:?} -> {err:?}");
        }
    }

    /// Characters from every class a string can hold: controls, the two
    /// characters JSON must escape, `/`, printable ASCII, the BMP beyond
    /// ASCII, and the planes beyond the BMP.
    fn any_char() -> impl Strategy<Value = char> {
        prop_oneof![
            (0u32..0x20).prop_map(|c| char::from_u32(c).unwrap()),
            prop_oneof![Just('"'), Just('\\'), Just('/'), Just('\u{7f}')],
            (0x20u32..0x7f).prop_map(|c| char::from_u32(c).unwrap()),
            (0x80u32..0xd800).prop_map(|c| char::from_u32(c).unwrap()),
            (0x10000u32..0x110000).prop_map(|c| char::from_u32(c).unwrap()),
        ]
    }

    fn any_string() -> impl Strategy<Value = String> {
        proptest::collection::vec(any_char(), 0..8).prop_map(|cs| cs.into_iter().collect())
    }

    fn any_value() -> impl Strategy<Value = JsonValue> {
        let leaf = prop_oneof![
            any_string().prop_map(JsonValue::Str),
            (0u64..u64::MAX).prop_map(JsonValue::Int),
            Just(JsonValue::Int(u64::MAX)),
            prop_oneof![Just(JsonValue::Bool(true)), Just(JsonValue::Bool(false))],
        ];
        leaf.prop_recursive(4, 32, 4, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 0..4).prop_map(JsonValue::Array),
                proptest::collection::vec(Pair(any_string(), inner), 0..4).prop_map(|fields| {
                    let mut distinct: Vec<(String, JsonValue)> = Vec::new();
                    for (key, value) in fields {
                        if distinct.iter().all(|(k, _)| *k != key) {
                            distinct.push((key, value));
                        }
                    }
                    JsonValue::Object(distinct)
                }),
            ]
        })
    }

    /// Draws a value from each of two strategies.
    struct Pair<A, B>(A, B);

    impl<A: Strategy, B: Strategy> Strategy for Pair<A, B> {
        type Value = (A::Value, B::Value);

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (self.0.generate(rng), self.1.generate(rng))
        }
    }

    /// Escapes like Python's `json.dumps` does by default: everything
    /// outside printable ASCII as `\u` escapes, non-BMP characters as
    /// surrogate pairs.
    fn escape_ascii(s: &str) -> String {
        let mut out = String::new();
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                ' '..='~' => out.push(c),
                _ => {
                    let mut units = [0u16; 2];
                    for unit in c.encode_utf16(&mut units) {
                        let _ = write!(out, "\\u{unit:04x}");
                    }
                }
            }
        }
        out
    }

    /// Renders `value` with `escape` for strings and `ws` between tokens.
    fn render(value: &JsonValue, escape: fn(&str) -> String, ws: &str) -> String {
        match value {
            JsonValue::Str(s) => format!("\"{}\"", escape(s)),
            JsonValue::Int(n) => n.to_string(),
            JsonValue::Bool(b) => b.to_string(),
            JsonValue::Array(items) => {
                let items: Vec<String> = items.iter().map(|v| render(v, escape, ws)).collect();
                format!("[{ws}{}{ws}]", items.join(&format!("{ws},{ws}")))
            }
            JsonValue::Object(fields) => {
                let fields: Vec<String> = fields
                    .iter()
                    .map(|(k, v)| format!("\"{}\"{ws}:{ws}{}", escape(k), render(v, escape, ws)))
                    .collect();
                format!("{{{ws}{}{ws}}}", fields.join(&format!("{ws},{ws}")))
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// Every tree the writers can express reads back as itself,
        /// compact or spaced, escaped minimally or as ASCII-only.
        #[test]
        fn rendered_trees_parse_back_to_themselves(value in any_value(), spaced in 0u8..2) {
            let ws = if spaced == 1 { " \n\t" } else { "" };
            for escape in [escape_json as fn(&str) -> String, escape_ascii] {
                let text = render(&value, escape, ws);
                prop_assert_eq!(parse(&text).as_ref(), Ok(&value), "{}", text);
            }
        }
    }
}
