//! Hand-rolled JSON writing: a deterministic object writer.
//!
//! The workspace is offline (no serde). Responses are assembled with
//! [`JsonObj`] — insertion-ordered keys, fixed float formatting — so a
//! given pipeline result always renders to the *same bytes*, which is
//! what makes the result cache's byte-identical guarantee and the golden
//! response tests possible. This module only writes: request bodies and
//! store records are read by the workspace's one JSON reader,
//! [`oiso_core::json`].

use oiso_core::escape_json;
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
    fn array_helper_joins() {
        assert_eq!(json_array(Vec::new()), "[]");
        assert_eq!(
            json_array(vec!["1".to_string(), "\"x\"".to_string()]),
            "[1,\"x\"]"
        );
    }
}
