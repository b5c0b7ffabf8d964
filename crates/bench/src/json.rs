//! Minimal hand-rolled JSON emission for experiment results.
//!
//! Keeps the workspace dependency-light (no serde): the result structs are
//! flat records of numbers and short strings, for which a small builder is
//! plenty. Output is deterministic (insertion order preserved).

use oiso_core::escape_json;
use std::fmt::Write as _;

/// A JSON value under construction.
#[derive(Debug, Clone)]
pub enum Json {
    /// `null`.
    Null,
    /// Boolean.
    Bool(bool),
    /// Any finite number (emitted with up to 6 significant decimals).
    Num(f64),
    /// String (escaped on emission).
    Str(String),
    /// Ordered array.
    Arr(Vec<Json>),
    /// Ordered object.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience: an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            pairs
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Convenience: a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience: a number value.
    pub fn num(v: f64) -> Json {
        Json::Num(v)
    }

    /// Convenience: an integer value.
    pub fn int(v: usize) -> Json {
        Json::Num(v as f64)
    }

    /// Serializes with 2-space indentation.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        let pad_in = "  ".repeat(indent + 1);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    let _ = write!(out, "{}", *v as i64);
                } else {
                    let _ = write!(out, "{v:.6}");
                }
            }
            Json::Str(s) => {
                let _ = write!(out, "\"{}\"", escape_json(s));
            }
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad_in);
                    item.write(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&pad);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (key, value)) in pairs.iter().enumerate() {
                    out.push_str(&pad_in);
                    Json::Str(key.clone()).write(out, indent + 1);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                    if i + 1 < pairs.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&pad);
                out.push('}');
            }
        }
    }
}

/// Converts a table of rows into JSON.
pub fn table_to_json(design: &str, rows: &[crate::tables::TableRow]) -> Json {
    Json::obj([
        ("design", Json::str(design)),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("label", Json::str(r.label.clone())),
                            ("power_mw", Json::num(r.power_mw)),
                            ("power_reduction_pct", Json::num(r.power_reduction_pct)),
                            ("area_um2", Json::num(r.area_um2)),
                            ("area_increase_pct", Json::num(r.area_increase_pct)),
                            ("slack_ns", Json::num(r.slack_ns)),
                            ("slack_reduction_pct", Json::num(r.slack_reduction_pct)),
                            ("isolated", Json::int(r.isolated)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Converts sweep points into JSON.
pub fn sweep_to_json(points: &[crate::sweep::SweepPoint]) -> Json {
    Json::Arr(
        points
            .iter()
            .map(|p| {
                Json::obj([
                    ("p_active", Json::num(p.p_active)),
                    ("toggle_rate", Json::num(p.toggle_rate)),
                    ("power_reduction_pct", Json::num(p.power_reduction_pct)),
                    ("isolated", Json::int(p.isolated)),
                ])
            })
            .collect(),
    )
}

/// Converts style-study points into JSON.
pub fn styles_to_json(points: &[crate::styles::StylePoint]) -> Json {
    Json::Arr(
        points
            .iter()
            .map(|p| {
                Json::obj([
                    ("mean_idle_run", Json::num(p.mean_idle_run)),
                    ("and_pct", Json::num(p.reduction_pct[0])),
                    ("or_pct", Json::num(p.reduction_pct[1])),
                    ("latch_pct", Json::num(p.reduction_pct[2])),
                    ("bdd_pct", Json::num(p.reduction_pct[3])),
                ])
            })
            .collect(),
    )
}

/// Converts baseline rows into JSON.
pub fn baselines_to_json(design: &str, rows: &[crate::baselines::BaselineRow]) -> Json {
    Json::obj([
        ("design", Json::str(design)),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("technique", Json::str(r.technique.clone())),
                            ("power_reduction_pct", Json::num(r.power_reduction_pct)),
                            ("isolated", Json::int(r.isolated)),
                            ("uncovered", Json::int(r.uncovered)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_structures() {
        let j = Json::obj([
            ("name", Json::str("design1")),
            ("values", Json::Arr(vec![Json::num(1.5), Json::int(2)])),
            ("flag", Json::Bool(true)),
            ("none", Json::Null),
        ]);
        let text = j.render();
        assert!(text.contains("\"name\": \"design1\""));
        assert!(text.contains("1.500000"));
        assert!(text.contains("2"));
        assert!(text.contains("true"));
        assert!(text.contains("null"));
        // Valid-ish: braces balance.
        assert_eq!(
            text.matches('{').count(),
            text.matches('}').count()
        );
        assert_eq!(
            text.matches('[').count(),
            text.matches(']').count()
        );
    }

    #[test]
    fn escapes_strings() {
        let j = Json::str("a\"b\\c\nd\u{1}");
        let text = j.render();
        assert_eq!(text.trim(), r#""a\"b\\c\nd\u0001""#);
    }

    #[test]
    fn integers_render_without_decimals() {
        assert_eq!(Json::int(42).render().trim(), "42");
        assert_eq!(Json::num(0.5).render().trim(), "0.500000");
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Json::Arr(vec![]).render().trim(), "[]");
        assert_eq!(Json::Obj(vec![]).render().trim(), "{}");
    }
}
