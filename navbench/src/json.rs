//! A JSON writer for the two documents this program emits: the result
//! line (compact) and `BENCHMARK.json` (pretty). The workspace has no
//! serde; nothing here is ever parsed back by this program.

use std::fmt::Write;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Bool(bool),
    Int(u64),
    /// Rendered with every digit `f64` needs to round-trip.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// One line, no spaces after separators inside nested values.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, None);
        out
    }

    /// Two-space indentation, trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, Some(0));
        out.push('\n');
        out
    }

    fn render(&self, out: &mut String, indent: Option<usize>) {
        let newline = |out: &mut String, level: usize| {
            out.push('\n');
            out.push_str(&"  ".repeat(level));
        };
        match self {
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            // JSON has no NaN or infinity; a measurement that produced
            // one is a bug upstream and must not yield an invalid line.
            Json::Num(x) if !x.is_finite() => out.push_str("null"),
            Json::Num(x) => {
                let _ = write!(out, "{x}");
            }
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(if indent.is_some() { "," } else { ", " });
                    }
                    if let Some(level) = indent {
                        newline(out, level + 1);
                    }
                    item.render(out, indent.map(|l| l + 1));
                }
                if let (Some(level), false) = (indent, items.is_empty()) {
                    newline(out, level);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(if indent.is_some() { "," } else { ", " });
                    }
                    if let Some(level) = indent {
                        newline(out, level + 1);
                    }
                    write_str(out, key);
                    out.push_str(": ");
                    value.render(out, indent.map(|l| l + 1));
                }
                if let (Some(level), false) = (indent, fields.is_empty()) {
                    newline(out, level);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_result_line_shape() {
        let line = Json::obj(vec![
            ("correct", Json::Bool(true)),
            ("attempted", Json::Int(1000)),
            ("failed", Json::Int(0)),
            (
                "metrics",
                Json::obj(vec![(
                    "latency_ms",
                    Json::obj(vec![
                        ("value", Json::Num(1.2034)),
                        ("unit", Json::str("ms")),
                    ]),
                )]),
            ),
        ])
        .compact();
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"latency_ms": {"value": 1.2034, "unit": "ms"}}}"#
        );
    }

    #[test]
    fn numbers_keep_their_digits_and_never_break_the_document() {
        assert_eq!(Json::Num(0.1 + 0.2).compact(), "0.30000000000000004");
        assert_eq!(Json::Num(88021.5).compact(), "88021.5");
        assert_eq!(Json::Num(f64::NAN).compact(), "null");
        assert_eq!(Json::Num(f64::INFINITY).compact(), "null");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(
            Json::str("a\"b\\c\nd\u{1}").compact(),
            r#""a\"b\\c\nd\u0001""#
        );
    }

    #[test]
    fn pretty_nests_and_handles_empties() {
        let doc = Json::obj(vec![
            (
                "a",
                Json::Arr(vec![
                    Json::Int(1),
                    Json::obj(vec![("b", Json::Arr(vec![]))]),
                ]),
            ),
            ("c", Json::Obj(vec![])),
        ]);
        assert_eq!(
            doc.pretty(),
            "{\n  \"a\": [\n    1,\n    {\n      \"b\": []\n    }\n  ],\n  \"c\": {}\n}\n"
        );
    }
}
