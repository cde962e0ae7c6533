//! Minimal JSON document builder used by the telemetry exporters.
//!
//! Writing-only (the parser that reads the emitted documents back lives in
//! `famg-check`); no external dependencies. Object member order is
//! preserved so emitted reports diff cleanly.

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A finite number. Integral values within `2^53` print without a
    /// fractional part so counters stay exact and diffable.
    Num(f64),
    /// A string (escaped on output).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; member order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for an integer value.
    pub fn int(v: u64) -> Json {
        Json::Num(v as f64)
    }

    /// Serializes the value as compact JSON.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Serializes with two-space indentation (stable across runs, so
    /// committed baselines diff line-by-line).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(*n, out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(members) if !members.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    write_str(k, out);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
            other => other.write(out),
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_num(n: f64, out: &mut String) {
    use std::fmt::Write;
    if !n.is_finite() {
        // JSON has no NaN/Inf; clamp to null like most serializers.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        // Rust's shortest-roundtrip float formatting.
        let _ = write!(out, "{n}");
    }
}

fn write_str(s: &str, out: &mut String) {
    use std::fmt::Write;
    out.push('"');
    for ch in s.chars() {
        match ch {
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
    fn scalars_and_escapes() {
        assert_eq!(Json::Null.dump(), "null");
        assert_eq!(Json::Bool(true).dump(), "true");
        assert_eq!(Json::int(42).dump(), "42");
        assert_eq!(Json::Num(1.5).dump(), "1.5");
        assert_eq!(Json::Num(f64::NAN).dump(), "null");
        assert_eq!(
            Json::Str("a\"b\\c\nd\u{1}".to_string()).dump(),
            "\"a\\\"b\\\\c\\nd\\u0001\""
        );
    }

    #[test]
    fn integral_floats_print_without_fraction() {
        assert_eq!(Json::Num(3.0).dump(), "3");
        assert_eq!(Json::Num(-2.0).dump(), "-2");
        assert_eq!(Json::int(u64::MAX / 4096).dump(), "4503599627370495");
    }

    #[test]
    fn compound_values_preserve_order() {
        let doc = Json::Obj(vec![
            ("z".to_string(), Json::int(1)),
            (
                "a".to_string(),
                Json::Arr(vec![Json::int(1), Json::Str("x".to_string())]),
            ),
        ]);
        assert_eq!(doc.dump(), "{\"z\":1,\"a\":[1,\"x\"]}");
    }

    #[test]
    fn pretty_output_is_indented_and_stable() {
        let doc = Json::Obj(vec![
            ("n".to_string(), Json::int(1)),
            ("o".to_string(), Json::Obj(vec![])),
            ("a".to_string(), Json::Arr(vec![Json::int(2)])),
        ]);
        let expected = "{\n  \"n\": 1,\n  \"o\": {},\n  \"a\": [\n    2\n  ]\n}\n";
        assert_eq!(doc.pretty(), expected);
    }
}
