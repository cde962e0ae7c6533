//! The one finding type of both rule families and its `famg-diag-v1`
//! JSON rendering.
//!
//! Findings print as `path:line: [rule] message` so a CI log line is
//! clickable; `--format json` writes the same list as a versioned
//! document through `famg_prof::json::Json`, the workspace's one JSON
//! writer.

use std::fmt;

use famg_prof::json::Json;

/// One finding, addressable as `path:line`.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Path as scanned (workspace-relative when produced by a workspace
    /// walker).
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Stable rule id, printed in brackets (e.g. `unsafe-safety`,
    /// `alloc-in-solve-path`).
    pub rule: &'static str,
    /// Human-readable explanation with the expected fix.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Renders diagnostics as a versioned JSON document:
///
/// ```json
/// {"schema": "famg-diag-v1", "tool": "famg-analyze", "count": 1,
///  "findings": [{"path": "...", "line": 3, "rule": "...", "message": "..."}]}
/// ```
///
/// The format is stable (append-only) so downstream tooling can consume
/// findings of every rule uniformly.
#[must_use]
pub fn to_json(tool: &str, diags: &[Diagnostic]) -> String {
    let finding = |d: &Diagnostic| {
        Json::Obj(vec![
            ("path".into(), Json::Str(d.path.clone())),
            ("line".into(), Json::int(d.line as u64)),
            ("rule".into(), Json::Str(d.rule.to_string())),
            ("message".into(), Json::Str(d.message.clone())),
        ])
    };
    Json::Obj(vec![
        ("schema".into(), Json::Str("famg-diag-v1".into())),
        ("tool".into(), Json::Str(tool.into())),
        ("count".into(), Json::int(diags.len() as u64)),
        (
            "findings".into(),
            Json::Arr(diags.iter().map(finding).collect()),
        ),
    ])
    .pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use famg_check::benchjson::JsonValue;

    #[test]
    fn renders_as_path_line_rule() {
        let d = Diagnostic {
            path: "crates/x/src/y.rs".into(),
            line: 7,
            rule: "some-rule",
            message: "explain".into(),
        };
        assert_eq!(d.to_string(), "crates/x/src/y.rs:7: [some-rule] explain");
    }

    #[test]
    fn json_escapes_and_counts() {
        let d = Diagnostic {
            path: "a.rs".into(),
            line: 1,
            rule: "r",
            message: "say \"hi\"\nback\\slash".into(),
        };
        let v = JsonValue::parse(&to_json("famg-test", &[d])).expect("valid JSON");
        assert_eq!(
            v.get("schema").and_then(JsonValue::str_),
            Some("famg-diag-v1")
        );
        assert_eq!(v.get("tool").and_then(JsonValue::str_), Some("famg-test"));
        assert_eq!(v.get("count").and_then(JsonValue::num), Some(1.0));
        let JsonValue::Arr(findings) = v.get("findings").expect("findings") else {
            panic!("findings is not an array");
        };
        let f = &findings[0];
        assert_eq!(f.get("path").and_then(JsonValue::str_), Some("a.rs"));
        assert_eq!(f.get("line").and_then(JsonValue::num), Some(1.0));
        assert_eq!(f.get("rule").and_then(JsonValue::str_), Some("r"));
        assert_eq!(
            f.get("message").and_then(JsonValue::str_),
            Some("say \"hi\"\nback\\slash")
        );
    }

    #[test]
    fn empty_findings_is_valid_json() {
        let v = JsonValue::parse(&to_json("t", &[])).expect("valid JSON");
        assert_eq!(v.get("count").and_then(JsonValue::num), Some(0.0));
        assert_eq!(v.get("findings"), Some(&JsonValue::Arr(vec![])));
    }
}
