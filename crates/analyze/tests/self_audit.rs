//! The analyzer held to its own standard: its sources must parse under
//! its own Rust subset and produce zero findings, and the workspace it
//! ships with must be clean end to end.

use std::path::Path;

/// The analyzer's own crate, analyzed by itself. The crate is not in
/// [`famg_analyze::ANALYZED_ROOTS`] (it is tooling, not a kernel crate),
/// so this audit feeds the sources in manually — it proves the parser
/// round-trips its own implementation and that no rule of either family
/// fires on it.
#[test]
fn analyzer_is_clean_on_itself() {
    let sources: Vec<(String, String)> = [
        ("crates/analyze/src/lib.rs", include_str!("../src/lib.rs")),
        ("crates/analyze/src/diag.rs", include_str!("../src/diag.rs")),
        ("crates/analyze/src/lex.rs", include_str!("../src/lex.rs")),
        ("crates/analyze/src/lint.rs", include_str!("../src/lint.rs")),
        (
            "crates/analyze/src/model.rs",
            include_str!("../src/model.rs"),
        ),
        (
            "crates/analyze/src/parse.rs",
            include_str!("../src/parse.rs"),
        ),
        (
            "crates/analyze/src/rules.rs",
            include_str!("../src/rules.rs"),
        ),
        (
            "crates/analyze/src/bin/famg-analyze.rs",
            include_str!("../src/bin/famg-analyze.rs"),
        ),
    ]
    .into_iter()
    .map(|(p, s)| (p.to_string(), s.to_string()))
    .collect();
    let diags = famg_analyze::analyze_sources(&sources);
    assert!(
        diags.is_empty(),
        "self-audit findings:\n{}",
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The shipped workspace stays clean under both rule families: the same
/// invariant the `==> famg-analyze` stage of `scripts/check.sh` enforces,
/// kept in the test suite so `cargo test` alone catches regressions.
#[test]
fn workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let diags = famg_analyze::analyze_workspace(&root).expect("workspace scan failed");
    assert!(
        diags.is_empty(),
        "workspace findings:\n{}",
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The `--test-only-pub` report against its pinned copy,
/// `crates/analyze/test_only_pub.txt`. A `pub fn` that no program reaches
/// must not appear unannounced, and an entry that left the report (its item
/// deleted, or now reached) must leave the file too, so the list only
/// shrinks and always says what is left.
#[test]
fn test_only_pub_report_matches_its_pinned_list() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = famg_analyze::test_only_pub(&root).expect("workspace scan failed");
    let pinned: Vec<&str> = include_str!("../test_only_pub.txt").lines().collect();
    let new: Vec<&str> = (report.iter().map(String::as_str))
        .filter(|item| !pinned.contains(item))
        .collect();
    let gone: Vec<&str> = (pinned.iter().copied())
        .filter(|item| !report.iter().any(|r| r == item))
        .collect();
    assert!(
        new.is_empty(),
        "pub fns only tests reach, missing from test_only_pub.txt (delete them, or \
         reach them from a program):\n{}",
        new.join("\n")
    );
    assert!(
        gone.is_empty(),
        "entries no longer in the report; trim them from test_only_pub.txt:\n{}",
        gone.join("\n")
    );
}
