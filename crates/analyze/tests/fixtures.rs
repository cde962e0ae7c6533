//! Mutation fixtures for the three famg-analyze rules.
//!
//! Each `tests/fixtures/*.rsfix` file is a small Rust-subset source with
//! seeded violations. Expected findings are pinned in-file with trailing
//! `//~ <rule-id>` markers on the exact line the diagnostic must land on;
//! negative fixtures carry no markers and must produce zero diagnostics.
//! The harness diffs `(line, rule)` pairs exactly in both directions, so
//! a rule that drifts by even one line — or starts over-reporting — fails
//! with the full diff.

use std::fs;
use std::path::Path;

use famg_analyze::analyze_sources;

/// Reads a fixture and returns `(source, expected (line, rule) pairs)`.
fn load(name: &str) -> (String, Vec<(usize, String)>) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()));
    let mut expected = Vec::new();
    for (i, line) in src.lines().enumerate() {
        if let Some(pos) = line.find("//~") {
            for rule in line[pos + 3..].split_whitespace() {
                expected.push((i + 1, rule.to_string()));
            }
        }
    }
    (src, expected)
}

/// Runs one fixture under `mapped_path` (paths select rule scope, e.g.
/// the blessed-module list) and asserts the exact `(line, rule)` set.
fn check(name: &str, mapped_path: &str) {
    let (src, mut expected) = load(name);
    let diags = analyze_sources(&[(mapped_path.to_string(), src)]);
    let mut got: Vec<(usize, String)> =
        diags.iter().map(|d| (d.line, d.rule.to_string())).collect();
    expected.sort();
    got.sort();
    assert_eq!(
        got,
        expected,
        "fixture {name} (as {mapped_path}) diverged; analyzer reported:\n{}",
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn alloc_positive_flags_every_seeded_site() {
    check("alloc_positive.rsfix", "crates/core/src/fx_alloc.rs");
}

#[test]
fn alloc_negative_is_quiet() {
    check("alloc_negative.rsfix", "crates/core/src/fx_alloc.rs");
}

#[test]
fn panic_positive_flags_every_seeded_site() {
    check("panic_positive.rsfix", "crates/dist/src/fx_panic.rs");
}

#[test]
fn panic_negative_is_quiet() {
    check("panic_negative.rsfix", "crates/dist/src/fx_panic.rs");
}

#[test]
fn gated_impls_wait_for_a_function_that_names_their_type() {
    check("gated_impl.rsfix", "crates/dist/src/fx_gated.rs");
}

#[test]
fn reduction_positive_flags_every_seeded_site() {
    check("reduction_positive.rsfix", "crates/core/src/fx_red.rs");
}

#[test]
fn reduction_negative_is_quiet() {
    check("reduction_negative.rsfix", "crates/core/src/fx_red.rs");
}

#[test]
fn blessed_module_path_suppresses_reductions() {
    // The *positive* reduction fixture goes quiet when the same source is
    // mapped into the blessed fixed-chunk module list.
    let (src, expected) = load("reduction_positive.rsfix");
    assert!(!expected.is_empty(), "fixture lost its seeded violations");
    let diags = analyze_sources(&[("crates/sparse/src/vecops.rs".to_string(), src)]);
    assert!(
        diags.is_empty(),
        "blessed path still reported:\n{}",
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn stale_root_is_a_finding() {
    // A root list is only as good as the functions it still names: the
    // entry whose body was renamed away must be reported, by name, and
    // the live ones must not.
    let (src, _) = load("stale_root.rsfix");
    let model = famg_analyze::Model::build(&[("crates/core/src/fx_roots.rs".to_string(), src)]);
    let diags = famg_analyze::rules::rule_stale_roots(&model, &["solve", "sweep", "sweep_batch"]);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, famg_analyze::rules::id::STALE_ROOT);
    assert!(diags[0].message.contains("`sweep_batch`"), "{}", diags[0]);
}

#[test]
fn every_shipped_root_is_pinned_to_its_line() {
    // The finding for a shipped root points at its entry in rules.rs.
    let model = famg_analyze::Model::build(&[]);
    let diags = famg_analyze::rules::rule_stale_roots(&model, famg_analyze::rules::SOLVE_ROOTS);
    assert_eq!(diags.len(), famg_analyze::rules::SOLVE_ROOTS.len());
    assert!(diags.iter().all(|d| d.line > 0), "{diags:?}");
}

/// The `--test-only-pub` report resolves a `Type::name` path by type: of
/// two types with the same two fns, the one the program never names by
/// path is listed, while a qualifier that names no such type (a module)
/// keeps the name-wide edge.
#[test]
fn test_only_pub_resolves_type_paths_by_type() {
    let (kernel, _) = load("qualified_mention.rsfix");
    let program =
        "fn main() {\n    let _ = fx_qual::Open::build();\n    let _ = fx_qual::tally();\n}\n";
    let report = famg_analyze::test_only_pub_sources(
        &[("crates/core/src/fx_qual.rs".to_string(), kernel)],
        &[("examples/fx_qual_main.rs".to_string(), program.to_string())],
    );
    assert_eq!(
        report,
        [
            "crates/core/src/fx_qual.rs: Closed::build",
            "crates/core/src/fx_qual.rs: Closed::none",
        ]
    );
}
