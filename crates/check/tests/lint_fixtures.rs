//! Fixture tests for the `famg-lint` rules.
//!
//! Each fixture under `tests/fixtures/` is a `.rsfix` file (the extension
//! keeps rustc and the workspace walker away from them) containing both
//! violating and correctly-justified forms of one rule's trigger syntax.
//! The assertions pin exact `(line, rule)` pairs so a scanner regression
//! that shifts or drops a diagnostic fails loudly.

use famg_check::lint::lint_file;

fn fixture(name: &str) -> String {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");
    std::fs::read_to_string(format!("{dir}/{name}")).expect("fixture file readable")
}

/// `(line, rule-id)` pairs of the diagnostics for `src` linted as `path`.
fn findings(path: &str, src: &str) -> Vec<(usize, &'static str)> {
    lint_file(path, src)
        .into_iter()
        .map(|d| (d.line, d.rule))
        .collect()
}

#[test]
fn missing_safety_comments_are_flagged_with_line_numbers() {
    let src = fixture("missing_safety.rsfix");
    let got = findings("shims/rayon/src/fixture.rs", &src);
    // Line 5: bare `unsafe { *p }` block; line 15: bare `unsafe impl Send`.
    // The commented block (10), commented impl (18), `unsafe fn` signature
    // (22) and its commented body (24) must all stay quiet.
    assert_eq!(
        got,
        vec![(5, "unsafe-safety"), (15, "unsafe-safety")],
        "diagnostics: {:?}",
        lint_file("shims/rayon/src/fixture.rs", &src)
    );
}

#[test]
fn unjustified_weak_orderings_are_flagged_with_line_numbers() {
    let src = fixture("unjustified_ordering.rsfix");
    let got = findings("crates/dist/src/fixture.rs", &src);
    // Line 6: bare Relaxed load; line 10: bare Release store. The commented
    // Acquire cluster (16-17) and the SeqCst load (22) must stay quiet.
    assert_eq!(
        got,
        vec![(6, "ordering-justified"), (10, "ordering-justified")],
        "diagnostics: {:?}",
        lint_file("crates/dist/src/fixture.rs", &src)
    );
}

#[test]
fn hash_collections_in_kernel_paths_are_flagged() {
    let src = fixture("hashmap_kernel.rsfix");
    // Under a kernel path: the bare HashMap signature (5) and constructor
    // (6) are flagged; the DETERMINISM-vouched HashSet (10, 12), the
    // BTreeMap, and the `#[cfg(test)]` module must stay quiet.
    // `crates/dist/src` is a kernel path like the other three: its setup
    // builders run the serial row kernels.
    for path in ["crates/core/src/fixture.rs", "crates/dist/src/interp.rs"] {
        let got = findings(path, &src);
        assert_eq!(
            got,
            vec![(5, "hashmap-kernel"), (6, "hashmap-kernel")],
            "diagnostics: {:?}",
            lint_file(path, &src)
        );
    }
    // The same source outside a kernel crate is not the linter's business.
    assert!(findings("crates/bench/src/fixture.rs", &src).is_empty());
}

#[test]
fn wallclock_reads_outside_allowlist_are_flagged() {
    let src = fixture("wallclock_kernel.rsfix");
    // Lines 5, 8, 9 read (or name, for the `SystemTime` return type on 8)
    // the wall clock; the string literal mention and the test module must
    // stay quiet.
    let got = findings("crates/core/src/fixture.rs", &src);
    assert_eq!(
        got,
        vec![
            (5, "wallclock-kernel"),
            (8, "wallclock-kernel"),
            (9, "wallclock-kernel"),
        ],
        "diagnostics: {:?}",
        lint_file("crates/core/src/fixture.rs", &src)
    );
    // An allowlisted telemetry file may read the clock freely.
    assert!(findings("crates/bench/src/fixture.rs", &src).is_empty());
}

#[test]
fn index_narrowing_outside_the_allowlist_is_flagged() {
    let src = fixture("index_narrowing.rsfix");
    // Line 5: a bare `as u32`; line 10: vouched for, but in a file that is
    // not on the allowlist. Checked and widening casts, the string literal
    // and the test module stay quiet.
    for path in ["crates/core/src/fixture.rs", "crates/dist/src/interp.rs"] {
        let got = findings(path, &src);
        assert_eq!(
            got,
            vec![(5, "index-narrowing"), (10, "index-narrowing")],
            "diagnostics: {:?}",
            lint_file(path, &src)
        );
    }
    // In `Col`'s file the vouched cast is allowed and the bare one is not.
    let got = findings("crates/sparse/src/csr.rs", &src);
    assert_eq!(got, vec![(5, "index-narrowing")]);
    // Outside the kernel crates the rule does not apply.
    assert!(findings("crates/bench/src/fixture.rs", &src).is_empty());
}

#[test]
fn clean_fixture_produces_no_diagnostics_anywhere() {
    let src = fixture("clean.rsfix");
    for path in [
        "crates/core/src/fixture.rs", // kernel path: strictest rule set
        "crates/dist/src/fixture.rs", // kernel path since the setup runs the serial kernels
        "shims/rayon/src/fixture.rs", // shim path
    ] {
        let diags = lint_file(path, &src);
        assert!(
            diags.is_empty(),
            "unexpected diagnostics at {path}: {diags:?}"
        );
    }
}

#[test]
fn diagnostics_render_as_path_line_rule() {
    let src = fixture("missing_safety.rsfix");
    let diags = lint_file("shims/rayon/src/fixture.rs", &src);
    let rendered = diags[0].to_string();
    assert!(
        rendered.starts_with("shims/rayon/src/fixture.rs:5: [unsafe-safety]"),
        "unexpected rendering: {rendered}"
    );
}
