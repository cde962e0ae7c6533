//! The five site rules: the repo's concurrency and determinism
//! conventions, checked token by token on the [`crate::lex`] stream.
//!
//! Every `.rs` file under `crates/*/src` and `shims/*/src` is audited (see
//! [`crate::analyze_workspace`]):
//!
//! * **`unsafe-safety`** — every `unsafe {` block and `unsafe impl` must be
//!   preceded by a `// SAFETY:` comment (same line or the comment block
//!   immediately above). `unsafe fn` declarations are exempt: the workspace
//!   denies `unsafe_op_in_unsafe_fn`, so their bodies contain explicit
//!   blocks that carry their own justification.
//! * **`ordering-justified`** — every non-`SeqCst` atomic ordering
//!   (`Relaxed`, `Acquire`, `Release`, `AcqRel`) must carry a
//!   `// ORDERING:` comment explaining why the weaker ordering is sound.
//!   One comment covers a contiguous cluster of ordering lines.
//! * **`hashmap-kernel`** — `HashMap`/`HashSet` must not appear in numeric
//!   kernel modules (`crates/core`, `crates/sparse`, `crates/krylov`,
//!   `crates/dist`):
//!   their iteration order is nondeterministic, which breaks the bitwise
//!   determinism contract. A `// DETERMINISM:` comment can vouch for a use
//!   that provably never iterates.
//! * **`wallclock-kernel`** — `Instant::now`/`SystemTime` must not appear
//!   in kernel code outside the sanctioned bench/telemetry allowlist
//!   ([`WALLCLOCK_ALLOWLIST`]); timing reads in compute paths are a
//!   determinism and reproducibility hazard.
//! * **`index-narrowing`** — `as u32`, `as u16` and `as u8` must not
//!   appear in numeric kernel modules: a column index narrows to 32 bits
//!   only through `Col`'s constructors (`crates/sparse/src/csr.rs`, the one
//!   file on [`NARROWING_ALLOWLIST`], where a `// NARROWING:` comment
//!   states the bound), and every other narrow integer is made by a
//!   checked `try_from` (the extended+i tape's 16-bit streams go through
//!   its `narrow()`). A silent cast wraps instead of failing.
//!
//! The rules match token sequences (`unsafe {`, `as u32`,
//! `Ordering::Relaxed`), so a form split across lines is caught on the
//! line of its first token, and nothing inside a string, char literal or
//! comment ever matches. The justifying comments are read from the
//! lexer's per-line comment table. Items the parser marks test-only
//! (`#[cfg(test)]` and friends, [`crate::parse::Parsed::tests`]) are
//! exempt from all rules; so is everything outside `src/` (integration
//! tests, benches, fixtures — the latter use a `.rsfix` extension so
//! neither cargo nor the walker picks them up).

use crate::diag::Diagnostic;
use crate::lex::{self, LineInfo, Tok};
use crate::parse;

/// Rule id strings, stable across releases (used in `--format json`).
pub mod id {
    /// `unsafe` block or impl without an adjacent `// SAFETY:` comment.
    pub const UNSAFE: &str = "unsafe-safety";
    /// Weaker-than-SeqCst atomic ordering without `// ORDERING:`.
    pub const ORDERING: &str = "ordering-justified";
    /// `HashMap`/`HashSet` in a numeric kernel module.
    pub const HASHMAP: &str = "hashmap-kernel";
    /// `Instant::now`/`SystemTime` outside the bench/telemetry allowlist.
    pub const WALLCLOCK: &str = "wallclock-kernel";
    /// `as u32`/`as u16`/`as u8` in a numeric kernel module outside the
    /// narrowing allowlist.
    pub const NARROWING: &str = "index-narrowing";
}

/// Files allowed to read the wall clock: benchmark infrastructure and the
/// per-level setup/solve telemetry added alongside the kernels. Grow this
/// list only for measurement code, never for compute paths.
pub const WALLCLOCK_ALLOWLIST: &[&str] = &[
    // Benchmark crates: measuring wall time is their purpose.
    "crates/bench/",
    // The span profiler owns all setup/solve timing; kernels emit spans
    // through its zero-cost API instead of reading the clock themselves.
    "crates/prof/",
    // The simulated-MPI runtime times its own blocking windows (comm_time)
    // at the send/recv choke points.
    "crates/dist/src/comm.rs",
];

/// Kernel files that may narrow with a cast, on a line vouched for by a
/// `// NARROWING:` comment: `Col`'s constructors.
pub const NARROWING_ALLOWLIST: &[&str] = &["crates/sparse/src/csr.rs"];

/// Crates whose `src/` trees count as numeric kernels for the
/// `hashmap-kernel` and `index-narrowing` rules.
const KERNEL_CRATES: &[&str] = &[
    "crates/core/src",
    "crates/sparse/src",
    "crates/krylov/src",
    // The distributed setup runs the serial row kernels on an extended
    // local CSR; only `renumber.rs` (the paper's Fig. 4) vouches for hash
    // containers.
    "crates/dist/src",
];

/// The integer types a cast may narrow an index or a count to.
const NARROW_TYPES: &[&str] = &["u32", "u16", "u8"];

/// The weak orderings, in the order a line naming several reports them.
const WEAK_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel"];

/// Lints one file's source. `path` selects the path-scoped rules and
/// labels the diagnostics; forward slashes are expected (the workspace
/// walker normalizes them). At most one finding per rule and line.
#[must_use]
pub fn lint_source(path: &str, src: &str) -> Vec<Diagnostic> {
    let lx = lex::lex(src);
    let t = &lx.toks;
    let mut live = vec![true; t.len()];
    for (s, e) in parse::parse_file(&lx).tests {
        live[s..e].fill(false);
    }
    let kernel = KERNEL_CRATES.iter().any(|k| path.contains(k));
    let narrowing_allowed = NARROWING_ALLOWLIST.iter().any(|a| path.contains(a));
    let wallclock_allowed = WALLCLOCK_ALLOWLIST.iter().any(|a| path.contains(a));
    // `Q::name` at token `k` (the `Q`), as `(Q, name)`.
    let path_at = |k: usize| match &t[k..] {
        [q, c1, c2, name, ..] if c1.is(':') && c2.is(':') => Some((q, name)),
        _ => None,
    };
    let weak_at = |k: usize| {
        path_at(k)
            .filter(|(q, _)| q.is_ident("Ordering"))
            .and_then(|(_, name)| WEAK_ORDERINGS.iter().find(|w| name.is_ident(w)))
    };
    // The lines that name an ordering (`Ordering::`): one comment covers
    // a cluster of them.
    let mut names_ordering = vec![false; lx.lines.len()];
    for k in 0..t.len() {
        if path_at(k).is_some_and(|(q, _)| q.is_ident("Ordering")) {
            names_ordering[t[k].line] = true;
        }
    }

    let mut out: Vec<Diagnostic> = Vec::new();
    let mut report = |line: usize, rule: &'static str, message: String| {
        out.push(Diagnostic {
            path: path.to_string(),
            line,
            rule,
            message,
        });
    };
    let mut line_start = 0;
    while line_start < t.len() {
        let line = t[line_start].line;
        let end = (line_start..t.len())
            .find(|&k| t[k].line != line)
            .unwrap_or(t.len());
        let on_line: Vec<usize> = (line_start..end).filter(|&k| live[k]).collect();
        line_start = end;
        let next_is = |k: usize, f: &dyn Fn(&Tok) -> bool| t.get(k + 1).is_some_and(f);
        let has = |f: &dyn Fn(usize) -> bool| on_line.iter().any(|&k| f(k));
        let vouched = |marker: &str| justified(&lx.lines, line, marker, |_| false);

        // unsafe-safety: `unsafe {` and `unsafe impl` need a SAFETY comment.
        let unsafe_block =
            |k: usize| t[k].is_ident("unsafe") && next_is(k, &|n| n.is('{') || n.is_ident("impl"));
        if has(&unsafe_block) && !vouched("SAFETY:") {
            report(
                line,
                id::UNSAFE,
                "`unsafe` block without an immediately preceding `// SAFETY:` comment \
                 stating the invariant that makes it sound"
                    .to_string(),
            );
        }

        // ordering-justified: weaker-than-SeqCst orderings need `ORDERING:`.
        let weak: Vec<&str> = on_line
            .iter()
            .filter_map(|&k| weak_at(k).copied())
            .collect();
        if let Some(ord) = WEAK_ORDERINGS.iter().find(|w| weak.contains(w)) {
            if !justified(&lx.lines, line, "ORDERING:", |l| names_ordering[l]) {
                report(
                    line,
                    id::ORDERING,
                    format!(
                        "`Ordering::{ord}` without an `// ORDERING:` comment justifying the \
                         relaxation (what pairs with it, or why no ordering is needed)"
                    ),
                );
            }
        }

        // hashmap-kernel: hash collections are banned in numeric kernels.
        let hash = |k: usize| t[k].is_ident("HashMap") || t[k].is_ident("HashSet");
        if kernel && has(&hash) && !vouched("DETERMINISM:") {
            report(
                line,
                id::HASHMAP,
                "hash collection in a numeric kernel module: iteration order is \
                 nondeterministic and breaks the bitwise determinism contract — use \
                 BTreeMap/BTreeSet or index-sorted vectors (or vouch with `// DETERMINISM:` \
                 if it provably never iterates)"
                    .to_string(),
            );
        }

        // index-narrowing: a narrowing cast only where a Col is made.
        let cast = on_line.iter().find_map(|&k| {
            let ty = NARROW_TYPES
                .iter()
                .find(|ty| next_is(k, &|n| n.is_ident(ty)))?;
            t[k].is_ident("as").then_some(*ty)
        });
        let allowed = narrowing_allowed && vouched("NARROWING:");
        if let Some(ty) = cast.filter(|_| kernel && !allowed) {
            report(
                line,
                id::NARROWING,
                format!(
                    "`as {ty}` in a numeric kernel module silently wraps a value wider than \
                     {ty} — make a column with `Col::new`/`Col::try_from`, any other {ty} \
                     with `{ty}::try_from`"
                ),
            );
        }

        // wallclock-kernel: wall-clock reads outside bench/telemetry files.
        let clock = |k: usize| {
            t[k].is_ident("SystemTime")
                || path_at(k).is_some_and(|(q, n)| q.is_ident("Instant") && n.is_ident("now"))
        };
        if !wallclock_allowed && has(&clock) {
            report(
                line,
                id::WALLCLOCK,
                "wall-clock read in kernel code: `Instant::now`/`SystemTime` belong in \
                 bench or telemetry files (see WALLCLOCK_ALLOWLIST in famg-analyze's lint \
                 module) — kernel decisions must never depend on time"
                    .to_string(),
            );
        }
    }
    out
}

/// Does the comment block adjacent to `line` contain `marker`? Checks the
/// line itself, then walks upward through comment-only lines (and code
/// lines for which `through` holds: the same cluster).
fn justified(
    lines: &[LineInfo],
    line: usize,
    marker: &str,
    through: impl Fn(usize) -> bool,
) -> bool {
    for l in (1..=line).rev() {
        let info = &lines[l];
        if info.comment.contains(marker) {
            return true;
        }
        let comment_only = !info.has_code && !info.comment.is_empty();
        if l < line && !comment_only && !(info.has_code && through(l)) {
            return false;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(path: &str, src: &str) -> Vec<(usize, &'static str)> {
        lint_source(path, src)
            .into_iter()
            .map(|d| (d.line, d.rule))
            .collect()
    }

    #[test]
    fn strings_and_comments_never_match() {
        let src = "let a = \"unsafe { }\"; // unsafe { here\nlet b = '{';\n";
        assert!(rules("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn raw_strings_and_lifetimes() {
        let src = "let r = r#\"Ordering::Relaxed\"#;\nfn f<'a>(x: &'a u32) -> &'a u32 { x }\n";
        assert!(rules("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn block_comments_nest() {
        let src = "/* outer /* inner */ Instant::now() */ let x = 1;\n";
        assert!(rules("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_region_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { unsafe { g() } }\n}\n";
        assert!(rules("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn unsafe_fn_is_exempt_but_block_is_not() {
        let src = "unsafe fn f() {}\nfn g() { unsafe { f() } }\n";
        assert_eq!(rules("crates/core/src/x.rs", src), [(2, id::UNSAFE)]);
    }

    #[test]
    fn safety_comment_suppresses() {
        let src = "fn g() {\n    // SAFETY: g is fine.\n    unsafe { f() }\n}\n";
        assert!(rules("crates/core/src/x.rs", src).is_empty());
        // A block comment's marker reaches down through its own lines.
        let src = "fn g() {\n    /* SAFETY: g is\n       fine. */\n    unsafe { f() }\n}\n";
        assert!(rules("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn ordering_cluster_shares_one_comment() {
        let src = "// ORDERING: both relaxed, counter only.\n\
                   a.fetch_add(1, Ordering::Relaxed);\n\
                   b.fetch_add(1, Ordering::Relaxed);\n\
                   c.store(0, Ordering::SeqCst);\n";
        assert!(rules("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn seqcst_needs_no_comment_but_relaxed_does() {
        let src = "a.store(1, Ordering::SeqCst);\nb.store(1, Ordering::Relaxed);\n";
        assert_eq!(rules("crates/core/src/x.rs", src), [(2, id::ORDERING)]);
    }

    #[test]
    fn one_finding_per_rule_and_line_naming_the_first_weak_ordering() {
        let src = "a.load(Ordering::Acquire); b.load(Ordering::Relaxed); unsafe { f() }; unsafe { g() }\n";
        let d = lint_source("crates/core/src/x.rs", src);
        let got: Vec<_> = d.iter().map(|d| (d.line, d.rule)).collect();
        assert_eq!(got, [(1, id::UNSAFE), (1, id::ORDERING)]);
        assert!(d[1].message.starts_with("`Ordering::Relaxed`"), "{}", d[1]);
    }

    #[test]
    fn hashmap_only_flagged_in_kernel_crates() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(rules("crates/sparse/src/x.rs", src).len(), 1);
        assert_eq!(rules("crates/dist/src/x.rs", src).len(), 1);
        assert!(rules("crates/matgen/src/x.rs", src).is_empty());
    }

    #[test]
    fn narrowing_casts_flagged_in_kernel_crates() {
        for ty in ["u32", "u16", "u8"] {
            let src = format!("let x = i as {ty};\n");
            let got = lint_source("crates/core/src/x.rs", &src);
            assert_eq!(got.len(), 1, "as {ty}");
            assert_eq!((got[0].line, got[0].rule), (1, id::NARROWING));
            assert!(
                got[0].message.starts_with(&format!("`as {ty}`")),
                "{}",
                got[0]
            );
            assert!(rules("crates/matgen/src/x.rs", &src).is_empty(), "as {ty}");
        }
        // Widening, and checked narrowing, are fine.
        let src = "let x = i as u64 + u16::try_from(j).unwrap() as usize;\n";
        assert!(rules("crates/sparse/src/x.rs", src).is_empty());
        // `Col`'s constructors may cast where a comment states the bound.
        let src = "// NARROWING: checked above.\nlet c = i as u32;\n";
        assert!(rules("crates/sparse/src/csr.rs", src).is_empty());
        assert_eq!(rules("crates/sparse/src/x.rs", src), [(2, id::NARROWING)]);
    }

    #[test]
    fn wallclock_respects_allowlist() {
        let src = "let t = std::time::Instant::now();\n";
        assert_eq!(rules("crates/sparse/src/x.rs", src).len(), 1);
        // The solve path must route timing through famg-prof spans.
        assert_eq!(rules("crates/core/src/solver.rs", src).len(), 1);
        assert!(rules("crates/prof/src/lib.rs", src).is_empty());
        assert!(rules("crates/dist/src/comm.rs", src).is_empty());
        assert!(rules("crates/bench/src/lib.rs", src).is_empty());
    }
}
