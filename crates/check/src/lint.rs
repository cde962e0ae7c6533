//! `famg-lint`: a lexer-level source auditor for the repo's concurrency and
//! determinism conventions (no `syn`, no AST — the workspace is hermetic).
//!
//! The linter scans every `.rs` file under `crates/*/src` and `shims/*/src`
//! and enforces five rules (see [`Rule`]):
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
//! * **`index-narrowing`** — `as u32` must not appear in numeric kernel
//!   modules: a column index narrows to 32 bits only through `Col`'s
//!   constructors (`crates/sparse/src/csr.rs`, the one file on
//!   [`NARROWING_ALLOWLIST`], where a `// NARROWING:` comment states the
//!   bound), and every other `u32` index is made by a checked
//!   `u32::try_from` (the extended+i tape's `idx()`). A silent `as u32`
//!   wraps instead of failing.
//!
//! Code inside `#[cfg(test)]`-gated regions and `cfg(test)` modules is
//! exempt from all rules; so is everything outside `src/` (integration
//! tests, benches, fixtures — the latter use a `.rsfix` extension so
//! neither cargo nor this scanner picks them up).

use std::path::{Path, PathBuf};

pub use crate::diag::Diagnostic;

/// Which audit rule produced a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// `unsafe` block or impl without an adjacent `// SAFETY:` comment.
    UnsafeSafety,
    /// Weaker-than-SeqCst atomic ordering without `// ORDERING:`.
    OrderingJustified,
    /// `HashMap`/`HashSet` in a numeric kernel module.
    HashMapKernel,
    /// `Instant::now`/`SystemTime` outside the bench/telemetry allowlist.
    WallclockKernel,
    /// `as u32` in a numeric kernel module outside the narrowing allowlist.
    IndexNarrowing,
}

impl Rule {
    /// Stable diagnostic id, printed in brackets.
    pub fn id(self) -> &'static str {
        match self {
            Rule::UnsafeSafety => "unsafe-safety",
            Rule::OrderingJustified => "ordering-justified",
            Rule::HashMapKernel => "hashmap-kernel",
            Rule::WallclockKernel => "wallclock-kernel",
            Rule::IndexNarrowing => "index-narrowing",
        }
    }
}

/// Files allowed to read the wall clock: benchmark infrastructure and the
/// per-level setup/solve telemetry added alongside the kernels. Grow this
/// list only for measurement code, never for compute paths.
pub const WALLCLOCK_ALLOWLIST: &[&str] = &[
    // Benchmark crates: measuring wall time is their purpose.
    "crates/bench/",
    "shims/criterion/",
    // The span profiler owns all setup/solve timing; kernels emit spans
    // through its zero-cost API instead of reading the clock themselves.
    "crates/prof/",
    // The simulated-MPI runtime times its own blocking windows (comm_time)
    // at the send/recv choke points.
    "crates/dist/src/comm.rs",
];

/// Kernel files that may narrow with `as u32`, on a line vouched for by a
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

/// One source line split into its code text (strings blanked) and its
/// comment text.
#[derive(Debug, Default, Clone)]
struct Line {
    code: String,
    comment: String,
}

/// Lexer state carried across lines.
enum Mode {
    Normal,
    /// Block comment with nesting depth (Rust block comments nest).
    Block(u32),
    Str,
    RawStr(u32),
}

/// Splits source into per-line (code, comment) pairs. String and char
/// literal *contents* are blanked so tokens inside them never match rules;
/// comment text (line and block, doc included) is collected separately.
fn scan(src: &str) -> Vec<Line> {
    let mut out: Vec<Line> = Vec::new();
    let mut cur = Line::default();
    let mut mode = Mode::Normal;
    let chars: Vec<char> = src.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            // A line comment ends at the newline; every other mode carries.
            out.push(std::mem::take(&mut cur));
            i += 1;
            continue;
        }
        match mode {
            Mode::Normal => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    // Line comment: consume to end of line into comment text.
                    while i < chars.len() && chars[i] != '\n' {
                        cur.comment.push(chars[i]);
                        i += 1;
                    }
                    continue;
                } else if c == '/' && next == Some('*') {
                    mode = Mode::Block(1);
                    i += 2;
                    continue;
                } else if c == '"' {
                    cur.code.push('"');
                    mode = Mode::Str;
                } else if c == 'r' && (next == Some('"') || next == Some('#')) {
                    // Possible raw string: r"..." or r#"..."#.
                    let mut hashes = 0u32;
                    let mut j = i + 1;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if chars.get(j) == Some(&'"') {
                        cur.code.push('r');
                        cur.code.push('"');
                        mode = Mode::RawStr(hashes);
                        i = j + 1;
                        continue;
                    }
                    cur.code.push(c);
                } else if c == '\'' {
                    // Char literal vs. lifetime: a char literal closes with
                    // a quote within a couple of characters (or starts with
                    // a backslash escape); a lifetime never does.
                    let is_char = match next {
                        Some('\\') => true,
                        Some(_) => chars.get(i + 2) == Some(&'\''),
                        None => false,
                    };
                    if is_char {
                        // Blank the literal's content, keep the quotes.
                        cur.code.push('\'');
                        i += 1;
                        while i < chars.len() && chars[i] != '\'' {
                            if chars[i] == '\\' {
                                i += 1; // skip the escaped character
                            }
                            cur.code.push(' ');
                            i += 1;
                        }
                        if i < chars.len() {
                            cur.code.push('\'');
                        }
                    } else {
                        cur.code.push('\''); // lifetime tick
                    }
                } else {
                    cur.code.push(c);
                }
            }
            Mode::Block(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('*') {
                    mode = Mode::Block(depth + 1);
                    i += 2;
                    continue;
                } else if c == '*' && next == Some('/') {
                    mode = if depth == 1 {
                        Mode::Normal
                    } else {
                        Mode::Block(depth - 1)
                    };
                    i += 2;
                    continue;
                }
                cur.comment.push(c);
            }
            Mode::Str => {
                if c == '\\' {
                    cur.code.push(' ');
                    i += 2; // skip the escaped character (possibly a quote)
                    continue;
                } else if c == '"' {
                    cur.code.push('"');
                    mode = Mode::Normal;
                } else {
                    cur.code.push(' ');
                }
            }
            Mode::RawStr(hashes) => {
                if c == '"' {
                    // Close only on `"` followed by exactly `hashes` hashes.
                    let mut j = i + 1;
                    let mut seen = 0u32;
                    while seen < hashes && chars.get(j) == Some(&'#') {
                        seen += 1;
                        j += 1;
                    }
                    if seen == hashes {
                        cur.code.push('"');
                        mode = Mode::Normal;
                        i = j;
                        continue;
                    }
                }
                cur.code.push(' ');
            }
        }
        i += 1;
    }
    if !cur.code.is_empty() || !cur.comment.is_empty() {
        out.push(cur);
    }
    out
}

/// Marks lines covered by a `#[cfg(test)]`-gated item (attribute line
/// through the item's closing brace, or through `;` for braceless items).
fn test_region_mask(lines: &[Line]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        let code = &lines[i].code;
        let gated = code.contains("cfg(test)") || code.contains("cfg(all(test");
        if !gated {
            i += 1;
            continue;
        }
        let mut depth: i64 = 0;
        let mut opened = false;
        let mut j = i;
        while j < lines.len() {
            mask[j] = true;
            for c in lines[j].code.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            if opened && depth <= 0 {
                break;
            }
            if !opened && lines[j].code.contains(';') {
                break; // attribute on a braceless item (`mod x;`, `use ...;`)
            }
            j += 1;
        }
        i = j + 1;
    }
    mask
}

/// True if `code` contains `word` delimited by non-identifier characters.
fn has_word(code: &str, word: &str) -> bool {
    let bytes = code.as_bytes();
    let mut start = 0;
    while let Some(pos) = code[start..].find(word) {
        let at = start + pos;
        let before_ok = at == 0 || {
            let b = bytes[at - 1];
            !(b.is_ascii_alphanumeric() || b == b'_')
        };
        let end = at + word.len();
        let after_ok = end >= bytes.len() || {
            let b = bytes[end];
            !(b.is_ascii_alphanumeric() || b == b'_')
        };
        if before_ok && after_ok {
            return true;
        }
        start = at + word.len();
    }
    false
}

/// The first code token following the occurrence of `unsafe` at `pos` on
/// line `i`, looking across following lines if the line ends.
fn token_after_unsafe(lines: &[Line], i: usize, pos: usize) -> String {
    let mut tok = String::new();
    let mut row = i;
    let mut rest: &str = &lines[i].code[pos + "unsafe".len()..];
    loop {
        for c in rest.chars() {
            if c.is_whitespace() {
                if tok.is_empty() {
                    continue;
                }
                return tok;
            }
            if c.is_alphanumeric() || c == '_' {
                tok.push(c);
            } else {
                if tok.is_empty() {
                    tok.push(c);
                }
                return tok;
            }
        }
        if !tok.is_empty() {
            return tok;
        }
        row += 1;
        if row >= lines.len() {
            return tok;
        }
        rest = &lines[row].code;
    }
}

/// Does the comment block adjacent to line `i` contain `marker`? Checks the
/// line itself, then walks upward through comment-only lines (and, when
/// `through` matches, code lines that are part of the same cluster).
fn justified(lines: &[Line], i: usize, marker: &str, through: impl Fn(&str) -> bool) -> bool {
    if lines[i].comment.contains(marker) {
        return true;
    }
    let mut j = i;
    while j > 0 {
        j -= 1;
        let l = &lines[j];
        if l.comment.contains(marker) {
            return true;
        }
        let code_blank = l.code.trim().is_empty();
        if code_blank && !l.comment.is_empty() {
            continue; // comment-only line: keep walking the block
        }
        if !code_blank && through(&l.code) {
            continue; // same-cluster code line (e.g. another Ordering:: use)
        }
        return false;
    }
    false
}

const WEAK_ORDERINGS: &[&str] = &[
    "Ordering::Relaxed",
    "Ordering::Acquire",
    "Ordering::Release",
    "Ordering::AcqRel",
];

fn is_kernel_path(path: &str) -> bool {
    KERNEL_CRATES.iter().any(|k| path.contains(k))
}

fn wallclock_allowed(path: &str) -> bool {
    WALLCLOCK_ALLOWLIST.iter().any(|a| path.contains(a))
}

/// True if `code` casts with `as` to the type `ty` (`x as u32`): the
/// identifier tokens `as`, `ty` in a row.
fn casts_to(code: &str, ty: &str) -> bool {
    let words: Vec<&str> = code
        .split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
        .collect();
    words.windows(2).any(|w| w[0] == "as" && w[1] == ty)
}

/// Lints one file's source. `path` is used for path-scoped rules and
/// diagnostics; forward slashes are expected (the workspace walker
/// normalizes them).
pub fn lint_file(path: &str, src: &str) -> Vec<Diagnostic> {
    let lines = scan(src);
    let in_test = test_region_mask(&lines);
    let mut out = Vec::new();
    let diag = |line: usize, rule: Rule, message: String| Diagnostic {
        path: path.to_string(),
        line: line + 1,
        rule: rule.id(),
        message,
    };

    for (i, l) in lines.iter().enumerate() {
        if in_test[i] {
            continue;
        }

        // unsafe-safety: `unsafe {` and `unsafe impl` need a SAFETY comment.
        if has_word(&l.code, "unsafe") {
            let pos = l.code.find("unsafe").unwrap_or(0);
            let next = token_after_unsafe(&lines, i, pos);
            let needs_comment = next == "{" || next == "impl";
            if needs_comment && !justified(&lines, i, "SAFETY:", |_| false) {
                out.push(diag(
                    i,
                    Rule::UnsafeSafety,
                    "`unsafe` block without an immediately preceding `// SAFETY:` comment \
                     stating the invariant that makes it sound"
                        .to_string(),
                ));
            }
        }

        // ordering-justified: weaker-than-SeqCst orderings need `ORDERING:`.
        if let Some(ord) = WEAK_ORDERINGS.iter().find(|o| l.code.contains(*o)) {
            let cluster = |code: &str| code.contains("Ordering::");
            if !justified(&lines, i, "ORDERING:", cluster) {
                out.push(diag(
                    i,
                    Rule::OrderingJustified,
                    format!(
                        "`{ord}` without an `// ORDERING:` comment justifying the \
                         relaxation (what pairs with it, or why no ordering is needed)"
                    ),
                ));
            }
        }

        // hashmap-kernel: hash collections are banned in numeric kernels.
        if is_kernel_path(path)
            && (has_word(&l.code, "HashMap") || has_word(&l.code, "HashSet"))
            && !justified(&lines, i, "DETERMINISM:", |_| false)
        {
            out.push(diag(
                i,
                Rule::HashMapKernel,
                "hash collection in a numeric kernel module: iteration order is \
                 nondeterministic and breaks the bitwise determinism contract — use \
                 BTreeMap/BTreeSet or index-sorted vectors (or vouch with `// DETERMINISM:` \
                 if it provably never iterates)"
                    .to_string(),
            ));
        }

        // index-narrowing: `as u32` only where a Col is made.
        if is_kernel_path(path)
            && casts_to(&l.code, "u32")
            && !(NARROWING_ALLOWLIST.iter().any(|a| path.contains(a))
                && justified(&lines, i, "NARROWING:", |_| false))
        {
            out.push(diag(
                i,
                Rule::IndexNarrowing,
                "`as u32` in a numeric kernel module silently wraps an index wider than \
                 32 bits — make a column with `Col::new`/`Col::try_from`, any other u32 \
                 with `u32::try_from`"
                    .to_string(),
            ));
        }

        // wallclock-kernel: wall-clock reads outside bench/telemetry files.
        if !wallclock_allowed(path)
            && (l.code.contains("Instant::now") || has_word(&l.code, "SystemTime"))
        {
            out.push(diag(
                i,
                Rule::WallclockKernel,
                "wall-clock read in kernel code: `Instant::now`/`SystemTime` belong in \
                 bench or telemetry files (see WALLCLOCK_ALLOWLIST in famg-check's lint \
                 module) — kernel decisions must never depend on time"
                    .to_string(),
            ));
        }
    }
    out
}

/// Recursively collects `.rs` files under `dir` into `out`.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Lints every `.rs` file under `crates/*/src` and `shims/*/src` of the
/// workspace at `root`. Returns diagnostics with workspace-relative paths.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let mut files = Vec::new();
    for group in ["crates", "shims"] {
        let gdir = root.join(group);
        if !gdir.is_dir() {
            continue;
        }
        let mut members: Vec<PathBuf> = std::fs::read_dir(&gdir)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .collect();
        members.sort();
        for m in members {
            let src = m.join("src");
            if src.is_dir() {
                collect_rs(&src, &mut files)?;
            }
        }
    }
    let mut out = Vec::new();
    for f in &files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(f)?;
        out.extend(lint_file(&rel, &src));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scanner_strips_strings_and_comments() {
        let src = "let a = \"unsafe { }\"; // unsafe here\nlet b = 'x';\n";
        let lines = scan(src);
        assert!(!lines[0].code.contains("unsafe"));
        assert!(lines[0].comment.contains("unsafe here"));
        assert!(lines[1].code.contains('\''));
    }

    #[test]
    fn scanner_handles_raw_strings_and_lifetimes() {
        let src = "let r = r#\"Ordering::Relaxed\"#;\nfn f<'a>(x: &'a u32) -> &'a u32 { x }\n";
        let lines = scan(src);
        assert!(!lines[0].code.contains("Ordering::Relaxed"));
        assert!(lines[1].code.contains("fn f<'a>"));
    }

    #[test]
    fn block_comments_nest() {
        let src = "/* outer /* inner */ still comment */ let x = 1;\n";
        let lines = scan(src);
        assert!(lines[0].code.contains("let x = 1;"));
        assert!(lines[0].comment.contains("inner"));
        assert!(!lines[0].code.contains("still"));
    }

    #[test]
    fn cfg_test_region_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { unsafe { g() } }\n}\n";
        let d = lint_file("crates/core/src/x.rs", src);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn unsafe_fn_is_exempt_but_block_is_not() {
        let src = "unsafe fn f() {}\nfn g() { unsafe { f() } }\n";
        let d = lint_file("crates/core/src/x.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, Rule::UnsafeSafety.id());
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn safety_comment_suppresses() {
        let src = "fn g() {\n    // SAFETY: g is fine.\n    unsafe { f() }\n}\n";
        assert!(lint_file("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn ordering_cluster_shares_one_comment() {
        let src = "// ORDERING: both relaxed, counter only.\n\
                   a.fetch_add(1, Ordering::Relaxed);\n\
                   b.fetch_add(1, Ordering::Relaxed);\n\
                   c.store(0, Ordering::SeqCst);\n";
        assert!(lint_file("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn seqcst_needs_no_comment_but_relaxed_does() {
        let src = "a.store(1, Ordering::SeqCst);\nb.store(1, Ordering::Relaxed);\n";
        let d = lint_file("crates/core/src/x.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, Rule::OrderingJustified.id());
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn hashmap_only_flagged_in_kernel_crates() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(lint_file("crates/sparse/src/x.rs", src).len(), 1);
        assert_eq!(lint_file("crates/dist/src/x.rs", src).len(), 1);
        assert!(lint_file("crates/matgen/src/x.rs", src).is_empty());
    }

    #[test]
    fn wallclock_respects_allowlist() {
        let src = "let t = std::time::Instant::now();\n";
        assert_eq!(lint_file("crates/sparse/src/x.rs", src).len(), 1);
        // The solve path must route timing through famg-prof spans now.
        assert_eq!(lint_file("crates/core/src/solver.rs", src).len(), 1);
        assert!(lint_file("crates/prof/src/lib.rs", src).is_empty());
        assert!(lint_file("crates/dist/src/comm.rs", src).is_empty());
        assert!(lint_file("crates/bench/src/lib.rs", src).is_empty());
    }
}
