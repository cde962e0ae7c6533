//! famg-analyze: the workspace's source auditor.
//!
//! One run reports two rule families over one lexer ([`lex`]) and one
//! item parser ([`parse`]).
//!
//! **Site rules** ([`lint`]) audit the concurrency and determinism
//! conventions token by token in every `crates/*/src` and `shims/*/src`
//! file: `unsafe-safety`, `ordering-justified`, `hashmap-kernel`,
//! `wallclock-kernel` and `index-narrowing`, each with a written escape
//! hatch (`// SAFETY:`, `// ORDERING:`, `// DETERMINISM:`,
//! `// NARROWING:`).
//!
//! **Flow rules** ([`rules`]) prove properties of a conservative
//! name-resolved call graph across the kernel crates, the solve-path
//! invariants of the Park et al. (SC'15) reproduction:
//!
//! * **`alloc-in-solve-path`** — the V-cycle, Krylov, smoother, and
//!   SpMV/SpMM hot paths never heap-allocate; buffers are hoisted into
//!   cached workspaces at setup time (the paper's optimized solve phase
//!   is allocation-free by design).
//! * **`panic-in-try-path`** — public `try_*` entry points really are
//!   fallible: everything reachable from them reports via `Result`
//!   instead of panicking, unless a written invariant explains why the
//!   panic is unreachable.
//! * **`reduction-blessed`** — parallel floating-point reductions live
//!   only in the fixed-chunk deterministic modules, preserving the
//!   workspace's bitwise thread-count independence guarantee.
//!
//! A fourth check, **`stale-solve-root`**, keeps the first one honest:
//! every root name the no-alloc proof starts from must still name a
//! function.
//!
//! The call graph is over-approximate (method and trait calls edge to
//! every same-named function; see [`model`]), so every flow rule has a
//! written escape hatch (`// ALLOC:`, `// PANIC-FREE:`,
//! `// DETERMINISM:`) that demands a justification rather than silence.
//!
//! A report rides along: [`test_only_pub`] lists the `pub fn`s of the
//! kernel crates that no program of the workspace reaches — API that only
//! tests select, the candidates for deletion.
//!
//! Scope of the flow rules: only the kernel crates listed in
//! [`ANALYZED_ROOTS`]. Telemetry, verification, and generator crates
//! (prof, check, model, bench, matgen) allocate and panic freely by
//! design, and the rayon shim is the substrate *below* these invariants —
//! its ordered reduce is exactly what makes the blessed modules
//! deterministic.

pub mod diag;
pub mod lex;
pub mod lint;
pub mod model;
pub mod parse;
pub mod rules;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use diag::{to_json, Diagnostic};
pub use model::Model;

/// Source roots (relative to the workspace root) included in the model.
pub const ANALYZED_ROOTS: &[&str] = &[
    "crates/core/src",
    "crates/sparse/src",
    "crates/krylov/src",
    "crates/dist/src",
];

/// Source roots (relative to the workspace root) whose non-test functions
/// are the programs [`test_only_pub`] starts from: the benchmark package,
/// the examples, the figure binaries, and the checker.
pub const CONSUMER_ROOTS: &[&str] = &[
    "e2e/src",
    "examples",
    "crates/bench/src",
    "crates/check/src",
];

/// Analyzes in-memory `(path, source)` pairs with both rule families and
/// returns sorted diagnostics. Paths are workspace-relative with forward
/// slashes; they select rule scope (e.g. [`rules::REDUCTION_BLESSED`],
/// [`lint::WALLCLOCK_ALLOWLIST`]), so fixtures should use realistic paths.
#[must_use]
pub fn analyze_sources(sources: &[(String, String)]) -> Vec<Diagnostic> {
    let mut diags = rules::run_all(&Model::build(sources));
    diags.extend(sources.iter().flat_map(|(p, s)| lint::lint_source(p, s)));
    sorted(diags)
}

/// Audits the workspace at `root`: the site rules over every `.rs` file
/// under `crates/*/src` and `shims/*/src`, and the flow rules over
/// [`ANALYZED_ROOTS`] analyzed as one workspace, plus
/// [`rules::rule_stale_roots`], which only makes sense over the whole
/// solve stack. Diagnostics are sorted by `(path, line, rule)`.
pub fn analyze_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let model = Model::build(&read_sources(root, ANALYZED_ROOTS)?);
    let mut diags = rules::rule_stale_roots(&model, rules::SOLVE_ROOTS);
    diags.extend(rules::run_all(&model));
    let mut linted = Vec::new();
    for group in ["crates", "shims"] {
        if let Ok(members) = fs::read_dir(root.join(group)) {
            for m in members {
                let name = m?.file_name();
                linted.push(format!("{group}/{}/src", name.to_string_lossy()));
            }
        }
    }
    let linted: Vec<&str> = linted.iter().map(String::as_str).collect();
    for (path, src) in read_sources(root, &linted)? {
        diags.extend(lint::lint_source(&path, &src));
    }
    Ok(sorted(diags))
}

fn sorted(mut diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
    diags.sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    diags
}

/// Every non-test `pub fn` under [`ANALYZED_ROOTS`] that no non-test
/// function under [`CONSUMER_ROOTS`] reaches, as sorted `path: Type::fn`
/// lines (see [`test_only_pub_sources`]).
pub fn test_only_pub(root: &Path) -> io::Result<Vec<String>> {
    let kernel = read_sources(root, ANALYZED_ROOTS)?;
    let programs = read_sources(root, CONSUMER_ROOTS)?;
    Ok(test_only_pub_sources(&kernel, &programs))
}

/// The `pub fn`s of the `kernel` sources that no non-test function of the
/// `programs` sources reaches, as sorted `path: Type::fn` lines.
/// Reachability follows [`Model::mentioned`], which edges to every
/// function a body names (narrowed by type only for a `Type::name` path),
/// so an item is listed only when no program can get to it: the list may
/// miss test-only items, never name a used one.
#[must_use]
pub fn test_only_pub_sources(
    kernel: &[(String, String)],
    programs: &[(String, String)],
) -> Vec<String> {
    let nk = kernel.len();
    let m = Model::build(&[kernel, programs].concat());
    let mut seen = vec![false; m.fns.len()];
    let mut todo: Vec<usize> = (0..m.fns.len()).filter(|&i| m.fns[i].file >= nk).collect();
    while let Some(f) = todo.pop() {
        if !std::mem::replace(&mut seen[f], true) {
            todo.extend(m.mentioned(&m.fns[f]).filter(|&g| !seen[g]));
        }
    }
    let mut out: Vec<String> = (0..m.fns.len())
        .filter(|&i| !seen[i] && m.fns[i].item.is_pub)
        .map(|i| format!("{}: {}", m.files[m.fns[i].file].path, m.display_name(i)))
        .collect();
    out.sort();
    out.dedup();
    out
}

/// Reads every `.rs` file under `subs` of `root` as workspace-relative
/// `(path, source)` pairs, in sorted path order (deterministic output).
fn read_sources(root: &Path, subs: &[&str]) -> io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    for sub in subs {
        let dir = root.join(sub);
        if dir.is_dir() {
            collect_rs(&dir, &mut files)?;
        }
    }
    files.sort();
    let mut sources = Vec::with_capacity(files.len());
    for f in files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push((rel, fs::read_to_string(&f)?));
    }
    Ok(sources)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}
