//! The flow rules: reachability BFS over the call graph plus per-site
//! reporting.
//!
//! * [`rule_alloc`] (`alloc-in-solve-path`) — no heap allocation in any
//!   function reachable from a solve root. Setup/refresh-flavored callees
//!   (see [`SETUP_PREFIXES`]) are traversal boundaries: hierarchy setup,
//!   workspace construction, and plan building are allowed to allocate.
//! * [`rule_panic`] (`panic-in-try-path`) — nothing reachable from a
//!   public `try_*` entry point may panic. No name-based exemptions: a
//!   panic inside lazy setup on a fallible path still breaks the
//!   `try_` contract.
//! * [`rule_reduction`] (`reduction-blessed`) — floating-point reductions
//!   over parallel iterators only in the blessed fixed-chunk modules
//!   ([`REDUCTION_BLESSED`]); everywhere else they are
//!   schedule-dependent and need a `// DETERMINISM:` justification.
//!
//! * [`rule_stale_roots`] (`stale-solve-root`) — every name in
//!   [`SOLVE_ROOTS`] resolves to a function. Roots are matched by bare
//!   name, so renaming or deleting a body would otherwise silently shrink
//!   what the no-alloc proof covers. Whole-workspace runs only (a fixture
//!   holds a handful of functions, not the solve stack).
//!
//! Escape hatches: a `// ALLOC:` / `// PANIC-FREE:` / `// DETERMINISM:`
//! comment on the flagged line (or the comment block directly above it)
//! suppresses that site; the same marker above a function's signature
//! vouches for the function and everything it calls — the BFS reports
//! nothing inside the vouched subtree.

use std::collections::{HashSet, VecDeque};

use crate::diag::Diagnostic;

use crate::model::{FnNode, Model};

/// Rule id strings, stable across releases (used in `--format json`).
pub mod id {
    /// No heap allocation reachable from a solve root.
    pub const ALLOC: &str = "alloc-in-solve-path";
    /// No panic reachable from a public `try_*` entry.
    pub const PANIC: &str = "panic-in-try-path";
    /// Parallel FP reductions only in blessed modules.
    pub const REDUCTION: &str = "reduction-blessed";
    /// Every solve root names an existing function.
    pub const STALE_ROOT: &str = "stale-solve-root";
}

/// Function names that anchor the solve-path reachability set: cycle
/// drivers, Krylov solvers, smoothers, and the SpMV/SpMM kernels.
pub const SOLVE_ROOTS: &[&str] = &[
    "vcycle",
    "vcycle_batch",
    "solve",
    "solve_batch",
    "try_solve",
    "try_solve_batch",
    "cg",
    "cg_batch",
    "cg_with",
    "cg_batch_with",
    "fgmres",
    "cg_rows",
    "fgmres_in",
    "try_dist_amg_solve",
    "try_dist_amg_solve_multi",
    "try_dist_vcycle_rows",
    "try_dist_fgmres_amg",
    "try_dist_pcg_amg",
    "sweep",
    "smooth",
    "spmv",
    "spmm",
    "dist_spmv",
];

/// Name prefixes the alloc-rule BFS does not descend into: setup,
/// (re)construction, and shape checks are allowed to allocate. The panic
/// rule has no such cut.
pub const SETUP_PREFIXES: &[&str] = &[
    "setup",
    "build",
    "from_",
    "for_", // workspace constructors: for_hierarchy, for_problem, ...
    "plan",
    "refresh",
    "freeze",
    "check_",
    "coarsen",
    "factor",
    "strength",
    "interp",
    "renumber",
    "partition",
];

/// Files whose parallel reductions are deterministic by construction
/// (fixed-chunk splits with an ordered sequential combine).
pub const REDUCTION_BLESSED: &[&str] = &["crates/sparse/src/vecops.rs"];

/// Marker suppressing `alloc-in-solve-path` findings.
pub const ALLOC_MARKER: &str = "ALLOC:";
/// Marker suppressing `panic-in-try-path` findings.
pub const PANIC_MARKER: &str = "PANIC-FREE:";
/// Marker suppressing `reduction-blessed` findings.
pub const DETERMINISM_MARKER: &str = "DETERMINISM:";

fn is_setup_named(name: &str) -> bool {
    SETUP_PREFIXES.iter().any(|p| name.starts_with(p))
}

/// Reachability BFS from `roots`. Returns, for each visited function, the
/// BFS parent (`usize::MAX` for roots) — only functions whose bodies were
/// actually examined appear (function-level annotated nodes and cut names
/// are absorbed silently). A method of a gated type (see [`crate::model`])
/// waits until some visited function names that type.
fn reach(
    m: &Model,
    roots: &[usize],
    marker: &str,
    cut: impl Fn(&FnNode) -> bool,
) -> Vec<(usize, usize)> {
    let mut seen = vec![false; m.fns.len()];
    let mut out = Vec::new();
    let mut live: HashSet<&str> = HashSet::new();
    // (callee, caller) edges whose callee's type is not live yet.
    let mut waiting: Vec<(usize, usize)> = Vec::new();
    // Roots are entered unconditionally; everything else through an edge.
    let mut edges: VecDeque<(usize, usize)> = roots.iter().map(|&r| (r, usize::MAX)).collect();
    while let Some((c, from)) = edges.pop_front() {
        if seen[c] {
            continue;
        }
        if from != usize::MAX && m.gate_of(&m.fns[c]).is_some_and(|ty| !live.contains(ty)) {
            waiting.push((c, from));
            continue;
        }
        seen[c] = true;
        // Reached, whether or not its body is examined below: the types
        // it names can exist from here on.
        for ty in &m.fns[c].names_gated {
            if live.insert(ty) {
                let (woken, still): (Vec<_>, Vec<_>) = std::mem::take(&mut waiting)
                    .into_iter()
                    .partition(|&(w, _)| m.gate_of(&m.fns[w]) == Some(ty));
                edges.extend(woken);
                waiting = still;
            }
        }
        if (from != usize::MAX && cut(&m.fns[c])) || m.fn_annotated(&m.fns[c], marker) {
            continue;
        }
        out.push((c, from));
        for call in &m.fns[c].calls {
            edges.extend(m.resolve(call, &m.fns[c]).into_iter().map(|t| (t, c)));
        }
    }
    out
}

/// Renders the BFS call path from a root down to `f` as `a → b → c`.
fn chain(m: &Model, parents: &[(usize, usize)], f: usize) -> String {
    let lookup = |i: usize| parents.iter().find(|&&(n, _)| n == i).map(|&(_, p)| p);
    let mut names = vec![m.display_name(f)];
    let mut cur = f;
    while let Some(p) = lookup(cur) {
        if p == usize::MAX {
            break;
        }
        names.push(m.display_name(p));
        cur = p;
    }
    names.reverse();
    if names.len() > 6 {
        let tail = names.split_off(names.len() - 3);
        names.truncate(2);
        names.push("…".to_string());
        names.extend(tail);
    }
    names.join(" → ")
}

/// `alloc-in-solve-path`: flags heap-allocation sites in functions
/// reachable from [`SOLVE_ROOTS`], excluding setup-named callees.
#[must_use]
pub fn rule_alloc(m: &Model) -> Vec<Diagnostic> {
    let roots: Vec<usize> = (0..m.fns.len())
        .filter(|&i| SOLVE_ROOTS.contains(&m.fns[i].item.name.as_str()))
        .collect();
    let visited = reach(m, &roots, ALLOC_MARKER, |f| is_setup_named(&f.item.name));
    let mut out = Vec::new();
    for &(f, _) in &visited {
        let node = &m.fns[f];
        for site in &node.allocs {
            if m.justified_at(node.file, site.line, ALLOC_MARKER) {
                continue;
            }
            out.push(Diagnostic {
                path: m.files[node.file].path.clone(),
                line: site.line,
                rule: id::ALLOC,
                message: format!(
                    "{} allocates on the solve path ({}); hoist into a cached workspace or \
                     justify with `// ALLOC: <why>`",
                    site.what,
                    chain(m, &visited, f)
                ),
            });
        }
    }
    out
}

/// `panic-in-try-path`: flags panic-capable sites in functions reachable
/// from public `try_*` entry points.
#[must_use]
pub fn rule_panic(m: &Model) -> Vec<Diagnostic> {
    let roots: Vec<usize> = (0..m.fns.len())
        .filter(|&i| {
            let it = &m.fns[i].item;
            it.is_pub && it.name.starts_with("try_")
        })
        .collect();
    let visited = reach(m, &roots, PANIC_MARKER, |_| false);
    let mut out = Vec::new();
    for &(f, _) in &visited {
        let node = &m.fns[f];
        for site in &node.panics {
            if m.justified_at(node.file, site.line, PANIC_MARKER) {
                continue;
            }
            out.push(Diagnostic {
                path: m.files[node.file].path.clone(),
                line: site.line,
                rule: id::PANIC,
                message: format!(
                    "{} can panic but is reachable from a fallible `try_*` entry ({}); return \
                     an error or justify with `// PANIC-FREE: <invariant>`",
                    site.what,
                    chain(m, &visited, f)
                ),
            });
        }
    }
    out
}

/// `reduction-blessed`: flags parallel FP reductions outside
/// [`REDUCTION_BLESSED`]. Site-based, no reachability: a
/// schedule-dependent reduction is a determinism hazard wherever it runs.
#[must_use]
pub fn rule_reduction(m: &Model) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for node in &m.fns {
        let path = m.files[node.file].path.as_str();
        if REDUCTION_BLESSED.iter().any(|b| path.ends_with(b)) {
            continue;
        }
        if m.fn_annotated(node, DETERMINISM_MARKER) {
            continue;
        }
        for site in &node.reductions {
            if m.justified_at(node.file, site.line, DETERMINISM_MARKER) {
                continue;
            }
            out.push(Diagnostic {
                path: path.to_string(),
                line: site.line,
                rule: id::REDUCTION,
                message: format!(
                    "{} outside the blessed fixed-chunk modules is schedule-dependent; route \
                     through `famg_sparse::vecops` or justify with `// DETERMINISM: <why>`",
                    site.what
                ),
            });
        }
    }
    out
}

/// `stale-solve-root`: flags every name in `roots` that no function in
/// the model carries — the proof anchored there covers nothing. The
/// finding points at the entry in this file.
#[must_use]
pub fn rule_stale_roots(m: &Model, roots: &[&str]) -> Vec<Diagnostic> {
    let this_file = include_str!("rules.rs");
    roots
        .iter()
        .filter(|root| !m.fns.iter().any(|f| f.item.name == **root))
        .map(|root| Diagnostic {
            path: "crates/analyze/src/rules.rs".to_string(),
            line: this_file
                .lines()
                .position(|l| l.trim() == format!("\"{root}\","))
                .map_or(0, |i| i + 1),
            rule: id::STALE_ROOT,
            message: format!(
                "solve root `{root}` resolves to no function; rename it with the body it \
                 anchored or drop it from SOLVE_ROOTS"
            ),
        })
        .collect()
}

/// Runs the three flow rules (unsorted; the crate's entry points sort).
#[must_use]
pub fn run_all(m: &Model) -> Vec<Diagnostic> {
    let mut out = rule_alloc(m);
    out.extend(rule_panic(m));
    out.extend(rule_reduction(m));
    out
}
