//! Workspace model: per-function fact extraction and conservative name
//! resolution.
//!
//! Each parsed function body is scanned once for the facts the rules need:
//!
//! * **calls** — `name(..)`, `recv.name(..)`, `Qual::name(..)` call sites
//!   (macro invocations are classified separately);
//! * **alloc sites** — `vec![..]`, `Vec::new`/`Box::new`-style constructor
//!   calls, `with_capacity`, and the allocating methods `collect`,
//!   `to_vec`, `clone`;
//! * **panic sites** — `unwrap`/`expect` calls and the panicking macro
//!   family (`panic!`, `assert!`, `unreachable!`, ...; `debug_assert*` is
//!   exempt because release builds compile it out);
//! * **reduction sites** — `.sum()`/`.fold(..)`/`.reduce(..)` whose
//!   receiver chain contains a `par_*` adapter, and `+=` accumulation into
//!   an index/deref place inside a single-expression parallel chain.
//!
//! Resolution is by name and deliberately over-approximate: a method call
//! `x.apply(..)` edges to *every* function named `apply` in the analyzed
//! set (trait dispatch and closures cannot be resolved lexically). A
//! `Qual::name(..)` qualifier narrows candidates to the matching impl type
//! or module when one exists in the workspace; qualifiers that match
//! nothing (e.g. `Vec::new`, `f64::max`) resolve to no edge — std behavior
//! is captured by site classification instead, never by traversal.
//!
//! One refinement keeps shared generic code analyzable. A type that only
//! its own crate can name (no plain `pub`) and that is stored in no other
//! type is **gated**: its `impl` methods become call candidates only once
//! a function already reached names the type (signature or body) — a
//! value of a type nobody on the path can name cannot exist there. That
//! is rapid type analysis restricted to the one case where it is sound
//! without whole-program knowledge: public types may arrive through a
//! root's arguments and types held in fields arrive inside them, so both
//! stay ungated. It is what lets one recurrence written over a trait be
//! instantiated by a fallible distributed space and an infallible serial
//! one without each side's roots inheriting the other's call tree.

use std::collections::{HashMap, HashSet};

use crate::lex::{self, Kind, Lexed, Tok};
use crate::parse::{self, FnItem};

/// A call site inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// Called name (function, method, or associated function).
    pub name: String,
    /// `Qual` of a `Qual::name(..)` path call, if any.
    pub qual: Option<String>,
    /// 1-based source line.
    pub line: usize,
}

/// A rule-relevant site (allocation, panic, or reduction) with a short
/// description of the triggering syntax.
#[derive(Debug, Clone)]
pub struct Site {
    /// 1-based source line.
    pub line: usize,
    /// Triggering syntax, e.g. `` `vec![..]` `` or `` `.unwrap()` ``.
    pub what: String,
}

/// One analyzed function: parse-time facts plus scanned body sites.
#[derive(Debug)]
pub struct FnNode {
    /// Parse-time item facts (name, context, lines, body range).
    pub item: FnItem,
    /// Index into [`Model::files`].
    pub file: usize,
    /// All call sites, for graph edges.
    pub calls: Vec<Call>,
    /// Heap-allocation sites.
    pub allocs: Vec<Site>,
    /// Panic-capable sites.
    pub panics: Vec<Site>,
    /// Parallel floating-point reduction sites.
    pub reductions: Vec<Site>,
    /// Gated types (see the module docs) this function names, its own
    /// `impl` type included: reaching it makes them live.
    pub names_gated: Vec<String>,
}

/// A lexed source file with its workspace-relative path.
#[derive(Debug)]
pub struct FileInfo {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// Lexed token stream and line table.
    pub lexed: Lexed,
}

/// The analyzed workspace: files, functions, and the name index used for
/// conservative call resolution.
#[derive(Debug, Default)]
pub struct Model {
    /// All scanned files.
    pub files: Vec<FileInfo>,
    /// All non-test functions with bodies or declarations.
    pub fns: Vec<FnNode>,
    index: HashMap<String, Vec<usize>>,
    gated: HashSet<String>,
}

impl Model {
    /// Builds the model from `(path, source)` pairs. Functions under
    /// `#[cfg(test)]` are excluded entirely: they are neither rule roots
    /// nor resolution candidates, so test-only allocation/panic idiom
    /// never leaks into production reachability.
    #[must_use]
    pub fn build(sources: &[(String, String)]) -> Model {
        let mut m = Model::default();
        // Type name -> "every definition is crate-private", and every
        // identifier that occurs inside some type definition.
        let mut private: HashMap<String, bool> = HashMap::new();
        let mut stored: HashSet<String> = HashSet::new();
        for (path, src) in sources {
            let lexed = lex::lex(src);
            let file = m.files.len();
            let parse::Parsed { fns, types, .. } = parse::parse_file(&lexed);
            for ty in types.iter().filter(|t| !t.in_test) {
                *private.entry(ty.name.clone()).or_insert(true) &= !ty.is_pub;
                let (s, e) = ty.span;
                stored.extend(idents(&lexed.toks[s..e]).map(str::to_string));
            }
            for item in fns {
                if item.in_test {
                    continue;
                }
                let (calls, allocs, panics, reductions) = item
                    .body
                    .map(|range| scan_body(&lexed.toks, range))
                    .unwrap_or_default();
                m.fns.push(FnNode {
                    item,
                    file,
                    calls,
                    allocs,
                    panics,
                    reductions,
                    names_gated: Vec::new(),
                });
            }
            m.files.push(FileInfo {
                path: path.clone(),
                lexed,
            });
        }
        m.gated = private
            .into_iter()
            .filter(|(name, all_private)| *all_private && !stored.contains(name))
            .map(|(name, _)| name)
            .collect();
        for f in &mut m.fns {
            let (s, e) = f.item.span;
            let mut named: Vec<&str> = idents(&m.files[f.file].lexed.toks[s..e])
                .chain(f.item.self_ty.as_deref())
                .filter(|id| m.gated.contains(*id))
                .collect();
            named.sort_unstable();
            named.dedup();
            f.names_gated = named.into_iter().map(str::to_string).collect();
        }
        for (i, f) in m.fns.iter().enumerate() {
            m.index.entry(f.item.name.clone()).or_default().push(i);
        }
        m
    }

    /// The gated type `f` is a method of, if any: `f` can only run once
    /// that type is live.
    #[must_use]
    pub fn gate_of<'f>(&self, f: &'f FnNode) -> Option<&'f str> {
        f.item
            .self_ty
            .as_deref()
            .filter(|ty| self.gated.contains(*ty))
    }

    /// Resolves a call site to candidate callee indices (see module docs
    /// for the over-approximation policy).
    #[must_use]
    pub fn resolve(&self, call: &Call, caller: &FnNode) -> Vec<usize> {
        let Some(cands) = self.index.get(&call.name) else {
            return Vec::new();
        };
        let Some(qual) = &call.qual else {
            return cands.clone();
        };
        let qual = if qual == "Self" {
            match &caller.item.self_ty {
                Some(t) => t.clone(),
                None => return cands.clone(),
            }
        } else {
            qual.clone()
        };
        let by_ty: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&i| self.fns[i].item.self_ty.as_deref() == Some(&qual))
            .collect();
        if !by_ty.is_empty() {
            return by_ty;
        }
        let by_mod: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&i| {
                let f = &self.fns[i];
                f.item.module.last().is_some_and(|m| *m == qual)
                    || file_stem(&self.files[f.file].path) == qual
            })
            .collect();
        // A qualifier matching no workspace type or module is external
        // (std or shim): classified at the call site, not traversed.
        by_mod
    }

    /// True if `line` of `file` carries `marker` in a trailing comment or
    /// in the contiguous comment block directly above it.
    #[must_use]
    pub fn justified_at(&self, file: usize, line: usize, marker: &str) -> bool {
        let lines = &self.files[file].lexed.lines;
        if lines.get(line).is_some_and(|l| l.comment.contains(marker)) {
            return true;
        }
        let mut l = line.saturating_sub(1);
        while l >= 1 {
            let info = &lines[l];
            if info.has_code || info.comment.is_empty() {
                return false;
            }
            if info.comment.contains(marker) {
                return true;
            }
            l -= 1;
        }
        false
    }

    /// True if the comment block above the function's signature (and its
    /// attributes) carries `marker`, vouching for the whole body and
    /// everything called from it.
    #[must_use]
    pub fn fn_annotated(&self, f: &FnNode, marker: &str) -> bool {
        let lines = &self.files[f.file].lexed.lines;
        let mut l = f.item.attr_line.saturating_sub(1);
        while l >= 1 {
            let info = &lines[l];
            if info.has_code || info.comment.is_empty() {
                return false;
            }
            if info.comment.contains(marker) {
                return true;
            }
            l -= 1;
        }
        false
    }

    /// Every function whose name occurs as an identifier in `f`'s body:
    /// calls, paths and function references alike. A path `Q::name` (or
    /// `Self::name` inside an impl of `Q`) names only the `name`s whose self
    /// type is `Q` when there are any; every other mention edges to each
    /// function of that name. So a reachability built on it only ever
    /// over-states what is reached.
    pub fn mentioned<'a>(&'a self, f: &'a FnNode) -> impl Iterator<Item = usize> + 'a {
        let (s, e) = f.item.body.unwrap_or((0, 0));
        let toks = &self.files[f.file].lexed.toks[s..e];
        (0..toks.len())
            .filter(move |&j| toks[j].kind == Kind::Ident)
            .flat_map(move |j| {
                let cands = self.index.get(&toks[j].text).map_or(&[][..], Vec::as_slice);
                let qual = (j >= 3
                    && toks[j - 1].is(':')
                    && toks[j - 2].is(':')
                    && toks[j - 3].kind == Kind::Ident)
                    .then(|| toks[j - 3].text.as_str())
                    .and_then(|q| match q {
                        "Self" => f.item.self_ty.as_deref(),
                        _ => Some(q),
                    });
                let of_qual = move |i: &usize| {
                    qual.is_some_and(|q| self.fns[*i].item.self_ty.as_deref() == Some(q))
                };
                let narrow = cands.iter().any(of_qual);
                cands.iter().copied().filter(move |i| !narrow || of_qual(i))
            })
    }

    /// Qualified display name, `Type::fn` or plain `fn`.
    #[must_use]
    pub fn display_name(&self, i: usize) -> String {
        let f = &self.fns[i];
        match &f.item.self_ty {
            Some(t) => format!("{t}::{}", f.item.name),
            None => f.item.name.clone(),
        }
    }
}

fn file_stem(path: &str) -> &str {
    let base = path.rsplit('/').next().unwrap_or(path);
    base.strip_suffix(".rs").unwrap_or(base)
}

/// The identifier tokens of a token slice.
fn idents(toks: &[Tok]) -> impl Iterator<Item = &str> {
    toks.iter()
        .filter(|t| t.kind == Kind::Ident)
        .map(|t| t.text.as_str())
}

/// Keywords that can directly precede `(` without being calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "in", "as",
    "let", "move", "where", "unsafe", "dyn", "impl", "fn", "struct", "enum", "union", "trait",
    "use", "pub", "const", "static", "crate", "super", "await", "box", "type", "extern", "true",
    "false", "Some", "None", "Ok", "Err",
];

/// Item keywords whose following identifier is a definition, not a call.
const DEF_KEYWORDS: &[&str] = &[
    "fn", "struct", "mod", "trait", "enum", "union", "impl", "use",
];

const PANIC_MACROS: &[&str] = &[
    "panic",
    "assert",
    "assert_eq",
    "assert_ne",
    "unreachable",
    "todo",
    "unimplemented",
];

/// Std container constructors that allocate; anything else resolving to a
/// workspace function is handled by traversal instead.
const ALLOC_QUALS: &[&str] = &["Vec", "Box", "String", "VecDeque", "BTreeMap", "BTreeSet"];

type BodyFacts = (Vec<Call>, Vec<Site>, Vec<Site>, Vec<Site>);

/// Single pass over a body's token range extracting calls, allocation
/// sites, panic sites, and parallel-reduction sites.
fn scan_body(t: &[Tok], (s, e): (usize, usize)) -> BodyFacts {
    let mut calls = Vec::new();
    let mut allocs = Vec::new();
    let mut panics = Vec::new();
    let mut reductions = Vec::new();
    let e = e.min(t.len());
    let mut j = s;
    while j < e {
        let tk = &t[j];
        if tk.kind == Kind::Punct {
            // `place += expr` accumulation into an index or deref place.
            if tk.is('+') && j + 1 < e && t[j + 1].is('=') && j > s {
                let lhs_place = t[j - 1].is(']')
                    || (t[j - 1].kind == Kind::Ident && j >= 2 && t[j - 2].is('*'));
                if lhs_place && par_chain_backward(t, s, j - 1) {
                    reductions.push(Site {
                        line: tk.line,
                        what: "`+=` accumulation in a parallel chain".into(),
                    });
                }
                j += 2;
                continue;
            }
            j += 1;
            continue;
        }
        if tk.kind != Kind::Ident {
            j += 1;
            continue;
        }
        let name = tk.text.as_str();
        if NON_CALL_KEYWORDS.contains(&name) {
            j += 1;
            continue;
        }
        // `fn helper(` / `struct Local(` inside bodies are definitions.
        if j > s && t[j - 1].kind == Kind::Ident && DEF_KEYWORDS.contains(&t[j - 1].text.as_str()) {
            j += 1;
            continue;
        }
        // Macro invocation.
        if j + 1 < e && t[j + 1].is('!') {
            if PANIC_MACROS.contains(&name) {
                panics.push(Site {
                    line: tk.line,
                    what: format!("`{name}!(..)`"),
                });
            } else if name == "vec" {
                allocs.push(Site {
                    line: tk.line,
                    what: "`vec![..]`".into(),
                });
            }
            j += 2;
            continue;
        }
        // Optional turbofish between name and argument list.
        let mut k = j + 1;
        if k + 2 < e && t[k].is(':') && t[k + 1].is(':') && t[k + 2].is('<') {
            k = skip_angles_fwd(t, k + 2, e);
        }
        if k < e && t[k].is('(') {
            let is_method = j > s && t[j - 1].is('.');
            let qual = (!is_method
                && j >= s + 3
                && t[j - 1].is(':')
                && t[j - 2].is(':')
                && t[j - 3].kind == Kind::Ident)
                .then(|| t[j - 3].text.clone());
            match name {
                "new" | "from" => {
                    if let Some(q) = qual.as_deref() {
                        if ALLOC_QUALS.contains(&q) {
                            allocs.push(Site {
                                line: tk.line,
                                what: format!("`{q}::{name}(..)`"),
                            });
                        }
                    }
                }
                "with_capacity" => allocs.push(Site {
                    line: tk.line,
                    what: "`with_capacity(..)`".into(),
                }),
                "collect" | "to_vec" | "clone" if is_method => allocs.push(Site {
                    line: tk.line,
                    what: format!("`.{name}()`"),
                }),
                "unwrap" | "expect" => panics.push(Site {
                    line: tk.line,
                    what: format!("`.{name}(..)`"),
                }),
                "sum" | "fold" | "reduce" if is_method && par_chain_backward(t, s, j - 1) => {
                    reductions.push(Site {
                        line: tk.line,
                        what: format!("`.{name}(..)` over a parallel iterator"),
                    });
                }
                _ => {}
            }
            calls.push(Call {
                name: name.to_string(),
                qual,
                line: tk.line,
            });
        }
        j += 1;
    }
    (calls, allocs, panics, reductions)
}

/// Forward scan from a `<` at `i`, returning the index just past its
/// matching `>` (bounded by `e`); `->` arrows do not close.
fn skip_angles_fwd(t: &[Tok], i: usize, e: usize) -> usize {
    let mut depth = 0isize;
    let mut j = i;
    while j < e {
        if t[j].is('<') {
            depth += 1;
        } else if t[j].is('>') && !(j > 0 && t[j - 1].is('-')) {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

/// Backward scan from `from` looking for a `par_*`/`into_par_*` adapter in
/// the same expression chain. Balanced groups passed on the way are
/// skipped whole; the scan ascends through unmatched `(`/`[` (it may start
/// inside a single-expression closure argument) and stops at statement
/// boundaries: `;`, an unmatched `{`, or the body start.
///
/// This deliberately distinguishes `x.par_iter().map(..).sum()` (flagged:
/// the reduction combines across the parallel dimension) from a sequential
/// `.sum()` inside a braced `par_iter().for_each(|row| { .. })` body
/// (quiet: per-row reduction order is fixed).
fn par_chain_backward(t: &[Tok], start: usize, from: usize) -> bool {
    let mut j = from;
    loop {
        let tk = &t[j];
        if tk.kind == Kind::Ident
            && (tk.text.starts_with("par_") || tk.text.starts_with("into_par"))
        {
            return true;
        }
        if tk.kind == Kind::Punct {
            match tk.text.as_bytes().first() {
                Some(b';' | b'{') => return false,
                Some(b')') => {
                    let Some(open) = match_backward(t, start, j, '(', ')') else {
                        return false;
                    };
                    j = open;
                }
                Some(b']') => {
                    let Some(open) = match_backward(t, start, j, '[', ']') else {
                        return false;
                    };
                    j = open;
                }
                Some(b'}') => {
                    let Some(open) = match_backward(t, start, j, '{', '}') else {
                        return false;
                    };
                    j = open;
                }
                _ => {}
            }
        }
        if j <= start {
            return false;
        }
        j -= 1;
    }
}

/// Index of the `open` matching the `close` at `at`, scanning backward but
/// not before `start`.
fn match_backward(t: &[Tok], start: usize, at: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0usize;
    let mut j = at;
    loop {
        if t[j].is(close) {
            depth += 1;
        } else if t[j].is(open) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
        if j <= start {
            return None;
        }
        j -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_of(src: &str) -> Model {
        Model::build(&[("crates/x/src/lib.rs".to_string(), src.to_string())])
    }

    fn node<'m>(m: &'m Model, name: &str) -> &'m FnNode {
        m.fns.iter().find(|f| f.item.name == name).unwrap()
    }

    #[test]
    fn alloc_sites_cover_the_rule_vocabulary() {
        let m = model_of(
            "fn f() {
                let a = Vec::new();
                let b = vec![0.0; 8];
                let c = Vec::with_capacity(4);
                let d: Vec<u8> = x.iter().collect();
                let e = s.to_vec();
                let g = h.clone();
                let i = Box::new(3);
            }",
        );
        let f = node(&m, "f");
        assert_eq!(f.allocs.len(), 7, "allocs: {:?}", f.allocs);
    }

    #[test]
    fn panic_sites_skip_debug_asserts_and_unwrap_or() {
        let m = model_of(
            "fn f(o: Option<u8>) {
                o.unwrap();
                o.expect(\"msg\");
                assert!(true);
                assert_eq!(1, 1);
                debug_assert!(true);
                debug_assert_eq!(1, 1);
                o.unwrap_or(3);
                o.unwrap_or_default();
                panic!(\"boom\");
            }",
        );
        let f = node(&m, "f");
        assert_eq!(f.panics.len(), 5, "panics: {:?}", f.panics);
    }

    #[test]
    fn parallel_reductions_flagged_sequential_ones_quiet() {
        let m = model_of(
            "fn f(x: &[f64], y: &[f64]) -> f64 {
                let bad: f64 = x.par_iter().map(|v| v * v).sum();
                let fine: f64 = x.iter().map(|v| v * v).sum();
                x.par_chunks(4).zip(y.par_chunks(4)).for_each(|(a, b)| {
                    let per_row: f64 = a.iter().sum();
                    drop(per_row);
                });
                x.par_iter().zip(y).for_each(|(o, v)| out[i] += v);
                bad + fine
            }",
        );
        let f = node(&m, "f");
        assert_eq!(f.reductions.len(), 2, "reductions: {:?}", f.reductions);
        assert!(f.reductions[0].what.contains(".sum"));
        assert!(f.reductions[1].what.contains("+="));
    }

    #[test]
    fn qualifier_resolution_narrows_by_type_then_module() {
        let srcs = [
            (
                "crates/a/src/alpha.rs".to_string(),
                "impl Alpha { pub fn make() {} } pub fn helper() {}".to_string(),
            ),
            (
                "crates/a/src/beta.rs".to_string(),
                "impl Beta { pub fn make() {} }
                 pub fn caller() { Alpha::make(); beta::make(); Vec::new(); helper(); }"
                    .to_string(),
            ),
        ];
        let m = Model::build(&srcs);
        let caller = node(&m, "caller");
        let by_call = |n: &str| -> Vec<String> {
            caller
                .calls
                .iter()
                .find(|c| c.name == n || c.qual.as_deref() == Some(n))
                .map(|c| {
                    m.resolve(c, caller)
                        .into_iter()
                        .map(|i| m.display_name(i))
                        .collect()
                })
                .unwrap_or_default()
        };
        assert_eq!(by_call("Alpha"), ["Alpha::make"]);
        assert_eq!(by_call("beta"), ["Beta::make"]);
        assert_eq!(by_call("Vec"), Vec::<String>::new());
        assert_eq!(by_call("helper"), ["helper"]);
    }

    #[test]
    fn annotations_resolve_on_line_and_in_block_above() {
        let src = "fn f() {
    let a = Vec::new(); // ALLOC: trailing justification
    // ALLOC: block justification
    // continues here
    let b = Vec::new();
    let c = Vec::new();
}";
        let m = model_of(src);
        assert!(m.justified_at(0, 2, "ALLOC:"));
        assert!(m.justified_at(0, 5, "ALLOC:"));
        assert!(!m.justified_at(0, 6, "ALLOC:"));
    }

    #[test]
    fn fn_level_annotation_sits_above_attrs_and_docs() {
        let src = "// PANIC-FREE: sealed invariant\n/// Docs.\n#[inline]\nfn f() { x.unwrap(); }\nfn g() { x.unwrap(); }";
        let m = model_of(src);
        assert!(m.fn_annotated(node(&m, "f"), "PANIC-FREE:"));
        assert!(!m.fn_annotated(node(&m, "g"), "PANIC-FREE:"));
    }

    #[test]
    fn test_functions_are_invisible() {
        let m = model_of("#[cfg(test)] mod t { pub fn apply() {} } fn apply_real() {}");
        assert!(m.fns.iter().all(|f| f.item.name != "apply"));
    }
}
