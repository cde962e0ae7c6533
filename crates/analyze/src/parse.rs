//! Recursive-descent item parser over the token stream.
//!
//! Walks a lexed file and extracts every `fn` item together with its
//! enclosing context: inline-module path, `impl`/`trait` self type,
//! visibility, `#[cfg(test)]` shadowing, and the token range of the body.
//! Type definitions are recorded by name, visibility and token range only
//! (the model asks which crate-private types a function can name);
//! everything else (consts, uses) is skipped with bracket-balanced scans.
//!
//! The parser is deliberately forgiving: a construct outside the supported
//! subset is skipped token-by-token rather than aborting the file, so one
//! exotic item cannot blind the analyzer to the rest of a module.

use crate::lex::{Kind, Lexed, Tok};

/// One `fn` item and enough context to place it in the call graph.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name (identifier after `fn`).
    pub name: String,
    /// `impl`/`trait` self type the fn is defined under, if any.
    pub self_ty: Option<String>,
    /// Inline `mod` path from the file root down to the fn.
    pub module: Vec<String>,
    /// True for `pub` / `pub(...)` items.
    pub is_pub: bool,
    /// True if the fn (or an enclosing item) is under `#[cfg(test)]` or
    /// `#[test]`-family attributes.
    pub in_test: bool,
    /// 1-based line of the `fn` keyword.
    pub sig_line: usize,
    /// 1-based line of the first attribute above the fn (equals
    /// `sig_line` when there are none). Function-level annotation walk-up
    /// starts above this line.
    pub attr_line: usize,
    /// Half-open token-index range of the body, `None` for bodyless trait
    /// method declarations.
    pub body: Option<(usize, usize)>,
    /// Half-open token-index range of the whole item, from the `fn`
    /// keyword through the body (or the `;`).
    pub span: (usize, usize),
}

/// One `struct`/`enum`/`union` definition.
#[derive(Debug, Clone)]
pub struct TypeItem {
    /// Type name.
    pub name: String,
    /// True only for plain `pub`: `pub(crate)` and friends keep the type
    /// unnameable outside its crate.
    pub is_pub: bool,
    /// True under `#[cfg(test)]`.
    pub in_test: bool,
    /// Half-open token-index range of the definition after its name.
    pub span: (usize, usize),
}

/// Parses all `fn` items and type definitions out of a lexed file.
#[must_use]
pub fn parse_file(lx: &Lexed) -> (Vec<FnItem>, Vec<TypeItem>) {
    let mut p = Parser {
        t: &lx.toks,
        i: 0,
        out: Vec::new(),
        types: Vec::new(),
    };
    let mut ctx = Ctx {
        module: Vec::new(),
        self_ty: None,
        in_test: false,
    };
    // The file's inner attributes: `#![cfg(test)]` makes all of it test code.
    while p.at('#') && p.t.get(p.i + 1).is_some_and(|t| t.is('!')) {
        p.i += 2;
        let start = p.i;
        p.skip_balanced('[', ']');
        ctx.in_test |= attr_is_test(&p.t[start..p.i]);
    }
    p.items(&ctx);
    (p.out, p.types)
}

#[derive(Clone)]
struct Ctx {
    module: Vec<String>,
    self_ty: Option<String>,
    in_test: bool,
}

struct Parser<'a> {
    t: &'a [Tok],
    i: usize,
    out: Vec<FnItem>,
    types: Vec<TypeItem>,
}

impl Parser<'_> {
    fn cur(&self) -> Option<&Tok> {
        self.t.get(self.i)
    }

    fn at(&self, c: char) -> bool {
        self.cur().is_some_and(|t| t.is(c))
    }

    fn at_ident(&self) -> Option<&str> {
        self.cur()
            .filter(|t| t.kind == Kind::Ident)
            .map(|t| t.text.as_str())
    }

    fn ident_at(&self, k: usize) -> Option<&str> {
        self.t
            .get(self.i + k)
            .filter(|t| t.kind == Kind::Ident)
            .map(|t| t.text.as_str())
    }

    fn take_ident(&mut self) -> Option<String> {
        let s = self.at_ident().map(str::to_string);
        if s.is_some() {
            self.i += 1;
        }
        s
    }

    /// Items until end of input or an unmatched `}` (left for the caller).
    fn items(&mut self, ctx: &Ctx) {
        while self.i < self.t.len() && !self.at('}') {
            self.item(ctx);
        }
    }

    fn item(&mut self, ctx: &Ctx) {
        let mut in_test = ctx.in_test;
        let mut attr_line = None;
        // Outer attributes and doc attributes; `#![..]` inner attrs are
        // consumed the same way (their cfg(test) would mark what follows,
        // which is the conservative direction for a test-exclusion mask).
        while self.at('#') {
            attr_line.get_or_insert(self.t[self.i].line);
            self.i += 1;
            if self.at('!') {
                self.i += 1;
            }
            if self.at('[') {
                let start = self.i;
                self.skip_balanced('[', ']');
                if attr_is_test(&self.t[start..self.i]) {
                    in_test = true;
                }
            }
        }
        let mut is_pub = false;
        let mut restricted = false;
        if self.at_ident() == Some("pub") {
            is_pub = true;
            self.i += 1;
            if self.at('(') {
                restricted = true;
                self.skip_balanced('(', ')');
            }
        }
        // Qualifiers before an item keyword.
        loop {
            match self.at_ident() {
                Some("const") => {
                    // `const fn` / `const unsafe fn` are qualifiers; a
                    // `const NAME: ...` item is handled below.
                    if matches!(self.ident_at(1), Some("fn" | "unsafe" | "extern" | "async")) {
                        self.i += 1;
                    } else {
                        break;
                    }
                }
                Some("unsafe" | "async" | "auto") => self.i += 1,
                Some("extern") => {
                    if self.ident_at(1) == Some("crate") {
                        break; // `extern crate` item
                    }
                    self.i += 1;
                    if self.cur().is_some_and(|t| t.kind == Kind::Str) {
                        self.i += 1; // ABI string
                    }
                }
                _ => break,
            }
        }
        match self.at_ident() {
            Some("fn") => self.fn_item(ctx, is_pub, in_test, attr_line),
            Some("mod") => {
                self.i += 1;
                let name = self.take_ident().unwrap_or_default();
                if self.at(';') {
                    self.i += 1;
                } else if self.at('{') {
                    self.i += 1;
                    let mut c2 = ctx.clone();
                    c2.module.push(name);
                    c2.in_test = in_test;
                    self.items(&c2);
                    if self.at('}') {
                        self.i += 1;
                    }
                }
            }
            Some("impl") => self.impl_item(ctx, in_test),
            Some("trait") => {
                self.i += 1;
                let name = self.take_ident().unwrap_or_default();
                self.skip_to_body_brace();
                if self.at('{') {
                    self.i += 1;
                    let mut c2 = ctx.clone();
                    c2.self_ty = Some(name);
                    c2.in_test = in_test;
                    self.items(&c2);
                    if self.at('}') {
                        self.i += 1;
                    }
                }
            }
            Some("struct" | "enum" | "union") => self.type_item(is_pub && !restricted, in_test),
            Some("use" | "static" | "type" | "const" | "extern") => self.skip_to_semi(),
            Some("macro_rules") => {
                self.i += 1;
                if self.at('!') {
                    self.i += 1;
                }
                let _ = self.take_ident();
                if self.at('{') {
                    self.skip_balanced('{', '}');
                } else {
                    self.skip_to_semi();
                }
            }
            _ => self.i += 1, // stray token: skip, stay robust
        }
    }

    fn fn_item(&mut self, ctx: &Ctx, is_pub: bool, in_test: bool, attr_line: Option<usize>) {
        let sig_line = self.t[self.i].line;
        let start = self.i;
        self.i += 1; // `fn`
        let Some(name) = self.take_ident() else {
            return;
        };
        if self.at('<') {
            self.skip_angles();
        }
        if self.at('(') {
            self.skip_balanced('(', ')');
        }
        // Return type and where clause, up to the body or `;`.
        let mut body = None;
        while let Some(t) = self.cur() {
            if t.is(';') {
                self.i += 1;
                break;
            }
            if t.is('{') {
                let open = self.i;
                self.skip_balanced('{', '}');
                body = Some((open + 1, self.i.saturating_sub(1)));
                break;
            }
            if t.is('<') {
                self.skip_angles();
            } else if t.is('(') {
                self.skip_balanced('(', ')');
            } else if t.is('[') {
                self.skip_balanced('[', ']');
            } else {
                self.i += 1;
            }
        }
        self.out.push(FnItem {
            name,
            self_ty: ctx.self_ty.clone(),
            module: ctx.module.clone(),
            is_pub,
            in_test,
            sig_line,
            attr_line: attr_line.unwrap_or(sig_line),
            body,
            span: (start, self.i),
        });
    }

    fn impl_item(&mut self, ctx: &Ctx, in_test: bool) {
        self.i += 1; // `impl`
        if self.at('<') {
            self.skip_angles();
        }
        // Scan the header up to `{`. The self type is the last plain
        // identifier at bracket depth zero after an optional `for` (trait
        // impls) and before an optional `where`.
        let mut last_ident: Option<String> = None;
        let mut in_where = false;
        while let Some(t) = self.cur() {
            if t.is('{') {
                break;
            }
            if t.is(';') {
                self.i += 1;
                return;
            }
            if t.is('<') {
                self.skip_angles();
                continue;
            }
            if t.is('(') {
                self.skip_balanced('(', ')');
                continue;
            }
            if t.is('[') {
                self.skip_balanced('[', ']');
                continue;
            }
            if t.kind == Kind::Ident {
                match t.text.as_str() {
                    "for" => last_ident = None,
                    "where" => in_where = true,
                    s if !in_where => last_ident = Some(s.to_string()),
                    _ => {}
                }
            }
            self.i += 1;
        }
        if self.at('{') {
            self.i += 1;
            let mut c2 = ctx.clone();
            c2.self_ty = last_ident;
            c2.in_test = in_test;
            self.items(&c2);
            if self.at('}') {
                self.i += 1;
            }
        }
    }

    /// Records a struct/enum/union definition: optional generics and
    /// tuple body, terminated by `;` or a braced body.
    fn type_item(&mut self, is_pub: bool, in_test: bool) {
        self.i += 1; // keyword
        let name = self.take_ident().unwrap_or_default();
        let start = self.i;
        while let Some(t) = self.cur() {
            if t.is('<') {
                self.skip_angles();
            } else if t.is('(') {
                self.skip_balanced('(', ')');
            } else if t.is('[') {
                self.skip_balanced('[', ']');
            } else if t.is(';') {
                self.i += 1;
                break;
            } else if t.is('{') {
                self.skip_balanced('{', '}');
                break;
            } else {
                self.i += 1;
            }
        }
        self.types.push(TypeItem {
            name,
            is_pub,
            in_test,
            span: (start, self.i),
        });
    }

    /// Skips to just past a `;` at bracket depth zero, balancing `()`,
    /// `[]`, `{}` (struct-literal consts, brace-bodied const exprs).
    fn skip_to_semi(&mut self) {
        while let Some(t) = self.cur() {
            if t.is('(') {
                self.skip_balanced('(', ')');
            } else if t.is('[') {
                self.skip_balanced('[', ']');
            } else if t.is('{') {
                self.skip_balanced('{', '}');
            } else if t.is(';') {
                self.i += 1;
                return;
            } else {
                self.i += 1;
            }
        }
    }

    /// Skips to a `{` at bracket depth zero (trait headers with
    /// supertraits and where clauses).
    fn skip_to_body_brace(&mut self) {
        while let Some(t) = self.cur() {
            if t.is('{') || t.is(';') {
                return;
            }
            if t.is('<') {
                self.skip_angles();
            } else if t.is('(') {
                self.skip_balanced('(', ')');
            } else if t.is('[') {
                self.skip_balanced('[', ']');
            } else {
                self.i += 1;
            }
        }
    }

    /// Consumes from an opening bracket through its matching close.
    fn skip_balanced(&mut self, open: char, close: char) {
        debug_assert!(self.at(open));
        let mut depth = 0usize;
        while let Some(t) = self.cur() {
            if t.is(open) {
                depth += 1;
            } else if t.is(close) {
                depth -= 1;
                if depth == 0 {
                    self.i += 1;
                    return;
                }
            }
            self.i += 1;
        }
    }

    /// Consumes a generic-argument list from `<` through its matching `>`,
    /// treating the `>` of a `->` arrow as plain punctuation.
    fn skip_angles(&mut self) {
        debug_assert!(self.at('<'));
        let mut depth = 0isize;
        while let Some(t) = self.cur() {
            if t.is('<') {
                depth += 1;
            } else if t.is('>') && !(self.i > 0 && self.t[self.i - 1].is('-')) {
                depth -= 1;
                if depth == 0 {
                    self.i += 1;
                    return;
                }
            }
            self.i += 1;
        }
    }
}

/// True if an attribute token slice marks test-only code: `#[test]`,
/// `#[cfg(test)]`, `#[cfg(all(test, ..))]`, bench variants. `not(test)`
/// keeps the item analyzed (the conservative direction).
fn attr_is_test(toks: &[Tok]) -> bool {
    let has = |s: &str| toks.iter().any(|t| t.is_ident(s));
    has("test") && !has("not")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;

    fn fns(src: &str) -> Vec<FnItem> {
        parse_file(&lex(src)).0
    }

    #[test]
    fn free_and_method_fns_with_context() {
        let src = "
            pub fn top(x: usize) -> usize { x }
            mod inner {
                impl Widget {
                    pub(crate) fn method(&self) {}
                }
                trait Able { fn decl(&self); fn with_default(&self) { helper(); } }
            }
        ";
        let got = fns(src);
        assert_eq!(got.len(), 4);
        assert_eq!(got[0].name, "top");
        assert!(got[0].is_pub && got[0].self_ty.is_none() && got[0].body.is_some());
        assert_eq!(got[1].name, "method");
        assert_eq!(got[1].self_ty.as_deref(), Some("Widget"));
        assert_eq!(got[1].module, ["inner"]);
        assert!(got[1].is_pub);
        assert_eq!(got[2].name, "decl");
        assert!(got[2].body.is_none());
        assert_eq!(got[3].self_ty.as_deref(), Some("Able"));
    }

    #[test]
    fn cfg_test_marks_fns_recursively() {
        let src = "
            fn live() {}
            #[cfg(test)]
            mod tests {
                fn helper() {}
                #[test]
                fn case() {}
            }
            #[cfg(not(test))]
            fn still_live() {}
        ";
        let got = fns(src);
        let test_flags: Vec<(String, bool)> =
            got.into_iter().map(|f| (f.name, f.in_test)).collect();
        assert_eq!(
            test_flags,
            [
                ("live".into(), false),
                ("helper".into(), true),
                ("case".into(), true),
                ("still_live".into(), false),
            ]
        );
    }

    #[test]
    fn a_file_level_cfg_test_marks_the_whole_file() {
        let src =
            "//! Test inputs.\n#![cfg(test)]\nuse x::Y;\npub fn a() {}\nimpl T { pub fn b() {} }\n";
        let got = fns(src);
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(|f| f.in_test));
        assert!(fns("#![allow(dead_code)]\npub fn live() {}")
            .iter()
            .all(|f| !f.in_test));
    }

    #[test]
    fn generic_signatures_and_arrow_returns_parse() {
        let src = "
            pub fn map_all<T: Clone, F: Fn(&T) -> Vec<T>>(v: &[T], f: F) -> Vec<Vec<T>>
            where
                F: Send,
            {
                v.iter().map(|x| f(x)).collect()
            }
            impl<'a> Iterator for RowIter<'a> {
                fn next(&mut self) -> Option<(usize, f64)> { None }
            }
        ";
        let got = fns(src);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].name, "map_all");
        assert_eq!(got[1].self_ty.as_deref(), Some("RowIter"));
    }

    #[test]
    fn trait_impl_self_type_is_the_implementing_type() {
        let got = fns("impl fmt::Display for CommVolume { fn fmt(&self) {} }");
        assert_eq!(got[0].self_ty.as_deref(), Some("CommVolume"));
    }

    #[test]
    fn attr_line_precedes_sig_line() {
        let src = "/// doc\n#[inline]\n#[must_use]\npub fn f() -> usize { 1 }\n";
        let got = fns(src);
        assert_eq!(got[0].sig_line, 4);
        assert_eq!(got[0].attr_line, 2);
    }

    #[test]
    fn items_between_fns_are_skipped() {
        let src = "
            use std::fmt;
            const LIMIT: usize = { 4 * 2 };
            static NAME: &str = \"x;y\";
            struct Pair(usize, usize);
            enum Mode { A, B }
            type Alias = Vec<u8>;
            macro_rules! m { ($x:expr) => { $x }; }
            fn survivor() {}
        ";
        let got = fns(src);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].name, "survivor");
    }

    #[test]
    fn type_definitions_carry_name_and_visibility() {
        let src = "
            pub struct Open { inner: Hidden }
            pub(crate) struct Scoped<'a>(&'a [u8]);
            struct Hidden;
            #[cfg(test)]
            enum OnlyInTests { A }
            fn after() {}
        ";
        let lx = lex(src);
        let (fns, types) = parse_file(&lx);
        assert_eq!(fns.len(), 1);
        let got: Vec<(&str, bool, bool)> = types
            .iter()
            .map(|t| (t.name.as_str(), t.is_pub, t.in_test))
            .collect();
        assert_eq!(
            got,
            [
                ("Open", true, false),
                ("Scoped", false, false),
                ("Hidden", false, false),
                ("OnlyInTests", false, true),
            ]
        );
        let (s, e) = types[0].span;
        assert!(lx.toks[s..e].iter().any(|t| t.is_ident("Hidden")));
    }
}
