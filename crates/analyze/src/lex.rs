//! Minimal Rust lexer for the analyzer.
//!
//! Produces a flat token stream plus a per-line table of comment text and
//! code presence. The token stream is what the item parser ([`crate::parse`])
//! and body scanner ([`crate::model`]) walk; the line table is what the
//! annotation escape hatches (`// ALLOC:`, `// PANIC-FREE:`,
//! `// DETERMINISM:`) are resolved against.
//!
//! The lexer covers the subset of Rust this workspace uses: line and nested
//! block comments, string/raw-string/byte-string literals, char literals
//! disambiguated from lifetimes, raw identifiers, and numeric literals with
//! exponents. Multi-character operators are emitted as single-character
//! punctuation tokens (`->` is `-` then `>`); consumers re-associate them,
//! which is unambiguous because whitespace can never split a Rust operator
//! into two valid tokens in the positions the analyzer inspects.

/// Token class. Literal payloads are dropped: the analyzer only dispatches
/// on identifiers and punctuation, so `Str`/`Char`/`Num` exist to keep the
/// stream aligned with the source, not to carry values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Identifier or keyword (keywords are not distinguished here).
    Ident,
    /// Lifetime such as `'a` (the leading quote is stripped).
    Lifetime,
    /// Numeric literal, including suffix and exponent.
    Num,
    /// String, raw-string, or byte-string literal (payload dropped).
    Str,
    /// Character or byte literal (payload dropped).
    Char,
    /// Single punctuation character.
    Punct,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Token class.
    pub kind: Kind,
    /// Source text for `Ident`/`Lifetime`/`Punct`; empty for literals.
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: usize,
}

impl Tok {
    /// True if this token is the punctuation character `c`.
    #[must_use]
    pub fn is(&self, c: char) -> bool {
        self.kind == Kind::Punct && self.text.as_bytes().first() == Some(&(c as u8))
    }

    /// True if this token is the identifier `s`.
    #[must_use]
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == Kind::Ident && self.text == s
    }
}

/// Per-line facts needed by the annotation walk-up.
#[derive(Debug, Clone, Default)]
pub struct LineInfo {
    /// Concatenated comment text on this line: line comments, and the
    /// part of every block comment that lies on it.
    pub comment: String,
    /// True if at least one token starts on this line.
    pub has_code: bool,
}

/// Lexed source: the token stream plus the per-line comment/code table.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Tokens in source order.
    pub toks: Vec<Tok>,
    /// `lines[l]` describes 1-based line `l`; index 0 is unused.
    pub lines: Vec<LineInfo>,
}

fn is_ident_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_'
}

fn is_ident_cont(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Lexes `src`. Unterminated literals and comments consume to end of input
/// rather than erroring: the analyzer is a reporter, not a compiler, and a
/// best-effort stream over broken source is more useful than a failure.
#[must_use]
pub fn lex(src: &str) -> Lexed {
    let b: Vec<char> = src.chars().collect();
    let n = b.len();
    let nlines = src.lines().count().max(1);
    let mut lx = Lexed {
        toks: Vec::new(),
        lines: vec![LineInfo::default(); nlines + 2],
    };
    let mut i = 0;
    let mut line = 1;
    while i < n {
        let c = b[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comment.
        if c == '/' && i + 1 < n && b[i + 1] == '/' {
            let start = i + 2;
            let mut j = start;
            while j < n && b[j] != '\n' {
                j += 1;
            }
            let text: String = b[start..j].iter().collect();
            push_comment(&mut lx.lines, line, text.trim());
            i = j;
            continue;
        }
        // Block comment, possibly nested, possibly multi-line: each line
        // it spans records its own piece of the text.
        if c == '/' && i + 1 < n && b[i + 1] == '*' {
            let mut depth = 1usize;
            let mut j = i + 2;
            let mut text = String::new();
            while j < n && depth > 0 {
                if b[j] == '/' && j + 1 < n && b[j + 1] == '*' {
                    depth += 1;
                    j += 2;
                    continue;
                }
                if b[j] == '*' && j + 1 < n && b[j + 1] == '/' {
                    depth -= 1;
                    j += 2;
                    continue;
                }
                if b[j] == '\n' {
                    push_comment(&mut lx.lines, line, text.trim());
                    text.clear();
                    line += 1;
                } else {
                    text.push(b[j]);
                }
                j += 1;
            }
            push_comment(&mut lx.lines, line, text.trim());
            i = j;
            continue;
        }
        // Raw strings and raw identifiers: r"..", r#".."#, r#ident.
        if c == 'r' && i + 1 < n && (b[i + 1] == '"' || b[i + 1] == '#') {
            let mut j = i + 1;
            let mut hashes = 0usize;
            while j < n && b[j] == '#' {
                hashes += 1;
                j += 1;
            }
            if j < n && b[j] == '"' {
                let (end, nl) = skip_raw_string(&b, j + 1, hashes);
                push_tok(&mut lx, Kind::Str, String::new(), line);
                line += nl;
                i = end;
                continue;
            }
            if hashes == 1 && j < n && is_ident_start(b[j]) {
                // Raw identifier `r#type`: lex the identifier part.
                let mut k = j;
                while k < n && is_ident_cont(b[k]) {
                    k += 1;
                }
                let text: String = b[j..k].iter().collect();
                push_tok(&mut lx, Kind::Ident, text, line);
                i = k;
                continue;
            }
            // Bare `r` identifier falls through to the ident arm below.
        }
        // Byte strings/chars: b"..", br"..", b'..'.
        if c == 'b' && i + 1 < n && (b[i + 1] == '"' || b[i + 1] == '\'' || b[i + 1] == 'r') {
            if b[i + 1] == '"' {
                let (end, nl) = skip_string(&b, i + 2);
                push_tok(&mut lx, Kind::Str, String::new(), line);
                line += nl;
                i = end;
                continue;
            }
            if b[i + 1] == '\'' {
                let end = skip_char(&b, i + 2);
                push_tok(&mut lx, Kind::Char, String::new(), line);
                i = end;
                continue;
            }
            // br"..." / br#"..."#
            let mut j = i + 2;
            let mut hashes = 0usize;
            while j < n && b[j] == '#' {
                hashes += 1;
                j += 1;
            }
            if j < n && b[j] == '"' {
                let (end, nl) = skip_raw_string(&b, j + 1, hashes);
                push_tok(&mut lx, Kind::Str, String::new(), line);
                line += nl;
                i = end;
                continue;
            }
            // `br` as a plain identifier prefix: fall through.
        }
        // String literal.
        if c == '"' {
            let (end, nl) = skip_string(&b, i + 1);
            push_tok(&mut lx, Kind::Str, String::new(), line);
            line += nl;
            i = end;
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            if i + 1 < n && b[i + 1] == '\\' {
                let end = skip_char(&b, i + 1);
                push_tok(&mut lx, Kind::Char, String::new(), line);
                i = end;
                continue;
            }
            if i + 2 < n && b[i + 2] == '\'' {
                push_tok(&mut lx, Kind::Char, String::new(), line);
                i += 3;
                continue;
            }
            // Lifetime: quote followed by an identifier run.
            let mut j = i + 1;
            while j < n && is_ident_cont(b[j]) {
                j += 1;
            }
            let text: String = b[i + 1..j].iter().collect();
            push_tok(&mut lx, Kind::Lifetime, text, line);
            i = j;
            continue;
        }
        if is_ident_start(c) {
            let mut j = i;
            while j < n && is_ident_cont(b[j]) {
                j += 1;
            }
            let text: String = b[i..j].iter().collect();
            push_tok(&mut lx, Kind::Ident, text, line);
            i = j;
            continue;
        }
        if c.is_ascii_digit() {
            let mut j = i;
            let mut prev_e = false;
            while j < n {
                let d = b[j];
                if is_ident_cont(d) {
                    prev_e = d == 'e' || d == 'E';
                } else if (d == '.' && j + 1 < n && b[j + 1].is_ascii_digit())
                    || ((d == '+' || d == '-') && prev_e)
                {
                    prev_e = false;
                } else {
                    break;
                }
                j += 1;
            }
            push_tok(&mut lx, Kind::Num, String::new(), line);
            i = j;
            continue;
        }
        push_tok(&mut lx, Kind::Punct, c.to_string(), line);
        i += 1;
    }
    lx
}

fn push_tok(lx: &mut Lexed, kind: Kind, text: String, line: usize) {
    if line < lx.lines.len() {
        lx.lines[line].has_code = true;
    }
    lx.toks.push(Tok { kind, text, line });
}

fn push_comment(lines: &mut [LineInfo], line: usize, text: &str) {
    if line < lines.len() && !text.is_empty() {
        let c = &mut lines[line].comment;
        if !c.is_empty() {
            c.push(' ');
        }
        c.push_str(text);
    }
}

/// Skips a `"`-terminated string body starting at `i` (after the opening
/// quote). Returns `(index after closing quote, newlines crossed)`.
fn skip_string(b: &[char], i: usize) -> (usize, usize) {
    let mut j = i;
    let mut nl = 0;
    while j < b.len() {
        match b[j] {
            '\\' => j += 2,
            '"' => return (j + 1, nl),
            '\n' => {
                nl += 1;
                j += 1;
            }
            _ => j += 1,
        }
    }
    (j, nl)
}

/// Skips a raw-string body starting at `i` (after the opening quote) with
/// `hashes` trailing `#`s. Returns `(index after terminator, newlines)`.
fn skip_raw_string(b: &[char], i: usize, hashes: usize) -> (usize, usize) {
    let mut j = i;
    let mut nl = 0;
    while j < b.len() {
        if b[j] == '\n' {
            nl += 1;
        }
        if b[j] == '"' {
            let mut k = j + 1;
            let mut seen = 0;
            while k < b.len() && seen < hashes && b[k] == '#' {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                return (k, nl);
            }
        }
        j += 1;
    }
    (j, nl)
}

/// Skips a char-literal body starting at `i` (after the opening quote,
/// positioned at a `\` escape or the literal char). Returns the index after
/// the closing quote.
fn skip_char(b: &[char], i: usize) -> usize {
    let mut j = i;
    if j < b.len() && b[j] == '\\' {
        j += 2;
        // \u{...} escapes.
        while j < b.len() && b[j] != '\'' {
            j += 1;
        }
        return (j + 1).min(b.len());
    }
    while j < b.len() && b[j] != '\'' {
        j += 1;
    }
    (j + 1).min(b.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .toks
            .into_iter()
            .filter(|t| t.kind == Kind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_and_code_are_separated() {
        let lx = lex("let x = 1; // trailing note\n// full line\nlet y = 2;\n");
        assert!(lx.lines[1].has_code);
        assert_eq!(lx.lines[1].comment, "trailing note");
        assert!(!lx.lines[2].has_code);
        assert_eq!(lx.lines[2].comment, "full line");
        assert!(lx.lines[3].has_code);
    }

    #[test]
    fn nested_block_comments_terminate() {
        let lx = lex("/* a /* b */ c */ fn f() {}\n");
        // Nested delimiters are dropped; only the text matters for markers.
        assert_eq!(lx.lines[1].comment, "a  b  c");
        assert!(lx.toks[0].is_ident("fn"));
    }

    #[test]
    fn block_comments_record_text_on_every_line_they_span() {
        let lx = lex("/* SAFETY: first\n   second */ unsafe {}\n");
        assert_eq!(lx.lines[1].comment, "SAFETY: first");
        assert_eq!(lx.lines[2].comment, "second");
        assert!(!lx.lines[1].has_code);
        assert!(lx.lines[2].has_code);
    }

    #[test]
    fn char_literals_are_not_lifetimes() {
        let lx = lex("let c = 'x'; fn f<'a>(v: &'a str) {} let e = '\\n';");
        let kinds: Vec<Kind> = lx.toks.iter().map(|t| t.kind).collect();
        assert!(kinds.contains(&Kind::Char));
        let lt: Vec<&Tok> = lx
            .toks
            .iter()
            .filter(|t| t.kind == Kind::Lifetime)
            .collect();
        assert_eq!(lt.len(), 2);
        assert_eq!(lt[0].text, "a");
    }

    #[test]
    fn raw_strings_and_raw_idents() {
        assert_eq!(
            idents(r##"let s = r#"quote " inside"#; r#type"##),
            ["let", "s", "type"]
        );
    }

    #[test]
    fn numbers_with_exponents_stay_single_tokens() {
        let lx = lex("let x = 1.5e-3 + 2; let r = 0..n;");
        let nums = lx.toks.iter().filter(|t| t.kind == Kind::Num).count();
        assert_eq!(nums, 3); // 1.5e-3, 2, 0
    }

    #[test]
    fn multi_line_strings_track_lines() {
        let lx = lex("let s = \"a\nb\";\nlet t = 1;\n");
        let t_tok = lx.toks.iter().find(|t| t.is_ident("t")).unwrap();
        assert_eq!(t_tok.line, 3);
    }
}
