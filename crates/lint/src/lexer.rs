//! A lightweight Rust lexer, sufficient for rule matching.
//!
//! This is not a full Rust tokenizer — it only needs to be *sound* for
//! the lint rules built on top of it: identifiers, punctuation, and
//! literals are produced as tokens, while comments (line, doc, and
//! nested block comments), string literals (including raw strings with
//! any number of `#` guards and byte/C-string prefixes), char literals,
//! and lifetimes are consumed correctly so a rule never matches text
//! inside a literal or a comment. Every token carries its 1-based line.
//!
//! After lexing, [`lex`] marks `#[cfg(test)]` / `#[test]` item regions
//! so rules can exempt test code without a full parse.

/// Token payload.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Identifier or keyword.
    Ident(String),
    /// String literal (plain, byte, C, or raw); `value` is the
    /// uninterpreted body between the quotes.
    Str {
        /// Literal body (escapes not processed).
        value: String,
        /// True for `r"..."` / `r#"..."#` forms.
        raw: bool,
    },
    /// Char or byte-char literal (body not retained).
    CharLit,
    /// Lifetime such as `'a` or `'static`.
    Lifetime,
    /// Numeric literal (body not retained).
    Num,
    /// Single punctuation character.
    P(char),
}

/// One token with its source line.
#[derive(Debug, Clone)]
pub struct Token {
    /// Payload.
    pub kind: Tok,
    /// 1-based line of the token's first character.
    pub line: u32,
}

/// A lexed source file: tokens and per-token test-region flags.
#[derive(Debug, Default)]
pub struct LexFile {
    /// All code tokens in order.
    pub tokens: Vec<Token>,
    /// `in_test[i]` is true when `tokens[i]` sits inside a
    /// `#[cfg(test)]` or `#[test]` item.
    pub in_test: Vec<bool>,
}

impl LexFile {
    /// The identifier at token index `i`, if any.
    pub fn ident_at(&self, i: usize) -> Option<&str> {
        match self.tokens.get(i).map(|t| &t.kind) {
            Some(Tok::Ident(s)) => Some(s),
            _ => None,
        }
    }

    /// True when token `i` is the punctuation `c`.
    pub fn punct_at(&self, i: usize, c: char) -> bool {
        matches!(self.tokens.get(i).map(|t| &t.kind), Some(Tok::P(p)) if *p == c)
    }

    /// True when token `i` exists and lies inside a test region.
    pub fn is_test_token(&self, i: usize) -> bool {
        self.in_test.get(i).copied().unwrap_or(false)
    }

    /// Index of the `cc` matching the `oc` at token `open`, or `None`
    /// when `open` is not `oc` or the file ends first.
    pub fn match_delim(&self, open: usize, oc: char, cc: char) -> Option<usize> {
        if !self.punct_at(open, oc) {
            return None;
        }
        let end = match_delim(&self.tokens, open, oc, cc);
        self.punct_at(end, cc).then_some(end)
    }
}

/// Lex `src` into tokens (comments are skipped) and mark test regions.
pub fn lex(src: &str) -> LexFile {
    let chars: Vec<char> = src.chars().collect();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let mut tokens: Vec<Token> = Vec::new();

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
        } else if c.is_whitespace() {
            i += 1;
        } else if c == '/' && chars.get(i + 1) == Some(&'/') {
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
        } else if c == '/' && chars.get(i + 1) == Some(&'*') {
            i += 2;
            let mut depth = 1u32;
            while i < chars.len() && depth > 0 {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    if chars[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
        } else if c == '"' {
            let start_line = line;
            let (value, ni, nl) = scan_plain_string(&chars, i, line);
            tokens.push(Token {
                kind: Tok::Str { value, raw: false },
                line: start_line,
            });
            i = ni;
            line = nl;
        } else if c == '\'' {
            let (tok, ni, nl) = scan_quote(&chars, i, line);
            tokens.push(Token { kind: tok, line });
            i = ni;
            line = nl;
        } else if c.is_ascii_digit() {
            let start_line = line;
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            tokens.push(Token {
                kind: Tok::Num,
                line: start_line,
            });
        } else if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            let ident: String = chars[start..i].iter().collect();
            let raw_prefix = matches!(ident.as_str(), "r" | "br" | "rb" | "cr" | "rc");
            let plain_prefix = matches!(ident.as_str(), "b" | "c");
            if raw_prefix && matches!(chars.get(i), Some('"') | Some('#')) {
                let start_line = line;
                let (value, ni, nl) = scan_raw_string(&chars, i, line);
                tokens.push(Token {
                    kind: Tok::Str { value, raw: true },
                    line: start_line,
                });
                i = ni;
                line = nl;
            } else if plain_prefix && chars.get(i) == Some(&'"') {
                let start_line = line;
                let (value, ni, nl) = scan_plain_string(&chars, i, line);
                tokens.push(Token {
                    kind: Tok::Str { value, raw: false },
                    line: start_line,
                });
                i = ni;
                line = nl;
            } else if ident == "b" && chars.get(i) == Some(&'\'') {
                let (_, ni, nl) = scan_quote(&chars, i, line);
                tokens.push(Token {
                    kind: Tok::CharLit,
                    line,
                });
                i = ni;
                line = nl;
            } else {
                tokens.push(Token {
                    kind: Tok::Ident(ident),
                    line,
                });
            }
        } else {
            tokens.push(Token {
                kind: Tok::P(c),
                line,
            });
            i += 1;
        }
    }

    let in_test = mark_test_regions(&tokens);
    LexFile { tokens, in_test }
}

/// Scan a `"..."` string starting at the opening quote; returns
/// `(body, index_after, line_after)`.
fn scan_plain_string(chars: &[char], start: usize, mut line: u32) -> (String, usize, u32) {
    let mut i = start + 1;
    let body_start = i;
    while i < chars.len() {
        match chars[i] {
            '\\' => {
                // Skip the escaped character; count a line continuation.
                if chars.get(i + 1) == Some(&'\n') {
                    line += 1;
                }
                i = (i + 2).min(chars.len());
            }
            '"' => {
                let body: String = chars[body_start..i].iter().collect();
                return (body, i + 1, line);
            }
            '\n' => {
                line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    (chars[body_start..].iter().collect(), i, line)
}

/// Scan a raw string starting at the first `#` or `"` after the `r`
/// prefix; returns `(body, index_after, line_after)`.
fn scan_raw_string(chars: &[char], start: usize, mut line: u32) -> (String, usize, u32) {
    let mut i = start;
    let mut hashes = 0usize;
    while chars.get(i) == Some(&'#') {
        hashes += 1;
        i += 1;
    }
    if chars.get(i) != Some(&'"') {
        // Not actually a raw string (e.g. `r#ident`); treat as empty.
        return (String::new(), i, line);
    }
    i += 1;
    let body_start = i;
    while i < chars.len() {
        if chars[i] == '"' {
            let mut ok = true;
            for k in 0..hashes {
                if chars.get(i + 1 + k) != Some(&'#') {
                    ok = false;
                    break;
                }
            }
            if ok {
                let body: String = chars[body_start..i].iter().collect();
                return (body, i + 1 + hashes, line);
            }
        }
        if chars[i] == '\n' {
            line += 1;
        }
        i += 1;
    }
    (chars[body_start..].iter().collect(), i, line)
}

/// Scan from a `'`: either a lifetime or a char literal. Returns
/// `(token, index_after, line_after)`.
fn scan_quote(chars: &[char], start: usize, mut line: u32) -> (Tok, usize, u32) {
    let next = chars.get(start + 1).copied();
    match next {
        Some('\\') => {
            // Escaped char literal: skip to the closing quote.
            let mut i = start + 2;
            if i < chars.len() {
                i += 1; // the escaped character itself
            }
            while i < chars.len() && chars[i] != '\'' {
                if chars[i] == '\n' {
                    line += 1;
                }
                i += 1;
            }
            (Tok::CharLit, (i + 1).min(chars.len()), line)
        }
        Some(c) if c.is_alphanumeric() || c == '_' => {
            if chars.get(start + 2) == Some(&'\'') {
                // 'a' — a one-character literal.
                (Tok::CharLit, start + 3, line)
            } else {
                // 'ident — a lifetime; consume the identifier.
                let mut i = start + 1;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                (Tok::Lifetime, i, line)
            }
        }
        Some(c) => {
            if chars.get(start + 2) == Some(&'\'') {
                // Punctuation char literal like '['.
                if c == '\n' {
                    line += 1;
                }
                (Tok::CharLit, start + 3, line)
            } else {
                // Stray quote; emit as punctuation to keep progressing.
                (Tok::P('\''), start + 1, line)
            }
        }
        None => (Tok::P('\''), start + 1, line),
    }
}

/// Mark tokens inside `#[cfg(test)]` / `#[test]` items.
fn mark_test_regions(tokens: &[Token]) -> Vec<bool> {
    let mut in_test = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if !(is_p(tokens, i, '#') && is_p(tokens, i + 1, '[')) {
            i += 1;
            continue;
        }
        let attr_end = match_bracket(tokens, i + 1);
        if !attr_is_test(tokens, i + 1, attr_end) {
            i = attr_end + 1;
            continue;
        }
        // Skip any further attributes stacked on the same item.
        let mut j = attr_end + 1;
        while is_p(tokens, j, '#') && is_p(tokens, j + 1, '[') {
            j = match_bracket(tokens, j + 1) + 1;
        }
        // The item body is the first `{ ... }` before a `;`.
        let mut k = j;
        let mut marked_to = attr_end;
        while k < tokens.len() {
            match &tokens[k].kind {
                Tok::P('{') => {
                    marked_to = match_brace(tokens, k);
                    break;
                }
                Tok::P(';') => {
                    marked_to = k;
                    break;
                }
                _ => k += 1,
            }
        }
        let end = marked_to.min(tokens.len().saturating_sub(1));
        for flag in in_test.iter_mut().take(end + 1).skip(i) {
            *flag = true;
        }
        i = end + 1;
    }
    in_test
}

/// True when an attribute spanning `(open, close)` token indices marks
/// test code: `#[test]`, or `#[cfg(test)]`-style without a `not`.
fn attr_is_test(tokens: &[Token], open: usize, close: usize) -> bool {
    let mut idents =
        (open..=close.min(tokens.len().saturating_sub(1))).filter_map(|i| match &tokens[i].kind {
            Tok::Ident(s) => Some(s.as_str()),
            _ => None,
        });
    match idents.next() {
        Some("test") => true,
        Some("cfg") => {
            let rest: Vec<&str> = idents.collect();
            rest.contains(&"test") && !rest.contains(&"not")
        }
        _ => false,
    }
}

fn is_p(tokens: &[Token], i: usize, c: char) -> bool {
    matches!(tokens.get(i).map(|t| &t.kind), Some(Tok::P(p)) if *p == c)
}

/// Index of the `]` matching the `[` at `open` (or the last token).
fn match_bracket(tokens: &[Token], open: usize) -> usize {
    match_delim(tokens, open, '[', ']')
}

/// Index of the `}` matching the `{` at `open` (or the last token).
fn match_brace(tokens: &[Token], open: usize) -> usize {
    match_delim(tokens, open, '{', '}')
}

fn match_delim(tokens: &[Token], open: usize, oc: char, cc: char) -> usize {
    let mut depth = 0i64;
    let mut i = open;
    while i < tokens.len() {
        if let Tok::P(p) = &tokens[i].kind {
            if *p == oc {
                depth += 1;
            } else if *p == cc {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
        }
        i += 1;
    }
    tokens.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.kind {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strings_hide_their_contents() {
        // The words inside literals must not become identifiers.
        let got = idents(r#"let x = "unwrap panic"; call(x);"#);
        assert_eq!(got, vec!["let", "x", "call", "x"]);
    }

    #[test]
    fn raw_strings_with_guards() {
        let src = "let s = r##\"has \"# inside and unwrap()\"##; after();";
        let got = idents(src);
        assert_eq!(got, vec!["let", "s", "after"]);
        let f = lex(src);
        let bodies: Vec<String> = f
            .tokens
            .iter()
            .filter_map(|t| match &t.kind {
                Tok::Str { value, raw: true } => Some(value.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(bodies, vec!["has \"# inside and unwrap()"]);
    }

    #[test]
    fn nested_block_comments_skipped() {
        let src = "before(); /* outer /* inner unwrap() */ still comment */ after();";
        assert_eq!(idents(src), vec!["before", "after"]);
    }

    #[test]
    fn line_numbers_track_newlines() {
        let src = "a();\nb();\n\nc();";
        let f = lex(src);
        let lines: Vec<(String, u32)> = f
            .tokens
            .iter()
            .filter_map(|t| match &t.kind {
                Tok::Ident(s) => Some((s.clone(), t.line)),
                _ => None,
            })
            .collect();
        assert_eq!(
            lines,
            vec![("a".into(), 1), ("b".into(), 2), ("c".into(), 4)]
        );
    }

    #[test]
    fn lifetimes_and_char_literals() {
        let src = "fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; let b = b'z'; }";
        let f = lex(src);
        let lifetimes = f
            .tokens
            .iter()
            .filter(|t| matches!(t.kind, Tok::Lifetime))
            .count();
        let chars = f
            .tokens
            .iter()
            .filter(|t| matches!(t.kind, Tok::CharLit))
            .count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 3);
    }

    #[test]
    fn cfg_test_region_marked() {
        let src = "fn lib() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n fn t() { y.unwrap(); }\n}\nfn lib2() {}";
        let f = lex(src);
        // Find both `unwrap` tokens and check flags.
        let flags: Vec<bool> = f
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| matches!(&t.kind, Tok::Ident(s) if s == "unwrap"))
            .map(|(i, _)| f.is_test_token(i))
            .collect();
        assert_eq!(flags, vec![false, true]);
        // lib2 after the module is back outside.
        let lib2 = f
            .tokens
            .iter()
            .position(|t| matches!(&t.kind, Tok::Ident(s) if s == "lib2"))
            .expect("lib2 token");
        assert!(!f.is_test_token(lib2));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(not(test))]\nfn shipped() { x.unwrap(); }";
        let f = lex(src);
        let unwrap = f
            .tokens
            .iter()
            .position(|t| matches!(&t.kind, Tok::Ident(s) if s == "unwrap"))
            .expect("unwrap token");
        assert!(!f.is_test_token(unwrap));
    }

    #[test]
    fn test_attr_marks_single_fn() {
        let src = "#[test]\nfn check() { a.unwrap(); }\nfn real() { b.unwrap(); }";
        let f = lex(src);
        let flags: Vec<bool> = f
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| matches!(&t.kind, Tok::Ident(s) if s == "unwrap"))
            .map(|(i, _)| f.is_test_token(i))
            .collect();
        assert_eq!(flags, vec![true, false]);
    }

    // ---- char-literal vs lifetime ambiguity regressions ----
    //
    // Test regions are found by brace matching, so a `'{'` misread as a
    // lifetime plus a stray `{`, or an `'a>` bound misread as a char
    // literal, would silently move every rule's test/library boundary.

    fn count(src: &str, pred: fn(&Tok) -> bool) -> usize {
        lex(src).tokens.iter().filter(|t| pred(&t.kind)).count()
    }

    fn lifetimes(src: &str) -> usize {
        count(src, |k| matches!(k, Tok::Lifetime))
    }

    fn char_lits(src: &str) -> usize {
        count(src, |k| matches!(k, Tok::CharLit))
    }

    fn brace_delta(src: &str) -> i64 {
        count(src, |k| matches!(k, Tok::P('{'))) as i64
            - count(src, |k| matches!(k, Tok::P('}'))) as i64
    }

    #[test]
    fn lifetimes_in_generic_bounds_are_not_char_literals() {
        let src = "fn f<'a, 'b: 'a>(x: &'a str, y: &'b str) -> &'a str { x }";
        assert_eq!(lifetimes(src), 6);
        assert_eq!(char_lits(src), 0);
        assert_eq!(brace_delta(src), 0);
    }

    #[test]
    fn single_char_lifetime_before_close_angle() {
        // `'a>` — the closing angle must stay a separate punct token.
        let src = "struct S<'a>(&'a [u8]);\nimpl<'a> S<'a> { fn g(&self) {} }";
        assert_eq!(lifetimes(src), 4);
        assert_eq!(char_lits(src), 0);
        assert_eq!(brace_delta(src), 0);
    }

    #[test]
    fn byte_char_braces_do_not_unbalance_blocks() {
        let src = "fn f(b: u8) -> u8 { match b { b'{' => 1, b'}' => 2, b'[' => 3, _ => 0 } }";
        assert_eq!(char_lits(src), 3);
        assert_eq!(lifetimes(src), 0);
        assert_eq!(brace_delta(src), 0);
    }

    #[test]
    fn char_literal_braces_and_escapes() {
        let src = "let a = '{'; let b = '}'; let c = '\\''; let d = '\\\\'; let e = '\\u{7f}'; let f = '_';";
        assert_eq!(char_lits(src), 6);
        assert_eq!(lifetimes(src), 0);
        // Neither the quoted braces nor the `{7f}` escape payload may
        // leak punctuation tokens.
        assert_eq!(count(src, |k| matches!(k, Tok::P('{') | Tok::P('}'))), 0);
    }

    #[test]
    fn byte_char_ranges_in_match_arms() {
        let src = "fn d(c: u8) -> bool { matches!(c, b'a'..=b'z' | b'_' | b'0'..=b'9') }";
        assert_eq!(char_lits(src), 5);
        assert_eq!(lifetimes(src), 0);
        assert_eq!(brace_delta(src), 0);
    }

    #[test]
    fn loop_labels_and_anonymous_lifetimes() {
        let src = "fn f() -> Box<dyn Send + '_> { 'outer: loop { break 'outer; } }";
        assert_eq!(lifetimes(src), 3);
        assert_eq!(char_lits(src), 0);
        assert_eq!(brace_delta(src), 0);
    }

    #[test]
    fn lifetime_then_char_literal_adjacent() {
        // A lifetime and a char literal in one expression context.
        let src = "fn f<'a>(s: &'a str) -> bool { s.starts_with('a') && s.ends_with('\\'') }";
        assert_eq!(lifetimes(src), 2);
        assert_eq!(char_lits(src), 2);
        assert_eq!(brace_delta(src), 0);
    }
}
