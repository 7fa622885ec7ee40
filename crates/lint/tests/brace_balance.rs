//! The lexer's brace matching, which every remaining rule's test-region
//! detection stands on (`#[cfg(test)]` and `#[test]` items end at the
//! `}` matching their `{`): a generated nesting torture must
//! brace-balance at the token level and match as a whole, and so must
//! every real file in this workspace.

use drai_lint::lexer;
use std::path::Path;

// ---- brace-matching fuzz ----

/// Deterministic LCG so failures replay exactly.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn pick(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Emit one statement, possibly recursing into nested blocks. Every
/// production is brace-balanced by construction, so token-level brace
/// balance is the oracle.
fn gen_stmt(rng: &mut Lcg, depth: usize, out: &mut String) {
    let arms = if depth == 0 { 5 } else { 8 };
    match rng.pick(arms) {
        // Closures with braced bodies inside call arguments.
        0 => out.push_str("let s = v.iter().map(|a| { a + 1 }).filter(|b| { *b > 0 }).count();\n"),
        // Match with braced arms, char-literal braces in the patterns.
        1 => out.push_str(
            "match c { '{' => { n += 1; } '}' => { n -= 1; } b'[' => {} _ => { n ^= 1; } }\n",
        ),
        // Raw string carrying unbalanced braces and quotes as data.
        2 => out.push_str("let r = r#\"{ not a block \" nor a '}' str\"#;\n"),
        // Byte-char braces in a condition.
        3 => out.push_str("if byte == b'{' { open += 1; } else if byte == b'}' { open -= 1; }\n"),
        // Generic turbofish with lifetimes near closing angles.
        4 => out.push_str("let t = parse::<Vec<&'static str>>(input);\n"),
        // Nested plain block.
        5 => {
            out.push_str("{\n");
            let n = 1 + rng.pick(3);
            for _ in 0..n {
                gen_stmt(rng, depth - 1, out);
            }
            out.push_str("}\n");
        }
        // Loop with a labeled break.
        6 => {
            out.push_str("'outer: for i in 0..4 {\n");
            gen_stmt(rng, depth - 1, out);
            out.push_str("if i == 3 { break 'outer; }\n}\n");
        }
        // If/else ladder.
        _ => {
            out.push_str("if x > 0 {\n");
            gen_stmt(rng, depth - 1, out);
            out.push_str("} else {\n");
            gen_stmt(rng, depth - 1, out);
            out.push_str("}\n");
        }
    }
}

fn gen_fn(rng: &mut Lcg, idx: usize) -> String {
    let mut body = String::new();
    let n = 2 + rng.pick(4);
    for _ in 0..n {
        gen_stmt(rng, 3, &mut body);
    }
    format!("fn gen_{idx}<'a>(x: &'a [u8]) -> &'a [u8] {{\n{body}x\n}}\n")
}

/// Running `{`/`}` depth never dips below zero and ends at zero.
fn assert_balanced(lexed: &lexer::LexFile, what: &str) {
    let mut depth = 0i64;
    for t in &lexed.tokens {
        match t.kind {
            lexer::Tok::P('{') => depth += 1,
            lexer::Tok::P('}') => depth -= 1,
            _ => {}
        }
        assert!(depth >= 0, "negative brace depth in {what}");
    }
    assert_eq!(depth, 0, "unbalanced braces in {what}");
}

#[test]
fn brace_matching_fuzz() {
    let mut rng = Lcg(0x5eed_0002);
    for round in 0..200 {
        let src = gen_fn(&mut rng, round);
        let lexed = lexer::lex(&src);
        assert_balanced(&lexed, &format!("round {round}:\n{src}"));
        // The fn body's `{` matches the file's last token, so a test
        // region opened there would close exactly where the fn does.
        let open = lexed
            .tokens
            .iter()
            .position(|t| matches!(t.kind, lexer::Tok::P('{')))
            .expect("a body");
        assert_eq!(
            lexed.match_delim(open, '{', '}'),
            Some(lexed.tokens.len() - 1),
            "round {round}:\n{src}"
        );
    }
}

/// Every real file in this workspace must brace-balance at the token
/// level — shims and all. A single mislexed `'{'` would silently move
/// the test/library boundary every rule reads.
#[test]
fn workspace_files_brace_balance() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let ws = drai_lint::load_workspace(root).expect("load workspace");
    assert!(ws.files.len() > 50, "suspiciously few files scanned");
    for file in &ws.files {
        assert_balanced(&file.lex, &file.rel);
    }
}
