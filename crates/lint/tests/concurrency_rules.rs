//! End-to-end coverage for the drai-lint v2 concurrency rules and the
//! structural model they stand on: injected deadlock fixtures must be
//! flagged by the full `lint()` engine (not just the rule function),
//! the brace matcher must survive generated nesting torture, and every
//! real file in this workspace must brace-balance at the token level —
//! the invariant all guard-span math depends on.

use drai_lint::{lexer, lint, model, source_file, Workspace};
use std::path::{Path, PathBuf};

fn ws_of(files: Vec<(&str, &str)>) -> Workspace {
    Workspace {
        root: PathBuf::new(),
        files: files
            .into_iter()
            .map(|(rel, src)| source_file(rel, src))
            .collect(),
        metric_families: vec![],
        manifests: vec![],
    }
}

/// The acceptance fixture: an ABBA lock-order cycle split across two
/// files plus a guard held across a bounded-channel `send`. The full
/// engine must surface both.
#[test]
fn injected_cycle_and_guard_across_send_are_detected() {
    let decls = "pub struct Shared { pub watermark: Mutex<u64>, pub incidents: Mutex<Vec<u32>> }\n";
    let forward = format!(
        "{decls}\
         pub fn forward(s: &Shared, tx: &Sender<u64>) {{\n\
         \x20   let wm = s.watermark.lock();\n\
         \x20   let inc = s.incidents.lock();\n\
         \x20   tx.send(*wm).ok();\n\
         }}\n"
    );
    let collect = "pub fn collect(s: &Shared) {\n\
         \x20   let inc = s.incidents.lock();\n\
         \x20   let wm = s.watermark.lock();\n\
         }\n";
    let report = lint(&ws_of(vec![
        ("crates/core/src/fixture_a.rs", forward.as_str()),
        ("crates/core/src/fixture_b.rs", collect),
    ]));

    let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
    assert!(
        rules.contains(&"lock-order"),
        "ABBA cycle not flagged: {:?}",
        report.findings
    );
    assert!(
        rules.contains(&"lock-across-blocking"),
        "guard across send not flagged: {:?}",
        report.findings
    );
    // Both orderings of the cycle get a report, each naming the other
    // side's location so the fix is actionable from either end.
    let cycle_reports = report
        .findings
        .iter()
        .filter(|f| f.rule == "lock-order")
        .count();
    assert_eq!(cycle_reports, 2, "{:?}", report.findings);
}

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

#[test]
fn brace_matching_fuzz() {
    let mut rng = Lcg(0x5eed_0002);
    for round in 0..200 {
        let src = gen_fn(&mut rng, round);
        let lexed = lexer::lex(&src);

        // Token-level balance: running depth never dips below zero and
        // ends at zero.
        let mut depth = 0i64;
        for t in &lexed.tokens {
            match t.kind {
                lexer::Tok::P('{') => depth += 1,
                lexer::Tok::P('}') => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "negative brace depth in round {round}:\n{src}");
        }
        assert_eq!(depth, 0, "unbalanced braces in round {round}:\n{src}");

        // The model's brace map is a symmetric pairing, and the
        // generated fn's body spans the outermost braces.
        let m = model::build(&lexed);
        for (&open, &close) in &m.braces {
            if open < close {
                assert_eq!(m.braces.get(&close), Some(&open), "round {round}");
                assert!(
                    matches!(lexed.tokens[open].kind, lexer::Tok::P('{')),
                    "round {round}"
                );
                assert!(
                    matches!(lexed.tokens[close].kind, lexer::Tok::P('}')),
                    "round {round}"
                );
            }
        }
        assert_eq!(m.fns.len(), 1, "round {round}:\n{src}");
        let (open, close) = m.fns[0].body;
        assert!(open < close, "round {round}");
        // Every other brace token lies inside the fn body.
        for (i, t) in lexed.tokens.iter().enumerate() {
            if matches!(t.kind, lexer::Tok::P('{') | lexer::Tok::P('}')) {
                assert!(
                    i >= open && i <= close,
                    "brace token outside fn body in round {round}:\n{src}"
                );
            }
        }
    }
}

/// Every real file in this workspace must brace-balance at the token
/// level — shims and all. A single mislexed `'{'` would silently skew
/// every guard span computed from the brace map.
#[test]
fn workspace_files_brace_balance() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let ws = drai_lint::load_workspace(root).expect("load workspace");
    assert!(ws.files.len() > 50, "suspiciously few files scanned");
    for file in &ws.files {
        let mut depth = 0i64;
        for t in &file.lex.tokens {
            match t.kind {
                lexer::Tok::P('{') => depth += 1,
                lexer::Tok::P('}') => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "negative brace depth in {}", file.rel);
        }
        assert_eq!(depth, 0, "unbalanced braces in {}", file.rel);
    }
}
