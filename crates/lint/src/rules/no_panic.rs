//! `no-panic-in-lib`: library code of the data-plane crates must not
//! contain panic paths. A corrupt shard or a truncated GRIB message is
//! *data*, not a programming error — it must surface as a `Result` the
//! pipeline can quarantine, never abort the worker thread (`par_map`
//! re-raises a worker panic on the whole batch). Tests, benches and examples
//! are exempt, as are the control-plane crates whose panics indicate
//! real bugs.
//!
//! Flagged in library (non-test) code of `core`, `io`, `formats`,
//! `transform`:
//!
//! * `.unwrap()` / `.expect(...)` calls,
//! * `panic!`, `unreachable!`, `todo!`, `unimplemented!` invocations,
//! * `assert!`-family macros adjacent to an indexing expression (the
//!   classic "check then index" pattern whose failure is an abort).

use crate::lexer::Tok;
use crate::{FileClass, Finding, SourceFile};

/// Rule id.
pub const RULE: &str = "no-panic-in-lib";

/// Crates whose library code must be panic-free.
pub const PANIC_FREE_CRATES: &[&str] = &["core", "io", "formats", "transform"];

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
const ASSERT_MACROS: &[&str] = &["assert", "assert_eq", "assert_ne"];

/// True when the rule applies to this file at all.
fn in_scope(file: &SourceFile) -> bool {
    file.class == FileClass::Lib && PANIC_FREE_CRATES.contains(&file.crate_name.as_str())
}

/// Scan one file.
pub fn check_file(file: &SourceFile, out: &mut Vec<Finding>) {
    if !in_scope(file) {
        return;
    }
    let lex = &file.lex;
    let toks = &lex.tokens;
    for (i, tok) in toks.iter().enumerate() {
        if lex.is_test_token(i) {
            continue;
        }
        let Tok::Ident(name) = &tok.kind else {
            continue;
        };
        let line = tok.line;
        // `.unwrap()` / `.expect(` — method position only.
        if (name == "unwrap" || name == "expect")
            && i > 0
            && lex.punct_at(i - 1, '.')
            && lex.punct_at(i + 1, '(')
        {
            out.push(finding(
                file,
                line,
                format!(".{name}() in library code — propagate a Result instead"),
            ));
            continue;
        }
        // panic-family macros.
        if PANIC_MACROS.contains(&name.as_str()) && lex.punct_at(i + 1, '!') {
            out.push(finding(
                file,
                line,
                format!("{name}! in library code — return an error instead of aborting"),
            ));
            continue;
        }
        // assert!-family next to an indexing expression.
        if ASSERT_MACROS.contains(&name.as_str())
            && lex.punct_at(i + 1, '!')
            && indexing_near(file, line)
        {
            out.push(finding(
                file,
                line,
                format!("{name}! guarding an indexing expression — use a checked accessor and propagate the error"),
            ));
        }
    }
}

/// True when an indexing expression (`ident[`, `][`, or `)[`) appears on
/// `line` or the following line.
fn indexing_near(file: &SourceFile, line: u32) -> bool {
    let toks = &file.lex.tokens;
    for i in 1..toks.len() {
        if toks[i].line != line && toks[i].line != line + 1 {
            continue;
        }
        if !matches!(toks[i].kind, Tok::P('[')) {
            continue;
        }
        match &toks[i - 1].kind {
            Tok::Ident(_) | Tok::P(']') | Tok::P(')') => return true,
            _ => {}
        }
    }
    false
}

fn finding(file: &SourceFile, line: u32, message: String) -> Finding {
    Finding {
        rule: RULE,
        file: file.rel.clone(),
        line,
        message,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source_file;

    fn run(rel: &str, src: &str) -> Vec<Finding> {
        let mut out = Vec::new();
        check_file(&source_file(rel, src), &mut out);
        out
    }

    #[test]
    fn unwrap_in_lib_fires() {
        let f = run(
            "crates/io/src/x.rs",
            "fn f(v: Option<u8>) -> u8 { v.unwrap() }",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RULE);
        assert!(f[0].message.contains(".unwrap()"));
    }

    #[test]
    fn expect_and_macros_fire() {
        let src = r#"
fn a(v: Option<u8>) -> u8 { v.expect("present") }
fn b() { panic!("boom"); }
fn c() { unreachable!(); }
fn d() { todo!() }
"#;
        let f = run("crates/formats/src/x.rs", src);
        assert_eq!(f.len(), 4, "{f:?}");
    }

    #[test]
    fn out_of_scope_crates_exempt() {
        let src = "fn f(v: Option<u8>) -> u8 { v.unwrap() }";
        assert!(run("crates/tensor/src/x.rs", src).is_empty());
        assert!(run("crates/domains/src/x.rs", src).is_empty());
        assert!(run("shims/rand/src/lib.rs", src).is_empty());
        assert!(run("tests/end_to_end.rs", src).is_empty());
        assert!(run("examples/quickstart.rs", src).is_empty());
    }

    #[test]
    fn test_modules_exempt() {
        let src = r#"
fn lib() -> u8 { 0 }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { Some(1u8).unwrap(); panic!("fine in tests"); }
}
"#;
        assert!(run("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn strings_and_comments_do_not_fire() {
        let src = r##"
// calling unwrap() here would panic!()
fn f() -> &'static str { "never .unwrap() in a literal" }
fn g() -> &'static str { r#"raw panic!()"# }
"##;
        assert!(run("crates/io/src/x.rs", src).is_empty());
    }

    #[test]
    fn unwrap_or_variants_allowed() {
        let src = "fn f(v: Option<u8>) -> u8 { v.unwrap_or(0).max(v.unwrap_or_default()) }";
        assert!(run("crates/io/src/x.rs", src).is_empty());
    }

    #[test]
    fn indexing_adjacent_assert_fires() {
        let src = "fn f(v: &[u8], i: usize) -> u8 { assert!(i < v.len()); v[i] }";
        let f = run("crates/transform/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("indexing"));
    }

    #[test]
    fn plain_assert_without_indexing_allowed() {
        let src = "fn f(n: u32) { assert!(n > 0, \"need at least one attempt\"); }";
        assert!(run("crates/core/src/x.rs", src).is_empty());
    }
}
