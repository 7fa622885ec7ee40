//! `unsafe-audit`: every `unsafe` block, function, impl, or trait must
//! carry an adjacent `// SAFETY:` comment explaining why the invariants
//! hold. Applies everywhere — including shims and tests — because an
//! unargued `unsafe` is unreviewable wherever it lives. Crates this
//! rule proves clean get `#![forbid(unsafe_code)]` so the guarantee is
//! compiler-enforced from then on.

use crate::lexer::Tok;
use crate::{Finding, SourceFile};

/// Rule id.
pub const RULE: &str = "unsafe-audit";

/// How many lines above the `unsafe` token a `SAFETY:` comment may sit.
const ADJACENCY_LINES: u32 = 3;

/// Scan one file.
pub fn check_file(file: &SourceFile, out: &mut Vec<Finding>) {
    let lex = &file.lex;
    for tok in &lex.tokens {
        let Tok::Ident(name) = &tok.kind else {
            continue;
        };
        if name != "unsafe" {
            continue;
        }
        let line = tok.line;
        let documented = lex.comments.iter().any(|c| {
            c.text.contains("SAFETY:") && c.end_line <= line && c.end_line + ADJACENCY_LINES >= line
        });
        if !documented {
            out.push(Finding {
                rule: RULE,
                file: file.rel.clone(),
                line,
                message: "`unsafe` without an adjacent `// SAFETY:` comment — justify the invariants or remove it".to_string(),
            });
        }
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
    fn undocumented_unsafe_fires() {
        let src = "fn f(p: *const u8) -> u8 { unsafe { *p } }";
        let f = run("crates/io/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("SAFETY"));
    }

    #[test]
    fn documented_unsafe_passes() {
        let src = "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid for reads\n    unsafe { *p }\n}";
        assert!(run("crates/io/src/x.rs", src).is_empty());
    }

    #[test]
    fn distant_safety_comment_does_not_count() {
        let src =
            "// SAFETY: stale note way up here\n\n\n\n\nfn f(p: *const u8) -> u8 { unsafe { *p } }";
        assert_eq!(run("crates/io/src/x.rs", src).len(), 1);
    }

    #[test]
    fn applies_to_shims_and_tests_too() {
        let src = "fn f(p: *const u8) -> u8 { unsafe { *p } }";
        assert_eq!(run("shims/crossbeam/src/lib.rs", src).len(), 1);
        assert_eq!(run("tests/end_to_end.rs", src).len(), 1);
    }

    #[test]
    fn unsafe_in_string_or_comment_ignored() {
        let src = "// unsafe is discussed here only\nfn f() -> &'static str { \"unsafe\" }";
        assert!(run("crates/io/src/x.rs", src).is_empty());
    }
}
