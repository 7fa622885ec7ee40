//! `error-context`: `IoError` values constructed in `drai-io` library
//! code must carry enough context to act on — a path, shard, blob or
//! record identity — not a bare "read failed": a shard quarantined or a
//! retry exhausted under the CI fault-seed sweeps must be traceable to
//! the input that failed from the error alone. The heuristic: the
//! string argument to `IoError::Format(...)` / `IoError::Codec(...)`
//! must either interpolate a value (`{...}` hole in a `format!`) or
//! mention a contextual noun (path, file, shard, record, manifest,
//! blob, name, offset, header). `ChecksumMismatch` is a struct variant
//! with a mandatory `context` field, so the type system already
//! enforces it there.

use crate::lexer::Tok;
use crate::{FileClass, Finding, SourceFile};

/// Rule id.
pub const RULE: &str = "error-context";

/// Variants whose message argument we inspect.
const CHECKED_VARIANTS: &[&str] = &["Format", "Codec"];

/// Words that count as identifying context in a fixed message.
const CONTEXT_WORDS: &[&str] = &[
    "path", "file", "shard", "record", "manifest", "blob", "name", "offset", "header",
];

fn in_scope(file: &SourceFile) -> bool {
    file.class == FileClass::Lib && file.crate_name == "io"
}

/// Scan one file.
pub fn check_file(file: &SourceFile, out: &mut Vec<Finding>) {
    if !in_scope(file) {
        return;
    }
    let lex = &file.lex;
    let toks = &lex.tokens;
    for i in 0..toks.len() {
        if lex.is_test_token(i) {
            continue;
        }
        if lex.ident_at(i) != Some("IoError") {
            continue;
        }
        // IoError :: Variant ( ... )
        if !(lex.punct_at(i + 1, ':') && lex.punct_at(i + 2, ':')) {
            continue;
        }
        let Some(variant) = lex.ident_at(i + 3) else {
            continue;
        };
        if !CHECKED_VARIANTS.contains(&variant) {
            continue;
        }
        if !lex.punct_at(i + 4, '(') {
            continue;
        }
        let line = toks[i].line;
        let end = lex.match_delim(i + 4, '(', ')').unwrap_or(toks.len());
        // Only judge constructions that carry a string literal; match
        // arms (`IoError::Format(msg) => ...`) and error-wrapping
        // conversions (`IoError::Codec(e)`) have no message to check.
        if has_str(lex, i + 5, end) && !args_have_context(lex, i + 5, end) {
            out.push(Finding {
                rule: RULE,
                file: file.rel.clone(),
                line,
                message: format!(
                    "IoError::{variant} without path/shard context — say *which* input failed, not just how"
                ),
            });
        }
    }
}

/// True when any string literal appears in `[start, end)`.
fn has_str(lex: &crate::lexer::LexFile, start: usize, end: usize) -> bool {
    lex.tokens[start..end.min(lex.tokens.len())]
        .iter()
        .any(|t| matches!(t.kind, Tok::Str { .. }))
}

/// True when some string literal in `[start, end)` interpolates a value
/// or names a contextual noun.
fn args_have_context(lex: &crate::lexer::LexFile, start: usize, end: usize) -> bool {
    for tok in &lex.tokens[start..end.min(lex.tokens.len())] {
        let Tok::Str { value, .. } = &tok.kind else {
            continue;
        };
        // A format hole (but not an escaped `{{`) interpolates identity.
        let holes = value.replace("{{", "").replace("}}", "");
        if holes.contains('{') {
            return true;
        }
        let lower = value.to_lowercase();
        if CONTEXT_WORDS.iter().any(|w| lower.contains(w)) {
            return true;
        }
    }
    false
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
    fn bare_message_fires() {
        let src = r#"fn f() -> Result<(), IoError> { Err(IoError::Format("truncated".into())) }"#;
        let f = run("crates/io/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("Format"));
    }

    #[test]
    fn interpolated_message_passes() {
        let src = r#"fn f(n: &str) -> Result<(), IoError> { Err(IoError::Format(format!("no such blob: {n}"))) }"#;
        assert!(run("crates/io/src/x.rs", src).is_empty());
    }

    #[test]
    fn context_noun_passes() {
        let src =
            r#"fn f() -> Result<(), IoError> { Err(IoError::Format("empty blob name".into())) }"#;
        assert!(run("crates/io/src/x.rs", src).is_empty());
    }

    #[test]
    fn escaped_braces_are_not_holes() {
        let src =
            r#"fn f() -> Result<(), IoError> { Err(IoError::Format(format!("bad {{}} token"))) }"#;
        assert_eq!(run("crates/io/src/x.rs", src).len(), 1);
    }

    #[test]
    fn match_arms_and_wrapping_conversions_pass() {
        let src = r#"
fn describe(e: &IoError) -> String {
    match e {
        IoError::Format(msg) => format!("format error: {msg}"),
        IoError::Codec(e) => e.to_string(),
        _ => String::new(),
    }
}
fn wrap(e: CodecError) -> IoError { IoError::Codec(e) }
"#;
        assert!(run("crates/io/src/x.rs", src).is_empty());
    }

    #[test]
    fn codec_variant_checked_too() {
        let src = r#"fn f() -> Result<(), IoError> { Err(IoError::Codec("oops".into())) }"#;
        assert_eq!(run("crates/io/src/x.rs", src).len(), 1);
    }

    #[test]
    fn other_crates_and_tests_exempt() {
        let src = r#"fn f() -> Result<(), IoError> { Err(IoError::Format("truncated".into())) }"#;
        assert!(run("crates/formats/src/x.rs", src).is_empty());
        let in_test = r#"
#[cfg(test)]
mod tests {
    #[test]
    fn t() { let _ = IoError::Format("truncated".into()); }
}
"#;
        assert!(run("crates/io/src/x.rs", in_test).is_empty());
    }
}
