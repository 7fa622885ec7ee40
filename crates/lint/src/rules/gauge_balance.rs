//! `gauge-balance`: every telemetry gauge increment must have a
//! matching decrement, an absolute `set`, or an RAII scope guard in
//! the same crate. A gauge that only ever goes up is not a gauge — it
//! is a leak: one early-return or panic on the decrement path and
//! `executor.inflight`-style metrics drift upward forever, turning the
//! saturation dashboards the paper's readiness pipeline depends on
//! into fiction.
//!
//! Gauge identity is name-based, like the lock rules: a gauge is a
//! `Gauge`-typed struct field (from `crate::model`), a local bound
//! from a `registry.gauge(..)` call (`let g = reg.gauge("x");`), or a
//! direct `reg.gauge("x").add(..)` chain (keyed by the metric-name
//! literal). Sites with a non-literal delta (`g.add(delta)`) are
//! treated as balanced — the sign is unknowable lexically, and the
//! false-positive cost of guessing outweighs the miss.

use crate::lexer::LexFile;
use crate::model;
use crate::{FileClass, Finding, SourceFile, Workspace};
use std::collections::{BTreeMap, HashSet};

/// Rule id.
pub const RULE: &str = "gauge-balance";

fn in_scope(file: &SourceFile) -> bool {
    matches!(file.class, FileClass::Lib | FileClass::Bin)
        && (file.rel.starts_with("crates/") || file.rel.starts_with("src/"))
}

/// Per-gauge tally of call sites across one crate.
#[derive(Debug, Default)]
struct Tally {
    /// First `.add(<positive literal>)` site, for the report location.
    first_inc: Option<(String, u32)>,
    incs: usize,
    decs: usize,
    sets: usize,
    /// `.add(expr)` with a lexically unknown sign.
    unknown: usize,
    /// `.inc_scope()` RAII sites (self-balancing).
    scoped: usize,
}

/// Whole-workspace pass: tally per `(crate, gauge)` and report gauges
/// that only ever go up.
pub fn check_workspace(ws: &Workspace, out: &mut Vec<Finding>) {
    let mut tallies: BTreeMap<(String, String), Tally> = BTreeMap::new();

    // Pass 1: gauge names declared per crate (struct fields).
    let mut fields: BTreeMap<&str, HashSet<String>> = BTreeMap::new();
    let mut models: Vec<(usize, model::FileModel)> = Vec::new();
    for (fi, file) in ws.files.iter().enumerate() {
        if !in_scope(file) {
            continue;
        }
        let m = model::build(&file.lex);
        let set = fields.entry(file.crate_name.as_str()).or_default();
        for g in &m.gauges {
            set.insert(g.name.clone());
        }
        models.push((fi, m));
    }

    // Pass 2: call sites.
    for (fi, _m) in &models {
        let file = &ws.files[*fi];
        let lex = &file.lex;
        let known = &fields[file.crate_name.as_str()];
        let lets = let_bound_gauges(lex);
        for i in 0..lex.tokens.len() {
            let Some(method) = lex.ident_at(i) else {
                continue;
            };
            if !matches!(method, "add" | "set" | "inc_scope") {
                continue;
            }
            if i == 0 || !lex.punct_at(i - 1, '.') || !lex.punct_at(i + 1, '(') {
                continue;
            }
            if lex.is_test_token(i) {
                continue;
            }
            let Some(key) = gauge_key(lex, i - 1, known, &lets) else {
                continue;
            };
            let t = tallies.entry((file.crate_name.clone(), key)).or_default();
            match method {
                "set" => t.sets += 1,
                "inc_scope" => t.scoped += 1,
                _ => match literal_delta_sign(lex, i + 1) {
                    Some(s) if s > 0 => {
                        t.incs += 1;
                        if t.first_inc.is_none() {
                            t.first_inc = Some((file.rel.clone(), lex.tokens[i].line));
                        }
                    }
                    Some(_) => t.decs += 1,
                    None => t.unknown += 1,
                },
            }
        }
    }

    for ((crate_name, gauge), t) in &tallies {
        if t.incs > 0 && t.decs == 0 && t.sets == 0 && t.unknown == 0 {
            let (file, line) = t.first_inc.clone().expect("incs > 0 implies a site");
            out.push(Finding {
                rule: RULE,
                file,
                line,
                message: format!(
                    "gauge `{gauge}` is incremented but never decremented, set, or \
                     RAII-scoped anywhere in crate `{crate_name}` — one missed exit \
                     path and the metric drifts up forever; pair with `.add(-n)`, \
                     `.set(..)`, or hold an `inc_scope()` guard"
                ),
            });
        }
    }
}

/// Resolve the gauge identity of a method call's receiver, or `None`
/// when the receiver is not gauge-shaped. `dot` is the `.` token.
fn gauge_key(
    lex: &LexFile,
    dot: usize,
    fields: &HashSet<String>,
    lets: &HashSet<String>,
) -> Option<String> {
    if let Some(name) = model::receiver_name(lex, dot) {
        return (fields.contains(&name) || lets.contains(&name)).then_some(name);
    }
    // Direct chain: `reg.gauge("name").add(..)` — receiver is the `)`
    // of the `gauge(..)` call; key by the metric-name literal.
    direct_gauge_literal(lex, dot)
}

/// If the tokens before `dot` are `gauge ( "lit" )`, return the literal.
fn direct_gauge_literal(lex: &LexFile, dot: usize) -> Option<String> {
    let close = dot.checked_sub(1)?;
    if !lex.punct_at(close, ')') {
        return None;
    }
    let lit = close.checked_sub(1)?;
    let open = lit.checked_sub(1)?;
    let callee = open.checked_sub(1)?;
    if lex.punct_at(open, '(') && lex.ident_at(callee) == Some("gauge") {
        if let crate::lexer::Tok::Str { value, .. } = &lex.tokens.get(lit)?.kind {
            return Some(value.clone());
        }
    }
    None
}

/// Names bound by `let g = ...gauge(...)...;` in this file.
fn let_bound_gauges(lex: &LexFile) -> HashSet<String> {
    let mut out = HashSet::new();
    for i in 0..lex.tokens.len() {
        if lex.ident_at(i) != Some("let") {
            continue;
        }
        let mut j = i + 1;
        if lex.ident_at(j) == Some("mut") {
            j += 1;
        }
        let Some(name) = lex.ident_at(j) else {
            continue;
        };
        if !lex.punct_at(j + 1, '=') {
            continue;
        }
        // Does the initializer (up to `;`) call `.gauge(`?
        let mut k = j + 2;
        while k < lex.tokens.len() && !lex.punct_at(k, ';') {
            if lex.ident_at(k) == Some("gauge")
                && lex.punct_at(k - 1, '.')
                && lex.punct_at(k + 1, '(')
            {
                out.insert(name.to_string());
                break;
            }
            k += 1;
        }
    }
    out
}

/// Sign of a literal delta argument: `( 1 )` → `+1`, `( - 1 )` → `-1`,
/// anything else → `None` (unknown).
fn literal_delta_sign(lex: &LexFile, open: usize) -> Option<i32> {
    use crate::lexer::Tok;
    match (
        lex.tokens.get(open + 1).map(|t| &t.kind),
        lex.tokens.get(open + 2).map(|t| &t.kind),
        lex.tokens.get(open + 3).map(|t| &t.kind),
    ) {
        (Some(Tok::Num), Some(Tok::P(')')), _) => Some(1),
        (Some(Tok::P('-')), Some(Tok::Num), Some(Tok::P(')'))) => Some(-1),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source_file;
    use std::path::PathBuf;

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

    fn run(files: Vec<(&str, &str)>) -> Vec<Finding> {
        let mut out = Vec::new();
        check_workspace(&ws_of(files), &mut out);
        out
    }

    const DECLS: &str = "struct S { inflight: Arc<Gauge> }\n";

    #[test]
    fn unbalanced_inc_fires() {
        let src = format!("{DECLS}fn f(s: &S) {{ s.inflight.add(1); }}");
        let f = run(vec![("crates/core/src/x.rs", src.as_str())]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("inflight"));
        assert!(f[0].message.contains("never decremented"));
    }

    #[test]
    fn matched_dec_in_other_file_same_crate_is_clean() {
        let inc = format!("{DECLS}fn f(s: &S) {{ s.inflight.add(1); }}");
        let dec = "fn g(s: &S) { s.inflight.add(-1); }";
        let f = run(vec![
            ("crates/core/src/x.rs", inc.as_str()),
            ("crates/core/src/y.rs", dec),
        ]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn dec_in_other_crate_does_not_balance() {
        let inc = format!("{DECLS}fn f(s: &S) {{ s.inflight.add(1); }}");
        let dec = format!("{DECLS}fn g(s: &S) {{ s.inflight.add(-1); }}");
        let f = run(vec![
            ("crates/core/src/x.rs", inc.as_str()),
            ("crates/io/src/y.rs", dec.as_str()),
        ]);
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn set_balances() {
        let src = format!(
            "{DECLS}fn f(s: &S) {{ s.inflight.add(1); }}\nfn r(s: &S) {{ s.inflight.set(0); }}"
        );
        assert!(run(vec![("crates/core/src/x.rs", src.as_str())]).is_empty());
    }

    #[test]
    fn raii_scope_balances() {
        let src = format!("{DECLS}fn f(s: &S) {{ let _g = s.inflight.inc_scope(); work(); }}");
        assert!(run(vec![("crates/core/src/x.rs", src.as_str())]).is_empty());
    }

    #[test]
    fn unknown_sign_is_not_flagged() {
        let src = format!("{DECLS}fn f(s: &S, d: i64) {{ s.inflight.add(1); s.inflight.add(d); }}");
        assert!(run(vec![("crates/core/src/x.rs", src.as_str())]).is_empty());
    }

    #[test]
    fn direct_registry_chain_keys_by_literal() {
        let src = "fn f(reg: &Registry) { reg.gauge(\"exec.depth\").add(1); }";
        let f = run(vec![("crates/core/src/x.rs", src)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("exec.depth"));
        let balanced = "fn f(reg: &Registry) { reg.gauge(\"exec.depth\").add(1); }\nfn g(reg: &Registry) { reg.gauge(\"exec.depth\").add(-1); }";
        assert!(run(vec![("crates/core/src/x.rs", balanced)]).is_empty());
    }

    #[test]
    fn let_bound_gauge_is_tracked() {
        let src = "fn f(reg: &Registry) { let depth = reg.gauge(\"exec.depth\"); depth.add(1); }";
        let f = run(vec![("crates/core/src/x.rs", src)]);
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn non_gauge_add_ignored() {
        let src = "fn f(p: *const u8, n: usize) -> *const u8 { unsafe { p.add(n) } }\nfn g(w: Wrapping<u8>) { w.add(1); }";
        assert!(run(vec![("crates/core/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn tests_exempt() {
        let src = format!(
            "{DECLS}\n#[cfg(test)]\nmod tests {{\n    #[test]\n    fn t(s: &S) {{ s.inflight.add(1); }}\n}}"
        );
        assert!(run(vec![("crates/core/src/x.rs", src.as_str())]).is_empty());
    }
}
