//! `telemetry-names`: the metric namespace is a public interface —
//! dashboards, the bench summarizer, and regression tests key on exact
//! dotted names — so every name emitted in code must be registered in
//! `METRIC_FAMILIES` (in `crates/telemetry/src/lib.rs`), match the
//! dotted grammar, and every registered family must actually be
//! emitted somewhere (no dead documentation). The bug it guards: a
//! metric renamed or misspelt where it is emitted still compiles, and
//! every consumer keyed on the old name — a `HealthSpec` rule, the
//! monitor diagnosis, `tests/telemetry.rs` — silently reads nothing.
//!
//! The rule reads names from direct literals
//! (`reg.counter("io.shard.records")`) and from `format!` calls with a
//! literal template (`reg.counter(&format!("io.codec.{name}.bytes_in"))`,
//! where each `{...}` hole becomes a `*` wildcard matching one or more
//! segments). Names built through opaque variables cannot be checked
//! and are skipped — keep templates inline where possible.
//!
//! Span names (`reg.span(...)` / `reg.time(...)`) are part of the same
//! namespace — trace trees and the Chrome/flamegraph exporters key on
//! them — so they are held to the identical grammar and registration
//! requirements.
//!
//! HealthSpec rule names (`spec.rule("name", ...)` in
//! `drai_telemetry::monitor`) are interned into the namespace as
//! `monitor.rule.<name>` counters, so literal rule names at `.rule(`
//! call sites are checked as that derived pattern against the same
//! grammar and registry.

use crate::lexer::{LexFile, Tok};
use crate::{Finding, MetricFamily, SourceFile, Workspace};

/// Where the metric-family registry lives.
pub const REGISTRY_FILE: &str = "crates/telemetry/src/lib.rs";

/// Registry constant name inside [`REGISTRY_FILE`].
pub const REGISTRY_CONST: &str = "METRIC_FAMILIES";

const METRIC_METHODS: &[&str] = &["counter", "gauge", "histogram", "span", "time"];

/// HealthSpec builder method whose first (literal) argument becomes a
/// `monitor.rule.<name>` counter at runtime.
const HEALTH_RULE_METHOD: &str = "rule";

/// Namespace prefix HealthSpec rule names are interned under.
const HEALTH_RULE_PREFIX: &str = "monitor.rule";

/// One metric-name use site.
#[derive(Debug, Clone)]
pub struct Usage {
    /// Dotted pattern; `*` marks a `format!` hole.
    pub pattern: String,
    /// Line of the call.
    pub line: u32,
    /// Which registry method was called.
    pub method: String,
}

/// True when the rule scans this file: shipped code of a drai crate or
/// the root package (libraries, binaries, benches), not tests, examples
/// or shims.
fn in_scope(file: &SourceFile) -> bool {
    let rel = file.rel.as_str();
    (rel.starts_with("crates/") || rel.starts_with("src/"))
        && !rel.contains("/tests/")
        && !rel.contains("/examples/")
}

/// Extract metric-name use sites from non-test code.
pub fn collect_usages(file: &SourceFile) -> Vec<Usage> {
    let lex = &file.lex;
    let toks = &lex.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if lex.is_test_token(i) {
            continue;
        }
        let Some(method) = lex.ident_at(i) else {
            continue;
        };
        let is_health_rule = method == HEALTH_RULE_METHOD;
        if !METRIC_METHODS.contains(&method) && !is_health_rule {
            continue;
        }
        if i == 0 || !lex.punct_at(i - 1, '.') || !lex.punct_at(i + 1, '(') {
            continue;
        }
        // Argument start: skip any leading `&`s.
        let mut j = i + 2;
        while lex.punct_at(j, '&') {
            j += 1;
        }
        if is_health_rule {
            // `.rule("name", ...)` — the literal rule name is interned
            // as `monitor.rule.<name>`. Dynamic names are skipped, like
            // dynamic metric names.
            if let Some(Tok::Str { value, .. }) = toks.get(j).map(|t| &t.kind) {
                out.push(Usage {
                    pattern: format!("{HEALTH_RULE_PREFIX}.{value}"),
                    line: toks[i].line,
                    method: "health-rule".to_string(),
                });
            }
            continue;
        }
        let pattern = match toks.get(j).map(|t| &t.kind) {
            Some(Tok::Str { value, .. }) => Some(value.clone()),
            Some(Tok::Ident(id)) if id == "format" && lex.punct_at(j + 1, '!') => {
                // First string literal inside the format! call.
                let mut k = j + 2;
                let mut template = None;
                while k < toks.len() && !lex.punct_at(k, ')') {
                    if let Tok::Str { value, .. } = &toks[k].kind {
                        template = Some(value.clone());
                        break;
                    }
                    k += 1;
                }
                template.map(|t| format_to_pattern(&t))
            }
            _ => None, // dynamic name — not statically checkable
        };
        if let Some(pattern) = pattern {
            out.push(Usage {
                pattern,
                line: toks[i].line,
                method: method.to_string(),
            });
        }
    }
    out
}

/// Turn a `format!` template into a dotted pattern: each `{...}` hole
/// becomes a marker, and any segment containing a marker becomes `*`.
fn format_to_pattern(template: &str) -> String {
    const HOLE: char = '\u{1}';
    let chars: Vec<char> = template.chars().collect();
    let mut flat = String::new();
    let mut i = 0;
    while i < chars.len() {
        match chars[i] {
            '{' if chars.get(i + 1) == Some(&'{') => {
                flat.push('{');
                i += 2;
            }
            '}' if chars.get(i + 1) == Some(&'}') => {
                flat.push('}');
                i += 2;
            }
            '{' => {
                while i < chars.len() && chars[i] != '}' {
                    i += 1;
                }
                i += 1; // past '}'
                flat.push(HOLE);
            }
            c => {
                flat.push(c);
                i += 1;
            }
        }
    }
    flat.split('.')
        .map(|seg| {
            if seg.contains(HOLE) {
                "*".to_string()
            } else {
                seg.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join(".")
}

/// Check one pattern against the dotted grammar:
/// `seg(.seg)+` where `seg` is `[a-z0-9_]+` or `*`.
fn grammar_ok(pattern: &str) -> bool {
    let segs: Vec<&str> = pattern.split('.').collect();
    if segs.len() < 2 {
        return false;
    }
    segs.iter().all(|seg| {
        *seg == "*"
            || (!seg.is_empty()
                && seg
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'))
    })
}

/// True when two dotted patterns can name the same metric. A `*` on
/// either side matches one or more segments.
pub fn patterns_unify(a: &str, b: &str) -> bool {
    let a: Vec<&str> = a.split('.').collect();
    let b: Vec<&str> = b.split('.').collect();
    unify(&a, &b)
}

fn unify(a: &[&str], b: &[&str]) -> bool {
    match (a.first(), b.first()) {
        (None, None) => true,
        (Some(&"*"), _) => (1..=b.len()).any(|k| unify(&a[1..], &b[k..])),
        (_, Some(&"*")) => (1..=a.len()).any(|k| unify(&a[k..], &b[1..])),
        (Some(x), Some(y)) => x == y && unify(&a[1..], &b[1..]),
        _ => false,
    }
}

/// Parse the `METRIC_FAMILIES` literal list out of the telemetry crate.
pub fn parse_families(lex: &LexFile) -> Vec<MetricFamily> {
    let toks = &lex.tokens;
    let Some(start) = (0..toks.len()).find(|&i| lex.ident_at(i) == Some(REGISTRY_CONST)) else {
        return Vec::new();
    };
    // Skip the type annotation; the value list is the first `[` after `=`.
    let Some(eq) = (start..toks.len()).find(|&i| lex.punct_at(i, '=')) else {
        return Vec::new();
    };
    let mut families = Vec::new();
    let mut depth = 0i64;
    for tok in toks.iter().skip(eq) {
        match &tok.kind {
            Tok::P('[') => depth += 1,
            Tok::P(']') => {
                depth -= 1;
                if depth <= 0 {
                    break;
                }
            }
            Tok::Str { value, .. } if depth > 0 => families.push(MetricFamily {
                pattern: value.clone(),
                line: tok.line,
            }),
            _ => {}
        }
    }
    families
}

/// Both directions over the whole workspace.
pub fn check(ws: &Workspace, out: &mut Vec<Finding>) {
    for file in &ws.files {
        check_file(file, ws, out);
    }
    check_workspace(ws, out);
}

/// Direction 1: every emitted name is well-formed and registered.
pub fn check_file(file: &SourceFile, ws: &Workspace, out: &mut Vec<Finding>) {
    if !in_scope(file) {
        return;
    }
    for u in collect_usages(file) {
        if !grammar_ok(&u.pattern) {
            out.push(Finding {
                file: file.rel.clone(),
                line: u.line,
                message: format!(
                    "metric name `{}` ({}) does not match the dotted grammar `seg(.seg)+`, segments `[a-z0-9_]+`",
                    u.pattern, u.method
                ),
            });
            continue;
        }
        if ws.metric_families.is_empty() {
            continue; // reported once by check_workspace
        }
        if !ws
            .metric_families
            .iter()
            .any(|f| patterns_unify(&f.pattern, &u.pattern))
        {
            out.push(Finding {
                file: file.rel.clone(),
                line: u.line,
                message: format!(
                    "metric name `{}` ({}) is not registered in {REGISTRY_CONST} ({REGISTRY_FILE})",
                    u.pattern, u.method
                ),
            });
        }
    }
}

/// Direction 2: every registered family is emitted somewhere.
pub fn check_workspace(ws: &Workspace, out: &mut Vec<Finding>) {
    let registry_present = ws.files.iter().any(|f| f.rel == REGISTRY_FILE);
    if ws.metric_families.is_empty() {
        if registry_present {
            out.push(Finding {
                file: REGISTRY_FILE.to_string(),
                line: 1,
                message: format!(
                    "{REGISTRY_CONST} registry not found or empty — metric names cannot be checked"
                ),
            });
        }
        return;
    }
    let mut usages: Vec<Usage> = Vec::new();
    for file in ws.files.iter().filter(|f| in_scope(f)) {
        usages.extend(collect_usages(file));
    }
    for fam in &ws.metric_families {
        if !grammar_ok(&fam.pattern) {
            out.push(Finding {
                file: REGISTRY_FILE.to_string(),
                line: fam.line,
                message: format!(
                    "registered family `{}` does not match the dotted grammar",
                    fam.pattern
                ),
            });
            continue;
        }
        if !usages
            .iter()
            .any(|u| patterns_unify(&fam.pattern, &u.pattern))
        {
            out.push(Finding {
                file: REGISTRY_FILE.to_string(),
                line: fam.line,
                message: format!(
                    "registered family `{}` is never emitted — dead or undocumented rename; update {REGISTRY_CONST}",
                    fam.pattern
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source_file;

    fn ws_with(files: Vec<SourceFile>, families: &[&str]) -> Workspace {
        Workspace {
            files,
            metric_families: families
                .iter()
                .map(|p| MetricFamily {
                    pattern: p.to_string(),
                    line: 10,
                })
                .collect(),
        }
    }

    fn run_file(rel: &str, src: &str, families: &[&str]) -> Vec<Finding> {
        let ws = ws_with(vec![], families);
        let mut out = Vec::new();
        check_file(&source_file(rel, src), &ws, &mut out);
        out
    }

    #[test]
    fn registered_literal_passes() {
        let src = r#"fn f(r: &Registry) { r.counter("io.shard.records").incr(); }"#;
        assert!(run_file("crates/io/src/x.rs", src, &["io.shard.records"]).is_empty());
    }

    #[test]
    fn unregistered_literal_fires() {
        let src = r#"fn f(r: &Registry) { r.counter("io.shard.surprise").incr(); }"#;
        let f = run_file("crates/io/src/x.rs", src, &["io.shard.records"]);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("not registered"));
    }

    #[test]
    fn bad_grammar_fires() {
        for name in ["flat", "Has.Upper", "io..empty", "io.bad-dash"] {
            let src = format!(r#"fn f(r: &Registry) {{ r.gauge("{name}").set(1); }}"#);
            let f = run_file("crates/io/src/x.rs", &src, &["io.shard.records"]);
            assert_eq!(f.len(), 1, "{name} should fail grammar");
            assert!(f[0].message.contains("grammar"), "{name}: {f:?}");
        }
    }

    #[test]
    fn format_holes_become_wildcards() {
        assert_eq!(
            format_to_pattern("io.codec.{name}.bytes_in"),
            "io.codec.*.bytes_in"
        );
        assert_eq!(format_to_pattern("{}.ns"), "*.ns");
        assert_eq!(format_to_pattern("{base}.records"), "*.records");
        assert_eq!(
            format_to_pattern("pipeline.{}.{}.retries"),
            "pipeline.*.*.retries"
        );
    }

    #[test]
    fn format_usage_checked_against_registry() {
        let src = r#"fn f(r: &Registry, k: &str) { r.counter(&format!("io.fault.{k}")).incr(); }"#;
        assert!(run_file(
            "crates/io/src/x.rs",
            src,
            &["io.fault.injected", "io.fault.write_transient"]
        )
        .is_empty());
        let f = run_file("crates/io/src/x.rs", src, &["io.retry.attempts"]);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn span_names_are_held_to_the_same_grammar_and_registry() {
        let good = r#"fn f(r: &Registry) { let _s = r.span("io.shard.write_all"); }"#;
        assert!(run_file("crates/io/src/x.rs", good, &["io.shard.write_all"]).is_empty());

        let unregistered = r#"fn f(r: &Registry) { let _s = r.span("io.shard.mystery"); }"#;
        let f = run_file("crates/io/src/x.rs", unregistered, &["io.shard.write_all"]);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("not registered"));

        let bad_grammar = r#"fn f(r: &Registry) { r.time("Bad.Span", || ()); }"#;
        let f = run_file("crates/io/src/x.rs", bad_grammar, &["io.shard.write_all"]);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("grammar"));

        // format!-built span names become wildcard patterns, no leading &.
        let templated = r#"fn f(r: &Registry, n: &str) { let _s = r.span(format!("bench.{n}")); }"#;
        assert!(run_file("crates/bench/src/x.rs", templated, &["bench.*"]).is_empty());
    }

    #[test]
    fn span_family_counts_as_emitted() {
        let emitting = source_file(
            "crates/io/src/x.rs",
            r#"fn f(r: &Registry) { let _s = r.span("io.shard.write_all"); }"#,
        );
        let ws = ws_with(vec![emitting], &["io.shard.write_all"]);
        let mut out = Vec::new();
        check_workspace(&ws, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn health_rule_names_checked_as_monitor_rule_counters() {
        let families = &["monitor.rule.*", "executor.queue_depth"];
        let good = r#"fn f(s: HealthSpec) -> HealthSpec { s.rule("queue_saturated", "executor.queue_depth", Condition::GaugeAbove(4)) }"#;
        assert!(run_file("crates/core/src/x.rs", good, families).is_empty());

        // Uppercase/dashed rule names break the derived pattern's grammar.
        let bad = r#"fn f(s: HealthSpec) -> HealthSpec { s.rule("Bad-Name", "executor.queue_depth", Condition::GaugeAbove(4)) }"#;
        let f = run_file("crates/core/src/x.rs", bad, families);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("grammar"));
        assert!(f[0].message.contains("monitor.rule.Bad-Name"));

        // Without the monitor.rule.* family the derived name is unregistered.
        let f = run_file("crates/core/src/x.rs", good, &["executor.queue_depth"]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("not registered"));
        assert!(f[0].message.contains("health-rule"));

        // Dynamic rule names are skipped, like dynamic metric names.
        let dynamic = r#"fn f(s: HealthSpec, n: &str) -> HealthSpec { s.rule(n, "executor.queue_depth", Condition::GaugeAbove(4)) }"#;
        assert!(run_file("crates/core/src/x.rs", dynamic, &[]).is_empty());

        // A non-call `rule` field or `fn rule` definition is not a use site.
        let not_calls = r#"
struct S { rule: String }
impl S {
    fn rule(self, name: &str) -> S { self }
}
fn g(s: &S) -> &str { &s.rule }
"#;
        assert!(run_file("crates/core/src/x.rs", not_calls, &[]).is_empty());
    }

    #[test]
    fn health_rule_usage_satisfies_registered_family() {
        let emitting = source_file(
            "crates/core/src/x.rs",
            r#"fn f(s: HealthSpec) -> HealthSpec { s.rule("no_progress", "executor.items_completed", Condition::StallFor(8)) }"#,
        );
        let ws = ws_with(vec![emitting], &["monitor.rule.*"]);
        let mut out = Vec::new();
        check_workspace(&ws, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn test_code_and_out_of_scope_files_exempt() {
        let src = r#"
#[cfg(test)]
mod tests {
    #[test]
    fn t() { Registry::new().counter("c").incr(); }
}
"#;
        assert!(run_file("crates/io/src/x.rs", src, &["io.shard.records"]).is_empty());
        let loose = r#"fn f(r: &Registry) { r.counter("x").incr(); }"#;
        assert!(run_file("tests/telemetry.rs", loose, &[]).is_empty());
        assert!(run_file("examples/quickstart.rs", loose, &[]).is_empty());
        assert!(run_file("shims/criterion/src/lib.rs", loose, &[]).is_empty());
    }

    #[test]
    fn dead_family_fires_and_live_family_passes() {
        let emitting = source_file(
            "crates/io/src/x.rs",
            r#"fn f(r: &Registry) { r.counter("io.shard.records").incr(); }"#,
        );
        let ws = ws_with(vec![emitting], &["io.shard.records", "io.shard.ghost"]);
        let mut out = Vec::new();
        check_workspace(&ws, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("io.shard.ghost"));
        assert!(out[0].message.contains("never emitted"));
    }

    #[test]
    fn wildcard_family_satisfied_by_wildcard_usage() {
        let emitting = source_file(
            "crates/core/src/x.rs",
            r#"fn f(r: &Registry, base: &str) { r.counter(&format!("{base}.records")).add(1); }"#,
        );
        let ws = ws_with(vec![emitting], &["pipeline.*.*.records"]);
        let mut out = Vec::new();
        check_workspace(&ws, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn unify_semantics() {
        assert!(patterns_unify("io.shard.records", "io.shard.records"));
        assert!(patterns_unify("io.fault.*", "io.fault.write_transient"));
        assert!(patterns_unify("*.records", "pipeline.*.*.records"));
        assert!(patterns_unify("*.ns", "*.ns"));
        assert!(!patterns_unify("io.shard.records", "io.shard.bytes_in"));
        assert!(!patterns_unify("io.shard", "io.shard.records"));
    }

    #[test]
    fn parse_families_from_source() {
        let src = r#"
/// Registered metric families.
pub const METRIC_FAMILIES: &[&str] = &[
    "io.shard.records",
    "io.codec.*.bytes_in",
];
"#;
        let fams = parse_families(&crate::lexer::lex(src));
        let names: Vec<&str> = fams.iter().map(|f| f.pattern.as_str()).collect();
        assert_eq!(names, vec!["io.shard.records", "io.codec.*.bytes_in"]);
    }
}
