//! `lock-order`: a global lock-acquisition-order graph over the whole
//! workspace. Every `Mutex`/`RwLock`-typed struct field or static is a
//! node (keyed by crate + field name); acquiring lock `b` while a guard
//! of lock `a` is still live adds the edge `a → b`. A cycle in that
//! graph — `a` before `b` in one function, `b` before `a` in another,
//! possibly in different files — is the classic ABBA deadlock shape,
//! and a self-edge (reacquiring a lock already held) deadlocks
//! immediately under parking_lot's non-reentrant locks.
//!
//! The analysis is intraprocedural and name-based (see
//! `crate::model`): it cannot see acquisitions hidden behind function
//! calls, and two same-named fields on different structs in one crate
//! share a node. Both approximations are deliberate — the first misses
//! some orderings (fix: keep lock scopes tight), the second
//! over-approximates (fix: name locks distinctly).

use crate::model::{self, LockKind};
use crate::{FileClass, Finding, SourceFile, Workspace};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Rule id.
pub const RULE: &str = "lock-order";

/// One acquisition-order edge with a witness site.
#[derive(Debug, Clone)]
struct Edge {
    from: String,
    to: String,
    /// Where `to` was acquired under `from`.
    file: String,
    line: u32,
}

fn in_scope(file: &SourceFile) -> bool {
    matches!(file.class, FileClass::Lib | FileClass::Bin)
        && (file.rel.starts_with("crates/") || file.rel.starts_with("src/"))
}

/// Whole-workspace pass: collect lock declarations per crate, then
/// nested acquisitions, then report every edge that participates in a
/// cycle.
pub fn check_workspace(ws: &Workspace, out: &mut Vec<Finding>) {
    // Pass 1: lock names per crate.
    let mut locks_by_crate: HashMap<&str, HashMap<String, LockKind>> = HashMap::new();
    let mut models: Vec<(usize, model::FileModel)> = Vec::new();
    for (fi, file) in ws.files.iter().enumerate() {
        if !in_scope(file) {
            continue;
        }
        let m = model::build(&file.lex);
        let per_crate = locks_by_crate.entry(file.crate_name.as_str()).or_default();
        for l in &m.locks {
            per_crate.insert(l.name.clone(), l.kind);
        }
        models.push((fi, m));
    }

    // Pass 2: nested acquisitions -> edges, keyed per crate (a field
    // name only means something within the crate that declares it).
    let mut edges: Vec<Edge> = Vec::new();
    for (fi, m) in &models {
        let file = &ws.files[*fi];
        let Some(locks) = locks_by_crate.get(file.crate_name.as_str()) else {
            continue;
        };
        if locks.is_empty() {
            continue;
        }
        for f in &m.fns {
            let spans = model::guard_spans(&file.lex, f.body, locks, &m.braces);
            // Skip spans whose tokens are test-region code.
            let spans: Vec<_> = spans
                .into_iter()
                .filter(|s| !file.lex.is_test_token(s.acq.token))
                .collect();
            for s in &spans {
                for inner in spans.iter().map(|t| &t.acq) {
                    if inner.token > s.acq.token && inner.token <= s.live.1 {
                        edges.push(Edge {
                            from: key(file, &s.acq.lock),
                            to: key(file, &inner.lock),
                            file: file.rel.clone(),
                            line: inner.line,
                        });
                    }
                }
            }
        }
    }

    report_cycles(&edges, out);
}

/// Crate-qualified lock name.
fn key(file: &SourceFile, lock: &str) -> String {
    format!("{}::{}", file.crate_name, lock)
}

/// Report self-edges and every edge lying on a directed cycle.
fn report_cycles(edges: &[Edge], out: &mut Vec<Finding>) {
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in edges {
        adj.entry(e.from.as_str())
            .or_default()
            .insert(e.to.as_str());
    }
    let mut seen_pairs: BTreeSet<(String, String)> = BTreeSet::new();
    for e in edges {
        if !seen_pairs.insert((e.from.clone(), e.to.clone())) {
            continue; // one report per ordered pair
        }
        if e.from == e.to {
            out.push(Finding {
                rule: RULE,
                file: e.file.clone(),
                line: e.line,
                message: format!(
                    "lock `{}` acquired while a guard of the same lock is live — immediate deadlock under non-reentrant locks",
                    e.from
                ),
            });
            continue;
        }
        if reachable(&adj, &e.to, &e.from) {
            // A witness of the reverse ordering, for the message.
            let reverse = edges
                .iter()
                .find(|r| r.from == e.to && reachable(&adj, &r.to, &e.from));
            let witness = reverse
                .map(|r| format!(" (reverse order at {}:{})", r.file, r.line))
                .unwrap_or_default();
            out.push(Finding {
                rule: RULE,
                file: e.file.clone(),
                line: e.line,
                message: format!(
                    "lock-order cycle: `{}` is acquired while holding `{}`, but a path orders them the other way{witness} — potential ABBA deadlock; pick one global order",
                    e.to, e.from
                ),
            });
        }
    }
}

/// DFS reachability over the acquisition graph.
fn reachable(adj: &BTreeMap<&str, BTreeSet<&str>>, from: &str, to: &str) -> bool {
    let mut stack = vec![from];
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    while let Some(n) = stack.pop() {
        if n == to {
            return true;
        }
        if !seen.insert(n) {
            continue;
        }
        if let Some(next) = adj.get(n) {
            stack.extend(next.iter().copied());
        }
    }
    false
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

    const DECLS: &str = "struct S { a: Mutex<u8>, b: Mutex<u8> }\n";

    #[test]
    fn abba_cycle_across_files_fires() {
        let f1 = format!("{DECLS}fn one(s: &S) {{ let g = s.a.lock(); let h = s.b.lock(); }}");
        let f2 = "fn two(s: &S) { let g = s.b.lock(); let h = s.a.lock(); }";
        let findings = run(vec![
            ("crates/core/src/x.rs", f1.as_str()),
            ("crates/core/src/y.rs", f2),
        ]);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().all(|f| f.rule == RULE));
        assert!(findings[0].message.contains("ABBA") || findings[0].message.contains("cycle"));
    }

    #[test]
    fn consistent_order_is_clean() {
        let f1 = format!("{DECLS}fn one(s: &S) {{ let g = s.a.lock(); let h = s.b.lock(); }}");
        let f2 = "fn two(s: &S) { let g = s.a.lock(); s.b.lock().probe(); }";
        let findings = run(vec![
            ("crates/core/src/x.rs", f1.as_str()),
            ("crates/core/src/y.rs", f2),
        ]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn self_reacquisition_fires() {
        let src = format!("{DECLS}fn f(s: &S) {{ let g = s.a.lock(); s.a.lock().touch(); }}");
        let findings = run(vec![("crates/core/src/x.rs", src.as_str())]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("same lock"));
    }

    #[test]
    fn sequential_acquisitions_are_clean() {
        // Temporaries die at statement end — no nesting, no edge.
        let src = format!(
            "{DECLS}fn f(s: &S) {{ s.a.lock().touch(); s.b.lock().touch(); }}\n\
             fn g(s: &S) {{ s.b.lock().touch(); s.a.lock().touch(); }}"
        );
        assert!(run(vec![("crates/core/src/x.rs", src.as_str())]).is_empty());
    }

    #[test]
    fn same_names_in_different_crates_do_not_interfere() {
        let f1 = format!("{DECLS}fn one(s: &S) {{ let g = s.a.lock(); let h = s.b.lock(); }}");
        // Reverse order, but in another crate: different nodes.
        let f2 = format!("{DECLS}fn two(s: &S) {{ let g = s.b.lock(); let h = s.a.lock(); }}");
        let findings = run(vec![
            ("crates/core/src/x.rs", f1.as_str()),
            ("crates/io/src/y.rs", f2.as_str()),
        ]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn three_party_cycle_detected() {
        let decls = "struct S { a: Mutex<u8>, b: Mutex<u8>, c: Mutex<u8> }\n";
        let src = format!(
            "{decls}\
             fn one(s: &S) {{ let g = s.a.lock(); let h = s.b.lock(); }}\n\
             fn two(s: &S) {{ let g = s.b.lock(); let h = s.c.lock(); }}\n\
             fn three(s: &S) {{ let g = s.c.lock(); let h = s.a.lock(); }}"
        );
        let findings = run(vec![("crates/core/src/x.rs", src.as_str())]);
        assert_eq!(findings.len(), 3, "{findings:?}");
    }

    #[test]
    fn test_code_exempt() {
        let src = format!(
            "{DECLS}\n#[cfg(test)]\nmod tests {{\n    #[test]\n    fn t(s: &S) {{ let g = s.a.lock(); let h = s.b.lock(); }}\n    #[test]\n    fn u(s: &S) {{ let g = s.b.lock(); let h = s.a.lock(); }}\n}}"
        );
        assert!(run(vec![("crates/core/src/x.rs", src.as_str())]).is_empty());
    }
}
