//! Self-check: the workspace that ships `drai-lint` must itself be lint
//! clean. This test is how the rules are enforced — `cargo test
//! --workspace` (and `cargo test -p drai-lint`) fails on any finding.

use std::path::Path;

fn workspace_root() -> std::path::PathBuf {
    // crates/lint -> crates -> workspace root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint has a workspace root two levels up")
        .to_path_buf()
}

#[test]
fn all_eight_rules_run() {
    // RULES is what `lint()` iterates, so this pins what actually runs:
    // four single-file rules, three cross-file model rules and the
    // manifest rule. A rule dropped from the table stops running.
    let expected = [
        "no-panic-in-lib",
        "telemetry-names",
        "error-context",
        "no-wallclock",
        "lock-order",
        "lock-across-blocking",
        "crate-graph",
        "gauge-balance",
    ];
    let names: Vec<&str> = drai_lint::RULES.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, expected);
}

#[test]
fn workspace_is_lint_clean() {
    let root = workspace_root();
    let ws = drai_lint::load_workspace(&root).expect("workspace scan succeeds");
    assert!(ws.manifests.len() > 15, "manifest list looks truncated");
    let report = drai_lint::lint(&ws);
    assert!(report.files_scanned > 50, "scan looks truncated");
    let rendered: Vec<String> = report
        .findings
        .iter()
        .map(|f| format!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message))
        .collect();
    assert!(
        report.is_clean(),
        "workspace has lint findings:\n{}",
        rendered.join("\n")
    );
}
