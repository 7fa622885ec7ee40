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
fn all_five_rules_run() {
    // RULES is what `lint()` iterates, so this pins what actually runs:
    // three single-file token rules, the cross-file telemetry rule and
    // the manifest rule. A rule dropped from the table stops running.
    // Lock order, guards across blocking calls and gauge balance are not
    // here: the `parking_lot` shim checks the first two as they run in
    // debug builds, and `GaugeGuard` makes the third a type fact.
    let expected = [
        "no-panic-in-lib",
        "telemetry-names",
        "error-context",
        "no-wallclock",
        "crate-graph",
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
