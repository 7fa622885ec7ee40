//! Self-check: the workspace that ships `drai-lint` must itself be lint
//! clean, within the agreed suppression budget. This is the test CI runs
//! alongside the dedicated `lint` job, so a violation fails `cargo test`
//! even where the binary is not invoked.

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
fn all_ten_rules_are_registered() {
    // The v2 rule set: six lexical rules, four model-based
    // concurrency/architecture rules, plus the suppression meta-rule.
    // A rule that silently drops out of RULE_NAMES stops being
    // suppressible and stops being listed — pin the full set.
    let expected = [
        "no-panic-in-lib",
        "telemetry-names",
        "unsafe-audit",
        "shim-parity",
        "error-context",
        "no-wallclock",
        "lock-order",
        "lock-across-blocking",
        "layering",
        "gauge-balance",
        "suppression",
    ];
    assert_eq!(drai_lint::RULE_NAMES, &expected);
}

#[test]
fn workspace_is_lint_clean() {
    let root = workspace_root();
    let report = drai_lint::lint_workspace(&root).expect("workspace scan succeeds");
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

#[test]
fn suppression_budget_respected() {
    let root = workspace_root();
    let report = drai_lint::lint_workspace(&root).expect("workspace scan succeeds");
    // The workspace needs no suppression. A new one is a regression in
    // its own right: fix the finding, or justify a budget here and in
    // ci.yml's SUPPRESSION_BUDGET.
    assert!(
        report.suppressed.is_empty(),
        "suppression budget (0) exceeded: {:?}",
        report.suppressed
    );
}
