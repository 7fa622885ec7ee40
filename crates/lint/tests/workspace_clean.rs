//! Self-check: the workspace that ships `drai-lint` must itself be lint
//! clean. This test is how `telemetry-names`, the one rule left, is
//! enforced — `cargo test --workspace` (and `cargo test -p drai-lint`)
//! fails on any finding.

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
fn lint_runs_telemetry_names() {
    // `lint()` runs the one rule: an unregistered metric name in library
    // code is a finding, the same name in a test file is not. Panic
    // paths, the wall clock, error context and the crate graph are not
    // here: clippy, `IoError` and `tests/crate_graph.rs` hold them.
    let call = r#"fn f(r: &Registry) { r.counter("io.shard.surprise").incr(); }"#;
    let ws = |rel: &str| drai_lint::Workspace {
        files: vec![drai_lint::source_file(rel, call)],
        metric_families: vec![drai_lint::MetricFamily {
            pattern: "io.shard.records".to_string(),
            line: 1,
        }],
    };
    let report = drai_lint::lint(&ws("crates/io/src/x.rs"));
    let rendered: Vec<(&str, &str)> = report
        .findings
        .iter()
        .map(|f| (f.file.as_str(), f.message.as_str()))
        .collect();
    assert_eq!(rendered.len(), 2, "{rendered:?}");
    assert!(rendered[0].1.contains("io.shard.surprise"), "{rendered:?}");
    assert!(rendered[0].1.contains("not registered"), "{rendered:?}");
    assert!(rendered[1].1.contains("never emitted"), "{rendered:?}");
    let report = drai_lint::lint(&ws("crates/io/tests/x.rs"));
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
}

#[test]
fn workspace_is_lint_clean() {
    let root = workspace_root();
    let ws = drai_lint::load_workspace(&root).expect("workspace scan succeeds");
    assert!(ws.metric_families.len() > 20, "registry looks truncated");
    let report = drai_lint::lint(&ws);
    assert!(report.files_scanned > 50, "scan looks truncated");
    let rendered: Vec<String> = report
        .findings
        .iter()
        .map(|f| format!("{}:{}: {}", f.file, f.line, f.message))
        .collect();
    assert!(
        report.is_clean(),
        "workspace has lint findings:\n{}",
        rendered.join("\n")
    );
}
