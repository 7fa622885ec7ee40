//! Self-test for the `drai-bench-report` regression gate: the binary
//! must exit nonzero on a synthetic injected regression, stay green on
//! a clean comparison, respect `--warn-only`, and produce a complete
//! artifact set in `--smoke` mode.

use drai_bench::report::{BenchResult, Report, StageStat};
use std::path::Path;
use std::process::Command;

fn fixture(wall_ns: u64, regrid_ns: u64) -> Report {
    Report {
        pr: 3,
        mode: "full".into(),
        benches: vec![BenchResult {
            name: "table1_climate".into(),
            trace: 1,
            wall_ns,
            items: 512,
            bytes: 4096,
            stages: vec![
                StageStat {
                    name: "pipeline.climate.regrid".into(),
                    total_ns: regrid_ns,
                    self_ns: regrid_ns,
                    count: 1,
                },
                StageStat {
                    name: "io.shard.write_all".into(),
                    total_ns: 50_000_000,
                    self_ns: 50_000_000,
                    count: 1,
                },
            ],
        }],
    }
}

fn write_fixture(dir: &Path, name: &str, report: &Report) -> std::path::PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, report.to_json()).unwrap();
    path
}

fn gate(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_drai-bench-report"))
        .args(args)
        .output()
        .unwrap();
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.code().unwrap_or(-1), text)
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("drai-bench-gate-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn injected_regression_fails_the_gate() {
    let dir = temp_dir("regress");
    let base = write_fixture(&dir, "base.json", &fixture(200_000_000, 100_000_000));
    // 2.5x slower regrid stage, wall time follows.
    let cur = write_fixture(&dir, "cur.json", &fixture(400_000_000, 250_000_000));
    let (code, text) = gate(&[
        "--compare-only",
        base.to_str().unwrap(),
        cur.to_str().unwrap(),
    ]);
    assert_eq!(code, 1, "gate should fail:\n{text}");
    assert!(text.contains("REGRESSION"), "{text}");
    assert!(text.contains("pipeline.climate.regrid"), "{text}");
    assert!(text.contains("+150.0%"), "{text}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn clean_comparison_passes_and_warn_only_downgrades() {
    let dir = temp_dir("clean");
    let base = write_fixture(&dir, "base.json", &fixture(200_000_000, 100_000_000));
    let same = write_fixture(&dir, "same.json", &fixture(205_000_000, 101_000_000));
    let (code, text) = gate(&[
        "--compare-only",
        base.to_str().unwrap(),
        same.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("no regressions"), "{text}");

    let slow = write_fixture(&dir, "slow.json", &fixture(400_000_000, 250_000_000));
    let (code, text) = gate(&[
        "--warn-only",
        "--compare-only",
        base.to_str().unwrap(),
        slow.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("REGRESSION"), "{text}");
    assert!(text.contains("--warn-only"), "{text}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn mode_mismatch_skips_comparison() {
    let dir = temp_dir("mode");
    let base = write_fixture(&dir, "base.json", &fixture(200_000_000, 100_000_000));
    let mut smoke = fixture(900_000_000, 800_000_000);
    smoke.mode = "smoke".into();
    let cur = write_fixture(&dir, "smoke.json", &smoke);
    let (code, text) = gate(&[
        "--compare-only",
        base.to_str().unwrap(),
        cur.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("skipped"), "{text}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn malformed_baseline_is_a_usage_error() {
    let dir = temp_dir("malformed");
    std::fs::write(dir.join("bad.json"), "{\"format\": \"other\"}").unwrap();
    let good = write_fixture(&dir, "good.json", &fixture(1, 1));
    let (code, text) = gate(&[
        "--compare-only",
        dir.join("bad.json").to_str().unwrap(),
        good.to_str().unwrap(),
    ]);
    assert_eq!(code, 2, "{text}");
    assert!(text.contains("error"), "{text}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn smoke_run_produces_report_and_trace_artifacts() {
    let dir = temp_dir("smoke");
    let (code, text) = gate(&[
        "--smoke",
        "--warn-only",
        "--pr",
        "8",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{text}");
    let report =
        Report::parse(&std::fs::read_to_string(dir.join("BENCH_8.json")).unwrap()).unwrap();
    assert_eq!(report.mode, "smoke");
    assert_eq!(report.benches.len(), 14);
    for b in &report.benches {
        assert!(b.wall_ns > 0, "{} has zero wall time", b.name);
        assert!(!b.stages.is_empty(), "{} has no stages", b.name);
        assert!(dir
            .join("trace")
            .join(format!("{}.trace.json", b.name))
            .is_file());
        assert!(dir
            .join("flame")
            .join(format!("{}.folded", b.name))
            .is_file());
    }
    // The climate trace must break down into domain + pipeline + worker spans.
    let climate = report
        .benches
        .iter()
        .find(|b| b.name == "table1_climate")
        .unwrap();
    let stage_names: Vec<&str> = climate.stages.iter().map(|s| s.name.as_str()).collect();
    assert!(
        stage_names.contains(&"domain.climate.run"),
        "{stage_names:?}"
    );
    assert!(
        stage_names.contains(&"io.prefetch.worker"),
        "{stage_names:?}"
    );
    assert!(
        stage_names.contains(&"io.shard.write_all"),
        "{stage_names:?}"
    );
    let summary = std::fs::read_to_string(dir.join("critical_paths.txt")).unwrap();
    assert!(summary.contains("== table1_climate =="));
    assert!(summary.contains("critical path"));
    std::fs::remove_dir_all(&dir).unwrap();
}
