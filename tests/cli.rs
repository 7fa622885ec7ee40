//! The built `drai` binary, driven as a user would: a full archetype
//! run graded back from its own manifest, and usage errors that must
//! exit non-zero without leaving an output directory behind.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// `drai <args>` run from `cwd`.
fn drai(cwd: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_drai"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("spawn drai")
}

/// A fresh scratch directory, so `./drai-out` defaults land inside it.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("drai-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn run_climate_then_assess_its_manifest() {
    let cwd = scratch("run");
    let run = drai(&cwd, &["run", "climate", "--out", "out"]);
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let out = cwd.join("out");
    assert!(out.join("manifest.json").is_file());
    assert!(out.join("provenance.jsonl").is_file());

    let assess = drai(&cwd, &["assess", "out/manifest.json"]);
    assert!(assess.status.success());
    let stdout = String::from_utf8(assess.stdout).unwrap();
    let stage_rows: Vec<&str> = stdout.lines().filter(|l| l.starts_with("  ")).collect();
    assert_eq!(stage_rows.len(), 5, "{stdout}");
    for row in stage_rows {
        assert!(row.ends_with("5 - Fully AI-ready"), "{row}");
    }
    std::fs::remove_dir_all(&cwd).unwrap();
}

#[test]
fn assess_refuses_a_manifest_missing_an_evidence_key() {
    let cwd = scratch("missing-key");
    let run = drai(&cwd, &["run", "materials", "--out", "out"]);
    assert!(run.status.success());
    let text = std::fs::read_to_string(cwd.join("out/manifest.json")).unwrap();
    let cut = text.replace("\"sharded\":true,", "");
    assert_ne!(cut, text, "the manifest records `sharded`");
    std::fs::write(cwd.join("cut.json"), cut).unwrap();
    let assess = drai(&cwd, &["assess", "cut.json"]);
    let stderr = String::from_utf8_lossy(&assess.stderr);
    assert!(!assess.status.success(), "exited 0: {stderr}");
    assert!(stderr.contains("`sharded`"), "{stderr}");
    std::fs::remove_dir_all(&cwd).unwrap();
}

#[test]
fn a_run_record_that_cannot_be_written_fails_the_run() {
    let cwd = scratch("unwritable");
    // A directory where the manifest goes: the shards land, the
    // manifest write fails.
    std::fs::create_dir_all(cwd.join("out/manifest.json")).unwrap();
    for command in ["run", "card"] {
        let run = drai(&cwd, &[command, "climate", "--out", "out"]);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(!run.status.success(), "{command} exited 0: {stderr}");
        assert!(stderr.contains("manifest.json"), "{command}: {stderr}");
        // What could be written still was.
        assert!(cwd.join("out/provenance.jsonl").is_file(), "{command}");
    }
    assert!(cwd.join("out/dataset_card.json").is_file());
    std::fs::remove_dir_all(&cwd).unwrap();
}

#[test]
fn usage_errors_exit_nonzero_and_create_no_directory() {
    let cwd = scratch("usage");
    for args in [
        &["run", "climate", "--scale", "abc"][..],
        &["run", "climate", "--seed", "x"],
        &["run", "climate", "--scale"],
        &["run", "nosuch"],
    ] {
        let out = drai(&cwd, args);
        assert!(!out.status.success(), "{args:?} exited 0");
        assert!(!out.stderr.is_empty(), "{args:?} printed no error");
        assert_eq!(std::fs::read_dir(&cwd).unwrap().count(), 0, "{args:?}");
    }
    std::fs::remove_dir_all(&cwd).unwrap();
}
