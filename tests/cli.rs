//! The built `drai` binary, driven as a user would: a full archetype
//! run graded back from its run directory (manifest + ledger), a ledger
//! that lost a record graded down, a run whose stdout closes before it
//! ends, and usage errors that must exit non-zero without leaving an
//! output directory behind.

use drai::domains::ARCHETYPES;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

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

/// The lines `drai assess <dir>` prints: the grade, then one per Table 2
/// cell.
fn assess(cwd: &Path, dir: &str) -> Vec<String> {
    let out = drai(cwd, &["assess", dir]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().map(str::to_string).collect()
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

    let lines = assess(&cwd, "out");
    assert_eq!(lines[0], "cmip-synth (climate): 5 - Fully AI-ready");
    // 15 Table 2 cells: the 13 of climate's four columns each cite the
    // record that satisfies it; Structure is N/A.
    let cells = &lines[1..];
    assert_eq!(cells.len(), 15, "{lines:#?}");
    assert_eq!(cells.iter().filter(|l| l.contains(" cites #")).count(), 13);
    assert_eq!(cells.iter().filter(|l| l.contains(" n/a: ")).count(), 2);
    for cited in [
        "L1 Ingest     cites #0 ingest",
        "L2 Preprocess cites #2 regrid",
        "L4 Preprocess cites #3 normalize",
        "L4 Transform  cites #3 normalize, #4 shard",
        "L5 Shard      cites #4 shard",
    ] {
        assert!(
            cells.iter().any(|l| l.trim() == cited),
            "{cited}: {lines:#?}"
        );
    }
    std::fs::remove_dir_all(&cwd).unwrap();
}

#[test]
fn assess_names_shard_when_the_ledger_lost_its_shard_line() {
    let cwd = scratch("cut-ledger");
    let run = drai(&cwd, &["run", "materials", "--out", "out"]);
    assert!(run.status.success());
    let path = cwd.join("out/provenance.jsonl");
    let text = std::fs::read_to_string(&path).unwrap();
    let kept: Vec<&str> = text
        .lines()
        .filter(|l| !l.contains("\"operation\":\"shard\""))
        .collect();
    assert_eq!(kept.len() + 1, text.lines().count(), "one shard line");
    std::fs::write(&path, kept.join("\n")).unwrap();
    let lines = assess(&cwd, "out");
    assert!(!lines[0].ends_with("5 - Fully AI-ready"), "{lines:#?}");
    assert!(
        lines
            .iter()
            .any(|l| l.trim() == "L5 Shard      BLOCKED: no `shard` record"),
        "{lines:#?}"
    );
    std::fs::remove_dir_all(&cwd).unwrap();
}

#[test]
fn assess_refuses_a_manifest_missing_records() {
    let cwd = scratch("missing-key");
    let run = drai(&cwd, &["run", "materials", "--out", "out"]);
    assert!(run.status.success());
    let path = cwd.join("out/manifest.json");
    let text = std::fs::read_to_string(&path).unwrap();
    let cut = text.replace("\"records\":32,", "");
    assert_ne!(cut, text, "the manifest records `records`");
    std::fs::write(&path, cut).unwrap();
    let assess = drai(&cwd, &["assess", "out"]);
    let stderr = String::from_utf8_lossy(&assess.stderr);
    assert!(!assess.status.success(), "exited 0: {stderr}");
    assert!(stderr.contains("`records`"), "{stderr}");
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
        &["run", "materials", "--sede", "7", "--out", "ff"],
        &["run", "materials", "extra", "--out", "ff"],
        &["card", "bio", "--out", "ff", "extra"],
        &["assess", "ff", "extra"],
        &["matrix", "--out", "ff"],
    ] {
        let out = drai(&cwd, args);
        assert!(!out.status.success(), "{args:?} exited 0");
        assert!(!out.stderr.is_empty(), "{args:?} printed no error");
        assert_eq!(std::fs::read_dir(&cwd).unwrap().count(), 0, "{args:?}");
        // An argument the command does not take is named.
        let stderr = String::from_utf8_lossy(&out.stderr);
        for unknown in ["--sede", "extra"] {
            if args.contains(&unknown) {
                assert!(stderr.contains(unknown), "{args:?}: {stderr}");
            }
        }
        if args[1] == "nosuch" {
            let stderr = String::from_utf8_lossy(&out.stderr);
            for a in &ARCHETYPES {
                assert!(stderr.contains(a.template.domain), "{stderr}");
            }
        }
    }
    std::fs::remove_dir_all(&cwd).unwrap();
}

/// A reader that goes away before the run ends: the run still writes
/// its record, prints no panic and exits as the run did.
#[test]
fn a_closed_stdout_keeps_the_run_record_and_the_exit_status() {
    let cwd = scratch("closed-stdout");
    let mut child = Command::new(env!("CARGO_BIN_EXE_drai"))
        .args(["run", "bio", "--out", "out"])
        .current_dir(&cwd)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn drai");
    drop(child.stdout.take());
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
    for record in ["manifest.json", "provenance.jsonl"] {
        assert!(cwd.join("out").join(record).is_file(), "{record}");
    }
    std::fs::remove_dir_all(&cwd).unwrap();
}
