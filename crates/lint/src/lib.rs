//! # drai-lint
//!
//! Workspace-native static analysis for the DRAI codebase: a
//! dependency-free (std-only) rule engine over a lightweight Rust lexer
//! that checks the project invariants rustc and cargo cannot. What the
//! toolchain decides stays with the toolchain: `unsafe` is forbidden in
//! every target by `[workspace.lints.rust]`, and an import of a crate a
//! manifest does not declare does not compile. What only a run can see
//! is checked where it runs: lock order, guards held across blocking
//! calls and re-taken locks by the `parking_lot` shim in debug builds
//! (every `cargo test`), and gauge balance by the `drai_telemetry::GaugeGuard`
//! type. It runs offline as a test — `cargo test -p drai-lint`
//! (`tests/workspace_clean.rs`) fails on any finding — and has no
//! suppression syntax: a finding is fixed, or the rule is.
//!
//! ## Rules
//!
//! | rule | invariant |
//! |------|-----------|
//! | `no-panic-in-lib` | no `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/`unimplemented!` (or indexing-adjacent `assert!`) in library code of `drai-core`, `drai-io`, `drai-formats`, `drai-transform` |
//! | `telemetry-names` | metric-name literals match the dotted grammar and the `METRIC_FAMILIES` registry in `drai-telemetry`, and every registered family is emitted somewhere |
//! | `error-context` | `IoError` construction in `drai-io` carries a path/shard/record context |
//! | `no-wallclock` | `Instant::now`/`SystemTime::now` only in `drai-telemetry` and the retry/cache clock seams (deterministic replay) |
//! | `crate-graph` | manifest edges between drai crates point strictly down the layer stack, shims declare no dependencies, every member inherits the workspace lints |
//!
//! The source rules read tokens ([`lexer`]); `crate-graph` reads the
//! manifests.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub mod lexer;
pub mod rules;

use lexer::LexFile;

/// What kind of code a file holds, derived from its workspace path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library code under some `src/` (excluding `src/bin/`).
    Lib,
    /// Binary code under a `src/bin/`.
    Bin,
    /// Integration tests under a `tests/` directory.
    Tests,
    /// Example programs under an `examples/` directory.
    Examples,
    /// Criterion benchmarks under a `benches/` directory.
    Bench,
    /// Vendored shim code under `shims/`.
    Shim,
}

/// One lexed source file plus its workspace-level classification.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel: String,
    /// Crate the file belongs to (`core`, `io`, ..., `drai` for the
    /// root package, shim name for shims).
    pub crate_name: String,
    /// Coarse classification driving rule scoping.
    pub class: FileClass,
    /// Lexed contents.
    pub lex: LexFile,
}

/// One metric family parsed from the `METRIC_FAMILIES` registry.
#[derive(Debug, Clone)]
pub struct MetricFamily {
    /// Dotted pattern; `*` segments match one or more name segments.
    pub pattern: String,
    /// Line of the literal inside the telemetry crate.
    pub line: u32,
}

/// Everything the rules need to see at once.
#[derive(Debug)]
pub struct Workspace {
    /// Workspace root directory.
    pub root: PathBuf,
    /// All lexed `.rs` files.
    pub files: Vec<SourceFile>,
    /// Parsed metric-family registry (empty if the telemetry crate is
    /// absent, in which case `telemetry-names` reports that instead).
    pub metric_families: Vec<MetricFamily>,
    /// `(relative path, contents)` of the root `Cargo.toml` and of every
    /// `crates/*` and `shims/*` one (for `crate-graph`).
    pub manifests: Vec<(String, String)>,
}

/// One rule violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule identifier (e.g. `no-panic-in-lib`).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

/// Outcome of a lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// Every finding, sorted by file, line and rule.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// True when there is no finding.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// How a rule sees the workspace.
#[derive(Clone, Copy)]
pub enum Pass {
    /// Run once per source file.
    File(fn(&SourceFile, &mut Vec<Finding>)),
    /// Run once over the whole workspace (cross-file and manifest rules).
    Workspace(fn(&Workspace, &mut Vec<Finding>)),
}

/// Every rule by id, in the order [`lint`] runs them — the one list of
/// what runs.
pub const RULES: &[(&str, Pass)] = &[
    (
        rules::no_panic::RULE,
        Pass::File(rules::no_panic::check_file),
    ),
    (
        rules::telemetry_names::RULE,
        Pass::Workspace(rules::telemetry_names::check),
    ),
    (
        rules::error_context::RULE,
        Pass::File(rules::error_context::check_file),
    ),
    (
        rules::no_wallclock::RULE,
        Pass::File(rules::no_wallclock::check_file),
    ),
    (
        rules::crate_graph::RULE,
        Pass::Workspace(rules::crate_graph::check_workspace),
    ),
];

/// Directories scanned under the workspace root.
const SCAN_DIRS: &[&str] = &["crates", "src", "shims", "tests", "examples"];

/// Classify a workspace-relative path.
pub fn classify(rel: &str) -> (FileClass, String) {
    let crate_name = if let Some(rest) = rel.strip_prefix("crates/") {
        rest.split('/').next().unwrap_or("").to_string()
    } else if let Some(rest) = rel.strip_prefix("shims/") {
        rest.split('/').next().unwrap_or("").to_string()
    } else {
        "drai".to_string()
    };
    let class = if rel.starts_with("shims/") {
        FileClass::Shim
    } else if rel.starts_with("tests/") || rel.contains("/tests/") {
        FileClass::Tests
    } else if rel.starts_with("examples/") || rel.contains("/examples/") {
        FileClass::Examples
    } else if rel.starts_with("benches/") || rel.contains("/benches/") {
        FileClass::Bench
    } else if rel.contains("src/bin/") {
        FileClass::Bin
    } else {
        FileClass::Lib
    };
    (class, crate_name)
}

/// Build a [`SourceFile`] from in-memory contents (used by rule
/// fixtures and by [`load_workspace`]).
pub fn source_file(rel: &str, contents: &str) -> SourceFile {
    let (class, crate_name) = classify(rel);
    SourceFile {
        rel: rel.to_string(),
        crate_name,
        class,
        lex: lexer::lex(contents),
    }
}

/// Recursively collect `.rs` files under `dir`, skipping `target`.
fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            if name != "target" && name != ".git" {
                walk(&path, out)?;
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// `path` relative to `root`, `/`-separated.
fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Load and lex every source file reachable from `root`.
pub fn load_workspace(root: &Path) -> io::Result<Workspace> {
    let mut paths = Vec::new();
    for dir in SCAN_DIRS {
        let d = root.join(dir);
        if d.is_dir() {
            walk(&d, &mut paths)?;
        }
    }
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for path in &paths {
        let contents = fs::read_to_string(path)?;
        files.push(source_file(&rel_path(root, path), &contents));
    }

    let metric_families = files
        .iter()
        .find(|f| f.rel == rules::telemetry_names::REGISTRY_FILE)
        .map(|f| rules::telemetry_names::parse_families(&f.lex))
        .unwrap_or_default();

    let mut manifest_paths = vec![root.join("Cargo.toml")];
    for dir in ["crates", "shims"] {
        let d = root.join(dir);
        if d.is_dir() {
            for entry in fs::read_dir(&d)? {
                manifest_paths.push(entry?.path().join("Cargo.toml"));
            }
        }
    }
    let mut manifests = Vec::new();
    for path in manifest_paths.iter().filter(|p| p.is_file()) {
        manifests.push((rel_path(root, path), fs::read_to_string(path)?));
    }
    manifests.sort();

    Ok(Workspace {
        root: root.to_path_buf(),
        files,
        metric_families,
        manifests,
    })
}

/// Run every rule in [`RULES`] over a loaded workspace.
pub fn lint(ws: &Workspace) -> Report {
    let mut findings = Vec::new();
    for (_, pass) in RULES {
        match pass {
            Pass::File(check) => ws.files.iter().for_each(|f| check(f, &mut findings)),
            Pass::Workspace(check) => check(ws, &mut findings),
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Report {
        findings,
        files_scanned: ws.files.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_paths() {
        assert_eq!(
            classify("crates/io/src/shard.rs"),
            (FileClass::Lib, "io".to_string())
        );
        assert_eq!(
            classify("crates/bench/src/bin/drai-bench.rs"),
            (FileClass::Bin, "bench".to_string())
        );
        assert_eq!(
            classify("crates/lint/tests/workspace_clean.rs"),
            (FileClass::Tests, "lint".to_string())
        );
        assert_eq!(
            classify("shims/rand/src/lib.rs"),
            (FileClass::Shim, "rand".to_string())
        );
        assert_eq!(
            classify("crates/bench/benches/pipeline.rs"),
            (FileClass::Bench, "bench".to_string())
        );
        assert_eq!(
            classify("benches/top_level.rs"),
            (FileClass::Bench, "drai".to_string())
        );
        assert_eq!(
            classify("tests/end_to_end.rs"),
            (FileClass::Tests, "drai".to_string())
        );
        assert_eq!(
            classify("examples/quickstart.rs"),
            (FileClass::Examples, "drai".to_string())
        );
        assert_eq!(classify("src/lib.rs"), (FileClass::Lib, "drai".to_string()));
        assert_eq!(
            classify("src/bin/drai.rs"),
            (FileClass::Bin, "drai".to_string())
        );
    }
}
