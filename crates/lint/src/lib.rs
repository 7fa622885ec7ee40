//! # drai-lint
//!
//! The one workspace invariant no tool owns yet: every metric and span
//! name emitted in code is registered in `drai-telemetry`'s
//! `METRIC_FAMILIES`, matches the dotted grammar, and every registered
//! family is emitted somewhere (`telemetry-names`, read from tokens by a
//! small std-only [`lexer`]). It runs offline as a test — `cargo test -p
//! drai-lint` (`tests/workspace_clean.rs`) fails on any finding — and has
//! no suppression syntax: a finding is fixed, or the rule is.
//!
//! Everything else is checked by the tool that owns that kind of fact
//! (DESIGN §6): rustc (`unsafe`, imports), clippy (panic paths in the
//! data-plane crates, the wall clock), types (`IoError` names its blob,
//! `GaugeGuard` balances gauges), the root `tests/crate_graph.rs` over
//! `cargo metadata` (layering, freestanding shims, path-only
//! dependencies, inherited lints), and the `parking_lot` shim at run time
//! (lock order). Typed telemetry handles are to replace this rule too.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub mod lexer;
mod telemetry_names;

use lexer::LexFile;

/// One lexed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel: String,
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

/// Everything the rule needs to see at once.
#[derive(Debug)]
pub struct Workspace {
    /// All lexed `.rs` files.
    pub files: Vec<SourceFile>,
    /// Parsed metric-family registry (empty if the telemetry crate is
    /// absent, in which case `telemetry-names` reports that instead).
    pub metric_families: Vec<MetricFamily>,
}

/// One rule violation.
#[derive(Debug, Clone)]
pub struct Finding {
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
    /// Every finding, sorted by file and line.
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

/// Directories scanned under the workspace root.
const SCAN_DIRS: &[&str] = &["crates", "src", "shims", "tests", "examples"];

/// Build a [`SourceFile`] from in-memory contents (used by rule
/// fixtures and by [`load_workspace`]).
pub fn source_file(rel: &str, contents: &str) -> SourceFile {
    SourceFile {
        rel: rel.to_string(),
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
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        files.push(source_file(&rel, &fs::read_to_string(path)?));
    }
    let metric_families = files
        .iter()
        .find(|f| f.rel == telemetry_names::REGISTRY_FILE)
        .map(|f| telemetry_names::parse_families(&f.lex))
        .unwrap_or_default();
    Ok(Workspace {
        files,
        metric_families,
    })
}

/// Run `telemetry-names` over a loaded workspace.
pub fn lint(ws: &Workspace) -> Report {
    let mut findings = Vec::new();
    telemetry_names::check(ws, &mut findings);
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Report {
        findings,
        files_scanned: ws.files.len(),
    }
}
