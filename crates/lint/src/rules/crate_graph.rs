//! `crate-graph`: what the manifests must say, read from the root,
//! `crates/*` and `shims/*` `Cargo.toml`s as one list. Cargo builds
//! whatever graph they declare; three invariants of that graph are this
//! rule's:
//!
//! * **Layering.** Each drai crate has a layer, and its runtime and
//!   build dependencies may only reach *strictly lower* layers. An
//!   upward edge compiles until the crate below needs the one above —
//!   `drai-io` build-depending on `drai-core`, or `drai-telemetry` (the
//!   bottom of the stack, used by everything) reaching into domain
//!   code — and then the refactor that needs it is a cycle. Dev
//!   dependencies are exempt: integration tests legitimately pull upper
//!   layers in as fixtures. A drai crate missing from the map is itself
//!   a finding, so a new crate is placed deliberately.
//! * **Freestanding shims.** A shim declares no dependency table of any
//!   kind (plain, dotted, `target.*`, build or dev), so each one can be
//!   swapped for the real crate with no other change
//!   (`shims/README.md`). Rustc then refuses any import a shim makes
//!   outside `std`.
//! * **`unsafe` forbidden everywhere.** The root sets
//!   `[workspace.lints.rust] unsafe_code = "forbid"` and every member
//!   inherits it with `[lints] workspace = true`: a member without that
//!   table would compile `unsafe` in all its targets unnoticed.
//!
//! The layer map:
//!
//! | layer | crates |
//! |-------|--------|
//! | 0 | `drai-telemetry`, `drai-tensor`, `drai-lint` |
//! | 1 | `drai-io` |
//! | 2 | `drai-formats`, `drai-transform`, `drai-provenance`, `drai-sim` |
//! | 3 | `drai-core` |
//! | 4 | `drai-cache` |
//! | 5 | `drai-sched` |
//! | 6 | `drai-domains` |
//! | 7 | `drai-bench`, `drai` (root package) |

use crate::{Finding, Workspace};

/// Rule id.
pub const RULE: &str = "crate-graph";

/// Architectural layer of every known drai crate (package names).
pub const LAYERS: &[(&str, u32)] = &[
    ("drai-telemetry", 0),
    ("drai-tensor", 0),
    ("drai-lint", 0),
    ("drai-io", 1),
    ("drai-formats", 2),
    ("drai-transform", 2),
    ("drai-provenance", 2),
    ("drai-sim", 2),
    ("drai-core", 3),
    ("drai-cache", 4),
    ("drai-sched", 5),
    ("drai-domains", 6),
    ("drai-bench", 7),
    ("drai", 7),
];

/// Dependency table kinds.
const DEP_KINDS: &[&str] = &["dependencies", "build-dependencies", "dev-dependencies"];

fn layer_of(package: &str) -> Option<u32> {
    LAYERS.iter().find(|(n, _)| *n == package).map(|(_, l)| *l)
}

/// One dependency entry.
#[derive(Debug)]
struct Dep<'a> {
    /// One of [`DEP_KINDS`].
    kind: &'a str,
    name: &'a str,
    line: u32,
}

/// What the rule reads from one manifest.
#[derive(Debug, Default)]
struct Manifest<'a> {
    package: Option<&'a str>,
    deps: Vec<Dep<'a>>,
    /// `(line, header)` of every dependency table.
    dep_tables: Vec<(u32, &'a str)>,
    /// `[lints] workspace = true`.
    inherits_lints: bool,
    /// `unsafe_code = "forbid"` under `[workspace.lints.rust]`.
    forbids_unsafe: bool,
}

/// Minimal line-oriented TOML walk: track the current `[section]` and
/// read the few keys above from it.
fn parse(contents: &str) -> Manifest<'_> {
    let mut m = Manifest::default();
    let mut section = "";
    // Kind of the plain dependency table the walk is in, if any.
    let mut table = None;
    for (idx, raw) in contents.lines().enumerate() {
        let line = raw.trim();
        let lineno = idx as u32 + 1;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(header) = line.strip_prefix('[') {
            section = header.trim_end_matches(']').trim();
            table = None;
            if let Some((kind, name)) = dep_table(section) {
                m.dep_tables.push((lineno, section));
                match name {
                    // `[dependencies.drai-core]` names the dep in the header.
                    Some(name) => m.deps.push(Dep {
                        kind,
                        name,
                        line: lineno,
                    }),
                    None => table = Some(kind),
                }
            }
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let (key, value) = (key.trim(), value.trim());
        if let Some(kind) = table {
            // `drai-core = {..}` or `drai-core.workspace = true`.
            let name = key.split('.').next().unwrap_or(key).trim_matches('"');
            m.deps.push(Dep {
                kind,
                name,
                line: lineno,
            });
        } else if section == "package" && key == "name" {
            m.package = value.split('"').nth(1);
        } else if section == "lints" && key == "workspace" {
            m.inherits_lints = value.starts_with("true");
        } else if section == "workspace.lints.rust" && key == "unsafe_code" {
            m.forbids_unsafe = value.contains("\"forbid\"");
        }
    }
    m
}

/// If `section` is a dependency table header — a kind, or a dotted
/// `<kind>.<name>`, either behind a `target.<platform>.` prefix — its
/// kind and the dependency a dotted header names.
/// `[workspace.dependencies]` is the shared version table, not one.
fn dep_table(section: &str) -> Option<(&str, Option<&str>)> {
    let mut segs = section.split('.');
    let first = segs.next()?;
    let kind = if first == "target" {
        // A quoted `'cfg(..)'` platform may itself contain dots.
        segs.find(|s| DEP_KINDS.contains(s))?
    } else {
        DEP_KINDS.contains(&first).then_some(first)?
    };
    Some((kind, segs.next().map(|n| n.trim_matches(['"', '\'']))))
}

/// Manifest pass over [`Workspace::manifests`].
pub fn check_workspace(ws: &Workspace, out: &mut Vec<Finding>) {
    for (rel, contents) in &ws.manifests {
        let m = parse(contents);
        let mut report = |line: u32, message: String| {
            out.push(Finding {
                rule: RULE,
                file: rel.clone(),
                line,
                message,
            })
        };
        if rel == "Cargo.toml" && !m.forbids_unsafe {
            report(
                1,
                "the root manifest must set `unsafe_code = \"forbid\"` under \
                 `[workspace.lints.rust]` — it is the one place `unsafe` is refused"
                    .to_string(),
            );
        }
        let Some(package) = m.package else {
            continue; // virtual manifest (workspace root without [package])
        };
        if !m.inherits_lints {
            report(
                1,
                format!(
                    "`{package}` does not inherit the workspace lints — add \
                     `[lints] workspace = true` so rustc forbids `unsafe` in all its targets"
                ),
            );
        }
        if rel.starts_with("shims/") {
            for (line, header) in &m.dep_tables {
                report(
                    *line,
                    format!(
                        "shim `{package}` declares `[{header}]` — shims depend on nothing, \
                         so each one can be swapped for the real crate"
                    ),
                );
            }
            continue;
        }
        let Some(own) = layer_of(package) else {
            report(
                1,
                format!(
                    "crate `{package}` is not in the layer map — add it to LAYERS in \
                     crates/lint/src/rules/crate_graph.rs at a deliberate layer"
                ),
            );
            continue;
        };
        for dep in &m.deps {
            if dep.kind == "dev-dependencies" || !dep.name.starts_with("drai") {
                continue;
            }
            match layer_of(dep.name) {
                Some(dl) if dl < own => {}
                Some(dl) => report(
                    dep.line,
                    format!(
                        "`{package}` (layer {own}) has `{}` (layer {dl}) in [{}] — \
                         edges must point strictly down the layer stack",
                        dep.name, dep.kind
                    ),
                ),
                None => report(
                    dep.line,
                    format!(
                        "`{package}` depends on unmapped crate `{}` — add it to the layer map",
                        dep.name
                    ),
                ),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn run(manifests: &[(&str, &str)]) -> Vec<Finding> {
        let ws = Workspace {
            root: PathBuf::new(),
            files: vec![],
            metric_families: vec![],
            manifests: manifests
                .iter()
                .map(|(rel, c)| (rel.to_string(), c.to_string()))
                .collect(),
        };
        let mut out = Vec::new();
        check_workspace(&ws, &mut out);
        out
    }

    /// A member manifest that inherits the workspace lints; `body`
    /// starts on line 4.
    fn member(package: &str, body: &str) -> String {
        format!("[package]\nname = \"{package}\"\n\n{body}\n[lints]\nworkspace = true\n")
    }

    fn lines(findings: &[Finding]) -> Vec<u32> {
        findings.iter().map(|f| f.line).collect()
    }

    #[test]
    fn downward_runtime_and_build_edges_are_clean() {
        let m = member(
            "drai-core",
            "[dependencies]\ndrai-io.workspace = true\ndrai-telemetry = { workspace = true }\nparking_lot.workspace = true\n\n[build-dependencies]\ndrai-tensor.workspace = true\n",
        );
        let f = run(&[("crates/core/Cargo.toml", &m)]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn upward_and_same_layer_edges_fire() {
        let up = member("drai-io", "[dependencies]\ndrai-core.workspace = true\n");
        let same = member(
            "drai-formats",
            "[dependencies]\ndrai-sim.workspace = true\n",
        );
        let f = run(&[
            ("crates/formats/Cargo.toml", &same),
            ("crates/io/Cargo.toml", &up),
        ]);
        assert_eq!(lines(&f), [5, 5], "{f:?}");
        assert!(f.iter().all(|f| f.message.contains("strictly down")));
    }

    #[test]
    fn build_dependency_edges_are_checked() {
        let m = member(
            "drai-io",
            "[build-dependencies]\ndrai-core.workspace = true\n\n[target.'cfg(unix)'.build-dependencies.drai-domains]\nworkspace = true\n",
        );
        let f = run(&[("crates/io/Cargo.toml", &m)]);
        assert_eq!(lines(&f), [5, 7], "{f:?}");
        assert!(f[0].message.contains("[build-dependencies]"), "{f:?}");
    }

    #[test]
    fn dotted_dependency_header_names_the_edge() {
        let m = member(
            "drai-io",
            "[dependencies.drai-core]\nworkspace = true\n\n[target.'cfg(target_os = \"a.b\")'.dependencies]\ndrai-cache.workspace = true\n",
        );
        let f = run(&[("crates/io/Cargo.toml", &m)]);
        assert_eq!(lines(&f), [4, 8], "{f:?}");
    }

    #[test]
    fn dev_dependencies_are_exempt() {
        let m = member(
            "drai-io",
            "[dev-dependencies]\ndrai-core.workspace = true\n\n[target.'cfg(test)'.dev-dependencies]\ndrai-domains.workspace = true\n",
        );
        assert!(run(&[("crates/io/Cargo.toml", &m)]).is_empty());
    }

    #[test]
    fn root_with_forbid_and_workspace_table_is_clean() {
        let m = "[workspace]\nmembers = [\"crates/*\"]\n\n[workspace.dependencies]\ndrai-core = { path = \"crates/core\" }\n\n[workspace.lints.rust]\nunsafe_code = \"forbid\"\n\n[package]\nname = \"drai\"\n\n[dependencies]\ndrai-core.workspace = true\n\n[lints]\nworkspace = true\n";
        let f = run(&[("Cargo.toml", m)]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn root_without_unsafe_forbid_fires() {
        let warn = "[workspace]\nmembers = [\"crates/*\"]\n\n[workspace.lints.rust]\nunsafe_code = \"warn\"\n";
        for root in ["[workspace]\nmembers = [\"crates/*\"]\n", warn] {
            let f = run(&[("Cargo.toml", root)]);
            assert_eq!(f.len(), 1, "{f:?}");
            assert!(f[0].message.contains("unsafe_code"), "{f:?}");
        }
    }

    #[test]
    fn member_without_workspace_lints_fires() {
        let f = run(&[
            ("crates/io/Cargo.toml", "[package]\nname = \"drai-io\"\n"),
            (
                "shims/rand/Cargo.toml",
                "[package]\nname = \"rand\"\n\n[lints]\nworkspace = false\n",
            ),
        ]);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f
            .iter()
            .all(|f| f.message.contains("[lints] workspace = true")));
    }

    #[test]
    fn unmapped_crate_fires() {
        let m = member("drai-quantum", "[dependencies]\n");
        let f = run(&[("crates/quantum/Cargo.toml", &m)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("layer map"));
        let dep = member("drai-io", "[dependencies]\ndrai-quantum.workspace = true\n");
        let f = run(&[("crates/io/Cargo.toml", &dep)]);
        assert_eq!(lines(&f), [5], "{f:?}");
        assert!(f[0].message.contains("unmapped crate"));
    }

    #[test]
    fn shim_dependency_tables_of_every_kind_fire() {
        let m = member(
            "rand",
            "[dependencies]\n# none\n\n[dependencies.parking_lot]\nworkspace = true\n\n[target.'cfg(unix)'.dependencies]\nlibc = \"0.2\"\n\n[build-dependencies]\n\n[dev-dependencies]\nproptest.workspace = true\n",
        );
        let f = run(&[("shims/rand/Cargo.toml", &m)]);
        assert_eq!(lines(&f), [4, 7, 10, 13, 15], "{f:?}");
        assert!(f[1].message.contains("[dependencies.parking_lot]"), "{f:?}");
    }

    #[test]
    fn shim_without_dependency_tables_passes() {
        let m = member(
            "rand",
            "version = \"0.8.99\"\npublish = false\n\n[lib]\npath = \"src/lib.rs\"\n",
        );
        assert!(run(&[("shims/rand/Cargo.toml", &m)]).is_empty());
    }

    #[test]
    fn layer_map_names_are_unique() {
        let mut names: Vec<&str> = LAYERS.iter().map(|(n, _)| *n).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), LAYERS.len());
    }
}
