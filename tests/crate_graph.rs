//! The workspace's crate graph, read the way cargo reads it: `cargo
//! metadata` parses every manifest (plain, dotted and `target.*` tables,
//! renames), and these tests hold what it reports to four invariants.
//!
//! * **Layering.** Each drai crate has a layer in [`LAYERS`], and its
//!   runtime and build dependencies reach only strictly lower layers. An
//!   upward edge compiles until the crate below needs the one above, and
//!   then the refactor that needs it is a cycle. Dev dependencies are
//!   exempt: integration tests pull upper layers in as fixtures.
//! * **Freestanding shims.** A shim depends on nothing, so each one can be
//!   swapped for the real crate with no other change (`shims/README.md`).
//! * **Offline.** Every dependency of every member is a path inside the
//!   workspace: nothing is fetched, so the workspace builds with no
//!   network.
//! * **`unsafe` forbidden everywhere.** The root sets `unsafe_code =
//!   "forbid"` under `[workspace.lints.rust]` and every member inherits it
//!   with `[lints] workspace = true`. Metadata does not carry lints, so
//!   this one reads the manifests' text.

use drai::io::json::Json;
use std::path::Path;
use std::process::Command;

/// Layer of every drai crate, by package name.
const LAYERS: &[(&str, u32)] = &[
    ("drai-telemetry", 0),
    ("drai-tensor", 0),
    ("drai-io", 1),
    ("drai-formats", 2),
    ("drai-transform", 2),
    ("drai-provenance", 2),
    ("drai-sim", 2),
    ("drai-core", 3),
    ("drai-cache", 4),
    ("drai-sched", 5),
    ("drai-domains", 6),
    ("drai", 7),
];

fn layer_of(package: &str) -> Option<u32> {
    LAYERS.iter().find(|(n, _)| *n == package).map(|(_, l)| *l)
}

/// `cargo metadata` for this workspace, without resolving anything.
fn metadata() -> Json {
    let out = Command::new(env!("CARGO"))
        .args([
            "metadata",
            "--offline",
            "--no-deps",
            "--format-version",
            "1",
        ])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("run cargo metadata");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "cargo metadata failed: {stderr}");
    let text = String::from_utf8(out.stdout).expect("metadata is UTF-8");
    Json::parse(&text).expect("metadata is JSON")
}

fn str_of<'a>(v: &'a Json, key: &str) -> Option<&'a str> {
    v.get(key).and_then(Json::as_str)
}

/// Workspace members: the root package, the drai crates of [`LAYERS`]
/// and three shims. A member added or removed changes this count too.
const MEMBERS: usize = 15;

/// Every workspace member: its package name, manifest path and
/// dependency entries.
fn packages(meta: &Json) -> Vec<(&str, &str, &[Json])> {
    let packages = meta.get("packages").and_then(Json::as_arr).unwrap();
    assert_eq!(
        packages.len(),
        MEMBERS,
        "package list is not the workspace's"
    );
    packages
        .iter()
        .map(|p| {
            let name = str_of(p, "name").unwrap();
            let manifest = str_of(p, "manifest_path").unwrap();
            let deps = p.get("dependencies").and_then(Json::as_arr).unwrap();
            (name, manifest, deps)
        })
        .collect()
}

/// `normal`, `build` or `dev`.
fn kind(dep: &Json) -> &str {
    str_of(dep, "kind").unwrap_or("normal")
}

#[test]
fn drai_crates_depend_strictly_down_the_layers() {
    let meta = metadata();
    let mut drai: Vec<&str> = packages(&meta)
        .iter()
        .map(|(name, ..)| *name)
        .filter(|name| name.starts_with("drai"))
        .collect();
    let mut mapped: Vec<&str> = LAYERS.iter().map(|(name, _)| *name).collect();
    drai.sort_unstable();
    mapped.sort_unstable();
    assert_eq!(drai, mapped, "every drai crate has exactly one layer");

    let mut upward = Vec::new();
    for (package, _, deps) in packages(&meta) {
        let Some(own) = layer_of(package) else {
            continue;
        };
        for dep in deps.iter().filter(|d| kind(d) != "dev") {
            let name = str_of(dep, "name").unwrap();
            if let Some(layer) = layer_of(name).filter(|&l| l >= own) {
                upward.push(format!(
                    "{package} (layer {own}) -> {name} (layer {layer}), {} dependency",
                    kind(dep)
                ));
            }
        }
    }
    assert!(upward.is_empty(), "edges up the layer stack: {upward:#?}");
}

#[test]
fn shims_depend_on_nothing() {
    let meta = metadata();
    let shim_dir = Path::new(str_of(&meta, "workspace_root").unwrap()).join("shims");
    let shims: Vec<_> = packages(&meta)
        .into_iter()
        .filter(|(_, manifest, _)| Path::new(manifest).starts_with(&shim_dir))
        .collect();
    assert_eq!(shims.len(), 3, "shims not found: {shims:?}");
    for (shim, _, deps) in shims {
        let names: Vec<_> = deps.iter().map(|d| (str_of(d, "name"), kind(d))).collect();
        assert!(names.is_empty(), "shim {shim} depends on {names:?}");
    }
}

#[test]
fn every_dependency_is_a_path_inside_the_workspace() {
    let meta = metadata();
    let root = str_of(&meta, "workspace_root").unwrap();
    let mut outside = Vec::new();
    for (package, _, deps) in packages(&meta) {
        for dep in deps {
            let name = str_of(dep, "name").unwrap();
            if !str_of(dep, "path").is_some_and(|p| Path::new(p).starts_with(root)) {
                outside.push(format!("{package} -> {name} ({} dependency)", kind(dep)));
            }
        }
    }
    assert!(outside.is_empty(), "not a workspace path: {outside:#?}");
}

/// True when `manifest` sets `setting` (spaces ignored) under `section`.
fn sets(manifest: &str, section: &str, setting: &str) -> bool {
    let mut current = "";
    manifest.lines().map(str::trim).any(|line| {
        if line.starts_with('[') {
            current = line;
        }
        current == section && line.replace(' ', "") == setting
    })
}

#[test]
fn every_member_inherits_the_workspace_lints() {
    let read = |path: &Path| std::fs::read_to_string(path).expect("read manifest");
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml");
    assert!(
        sets(
            &read(&root),
            "[workspace.lints.rust]",
            "unsafe_code=\"forbid\""
        ),
        "the root Cargo.toml must forbid unsafe_code under [workspace.lints.rust]"
    );
    for (package, manifest, _) in packages(&metadata()) {
        assert!(
            sets(&read(Path::new(manifest)), "[lints]", "workspace=true"),
            "{package} ({manifest}) lacks `[lints] workspace = true`"
        );
    }
}
