//! `shim-parity`: shim crates are vendored, API-compatible subsets of
//! external crates (`shims/README.md`). The whole point is that any
//! shim can be deleted and replaced by the real crate with zero code
//! changes elsewhere — which only holds if shims depend on nothing but
//! `std`. This rule flags `use`/`extern crate` of anything outside the
//! standard library in shim sources, and any dependency entry in a
//! shim's `Cargo.toml`.

use crate::{FileClass, Finding, SourceFile, Workspace};

/// Rule id.
pub const RULE: &str = "shim-parity";

/// Path roots a shim may import.
const ALLOWED_ROOTS: &[&str] = &["std", "core", "alloc", "crate", "self", "super"];

/// Scan one shim source file for non-std imports.
pub fn check_file(file: &SourceFile, out: &mut Vec<Finding>) {
    if file.class != FileClass::Shim {
        return;
    }
    let lex = &file.lex;
    let toks = &lex.tokens;
    // Rust-2018 uniform paths let `use regex_gen::X;` name a module
    // declared in this file — collect those so they aren't mistaken
    // for external crates.
    let mut local_mods = Vec::new();
    for i in 0..toks.len() {
        if lex.ident_at(i) == Some("mod") {
            if let Some(name) = lex.ident_at(i + 1) {
                local_mods.push(name.to_string());
            }
        }
    }
    for (i, tok) in toks.iter().enumerate() {
        let Some(kw) = lex.ident_at(i) else { continue };
        let (root_idx, what) = if kw == "use" {
            // `use ::path` — skip the leading `::`.
            let mut j = i + 1;
            while lex.punct_at(j, ':') {
                j += 1;
            }
            (j, "use")
        } else if kw == "extern" && lex.ident_at(i + 1) == Some("crate") {
            (i + 2, "extern crate")
        } else {
            continue;
        };
        let Some(root) = lex.ident_at(root_idx) else {
            continue;
        };
        if !ALLOWED_ROOTS.contains(&root) && !local_mods.iter().any(|m| m == root) {
            out.push(Finding {
                rule: RULE,
                file: file.rel.clone(),
                line: tok.line,
                message: format!(
                    "shim imports `{root}` via `{what}` — shims may only use std so they stay deletable"
                ),
            });
        }
    }
}

/// Scan every `shims/*/Cargo.toml` for dependency entries.
pub fn check_manifests(ws: &Workspace, out: &mut Vec<Finding>) {
    for (rel, contents) in &ws.shim_manifests {
        let mut in_dep_section = false;
        for (idx, raw) in contents.lines().enumerate() {
            let line = raw.trim();
            if line.starts_with('[') {
                in_dep_section = line.trim_matches(['[', ']']).ends_with("dependencies");
                continue;
            }
            if in_dep_section && !line.is_empty() && !line.starts_with('#') {
                out.push(Finding {
                    rule: RULE,
                    file: rel.clone(),
                    line: (idx + 1) as u32,
                    message: format!(
                        "shim manifest declares a dependency (`{line}`) — shims must be dependency-free"
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source_file;
    use std::path::PathBuf;

    fn run(rel: &str, src: &str) -> Vec<Finding> {
        let mut out = Vec::new();
        check_file(&source_file(rel, src), &mut out);
        out
    }

    #[test]
    fn std_imports_pass() {
        let src = "use std::sync::Arc;\nuse core::fmt;\nuse crate::inner;\nuse self::x;\nuse super::y;\nuse ::std::io;";
        assert!(run("shims/rand/src/lib.rs", src).is_empty());
    }

    #[test]
    fn cross_shim_import_fires() {
        let f = run("shims/rand/src/lib.rs", "use crossbeam::channel;\n");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("crossbeam"));
    }

    #[test]
    fn workspace_import_fires() {
        let f = run(
            "shims/proptest/src/lib.rs",
            "use drai_telemetry::Registry;\n",
        );
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn extern_crate_checked() {
        assert!(run("shims/rand/src/lib.rs", "extern crate std;\n").is_empty());
        assert_eq!(
            run("shims/rand/src/lib.rs", "extern crate crossbeam;\n").len(),
            1
        );
    }

    #[test]
    fn uniform_path_to_local_module_passes() {
        let src = "mod regex_gen;\npub use regex_gen::RegexError;\nuse regex_gen::compile;\n";
        assert!(run("shims/proptest/src/lib.rs", src).is_empty());
    }

    #[test]
    fn non_shim_files_exempt() {
        assert!(run("crates/io/src/lib.rs", "use crossbeam::channel;\n").is_empty());
    }

    #[test]
    fn manifest_dependency_fires() {
        let ws = Workspace {
            root: PathBuf::new(),
            files: vec![],
            metric_families: vec![],
            crate_manifests: vec![],
            shim_manifests: vec![(
                "shims/rand/Cargo.toml".to_string(),
                "[package]\nname = \"rand\"\n\n[dependencies]\ncrossbeam = { path = \"../crossbeam\" }\n".to_string(),
            )],
        };
        let mut out = Vec::new();
        check_manifests(&ws, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 5);
        assert!(out[0].message.contains("crossbeam"));
    }

    #[test]
    fn manifest_without_dependencies_passes() {
        let ws = Workspace {
            root: PathBuf::new(),
            files: vec![],
            metric_families: vec![],
            crate_manifests: vec![],
            shim_manifests: vec![(
                "shims/rand/Cargo.toml".to_string(),
                "[package]\nname = \"rand\"\nversion.workspace = true\n\n[dependencies]\n# none: shims are std-only\n\n[lib]\npath = \"src/lib.rs\"\n".to_string(),
            )],
        };
        let mut out = Vec::new();
        check_manifests(&ws, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }
}
