//! Hygiene lint: workspace `[lints]` enforcement and the `unsafe` fence.
//!
//! Three rules:
//!
//! 1. the root `Cargo.toml` must carry a `[workspace.lints.rust]` table
//!    with `unsafe_code = "deny"` — the compiler-level backstop;
//! 2. every workspace member (`crates/*`, `shims/*`, and the root
//!    package) must opt into it with `[lints] workspace = true`, so a
//!    new crate cannot silently skip the shared lint set;
//! 3. the `unsafe` keyword must not appear in workspace source outside
//!    the audited files of [`UNSAFE_ALLOWED`] and the vendored `shims/`
//!    (which mirror external crates and carry their own review bar).

use super::Finding;
use crate::lexer;
use std::path::{Path, PathBuf};

/// The audited list: every workspace file that may contain `unsafe`,
/// each scoping `#![allow(unsafe_code)]` to that one module. Adding an
/// entry is a review decision, not a convenience.
pub const UNSAFE_ALLOWED: [&str; 2] = [
    // The transport crate's libc shim: the reactor's `poll(2)`
    // declaration + EINTR-retrying safe wrapper, and the once-per-
    // process `mallopt(3)` pair behind `pin_malloc_thresholds`.
    "crates/transport/src/poll.rs",
    // The one call into the `#[target_feature]` CRC32C kernel, made
    // after run-time CPU detection.
    "crates/checksum/src/hw.rs",
];

/// Check one manifest for the `[lints] workspace = true` opt-in.
pub fn check_manifest(path: &Path, text: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    // A virtual workspace root (no `[package]`) cannot carry `[lints]`;
    // the opt-in applies to package manifests only.
    let is_package = text.lines().any(|l| l.trim() == "[package]");
    if is_package && !has_lints_workspace(text) {
        findings.push(Finding {
            lint: "hygiene",
            file: path.to_path_buf(),
            line: 0,
            message: "manifest lacks `[lints]\\nworkspace = true`; every member must opt into the workspace lint set".into(),
            code: String::new(),
            chain: Vec::new(),
        });
    }
    findings
}

/// Check the workspace root manifest for the shared lint table.
pub fn check_root_manifest(path: &Path, text: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let has_table = section_body(text, "[workspace.lints.rust]")
        .is_some_and(|body| body.contains("unsafe_code") && body.contains("deny"));
    if !has_table {
        findings.push(Finding {
            lint: "hygiene",
            file: path.to_path_buf(),
            line: 0,
            message:
                "root manifest must declare `[workspace.lints.rust]` with `unsafe_code = \"deny\"`"
                    .into(),
            code: String::new(),
            chain: Vec::new(),
        });
    }
    findings
}

/// Check one source file for the `unsafe` keyword (comments and strings
/// already masked by the caller's scan).
pub fn check_source(path: &Path, masked: &str, allowed_unsafe: bool) -> Vec<Finding> {
    let mut findings = Vec::new();
    if allowed_unsafe {
        return findings;
    }
    for (idx, line) in masked.lines().enumerate() {
        if lexer::has_word(line, "unsafe") {
            findings.push(Finding {
                lint: "hygiene",
                file: path.to_path_buf(),
                line: idx + 1,
                message: format!(
                    "`unsafe` is denied outside {} and shims/",
                    UNSAFE_ALLOWED.join(", ")
                ),
                code: line.to_string(),
                chain: Vec::new(),
            });
        }
    }
    findings
}

/// May `path` legitimately contain `unsafe`?
pub fn unsafe_allowed(path: &Path) -> bool {
    let p = path.to_string_lossy().replace('\\', "/");
    UNSAFE_ALLOWED
        .iter()
        .any(|f| p == *f || p.ends_with(&format!("/{f}")))
        || p.contains("/shims/")
        || p.starts_with("shims/")
}

/// Does the manifest text contain `[lints]` followed by
/// `workspace = true` before the next section header?
fn has_lints_workspace(text: &str) -> bool {
    section_body(text, "[lints]").is_some_and(|body| {
        body.lines()
            .any(|l| l.trim().replace(' ', "") == "workspace=true")
    })
}

/// The body of TOML section `header`, up to the next `[`-line.
fn section_body<'a>(text: &'a str, header: &str) -> Option<&'a str> {
    let mut offset = 0usize;
    for line in text.lines() {
        let start = offset;
        offset += line.len() + 1;
        if line.trim() == header {
            let rest = text.get(offset.min(text.len())..).unwrap_or("");
            let end = rest
                .lines()
                .scan(0usize, |acc, l| {
                    let s = *acc;
                    *acc += l.len() + 1;
                    Some((s, l))
                })
                .find(|(_, l)| l.trim_start().starts_with('['))
                .map(|(s, _)| s)
                .unwrap_or(rest.len());
            let _ = start;
            return rest.get(..end);
        }
    }
    None
}

/// Manifest paths of all workspace members under `root`.
pub fn member_manifests(root: &Path) -> Vec<PathBuf> {
    let mut out = vec![root.join("Cargo.toml")];
    for group in ["crates", "shims"] {
        let dir = root.join(group);
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        let mut members: Vec<PathBuf> = entries
            .flatten()
            .map(|e| e.path().join("Cargo.toml"))
            .filter(|p| p.is_file())
            .collect();
        members.sort();
        out.extend(members);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn detects_missing_lints_table() {
        let ok = "[package]\nname = \"x\"\n\n[lints]\nworkspace = true\n";
        assert!(check_manifest(&PathBuf::from("a/Cargo.toml"), ok).is_empty());
        let bad = "[package]\nname = \"x\"\n";
        assert_eq!(check_manifest(&PathBuf::from("a/Cargo.toml"), bad).len(), 1);
        // `workspace = true` must be inside [lints], not elsewhere.
        let tricked = "[package]\nname = \"x\"\n[lints]\n\n[dependencies]\nworkspace = true\n";
        assert_eq!(
            check_manifest(&PathBuf::from("a/Cargo.toml"), tricked).len(),
            1
        );
        // Virtual workspace roots have no package to hang [lints] on.
        let virtual_root = "[workspace]\nmembers = [\"crates/*\"]\n";
        assert!(check_manifest(&PathBuf::from("Cargo.toml"), virtual_root).is_empty());
    }

    #[test]
    fn detects_root_unsafe_deny() {
        let ok = "[workspace]\n\n[workspace.lints.rust]\nunsafe_code = \"deny\"\n";
        assert!(check_root_manifest(&PathBuf::from("Cargo.toml"), ok).is_empty());
        let bad = "[workspace]\n";
        assert_eq!(
            check_root_manifest(&PathBuf::from("Cargo.toml"), bad).len(),
            1
        );
    }

    #[test]
    fn unsafe_fence() {
        let f = check_source(
            &PathBuf::from("crates/net/src/x.rs"),
            "unsafe { *p }",
            false,
        );
        assert_eq!(f.len(), 1);
        let masked = lexer::mask("// unsafe only in comment");
        assert!(check_source(&PathBuf::from("x.rs"), &masked, false).is_empty());
        // Exactly the audited list, wherever the checkout lives…
        for f in UNSAFE_ALLOWED {
            assert!(unsafe_allowed(&PathBuf::from(f)));
            assert!(unsafe_allowed(&PathBuf::from(format!("/root/repo/{f}"))));
        }
        assert!(unsafe_allowed(&PathBuf::from("shims/loom/src/lib.rs")));
        // …and nothing that merely resembles an entry.
        assert!(!unsafe_allowed(&PathBuf::from("crates/des/src/lib.rs")));
        assert!(!unsafe_allowed(&PathBuf::from("crates/net/src/poll.rs")));
        assert!(!unsafe_allowed(&PathBuf::from(
            "crates/checksum/src/lib.rs"
        )));
        assert!(!unsafe_allowed(&PathBuf::from(
            "crates/transport/src/hw.rs"
        )));
        assert!(!unsafe_allowed(&PathBuf::from(
            "crates/xtransport/src/poll.rs"
        )));
        let f = check_source(
            &PathBuf::from("crates/net/src/x.rs"),
            "unsafe { *p }",
            false,
        );
        assert!(f[0].message.contains("crates/transport/src/poll.rs"));
        assert!(f[0].message.contains("crates/checksum/src/hw.rs"));
    }
}
