//! `cargo xtask analyze` — repo-specific static analysis for the JBS
//! workspace.
//!
//! Nine lint families, built on a hand-rolled scanner ([`lexer`]) and
//! an interprocedural call graph ([`callgraph`]) so the workspace stays
//! fully offline (no syn/proc-macro/registry deps):
//!
//! * [`lints::panics`] — panic-freedom on the dataplane crates;
//! * [`lints::lockorder`] — the workspace-wide lock-acquisition graph
//!   (held sets propagated across calls to a fixpoint), cycle
//!   detection, and the documented order;
//! * [`lints::blocking`] — no file/socket I/O, `sleep`, or condvar
//!   wait while any lock is held, through arbitrarily deep calls;
//! * [`lints::nonblocking`] — files declared `nonblocking_context`
//!   (the supplier's reactor and the client's event loops) must not
//!   reach a blocking primitive at all, locks held or not;
//! * [`lints::guardbalance`] — lock guards and trace spans must have
//!   structured lifetimes (no `let _ =`, no `mem::forget`, no
//!   guard-returning functions outside the sync-primitive layer);
//! * [`lints::determinism`] — no wall clocks / sleeps / OS entropy in
//!   the simulated-time crates;
//! * [`lints::durability`] — write → sync → publish ordering in the
//!   crash-consistent persistence files;
//! * [`lints::hygiene`] — workspace `[lints]` opt-in everywhere and
//!   the `unsafe` fence;
//! * [`lints::print`] — no stdout/stderr prints on the instrumented
//!   dataplane crates; report through `jbs-obs` traces instead.
//!
//! Lint scope is discovered from the workspace manifest's `members`
//! list; crates opt *out* per family through `[policy]` keys in
//! `crates/xtask/allow.toml` ([`policy`]). Exemptions for individual
//! call sites are `[[allow]]` entries with a mandatory one-line
//! justification; stale entries are themselves errors. See DESIGN.md
//! §9.

pub mod callgraph;
pub mod lexer;
pub mod lints;
pub mod policy;

use lexer::ScannedFile;
use lints::Finding;
use policy::Policy;
use std::path::{Path, PathBuf};

/// Which lints apply to which parts of the tree.
pub struct Config {
    /// Workspace root.
    pub root: PathBuf,
    /// Directories (relative) whose sources get the panic-freedom lint.
    pub panic_dirs: Vec<PathBuf>,
    /// Directories (relative) whose sources get the determinism lint.
    pub determinism_dirs: Vec<PathBuf>,
    /// Directories (relative) whose sources feed the interprocedural
    /// analysis (lock order, blocking-under-lock, guard balance).
    pub analysis_dirs: Vec<PathBuf>,
    /// Directories (relative) whose sources get the print lint.
    pub print_dirs: Vec<PathBuf>,
}

impl Config {
    /// Discover the lint scope from the workspace manifest: every
    /// `crates/*` member is in scope for every source lint unless its
    /// crate name appears in the matching `[policy] *_exempt` list.
    /// (`shims/*` members are vendored stand-ins — never linted as
    /// sources, though hygiene still checks their manifests.)
    pub fn for_workspace(root: &Path, policy: &Policy) -> std::io::Result<Config> {
        let manifest = std::fs::read_to_string(root.join("Cargo.toml"))?;
        let mut crate_dirs: Vec<(String, PathBuf)> = Vec::new();
        for member in workspace_members(&manifest) {
            for dir in expand_member(root, &member)? {
                let rel = dir.strip_prefix(root).unwrap_or(&dir).to_path_buf();
                let relstr = rel.to_string_lossy().replace('\\', "/");
                if !relstr.starts_with("crates/") {
                    continue;
                }
                let name = dir
                    .file_name()
                    .map(|n| n.to_string_lossy().to_string())
                    .unwrap_or_default();
                if dir.join("src").is_dir() {
                    crate_dirs.push((name, rel.join("src")));
                }
            }
        }
        crate_dirs.sort();
        let select = |exempt: &[String]| -> Vec<PathBuf> {
            crate_dirs
                .iter()
                .filter(|(name, _)| !exempt.iter().any(|e| e == name))
                .map(|(_, d)| d.clone())
                .collect()
        };
        let determinism_dirs = if policy.determinism_dirs.is_empty() {
            vec![
                "crates/des/src".into(),
                "crates/core/src".into(),
                "crates/mapred/src/sim".into(),
            ]
        } else {
            policy.determinism_dirs.iter().map(PathBuf::from).collect()
        };
        Ok(Config {
            root: root.to_path_buf(),
            panic_dirs: select(&policy.panic_exempt),
            determinism_dirs,
            analysis_dirs: select(&policy.analysis_exempt),
            print_dirs: select(&policy.print_exempt),
        })
    }
}

/// The `members = [...]` globs of the workspace manifest.
fn workspace_members(manifest: &str) -> Vec<String> {
    let Some(start) = manifest.find("members") else {
        return Vec::new();
    };
    let Some(open) = manifest[start..].find('[') else {
        return Vec::new();
    };
    let Some(close) = manifest[start + open..].find(']') else {
        return Vec::new();
    };
    manifest[start + open + 1..start + open + close]
        .split(',')
        .filter_map(|p| {
            let p = p.trim().trim_matches('"');
            (!p.is_empty()).then(|| p.to_string())
        })
        .collect()
}

/// Expand one member glob (`crates/*`) or literal path.
fn expand_member(root: &Path, member: &str) -> std::io::Result<Vec<PathBuf>> {
    if let Some(prefix) = member.strip_suffix("/*") {
        let base = root.join(prefix);
        let mut out = Vec::new();
        if base.is_dir() {
            for entry in std::fs::read_dir(&base)? {
                let path = entry?.path();
                if path.is_dir() && path.join("Cargo.toml").is_file() {
                    out.push(path);
                }
            }
        }
        out.sort();
        Ok(out)
    } else {
        let p = root.join(member);
        Ok(if p.is_dir() { vec![p] } else { Vec::new() })
    }
}

/// The analyzer result: surviving findings plus stale allowlist entries.
pub struct Report {
    /// Findings not covered by the allowlist.
    pub findings: Vec<Finding>,
    /// Allowlist entries that matched nothing (stale; also fatal).
    pub stale_allows: Vec<policy::AllowEntry>,
    /// Findings that were suppressed by the allowlist or by
    /// `blocking_allowed_under` (for `-v`).
    pub allowed: Vec<Finding>,
}

impl Report {
    /// Did the analysis pass?
    pub fn clean(&self) -> bool {
        self.findings.is_empty() && self.stale_allows.is_empty()
    }
}

/// Read and scan every source in the interprocedural analysis scope,
/// keyed by workspace-relative path. Exposed for the integration tests
/// that assert the call graph rediscovers known cross-function facts.
pub fn scan_analysis_files(config: &Config) -> std::io::Result<Vec<(PathBuf, ScannedFile)>> {
    let mut files = Vec::new();
    for dir in &config.analysis_dirs {
        for path in rust_files(&config.root.join(dir))? {
            let scanned = lexer::scan(&std::fs::read_to_string(&path)?);
            files.push((rel(&config.root, &path), scanned));
        }
    }
    Ok(files)
}

/// Run every lint over the workspace under `config`, applying `policy`.
pub fn analyze(config: &Config, policy: &Policy) -> std::io::Result<Report> {
    let mut findings = Vec::new();

    // Panic-freedom over the dataplane.
    for dir in &config.panic_dirs {
        for path in rust_files(&config.root.join(dir))? {
            let scanned = lexer::scan(&std::fs::read_to_string(&path)?);
            findings.extend(lints::panics::check(&rel(&config.root, &path), &scanned));
        }
    }

    // Determinism over the simulated-time crates.
    for dir in &config.determinism_dirs {
        for path in rust_files(&config.root.join(dir))? {
            let scanned = lexer::scan(&std::fs::read_to_string(&path)?);
            findings.extend(lints::determinism::check(
                &rel(&config.root, &path),
                &scanned,
            ));
        }
    }

    // Write→sync→publish ordering in the crash-consistent persistence
    // files (the durable spill manifest and its neighbors).
    for rel_path in &policy.durability_files {
        let path = config.root.join(rel_path);
        if !path.is_file() {
            continue;
        }
        let scanned = lexer::scan(&std::fs::read_to_string(&path)?);
        findings.extend(lints::durability::check(
            &rel(&config.root, &path),
            &scanned,
        ));
    }

    // No prints on the instrumented dataplane.
    for dir in &config.print_dirs {
        for path in rust_files(&config.root.join(dir))? {
            let scanned = lexer::scan(&std::fs::read_to_string(&path)?);
            findings.extend(lints::print::check(&rel(&config.root, &path), &scanned));
        }
    }

    // The interprocedural pass: one scan feeds the call graph, the
    // lock-order judgment, blocking-under-lock, and guard balance.
    let files = scan_analysis_files(config)?;
    let analysis = callgraph::analyze(&files, &policy.primitive_files);
    findings.extend(lints::lockorder::check(&analysis.edges, policy));
    let (blocked, waived) = lints::blocking::split(&analysis, policy);
    findings.extend(blocked);
    findings.extend(lints::nonblocking::check(&analysis, policy));
    for (path, scanned) in &files {
        findings.extend(lints::guardbalance::check(path, scanned, policy));
    }

    // Hygiene: manifests…
    let root_manifest = config.root.join("Cargo.toml");
    findings.extend(lints::hygiene::check_root_manifest(
        &rel(&config.root, &root_manifest),
        &std::fs::read_to_string(&root_manifest)?,
    ));
    for manifest in lints::hygiene::member_manifests(&config.root) {
        findings.extend(lints::hygiene::check_manifest(
            &rel(&config.root, &manifest),
            &std::fs::read_to_string(&manifest)?,
        ));
    }
    // …and the unsafe fence over all workspace sources.
    for path in workspace_sources(&config.root)? {
        let relp = rel(&config.root, &path);
        let allowed = lints::hygiene::unsafe_allowed(&relp);
        if allowed {
            continue;
        }
        let masked = lexer::mask(&std::fs::read_to_string(&path)?);
        findings.extend(lints::hygiene::check_source(&relp, &masked, false));
    }

    let mut report = apply_allowlist(findings, policy);
    // Blocking findings waived by `blocking_allowed_under` are not
    // silent: they surface in the allowed set (`-v`).
    report.allowed.extend(waived);
    Ok(report)
}

/// Split findings into surviving / allowed, and collect stale entries.
pub fn apply_allowlist(findings: Vec<Finding>, policy: &Policy) -> Report {
    let mut used = vec![false; policy.allows.len()];
    let mut surviving = Vec::new();
    let mut allowed = Vec::new();
    for f in findings {
        let file = f.file.to_string_lossy().replace('\\', "/");
        let hit = policy.allows.iter().enumerate().find(|(_, a)| {
            a.lint == f.lint && file.ends_with(&a.file) && f.code.contains(&a.contains)
        });
        match hit {
            Some((i, _)) => {
                used[i] = true;
                allowed.push(f);
            }
            None => surviving.push(f),
        }
    }
    let stale_allows = policy
        .allows
        .iter()
        .zip(&used)
        .filter(|(_, &u)| !u)
        .map(|(a, _)| a.clone())
        .collect();
    Report {
        findings: surviving,
        stale_allows,
        allowed,
    }
}

/// All `.rs` files under `dir`, recursively, sorted.
pub fn rust_files(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    if !dir.exists() {
        return Ok(out);
    }
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d)? {
            let path = entry?.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Every workspace source the unsafe fence covers: `src/`, `tests/`,
/// `benches/`, `examples/` of the root and of each `crates/*` member.
/// The analyzer's own lint fixtures are excluded (they are bad on
/// purpose), as are `shims/` and `target/` (scanned never / exempt).
fn workspace_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut roots = vec![root.to_path_buf()];
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        roots.extend(entries.flatten().map(|e| e.path()).filter(|p| p.is_dir()));
    }
    for r in roots {
        for sub in ["src", "tests", "benches", "examples"] {
            for f in rust_files(&r.join(sub))? {
                // Exclusion is relative to the scan root so the
                // analyzer still works when pointed AT a fixture tree.
                let p = rel(root, &f).to_string_lossy().replace('\\', "/");
                if p.contains("fixtures/") {
                    continue;
                }
                out.push(f);
            }
        }
    }
    out.sort();
    Ok(out)
}

fn rel(root: &Path, path: &Path) -> PathBuf {
    path.strip_prefix(root).unwrap_or(path).to_path_buf()
}
