//! Durability-ordering lint for crash-consistent persistence code.
//!
//! The files listed in `[policy] durability_files` (the hybrid store's
//! manifest/spill/remote modules) implement write→sync→publish
//! protocols: bytes must reach the platter (`sync_all`/`sync_data`)
//! before the operation that makes them *visible* (a publishing
//! `rename`, or returning success to a committer). Three rules, each
//! checked per function over the masked source:
//!
//! 1. **publish-before-sync** — a function containing a `rename(` must
//!    have a sync witness (`sync_all(`, `sync_data(`, `.sync()`)
//!    textually before it; a rename with no preceding sync publishes
//!    bytes the crash can still tear.
//! 2. **bare `fs::write`** — the one-shot helper gives no handle to
//!    sync, so in a durability file it is always a finding.
//! 3. **unsynced durable write** — a function that writes
//!    (`write_all(`/`write_bytes(`) but contains no sync witness and no
//!    rename has no durability story of its own; either sync in place
//!    or carry an audited `allow.toml` waiver naming where the deferred
//!    sync happens.
//!
//! The rules are deliberately textual (same trade as the panic lint):
//! they over-approximate, and the waiver list is where the audited
//! exceptions live — e.g. an append path whose sync is deferred by a
//! batching interval.

use super::Finding;
use crate::lexer::ScannedFile;
use std::path::Path;

/// Calls that count as a durability barrier.
const SYNC_WITNESS: &[&str] = &["sync_all(", "sync_data(", ".sync()"];

/// Calls that put durable-intent bytes on the way to disk.
const DURABLE_WRITE: &[&str] = &["write_all(", "write_bytes("];

/// One function's masked lines, as the splitter recovers them.
struct Func {
    name: String,
    /// 1-based line of the `fn` keyword.
    start: usize,
    /// Indices into `ScannedFile::lines` covering the body.
    lines: Vec<usize>,
}

/// Recover top-level and impl-level function extents by brace depth.
/// Closures and nested blocks stay inside their enclosing function.
fn functions(scanned: &ScannedFile) -> Vec<Func> {
    let mut out = Vec::new();
    let mut depth: i64 = 0;
    let mut current: Option<(Func, i64, bool)> = None;
    for (idx, line) in scanned.lines.iter().enumerate() {
        if current.is_none() && !line.in_test {
            if let Some(name) = fn_name(&line.code) {
                current = Some((
                    Func {
                        name,
                        start: line.number,
                        lines: Vec::new(),
                    },
                    depth,
                    false,
                ));
            }
        }
        let mut line_depth = depth;
        for c in line.code.chars() {
            match c {
                '{' => line_depth += 1,
                '}' => line_depth -= 1,
                _ => {}
            }
        }
        depth = line_depth;
        if let Some((func, open_depth, entered)) = current.as_mut() {
            func.lines.push(idx);
            *entered = *entered || depth > *open_depth;
            if *entered && depth <= *open_depth {
                if let Some((func, _, _)) = current.take() {
                    out.push(func);
                }
            }
        }
    }
    out
}

/// The identifier after `fn ` on a masked line, if this line starts a
/// function item (not a mention inside an expression).
fn fn_name(code: &str) -> Option<String> {
    let at = code.find("fn ")?;
    // Require item position: start of line or preceded by a visibility
    // or qualifier keyword, never by `.`/`(` (a method argument).
    let before = code.get(..at)?.trim();
    if !(before.is_empty()
        || before.ends_with("pub")
        || before.ends_with(')')
        || before.ends_with("const")
        || before.ends_with("unsafe"))
    {
        return None;
    }
    let rest = code.get(at + 3..)?;
    let name: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    (!name.is_empty()).then_some(name)
}

fn has_any(code: &str, pats: &[&str]) -> bool {
    pats.iter().any(|p| code.contains(p))
}

/// Run the durability lint over one scanned file.
pub fn check(path: &Path, scanned: &ScannedFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    for func in functions(scanned) {
        let frame = format!("{} ({}:{})", func.name, path.display(), func.start);
        let body = || func.lines.iter().filter_map(|&i| scanned.lines.get(i));
        let has_sync = body().any(|l| !l.in_test && has_any(&l.code, SYNC_WITNESS));
        let has_rename = body().any(|l| !l.in_test && l.code.contains("rename("));
        let mut seen_sync = false;
        let mut flagged_unsynced = false;
        for line in body() {
            // Signature lines mention the function's own name, not a
            // call (`fn write_bytes(` is not a write).
            if line.in_test || fn_name(&line.code).is_some() {
                continue;
            }
            seen_sync = seen_sync || has_any(&line.code, SYNC_WITNESS);
            if line.code.contains("fs::write(") {
                findings.push(Finding {
                    lint: "durability",
                    file: path.to_path_buf(),
                    line: line.number,
                    message: format!(
                        "bare `fs::write` in `{}` leaves no handle to sync — open, \
                         write, sync, then publish — `{}`",
                        func.name,
                        line.raw.trim()
                    ),
                    code: line.code.clone(),
                    chain: vec![frame.clone()],
                });
            }
            if line.code.contains("rename(") && !seen_sync {
                findings.push(Finding {
                    lint: "durability",
                    file: path.to_path_buf(),
                    line: line.number,
                    message: format!(
                        "publishing `rename` in `{}` with no sync before it — a crash \
                         can tear the bytes the rename just made visible — `{}`",
                        func.name,
                        line.raw.trim()
                    ),
                    code: line.code.clone(),
                    chain: vec![frame.clone()],
                });
            }
            if !flagged_unsynced && !has_sync && !has_rename && has_any(&line.code, DURABLE_WRITE) {
                flagged_unsynced = true;
                findings.push(Finding {
                    lint: "durability",
                    file: path.to_path_buf(),
                    line: line.number,
                    message: format!(
                        "durable-intent write in `{}` with no sync anywhere in the \
                         function — sync before publish, or waive with a justification \
                         naming the deferred barrier — `{}`",
                        func.name,
                        line.raw.trim()
                    ),
                    code: line.code.clone(),
                    chain: vec![frame.clone()],
                });
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;
    use std::path::PathBuf;

    fn run(src: &str) -> Vec<Finding> {
        check(&PathBuf::from("crates/x/src/d.rs"), &scan(src))
    }

    #[test]
    fn unsynced_rename_and_bare_fs_write_fire() {
        let src = "fn publish(d: &Path) -> io::Result<()> {\n\
                   let mut f = fs::File::create(d.join(\"t\"))?;\n\
                   f.write_all(b\"x\")?;\n\
                   fs::rename(d.join(\"t\"), d.join(\"o\"))\n\
                   }\n\
                   fn snap(d: &Path) -> io::Result<()> {\n\
                   fs::write(d.join(\"s\"), b\"x\")\n\
                   }\n";
        let f = run(src);
        assert_eq!(f.iter().filter(|f| f.message.contains("rename")).count(), 1);
        assert_eq!(
            f.iter().filter(|f| f.message.contains("fs::write")).count(),
            1
        );
        assert!(f.iter().all(|f| f.lint == "durability"));
        assert!(f[0].chain[0].contains("publish"), "witness chain: {f:?}");
    }

    #[test]
    fn synced_publish_and_deferred_append_shape() {
        let src = "fn publish(d: &Path) -> io::Result<()> {\n\
                   let mut f = fs::File::create(d.join(\"t\"))?;\n\
                   f.write_all(b\"x\")?;\n\
                   f.sync_all()?;\n\
                   fs::rename(d.join(\"t\"), d.join(\"o\"))\n\
                   }\n\
                   fn append(f: &mut fs::File) -> io::Result<()> {\n\
                   f.write_all(b\"rec\")\n\
                   }\n";
        let f = run(src);
        // publish is clean; the sync-free append is the one finding
        // (the shape an audited waiver documents).
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("no sync anywhere"));
        assert!(f[0].chain[0].contains("append"));
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n#[test]\nfn t() {\n\
                   fs::write(p, b\"x\").unwrap();\n}\n}\n";
        assert!(run(src).is_empty());
    }
}
