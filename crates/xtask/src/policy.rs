//! The analyzer policy file (`crates/xtask/allow.toml`).
//!
//! Two things live here: the **documented lock order** the lock-order
//! lint enforces, and the **audited allowlist** — every panic-capable
//! call site that survives in a dataplane crate must carry a written
//! justification, or `cargo xtask analyze` fails.
//!
//! The file is a small TOML subset parsed by hand (the workspace builds
//! offline, so no `toml` crate): `[policy]` with string-array values,
//! and `[[allow]]` tables of `key = "string"` pairs. Stale allowlist
//! entries (matching no finding) are themselves reported, so the list
//! can only shrink as call sites are fixed.

use std::fmt;
use std::path::Path;

/// One audited exemption.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Lint family the exemption applies to (`panic`, `determinism`, …).
    pub lint: String,
    /// Path suffix of the file the call site lives in.
    pub file: String,
    /// Substring of the masked source line to match.
    pub contains: String,
    /// The written justification. Required.
    pub reason: String,
    /// Line in allow.toml (for stale-entry reports).
    pub defined_at: usize,
}

/// Parsed policy: documented lock order, lint-scope opt-outs, and the
/// allowlist.
#[derive(Debug, Default)]
pub struct Policy {
    /// Lock names in their global acquisition order.
    pub lock_order: Vec<String>,
    /// Crate names (directory names under `crates/`) opted out of the
    /// panic-freedom lint.
    pub panic_exempt: Vec<String>,
    /// Crate names opted out of the print lint.
    pub print_exempt: Vec<String>,
    /// Crate names opted out of the interprocedural analysis
    /// (lock-order, blocking, guard-balance).
    pub analysis_exempt: Vec<String>,
    /// Directories (relative to the workspace root) under the
    /// determinism lint (simulated-time code).
    pub determinism_dirs: Vec<String>,
    /// Path suffixes of the sync-primitive layer (the `lock`/`wait`
    /// helpers): exempt from blocking and guard-smuggling checks.
    pub primitive_files: Vec<String>,
    /// Locks that exist to serialize blocking work; blocking findings
    /// where every held lock is listed here are suppressed (visible
    /// with `-v`).
    pub blocking_allowed_under: Vec<String>,
    /// Path suffixes of event-loop files whose functions must not
    /// reach any blocking primitive at all, locks held or not (the
    /// nonblocking-context lint). Empty = lint off.
    pub nonblocking_context: Vec<String>,
    /// Workspace-relative paths of crash-consistent persistence files
    /// under the durability lint (write→sync→publish ordering). Empty =
    /// lint off.
    pub durability_files: Vec<String>,
    /// Audited exemptions.
    pub allows: Vec<AllowEntry>,
}

/// A policy-file syntax problem.
#[derive(Debug)]
pub struct PolicyError {
    /// 1-based line the problem was found on.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "allow.toml:{}: {}", self.line, self.message)
    }
}

impl Policy {
    /// Load and parse the policy file.
    pub fn load(path: &Path) -> Result<Policy, PolicyError> {
        let text = std::fs::read_to_string(path).map_err(|e| PolicyError {
            line: 0,
            message: format!("cannot read {}: {e}", path.display()),
        })?;
        Self::parse(&text)
    }

    /// Parse policy text.
    pub fn parse(text: &str) -> Result<Policy, PolicyError> {
        #[derive(PartialEq)]
        enum Section {
            None,
            Policy,
            Allow,
        }
        let mut policy = Policy::default();
        let mut section = Section::None;
        let mut current: Option<AllowEntry> = None;
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if line == "[[allow]]" {
                if let Some(e) = current.take() {
                    policy.allows.push(finish_entry(e)?);
                }
                current = Some(AllowEntry {
                    lint: String::new(),
                    file: String::new(),
                    contains: String::new(),
                    reason: String::new(),
                    defined_at: lineno,
                });
                section = Section::Allow;
                continue;
            }
            if line == "[policy]" {
                if let Some(e) = current.take() {
                    policy.allows.push(finish_entry(e)?);
                }
                section = Section::Policy;
                continue;
            }
            if line.starts_with('[') {
                return Err(PolicyError {
                    line: lineno,
                    message: format!("unknown section {line}"),
                });
            }
            let (key, value) = split_kv(&line, lineno)?;
            match section {
                Section::Policy => {
                    let slot = match key {
                        "lock_order" => &mut policy.lock_order,
                        "panic_exempt" => &mut policy.panic_exempt,
                        "print_exempt" => &mut policy.print_exempt,
                        "analysis_exempt" => &mut policy.analysis_exempt,
                        "determinism_dirs" => &mut policy.determinism_dirs,
                        "primitive_files" => &mut policy.primitive_files,
                        "blocking_allowed_under" => &mut policy.blocking_allowed_under,
                        "nonblocking_context" => &mut policy.nonblocking_context,
                        "durability_files" => &mut policy.durability_files,
                        _ => {
                            return Err(PolicyError {
                                line: lineno,
                                message: format!("unknown policy key `{key}`"),
                            });
                        }
                    };
                    *slot = parse_string_array(value, lineno)?;
                }
                Section::Allow => {
                    let entry = current.as_mut().ok_or(PolicyError {
                        line: lineno,
                        message: "key outside [[allow]] table".into(),
                    })?;
                    let s = parse_string(value, lineno)?;
                    match key {
                        "lint" => entry.lint = s,
                        "file" => entry.file = s,
                        "contains" => entry.contains = s,
                        "reason" => entry.reason = s,
                        other => {
                            return Err(PolicyError {
                                line: lineno,
                                message: format!("unknown allow key `{other}`"),
                            })
                        }
                    }
                }
                Section::None => {
                    return Err(PolicyError {
                        line: lineno,
                        message: "key before any section header".into(),
                    })
                }
            }
        }
        if let Some(e) = current.take() {
            policy.allows.push(finish_entry(e)?);
        }
        Ok(policy)
    }

    /// Index of `name` in the documented lock order, if listed.
    pub fn lock_rank(&self, name: &str) -> Option<usize> {
        self.lock_order.iter().position(|n| n == name)
    }
}

fn finish_entry(e: AllowEntry) -> Result<AllowEntry, PolicyError> {
    for (field, value) in [
        ("lint", &e.lint),
        ("file", &e.file),
        ("contains", &e.contains),
        ("reason", &e.reason),
    ] {
        if value.is_empty() {
            return Err(PolicyError {
                line: e.defined_at,
                message: format!(
                    "[[allow]] entry is missing `{field}` (a justification is mandatory)"
                ),
            });
        }
    }
    Ok(e)
}

fn strip_comment(line: &str) -> &str {
    // A `#` outside quotes starts a comment.
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn split_kv(line: &str, lineno: usize) -> Result<(&str, &str), PolicyError> {
    let Some(eq) = line.find('=') else {
        return Err(PolicyError {
            line: lineno,
            message: format!("expected `key = value`, got `{line}`"),
        });
    };
    Ok((line[..eq].trim(), line[eq + 1..].trim()))
}

fn parse_string(value: &str, lineno: usize) -> Result<String, PolicyError> {
    let v = value.trim();
    if v.len() >= 2 && v.starts_with('"') && v.ends_with('"') {
        Ok(v[1..v.len() - 1].to_string())
    } else {
        Err(PolicyError {
            line: lineno,
            message: format!("expected a quoted string, got `{value}`"),
        })
    }
}

fn parse_string_array(value: &str, lineno: usize) -> Result<Vec<String>, PolicyError> {
    let v = value.trim();
    if !v.starts_with('[') || !v.ends_with(']') {
        return Err(PolicyError {
            line: lineno,
            message: format!("expected an array of strings, got `{value}`"),
        });
    }
    let inner = &v[1..v.len() - 1];
    let mut out = Vec::new();
    for part in inner.split(',') {
        let p = part.trim();
        if p.is_empty() {
            continue;
        }
        out.push(parse_string(p, lineno)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_policy_and_allows() {
        let text = r#"
# comment
[policy]
lock_order = ["conns", "conn", "stats"]

[[allow]]
lint = "panic"
file = "crates/transport/src/client.rs"
contains = "expect(\"supplier not dropped\")"  # trailing comment won't break: no hash in string... kept simple
reason = "addr() is only callable while the supplier is alive"
"#;
        // Note: strip_comment tracks quotes, so the escaped-quote line above
        // parses as long as the `#` sits outside an open string.
        let p = Policy::parse(text).unwrap();
        assert_eq!(p.lock_order, ["conns", "conn", "stats"]);
        assert_eq!(p.allows.len(), 1);
        assert_eq!(p.allows[0].lint, "panic");
        assert_eq!(p.lock_rank("conn"), Some(1));
        assert_eq!(p.lock_rank("nope"), None);
    }

    #[test]
    fn missing_reason_is_an_error() {
        let text = "[[allow]]\nlint = \"panic\"\nfile = \"f.rs\"\ncontains = \"x\"\n";
        let err = Policy::parse(text).unwrap_err();
        assert!(err.message.contains("reason"), "{err}");
    }

    #[test]
    fn rejects_unquoted_values() {
        let err = Policy::parse("[[allow]]\nlint = panic\n").unwrap_err();
        assert!(err.message.contains("quoted"), "{err}");
    }
}
