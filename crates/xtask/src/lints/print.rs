//! Print-statement lint for the instrumented dataplane crates.
//!
//! The dataplane reports through structured tracing (`jbs-obs`) and
//! typed stats, never ad-hoc stdout/stderr writes: stray prints corrupt
//! benchmark JSON piped from the benchmark binary, interleave garbage into
//! test harness output, and bypass the trace's ring-buffer bound. So in
//! `crates/transport`, `crates/net`, and `crates/core`, the print
//! macros (`println!`, `print!`, `eprintln!`, `eprint!`) and `dbg!` are
//! denied outside `#[cfg(test)]` — record an event on a
//! [`Trace`](../../../obs) or extend the stats snapshot instead.

use super::Finding;
use crate::lexer::ScannedFile;
use std::path::Path;

/// Macro invocations denied in dataplane code.
const DENIED: &[(&str, &str)] = &[
    (
        "println!",
        "use a `jbs_obs::Trace` event or a stats counter, not stdout",
    ),
    (
        "print!",
        "use a `jbs_obs::Trace` event or a stats counter, not stdout",
    ),
    (
        "eprintln!",
        "use a `jbs_obs::Trace` event or a typed error, not stderr",
    ),
    (
        "eprint!",
        "use a `jbs_obs::Trace` event or a typed error, not stderr",
    ),
    (
        "dbg!",
        "debug prints do not belong on the dataplane; trace it instead",
    ),
];

/// True when `line` invokes the macro `pat` (which ends in `!`) as its
/// own token — `print!` must not fire inside `println!`, nor `println!`
/// inside `eprintln!`, nor any of them inside identifiers.
fn invokes(line: &str, pat: &str) -> bool {
    let mut from = 0;
    while let Some(i) = line[from..].find(pat) {
        let at = from + i;
        let preceded = line[..at]
            .chars()
            .next_back()
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
        if !preceded {
            return true;
        }
        from = at + pat.len();
    }
    false
}

/// Run the print lint over one scanned file.
pub fn check(path: &Path, scanned: &ScannedFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    for line in &scanned.lines {
        if line.in_test {
            continue;
        }
        for (pat, why) in DENIED {
            if invokes(&line.code, pat) {
                findings.push(Finding {
                    lint: "print",
                    file: path.to_path_buf(),
                    line: line.number,
                    message: format!("`{pat}`: {why} — `{}`", line.raw.trim()),
                    code: line.code.clone(),
                    chain: Vec::new(),
                });
                // One finding per line: `println!` should not also
                // report as `print!` were the guard ever relaxed.
                break;
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

    #[test]
    fn flags_each_print_macro_once() {
        let src = "fn f() {\n    println!(\"x\");\n    eprintln!(\"y\");\n    print!(\"z\");\n    eprint!(\"w\");\n    dbg!(1);\n}\n";
        let f = check(&PathBuf::from("x.rs"), &scan(src));
        assert_eq!(f.len(), 5, "{f:?}");
        // `println!` reports as `println!`, not as `print!`.
        assert!(f[0].message.starts_with("`println!`"), "{}", f[0].message);
        assert!(f[1].message.starts_with("`eprintln!`"), "{}", f[1].message);
    }

    #[test]
    fn test_code_strings_and_identifiers_pass() {
        let src = concat!(
            "fn f() { let print_count = 1; my_println!(print_count); }\n",
            "fn g() { let s = \"println!(not code)\"; }\n",
            "#[cfg(test)]\nmod t { fn h() { println!(\"fine in tests\"); } }\n"
        );
        let f = check(&PathBuf::from("x.rs"), &scan(src));
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn macro_token_detection_is_positional() {
        assert!(invokes("println!(\"a\")", "println!"));
        assert!(!invokes("println!(\"a\")", "print!"));
        assert!(!invokes("eprintln!(\"a\")", "println!"));
        assert!(invokes("eprintln!(\"a\")", "eprintln!"));
        assert!(!invokes("debug!(x)", "dbg!"));
        assert!(invokes("foo(); dbg!(x)", "dbg!"));
    }
}
