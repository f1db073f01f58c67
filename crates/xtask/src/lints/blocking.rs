//! Blocking-under-lock lint.
//!
//! The paper's dataplane wins by never blocking inside a critical
//! section: a file read, socket write, `thread::sleep`, or condvar
//! wait under a mutex turns every other thread contending on that
//! mutex into a convoy — exactly what the upcoming nonblocking event
//! loop (ROADMAP item 1) cannot tolerate on its hot path.
//!
//! The heavy lifting happens in [`crate::callgraph`]: every blocking
//! primitive (file/socket I/O, `sleep`, `recv`, `Condvar::wait`) is
//! recorded with the locks that may be held at that site, *including
//! locks held by callers arbitrarily far up the call graph*. A
//! `drain_to_remote`-style wrapper is reached transitively — the lint
//! needs no pattern for it, only for the primitives it bottoms out in.
//!
//! Policy hooks:
//!
//! * `[policy] blocking_allowed_under = ["conn", …]` — locks whose
//!   entire purpose is to serialize blocking work (the per-connection
//!   `conn` lock exists precisely to serialize that connection's
//!   socket I/O; flagging it would be noise). Findings whose *every*
//!   held lock is in this list are suppressed into the allowed set,
//!   still visible with `-v`.
//! * `[policy] primitive_files` — the sync-helper layer itself
//!   (`lock`/`wait` wrappers), excluded from the scan in `callgraph`.
//! * `[[allow]]` entries with `lint = "blocking"` for individual
//!   audited sites.

use super::Finding;
use crate::callgraph::Analysis;
use crate::policy::Policy;

/// Judge the analysis' blocking sites against the policy; the second
/// vector holds sites waived because every held lock is listed in
/// `blocking_allowed_under` (surfaced as allowed, never silent).
pub fn split(analysis: &Analysis, policy: &Policy) -> (Vec<Finding>, Vec<Finding>) {
    let mut findings = Vec::new();
    let mut waived = Vec::new();
    for site in &analysis.blocking {
        let flagged: Vec<&(String, Vec<String>)> = site
            .held
            .iter()
            .filter(|(lock, _)| !policy.blocking_allowed_under.contains(lock))
            .collect();
        let all_waived = flagged.is_empty();
        let report: Vec<&(String, Vec<String>)> = if all_waived {
            site.held.iter().collect()
        } else {
            flagged
        };
        let locks: Vec<String> = report.iter().map(|(l, _)| format!("`{l}`")).collect();
        let chain = report
            .iter()
            .map(|(_, c)| c)
            .find(|c| !c.is_empty())
            .cloned()
            .unwrap_or_default();
        let finding = Finding {
            lint: "blocking",
            file: site.file.clone(),
            line: site.line,
            message: format!(
                "{} in `{}` while holding {}{}",
                site.what,
                site.in_fn,
                locks.join(", "),
                if all_waived {
                    " (waived: listed in `blocking_allowed_under`)"
                } else {
                    " — blocking under a lock convoys every contender"
                },
            ),
            code: site.code.clone(),
            chain,
        };
        if all_waived {
            waived.push(finding);
        } else {
            findings.push(finding);
        }
    }
    (findings, waived)
}

/// The fatal findings only (test/CLI convenience).
pub fn check(analysis: &Analysis, policy: &Policy) -> Vec<Finding> {
    split(analysis, policy).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph;
    use crate::lexer::scan;
    use std::path::PathBuf;

    fn run(src: &str, allowed_under: &[&str]) -> Vec<Finding> {
        let files = vec![(PathBuf::from("x.rs"), scan(src))];
        let analysis = callgraph::analyze(&files, &[]);
        let policy = Policy {
            blocking_allowed_under: allowed_under.iter().map(|s| s.to_string()).collect(),
            ..Policy::default()
        };
        check(&analysis, &policy)
    }

    #[test]
    fn sleep_under_lock_is_flagged() {
        let src = "fn f(&self) { let g = lock(&self.inner); thread::sleep(d); }";
        let f = run(src, &[]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("thread sleep"), "{}", f[0].message);
    }

    #[test]
    fn sleep_after_drop_is_clean() {
        let src = "fn f(&self) { let g = lock(&self.inner); drop(g); thread::sleep(d); }";
        assert!(run(src, &[]).is_empty());
    }

    #[test]
    fn io_with_no_lock_is_clean() {
        let src = "fn f(&self) { self.file.write_all(b\"x\"); fs::read(p); }";
        assert!(run(src, &[]).is_empty());
    }

    #[test]
    fn allowed_under_suppresses_only_listed_locks() {
        let src = "fn f(&self) { let g = lock(&self.conn); w.write_all(b\"x\"); }";
        assert!(run(src, &["conn"]).is_empty());
        let src2 = "fn f(&self) { let g = lock(&self.conn); let s = lock(&self.stats); w.write_all(b\"x\"); }";
        let f = run(src2, &["conn"]);
        assert_eq!(f.len(), 1, "unlisted `stats` still flags: {f:?}");
        assert!(f[0].message.contains("`stats`"));
        assert!(!f[0].message.contains("`conn`"));
    }

    #[test]
    fn guard_local_named_like_its_field_is_not_typed_as_the_field() {
        // The guard `store` shares its name with the `Mutex` field it
        // came from; typing it as that std field would resolve the call
        // to nothing and hide the file read under the lock. (The method
        // is not called `read`: name matching skips std method names.)
        let src = r#"
struct Server { store: Mutex<Store> }
impl Server {
    fn serve(&self) { let store = lock(&self.store); store.read_segment(); }
}
impl Store {
    fn read_segment(&self) { fs::read(p); }
}
"#;
        let f = run(src, &[]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("`store`"), "{}", f[0].message);
    }

    #[test]
    fn transitive_blocking_carries_chain() {
        let src = r#"
impl S {
    fn top(&self) { let g = lock(&self.store); self.drain_to_remote(); }
    fn drain_to_remote(&self) { fs::write(p, data); }
}
"#;
        let f = run(src, &[]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(
            f[0].chain.iter().any(|fr| fr.contains("S::top")),
            "chain names the lock holder: {:?}",
            f[0].chain
        );
    }
}
