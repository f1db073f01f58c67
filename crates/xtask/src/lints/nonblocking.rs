//! Nonblocking-context lint.
//!
//! The event-driven supplier (DESIGN.md §14) multiplexes its listener
//! and every connection onto one poll thread. A single blocking call
//! anywhere in that thread's reach — a file read, a socket
//! `write_all`, a `sleep`, a channel `recv`, a condvar wait — stalls
//! *every* connection of the supplier, not just the one being served. So files declared `nonblocking_context` in the policy get a
//! stricter rule than blocking-under-lock: functions defined there may
//! not reach a blocking primitive at all, locks held or not. Disk work
//! must leave through the prefetch queue to the permit-bounded worker
//! pool; socket I/O must go through the nonblocking `read`/`write`
//! forms that return `WouldBlock` instead of parking.
//!
//! The reachability (with witness call chains) comes from
//! [`crate::callgraph`], which propagates each function's blocking
//! primitives up the call graph to a fixpoint — a wrapper three calls
//! deep is flagged at the reactor entry point with the chain that gets
//! there. Closures handed to `spawn` run on their own thread and are
//! not charged to the spawning context.
//!
//! Policy hooks:
//!
//! * `[policy] nonblocking_context = ["crates/…/reactor.rs", …]` —
//!   path suffixes of the event-loop files. Empty list = lint off.
//! * `[[allow]]` entries with `lint = "nonblocking"` for audited
//!   sites (e.g. an `accept` on a listener already set nonblocking).

use super::Finding;
use crate::callgraph::Analysis;
use crate::policy::Policy;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Flag every blocking primitive reachable from a function defined in
/// a `nonblocking_context` file. One finding per blocking site: when
/// several context functions reach the same site, the shortest witness
/// chain is reported.
pub fn check(analysis: &Analysis, policy: &Policy) -> Vec<Finding> {
    if policy.nonblocking_context.is_empty() {
        return Vec::new();
    }
    let mut best: BTreeMap<(PathBuf, usize, String), Finding> = BTreeMap::new();
    for r in &analysis.reachable_blocking {
        let from = r.from_file.to_string_lossy().replace('\\', "/");
        if !policy
            .nonblocking_context
            .iter()
            .any(|f| from.ends_with(f.as_str()))
        {
            continue;
        }
        let key = (r.file.clone(), r.line, r.code.clone());
        if let Some(f) = best.get(&key) {
            if f.chain.len() <= r.chain.len() {
                continue;
            }
        }
        best.insert(
            key,
            Finding {
                lint: "nonblocking",
                file: r.file.clone(),
                line: r.line,
                message: format!(
                    "{} reachable from `{}` ({}) — a nonblocking context; one \
                     blocked call stalls every connection on the reactor",
                    r.what,
                    r.from_fn,
                    r.from_file.display(),
                ),
                code: r.code.clone(),
                chain: r.chain.clone(),
            },
        );
    }
    best.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph;
    use crate::lexer::scan;
    use std::path::PathBuf;

    fn run(named: &[(&str, &str)], context: &[&str]) -> Vec<Finding> {
        let files: Vec<(PathBuf, _)> = named
            .iter()
            .map(|(path, src)| (PathBuf::from(path), scan(src)))
            .collect();
        let analysis = callgraph::analyze(&files, &[]);
        let policy = Policy {
            nonblocking_context: context.iter().map(|s| s.to_string()).collect(),
            ..Policy::default()
        };
        check(&analysis, &policy)
    }

    #[test]
    fn direct_blocking_in_context_is_flagged_without_any_lock() {
        let src = "fn poll_one(&self) { self.sock.write_all(b\"x\"); }";
        let f = run(&[("reactor.rs", src)], &["reactor.rs"]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("stream write"), "{}", f[0].message);
        assert!(f[0].chain.is_empty(), "local site carries no chain");
    }

    #[test]
    fn no_context_files_means_lint_off() {
        let src = "fn poll_one(&self) { self.sock.write_all(b\"x\"); }";
        assert!(run(&[("reactor.rs", src)], &[]).is_empty());
    }

    #[test]
    fn blocking_outside_context_is_not_flagged() {
        let files = [
            ("reactor.rs", "fn poll_one(&self) { self.tally(); }"),
            ("server.rs", "fn stage(&self) { fs::read(p); }"),
        ];
        assert!(run(&files, &["reactor.rs"]).is_empty());
    }

    #[test]
    fn transitive_blocking_is_charged_to_the_context_with_a_chain() {
        let files = [
            (
                "reactor.rs",
                "impl R { fn poll_one(&self) { self.drain(); } }",
            ),
            (
                "server.rs",
                "impl R { fn drain(&self) { self.out.flush(); } }",
            ),
        ];
        let f = run(&files, &["reactor.rs"]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("stream flush"), "{}", f[0].message);
        assert_eq!(
            f[0].file,
            PathBuf::from("server.rs"),
            "finding anchors at the blocking site itself"
        );
        assert!(
            f[0].chain.iter().any(|fr| fr.contains("R::poll_one")),
            "chain names the reactor entry: {:?}",
            f[0].chain
        );
    }

    #[test]
    fn condvar_wait_counts_even_though_the_guard_is_waived() {
        let src = "fn park(&self) { let g = lock(&self.q); let g = wait(&self.cv, g); }";
        let f = run(&[("reactor.rs", src)], &["reactor.rs"]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("condvar wait"), "{}", f[0].message);
    }

    #[test]
    fn spawned_closures_block_their_own_thread_not_the_reactor() {
        let src = "fn start(&self) { thread::spawn(move || { fs::read(p); }); }";
        assert!(run(&[("reactor.rs", src)], &["reactor.rs"]).is_empty());
    }

    #[test]
    fn one_finding_per_site_with_the_shortest_chain() {
        let files = [
            (
                "reactor.rs",
                "impl R { fn a(&self) { self.b(); } fn b(&self) { self.c(); } }",
            ),
            ("server.rs", "impl R { fn c(&self) { self.f.sync_all(); } }"),
        ];
        let f = run(&files, &["reactor.rs"]);
        assert_eq!(f.len(), 1, "deduped to one finding per site: {f:?}");
        assert_eq!(
            f[0].chain.len(),
            1,
            "shortest witness wins: {:?}",
            f[0].chain
        );
    }
}
