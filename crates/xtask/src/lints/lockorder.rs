//! Lock-order lint: the documented-order and deadlock-cycle checks
//! over the interprocedural acquisition graph.
//!
//! All mutex acquisition in the dataplane goes through the shared
//! poison-tolerant helper `sync::lock(&…)`, which gives the analysis a
//! reliable syntactic anchor: every `lock(&path)` call is an
//! acquisition of the lock named by `path`'s last segment
//! (`self.peers` → `peers`, `self.shared.stats` → `stats`).
//!
//! Edge extraction lives in [`crate::callgraph`]: local guard lifetimes
//! are simulated per function (let-bound = block-scoped, temporary =
//! statement-scoped, `drop`/moves/`wait` modeled), and held sets
//! propagate caller → callee to a fixpoint, so an edge like "a callback
//! locks `stats` while the wrapper invoking it holds `conn`" is found
//! without policy hints and reported with its full call chain.
//!
//! This module judges the resulting edges:
//!
//! 1. **cycles** in the graph across the whole workspace — the classic
//!    ABBA deadlock (a self-edge `A → A` is a guaranteed deadlock with
//!    `std::sync::Mutex` and is reported as a cycle);
//! 2. **order violations**: every edge must go strictly forward in the
//!    documented order (`[policy] lock_order` in `allow.toml`), and
//!    every lock name must appear in that order — so the documentation
//!    cannot silently rot.

use super::Finding;
use crate::callgraph::Edge;
use crate::policy::Policy;
use std::collections::{BTreeMap, BTreeSet};

/// Check all edges for cycles and documented-order violations.
pub fn check(all_edges: &[Edge], policy: &Policy) -> Vec<Finding> {
    let mut findings = Vec::new();

    // Order violations + undocumented locks.
    let mut names: BTreeSet<&str> = BTreeSet::new();
    for e in all_edges {
        names.insert(&e.held);
        names.insert(&e.acquired);
        match (policy.lock_rank(&e.held), policy.lock_rank(&e.acquired)) {
            (Some(a), Some(b)) if a >= b => findings.push(Finding {
                lint: "lock-order",
                file: e.file.clone(),
                line: e.line,
                message: format!(
                    "acquires `{}` while holding `{}`, contrary to the documented order {:?}",
                    e.acquired, e.held, policy.lock_order
                ),
                code: String::new(),
                chain: e.chain.clone(),
            }),
            _ => {}
        }
    }
    for n in names {
        if policy.lock_rank(n).is_none() {
            let witness = all_edges.iter().find(|e| e.held == n || e.acquired == n);
            let (file, line, chain) = witness
                .map(|e| (e.file.clone(), e.line, e.chain.clone()))
                .unwrap_or_default();
            findings.push(Finding {
                lint: "lock-order",
                file,
                line,
                message: format!(
                    "lock `{n}` participates in nesting but is not in `[policy] lock_order`; document it"
                ),
                code: String::new(),
                chain,
            });
        }
    }

    // Cycle detection over the name graph (includes self-edges).
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in all_edges {
        adj.entry(&e.held).or_default().insert(&e.acquired);
    }
    if let Some(cycle) = find_cycle(&adj) {
        let witness = all_edges
            .iter()
            .find(|e| cycle.contains(&e.held) && cycle.contains(&e.acquired))
            .cloned();
        let (file, line, chain) = witness
            .map(|e| (e.file, e.line, e.chain))
            .unwrap_or_default();
        findings.push(Finding {
            lint: "lock-order",
            file,
            line,
            message: format!(
                "lock-acquisition cycle (potential deadlock): {}",
                cycle.join(" -> ")
            ),
            code: String::new(),
            chain,
        });
    }
    findings
}

fn find_cycle(adj: &BTreeMap<&str, BTreeSet<&str>>) -> Option<Vec<String>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Grey,
        Black,
    }
    fn dfs<'a>(
        node: &'a str,
        adj: &BTreeMap<&'a str, BTreeSet<&'a str>>,
        marks: &mut BTreeMap<&'a str, Mark>,
        stack: &mut Vec<&'a str>,
    ) -> Option<Vec<String>> {
        marks.insert(node, Mark::Grey);
        stack.push(node);
        for &next in adj.get(node).into_iter().flatten() {
            match marks.get(next).copied().unwrap_or(Mark::White) {
                Mark::Grey => {
                    let pos = stack.iter().position(|&n| n == next).unwrap_or(0);
                    let mut cycle: Vec<String> = stack
                        .get(pos..)
                        .unwrap_or(&[])
                        .iter()
                        .map(|s| s.to_string())
                        .collect();
                    cycle.push(next.to_string());
                    return Some(cycle);
                }
                Mark::White => {
                    if let Some(c) = dfs(next, adj, marks, stack) {
                        return Some(c);
                    }
                }
                Mark::Black => {}
            }
        }
        stack.pop();
        marks.insert(node, Mark::Black);
        None
    }
    let mut marks = BTreeMap::new();
    for &node in adj.keys() {
        if marks.get(node).copied().unwrap_or(Mark::White) == Mark::White {
            if let Some(c) = dfs(node, adj, &mut marks, &mut Vec::new()) {
                return Some(c);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph;
    use crate::lexer::scan;
    use std::path::PathBuf;

    fn edges_of(src: &str) -> Vec<Edge> {
        let files = vec![(PathBuf::from("x.rs"), scan(src))];
        callgraph::analyze(&files, &[]).edges
    }

    fn policy(order: &[&str]) -> Policy {
        Policy {
            lock_order: order.iter().map(|s| s.to_string()).collect(),
            ..Policy::default()
        }
    }

    #[test]
    fn abba_is_a_cycle() {
        let a = edges_of("fn f(&self) { let a = lock(&self.alpha); let b = lock(&self.beta); }");
        let b = edges_of("fn g(&self) { let b = lock(&self.beta); let a = lock(&self.alpha); }");
        let all: Vec<Edge> = a.into_iter().chain(b).collect();
        let f = check(&all, &policy(&["alpha", "beta"]));
        assert!(f.iter().any(|f| f.message.contains("cycle")), "{f:?}");
    }

    #[test]
    fn self_edge_is_a_cycle() {
        let e = edges_of("fn f(&self) { let a = lock(&self.alpha); let b = lock(&self.alpha); }");
        let f = check(&e, &policy(&["alpha"]));
        assert!(f.iter().any(|f| f.message.contains("cycle")), "{f:?}");
    }

    #[test]
    fn cross_function_abba_is_a_cycle() {
        // Each function is clean in isolation; the inversion only
        // exists through the call.
        let src = r#"
impl S {
    fn forward(&self) {
        let a = lock(&self.alpha);
        self.take_beta();
    }
    fn take_beta(&self) {
        lock(&self.beta).touch();
    }
    fn backward(&self) {
        let b = lock(&self.beta);
        self.take_alpha();
    }
    fn take_alpha(&self) {
        lock(&self.alpha).touch();
    }
}
"#;
        let e = edges_of(src);
        let f = check(&e, &policy(&["alpha", "beta"]));
        let cycle = f
            .iter()
            .find(|f| f.message.contains("cycle"))
            .expect("cycle");
        assert!(
            !cycle.chain.is_empty(),
            "cycle finding carries the call chain: {cycle:?}"
        );
    }

    #[test]
    fn order_violation_without_cycle_is_reported() {
        let e = edges_of("fn f(&self) { let b = lock(&self.beta); let a = lock(&self.alpha); }");
        let f = check(&e, &policy(&["alpha", "beta"]));
        assert!(
            f.iter()
                .any(|f| f.message.contains("contrary to the documented order")),
            "{f:?}"
        );
    }

    #[test]
    fn undocumented_lock_is_reported() {
        let e = edges_of("fn f(&self) { let a = lock(&self.alpha); let g = lock(&self.gamma); }");
        let f = check(&e, &policy(&["alpha"]));
        assert!(
            f.iter()
                .any(|f| f.message.contains("not in `[policy] lock_order`")),
            "{f:?}"
        );
    }

    #[test]
    fn clean_order_passes() {
        let e = edges_of("fn f(&self) { let a = lock(&self.alpha); lock(&self.beta).x += 1; }");
        let f = check(&e, &policy(&["alpha", "beta"]));
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn match_scrutinee_guard_covers_arms_then_dies() {
        // The scrutinee guard is live inside the arms…
        let src = "fn f(&self) { match lock(&self.alpha).get() { Some(_) => { lock(&self.beta).x += 1; } None => {} } }";
        let e = edges_of(src);
        assert_eq!(e.len(), 1, "{e:?}");
        // …but not past the match statement.
        let src =
            "fn f(&self) { match lock(&self.alpha).get() { _ => {} } let b = lock(&self.beta); }";
        assert!(edges_of(src).is_empty());
    }

    #[test]
    fn if_let_scrutinee_guard_is_temporary() {
        // Live inside the body…
        let src = "fn f(&self) { if let Some(e) = lock(&self.alpha).get(k) { lock(&self.beta).x += 1; } }";
        let e = edges_of(src);
        assert_eq!(e.len(), 1, "{e:?}");
        // …dead after the `if` statement (the lookup-then-insert shape).
        let src = "fn f(&self) { if let Some(e) = lock(&self.alpha).get(k) { return; } let q = lock(&self.beta); lock(&self.alpha).insert(k); }";
        let e = edges_of(src);
        assert_eq!(e.len(), 1, "{e:?}");
        assert_eq!(
            e.first().map(|e| (e.held.as_str(), e.acquired.as_str())),
            Some(("beta", "alpha"))
        );
    }

    #[test]
    fn method_lock_calls_are_ignored() {
        let src = "fn f(&self) { let a = self.m.lock().unwrap(); let b = try_lock(&x); }";
        assert!(edges_of(src).is_empty());
    }
}
