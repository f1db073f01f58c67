//! MOF → replica-set routing for the fetch path.
//!
//! The control plane (`jbs-control`) resolves where each MOF's segments
//! live — primary first, then the replicas its pipeline fan-out wrote —
//! and pushes that map here. The transport reads it in one place, the
//! fetch scheduler's routing function, which has two callers:
//!
//! * `FetchScheduler::submit` *proactively* re-aims an op aimed at a
//!   peer already marked unhealthy (or whose circuit breaker is open)
//!   at the first healthy untried replica, before any wire traffic;
//! * a scheduler worker about to fail an op *reactively* re-queues it at
//!   the next replica when its peer is breaker-open or unhealthy — so a
//!   supplier killed mid-shuffle costs one breaker trip, not the job.
//!
//! Both trace `failover.redirect`, and both fire **only** behind a
//! health signal: a transient error on a healthy peer stays with that
//! peer's retry budget (`tests/chaos_cluster.rs` pins this ordering).
//!
//! The table is deliberately dumb — no liveness policy, no heartbeat
//! state. The registry owns *why* a peer is unhealthy; this owns only
//! *where else the bytes are*. Its single `routes` lock is a leaf
//! (documented in `crates/xtask/allow.toml`), never held across I/O.

use crate::sync::{lock, Mutex};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::net::SocketAddr;

#[derive(Default)]
struct RouteState {
    /// MOF id → replica addresses, preference order (primary first).
    replicas: HashMap<u64, Vec<SocketAddr>>,
    /// Peers the control plane currently considers unservable.
    unhealthy: HashSet<SocketAddr>,
}

/// A shared, health-aware MOF location map (see module docs).
pub struct RouteTable {
    routes: Mutex<RouteState>,
}

impl RouteTable {
    /// An empty table: every lookup misses, no peer is unhealthy.
    pub fn new() -> Self {
        RouteTable {
            routes: Mutex::new(RouteState::default()),
        }
    }

    /// Install (or replace) the replica set for `mof`, preference order.
    pub fn set_replicas(&self, mof: u64, addrs: Vec<SocketAddr>) {
        lock(&self.routes).replicas.insert(mof, addrs);
    }

    /// The stored replica set for `mof`, unfiltered (health applied by
    /// [`Self::resolve`] / [`Self::failover_target`]).
    pub fn replicas(&self, mof: u64) -> Vec<SocketAddr> {
        lock(&self.routes)
            .replicas
            .get(&mof)
            .cloned()
            .unwrap_or_default()
    }

    /// Mark a peer unservable. Returns `true` if this call changed the
    /// mark (so callers can trace the transition exactly once).
    pub fn mark_unhealthy(&self, addr: SocketAddr) -> bool {
        lock(&self.routes).unhealthy.insert(addr)
    }

    /// Clear a peer's unhealthy mark (heartbeats resumed). Returns
    /// `true` if the peer was marked.
    pub fn mark_healthy(&self, addr: SocketAddr) -> bool {
        lock(&self.routes).unhealthy.remove(&addr)
    }

    /// Whether the control plane currently marks `addr` unservable.
    pub fn is_unhealthy(&self, addr: SocketAddr) -> bool {
        lock(&self.routes).unhealthy.contains(&addr)
    }

    /// First *healthy* replica for `mof`, in preference order.
    pub fn resolve(&self, mof: u64) -> Option<SocketAddr> {
        let routes = lock(&self.routes);
        routes
            .replicas
            .get(&mof)?
            .iter()
            .find(|a| !routes.unhealthy.contains(a))
            .copied()
    }

    /// First healthy replica for `mof` not already in `tried` — the
    /// next address a failed-over fetch should aim at, or `None` when
    /// the replica set is exhausted and the failure must surface.
    pub fn failover_target(&self, mof: u64, tried: &[SocketAddr]) -> Option<SocketAddr> {
        let routes = lock(&self.routes);
        routes
            .replicas
            .get(&mof)?
            .iter()
            .find(|a| !tried.contains(a) && !routes.unhealthy.contains(a))
            .copied()
    }
}

impl Default for RouteTable {
    fn default() -> Self {
        Self::new()
    }
}

// Manual: the loom build's Mutex has no Debug, and locking inside
// Debug could observe the table mid-update anyway.
impl fmt::Debug for RouteTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RouteTable").finish_non_exhaustive()
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    fn addr(port: u16) -> SocketAddr {
        SocketAddr::from(([127, 0, 0, 1], port))
    }

    #[test]
    fn resolve_prefers_primary_until_marked() {
        let t = RouteTable::new();
        assert_eq!(t.resolve(1), None);
        t.set_replicas(1, vec![addr(7000), addr(7001)]);
        assert_eq!(t.resolve(1), Some(addr(7000)));
        assert!(t.mark_unhealthy(addr(7000)));
        // Idempotent: the second mark reports no transition.
        assert!(!t.mark_unhealthy(addr(7000)));
        assert_eq!(t.resolve(1), Some(addr(7001)));
        assert!(t.mark_healthy(addr(7000)));
        assert_eq!(t.resolve(1), Some(addr(7000)));
    }

    #[test]
    fn failover_skips_tried_and_unhealthy() {
        let t = RouteTable::new();
        t.set_replicas(9, vec![addr(7000), addr(7001), addr(7002)]);
        assert_eq!(t.failover_target(9, &[addr(7000)]), Some(addr(7001)));
        t.mark_unhealthy(addr(7001));
        assert_eq!(t.failover_target(9, &[addr(7000)]), Some(addr(7002)));
        assert_eq!(
            t.failover_target(9, &[addr(7000), addr(7002)]),
            None,
            "replica set exhausted"
        );
        assert_eq!(t.failover_target(404, &[]), None, "unknown mof");
    }

    #[test]
    fn all_replicas_unhealthy_resolves_none() {
        let t = RouteTable::new();
        t.set_replicas(3, vec![addr(7000), addr(7001)]);
        t.mark_unhealthy(addr(7000));
        t.mark_unhealthy(addr(7001));
        assert!(t.is_unhealthy(addr(7000)));
        assert_eq!(t.resolve(3), None);
        assert_eq!(t.replicas(3).len(), 2, "set is retained, only filtered");
    }
}
