//! Coordinator-lite supplier registry.
//!
//! Suppliers register and then heartbeat with a load digest; a periodic
//! liveness tick expires nodes whose heartbeats stopped; NetMergers
//! resolve a MOF id to the live subset of its replica placement. The
//! registry is deliberately *not* on the per-segment data path — the
//! data plane consults a [`jbs_transport::RouteTable`] that the registry
//! pushes into via [`Registry::sync_routes`], so a slow or contended
//! registry can never stall a fetch.
//!
//! All methods are time-explicit (`now_nanos: u64`), the same style as
//! the transport circuit breaker: callers own the clock, which makes the
//! registry usable unchanged under the DES simulator ([`crate::sim`]),
//! the loom model checker, and real wall-clock threads
//! ([`crate::live`]).
//!
//! Locking: one mutex (`nodes`) guards both the node table and the
//! placement map so a resolve can never observe a placement referring
//! to a node state from a different epoch (no torn liveness read — the
//! `loom_` test below checks exactly this). The guard is never held
//! across I/O or another lock; `sync_routes` snapshots under the lock
//! and releases it before touching the route table.

use std::collections::BTreeMap;
use std::net::{IpAddr, SocketAddr};

use jbs_obs::{Entity, Trace};

use crate::sync::{lock, Mutex};

/// Tuning and instrumentation for a [`Registry`].
#[derive(Debug, Clone)]
pub struct RegistryConfig {
    /// Expected spacing between a supplier's heartbeats, in nanoseconds.
    pub heartbeat_interval_nanos: u64,
    /// A live node is marked unhealthy once `now - last_heartbeat`
    /// exceeds `heartbeat_interval_nanos * unhealthy_after_missed`.
    /// Values below 1 behave as 1.
    pub unhealthy_after_missed: u32,
    /// Replica count for new placements (primary included). Values below
    /// 1 behave as 1.
    pub replication: u32,
    /// Seed for the rendezvous hash that picks secondary replicas.
    /// Placement is a pure function of (seed, mof, live node set), so
    /// two registries configured identically place identically.
    pub placement_seed: u64,
    /// Event sink for registry transitions.
    pub trace: Trace,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        RegistryConfig {
            heartbeat_interval_nanos: 500_000_000,
            unhealthy_after_missed: 3,
            replication: 2,
            placement_seed: 0x4a42_5243,
            trace: Trace::disabled(),
        }
    }
}

/// Liveness state of a registered supplier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Health {
    /// Heartbeating within the expiry window; eligible for placement and
    /// returned by resolve.
    Live,
    /// Missed heartbeats; excluded from resolve until a heartbeat
    /// revives it.
    Unhealthy,
    /// Gracefully deregistered. Terminal: heartbeats are rejected and
    /// the tombstone is retained so a placement entry naming the node
    /// stays explainable.
    Decommissioned,
}

/// Load digest a supplier ships with each heartbeat: a flattened view of
/// its transport stats and hybrid-store tier residency.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeartbeatLoad {
    /// Segment requests served (transport `requests`).
    pub requests: u64,
    /// Payload bytes served.
    pub bytes: u64,
    /// Currently open connections.
    pub connections: u64,
    /// Prefetch queue depth at snapshot time.
    pub prefetch_queue_len: u64,
    /// Bytes resident in the memory tier.
    pub memory_bytes: u64,
    /// Bytes resident in the local spill tier.
    pub spilled_bytes: u64,
    /// Bytes drained to the remote tier.
    pub remote_bytes: u64,
}

impl HeartbeatLoad {
    /// Flatten a supplier's transport stats and (optional) hybrid tier
    /// stats into a heartbeat payload.
    pub fn from_stats(
        stats: &jbs_transport::SupplierStatsSnapshot,
        tiers: Option<&jbs_store_hybrid::TierStatsSnapshot>,
    ) -> Self {
        HeartbeatLoad {
            requests: stats.requests,
            bytes: stats.bytes,
            connections: stats.connections,
            prefetch_queue_len: stats.prefetch_queue_len,
            memory_bytes: tiers.map_or(0, |t| t.memory_bytes),
            spilled_bytes: tiers.map_or(0, |t| t.spilled_bytes),
            remote_bytes: tiers.map_or(0, |t| t.remote_bytes),
        }
    }

    /// Scalar pressure score used for reporting (not placement, which is
    /// rendezvous-hashed for determinism).
    pub fn score(&self) -> u64 {
        self.connections
            .saturating_add(self.prefetch_queue_len)
            .saturating_add(self.requests / 64)
    }
}

/// Per-node registry record.
#[derive(Debug, Clone, Copy)]
struct NodeState {
    health: Health,
    last_heartbeat_nanos: u64,
    load: HeartbeatLoad,
    /// Monotonic per-address epoch. Every (re-)registration bumps it and
    /// heartbeats must quote it, so beats from a process that died —
    /// delayed in a queue, or a zombie thread that outlived its store —
    /// are fenced instead of reviving a node whose disk state moved on.
    incarnation: u64,
}

/// Everything the registry mutex guards: node table and MOF placements
/// move together so a resolve sees one consistent epoch.
#[derive(Debug, Default)]
struct RegState {
    nodes: BTreeMap<SocketAddr, NodeState>,
    placements: BTreeMap<u64, Vec<SocketAddr>>,
}

/// Outcome of one liveness tick.
#[derive(Debug, Clone, Default)]
pub struct TickReport {
    /// Nodes examined this tick — always the full table, so the scale
    /// test can assert heartbeat fan-in stays O(nodes) per tick.
    pub examined: u64,
    /// Nodes that transitioned Live -> Unhealthy this tick.
    pub newly_unhealthy: Vec<SocketAddr>,
}

/// The supplier registry. Cheap to share behind an `Arc`; every method
/// takes `&self`.
pub struct Registry {
    cfg: RegistryConfig,
    nodes: Mutex<RegState>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry").finish_non_exhaustive()
    }
}

/// FNV-1a over `bytes`, continuing from hash state `h`.
fn fnv1a64(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Rendezvous (highest-random-weight) score of `addr` for `mof`: each
/// live node gets an independent pseudo-random weight and the top
/// weights win, so placements spread uniformly and adding a node only
/// reassigns the share it wins.
fn rendezvous_weight(seed: u64, mof: u64, addr: &SocketAddr) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325 ^ seed;
    h = fnv1a64(&mof.to_le_bytes(), h);
    match addr.ip() {
        IpAddr::V4(ip) => h = fnv1a64(&ip.octets(), h),
        IpAddr::V6(ip) => h = fnv1a64(&ip.octets(), h),
    }
    fnv1a64(&addr.port().to_le_bytes(), h)
}

impl Registry {
    pub fn new(cfg: RegistryConfig) -> Self {
        Registry {
            cfg,
            nodes: Mutex::new(RegState::default()),
        }
    }

    /// Nanoseconds of heartbeat silence after which a node expires.
    fn expiry_nanos(&self) -> u64 {
        self.cfg
            .heartbeat_interval_nanos
            .saturating_mul(u64::from(self.cfg.unhealthy_after_missed.max(1)))
    }

    /// Register (or re-register) a supplier as Live and return its
    /// incarnation: 1 for a fresh address, previous + 1 for any address
    /// already known — including a Decommissioned tombstone, which
    /// models a fresh process reusing the address after a crash or
    /// graceful exit. Heartbeats must quote the returned incarnation.
    pub fn register(&self, addr: SocketAddr, now_nanos: u64) -> u64 {
        let incarnation = {
            let mut g = lock(&self.nodes);
            let incarnation = g
                .nodes
                .get(&addr)
                .map_or(1, |n| n.incarnation.saturating_add(1));
            g.nodes.insert(
                addr,
                NodeState {
                    health: Health::Live,
                    last_heartbeat_nanos: now_nanos,
                    load: HeartbeatLoad::default(),
                    incarnation,
                },
            );
            incarnation
        };
        self.cfg.trace.instant(
            "registry.register",
            Entity::peer(u64::from(addr.port())),
            now_nanos,
            incarnation,
        );
        incarnation
    }

    /// Register with a caller-supplied incarnation (a restarted supplier
    /// replaying an epoch it persisted). Accepted only when the address
    /// is unknown or `incarnation` is strictly newer than the current
    /// one — in particular, a `Decommissioned` tombstone is only
    /// replaced by a genuinely newer process, never by a stale replay
    /// of the dead one.
    pub fn register_incarnation(&self, addr: SocketAddr, incarnation: u64, now_nanos: u64) -> bool {
        let accepted = {
            let mut g = lock(&self.nodes);
            match g.nodes.get(&addr) {
                Some(n) if incarnation <= n.incarnation => false,
                _ => {
                    g.nodes.insert(
                        addr,
                        NodeState {
                            health: Health::Live,
                            last_heartbeat_nanos: now_nanos,
                            load: HeartbeatLoad::default(),
                            incarnation,
                        },
                    );
                    true
                }
            }
        };
        if accepted {
            self.cfg.trace.instant(
                "registry.register",
                Entity::peer(u64::from(addr.port())),
                now_nanos,
                incarnation,
            );
        }
        accepted
    }

    /// The current incarnation of `addr`, if registered.
    pub fn incarnation(&self, addr: SocketAddr) -> Option<u64> {
        let g = lock(&self.nodes);
        g.nodes.get(&addr).map(|n| n.incarnation)
    }

    /// Record a heartbeat. Returns false (and changes nothing) for
    /// unknown or decommissioned addresses, and for beats quoting a
    /// stale (or future) incarnation — the fence that keeps a dead
    /// process's delayed beats from reviving its successor's slot. An
    /// Unhealthy node beating its current incarnation revives to Live.
    pub fn heartbeat(
        &self,
        addr: SocketAddr,
        incarnation: u64,
        load: HeartbeatLoad,
        now_nanos: u64,
    ) -> bool {
        let revived = {
            let mut g = lock(&self.nodes);
            let Some(node) = g.nodes.get_mut(&addr) else {
                return false;
            };
            if node.health == Health::Decommissioned {
                return false;
            }
            if node.incarnation != incarnation {
                drop(g);
                self.cfg.trace.instant(
                    "registry.fence",
                    Entity::peer(u64::from(addr.port())),
                    incarnation,
                    self.incarnation(addr).unwrap_or(0),
                );
                return false;
            }
            node.last_heartbeat_nanos = now_nanos;
            node.load = load;
            if node.health == Health::Unhealthy {
                node.health = Health::Live;
                true
            } else {
                false
            }
        };
        if revived {
            self.cfg.trace.instant(
                "registry.revive",
                Entity::peer(u64::from(addr.port())),
                now_nanos,
                0,
            );
        }
        true
    }

    /// One liveness sweep: expire Live nodes whose last heartbeat is
    /// older than the expiry window. Examines every node exactly once
    /// (heartbeat fan-in is O(nodes) per tick, independent of traffic).
    pub fn tick(&self, now_nanos: u64) -> TickReport {
        let expiry = self.expiry_nanos();
        let mut examined = 0u64;
        let newly_unhealthy: Vec<SocketAddr> = {
            let mut g = lock(&self.nodes);
            let mut newly = Vec::new();
            for (addr, node) in g.nodes.iter_mut() {
                examined += 1;
                if node.health == Health::Live
                    && now_nanos.saturating_sub(node.last_heartbeat_nanos) > expiry
                {
                    node.health = Health::Unhealthy;
                    newly.push(*addr);
                }
            }
            newly
        };
        for addr in &newly_unhealthy {
            self.cfg.trace.instant(
                "registry.unhealthy",
                Entity::peer(u64::from(addr.port())),
                now_nanos,
                0,
            );
        }
        TickReport {
            examined,
            newly_unhealthy,
        }
    }

    /// Gracefully deregister: mark Decommissioned (terminal tombstone).
    /// Returns true if the node was present and not already
    /// decommissioned.
    pub fn deregister(&self, addr: SocketAddr, now_nanos: u64) -> bool {
        let was_active = {
            let mut g = lock(&self.nodes);
            match g.nodes.get_mut(&addr) {
                Some(n) if n.health != Health::Decommissioned => {
                    n.health = Health::Decommissioned;
                    true
                }
                _ => false,
            }
        };
        if was_active {
            self.cfg.trace.instant(
                "registry.deregister",
                Entity::peer(u64::from(addr.port())),
                now_nanos,
                0,
            );
        }
        was_active
    }

    /// Return (creating if absent) the replica placement for `mof`.
    ///
    /// A new placement is `primary` (if live) plus the highest
    /// rendezvous-weighted other live nodes up to the replication
    /// factor. Placements are sticky: once assigned they do not move,
    /// so data already written to replicas stays resolvable; liveness
    /// filtering happens at [`Registry::resolve`] time.
    pub fn assign(&self, mof: u64, primary: SocketAddr) -> Vec<SocketAddr> {
        let placement = {
            let mut g = lock(&self.nodes);
            if let Some(p) = g.placements.get(&mof) {
                return p.clone();
            }
            let rf = self.cfg.replication.max(1) as usize;
            let mut placement: Vec<SocketAddr> = Vec::with_capacity(rf);
            if g.nodes.get(&primary).map(|n| n.health) == Some(Health::Live) {
                placement.push(primary);
            }
            let mut others: Vec<(u64, SocketAddr)> = g
                .nodes
                .iter()
                .filter(|(a, n)| **a != primary && n.health == Health::Live)
                .map(|(a, _)| (rendezvous_weight(self.cfg.placement_seed, mof, a), *a))
                .collect();
            others.sort_by(|x, y| y.0.cmp(&x.0).then_with(|| x.1.cmp(&y.1)));
            for (_, a) in others {
                if placement.len() >= rf {
                    break;
                }
                placement.push(a);
            }
            g.placements.insert(mof, placement.clone());
            placement
        };
        self.cfg.trace.instant(
            "registry.place",
            Entity::registry(0),
            mof,
            placement.len() as u64,
        );
        placement
    }

    /// The live subset of `mof`'s placement, primary first. Empty when
    /// the MOF is unplaced or every replica is down — liveness and
    /// placement are read under one guard, so the answer is a single
    /// consistent epoch (never a torn read).
    pub fn resolve(&self, mof: u64) -> Vec<SocketAddr> {
        let g = lock(&self.nodes);
        let Some(p) = g.placements.get(&mof) else {
            return Vec::new();
        };
        p.iter()
            .filter(|a| g.nodes.get(a).map(|n| n.health) == Some(Health::Live))
            .copied()
            .collect()
    }

    /// The raw (unfiltered) placement of `mof`, if assigned.
    pub fn placement(&self, mof: u64) -> Option<Vec<SocketAddr>> {
        let g = lock(&self.nodes);
        g.placements.get(&mof).cloned()
    }

    /// Push the registry's current view into a data-plane route table:
    /// replica sets for every placement, plus health marks for every
    /// node. Snapshots under the registry lock, then updates the route
    /// table lock-free of the registry (no nested locks).
    pub fn sync_routes(&self, routes: &jbs_transport::RouteTable) {
        let (marks, placements) = {
            let g = lock(&self.nodes);
            let marks: Vec<(SocketAddr, bool)> = g
                .nodes
                .iter()
                .map(|(a, n)| (*a, n.health == Health::Live))
                .collect();
            let placements: Vec<(u64, Vec<SocketAddr>)> =
                g.placements.iter().map(|(m, p)| (*m, p.clone())).collect();
            (marks, placements)
        };
        let n_marks = marks.len() as u64;
        let n_placements = placements.len() as u64;
        for (mof, replicas) in placements {
            routes.set_replicas(mof, replicas);
        }
        for (addr, live) in marks {
            if live {
                // mark_healthy reports the transition: true only when the
                // route table previously held this node unhealthy, i.e.
                // traffic is flipping back after a failover.
                if routes.mark_healthy(addr) {
                    self.cfg.trace.instant(
                        "route.restore",
                        Entity::peer(u64::from(addr.port())),
                        0,
                        0,
                    );
                }
            } else {
                routes.mark_unhealthy(addr);
            }
        }
        self.cfg
            .trace
            .instant("registry.sync", Entity::registry(0), n_marks, n_placements);
    }

    /// Health of `addr`, if registered.
    pub fn health(&self, addr: SocketAddr) -> Option<Health> {
        let g = lock(&self.nodes);
        g.nodes.get(&addr).map(|n| n.health)
    }

    /// Whether `addr` is registered and Live.
    pub fn is_live(&self, addr: SocketAddr) -> bool {
        self.health(addr) == Some(Health::Live)
    }

    /// Last reported load of `addr`, if registered.
    pub fn load(&self, addr: SocketAddr) -> Option<HeartbeatLoad> {
        let g = lock(&self.nodes);
        g.nodes.get(&addr).map(|n| n.load)
    }

    /// All Live node addresses, in address order.
    pub fn live_nodes(&self) -> Vec<SocketAddr> {
        let g = lock(&self.nodes);
        g.nodes
            .iter()
            .filter(|(_, n)| n.health == Health::Live)
            .map(|(a, _)| *a)
            .collect()
    }

    /// Total registered nodes, tombstones included.
    pub fn len(&self) -> usize {
        let g = lock(&self.nodes);
        g.nodes.len()
    }

    /// True when no node has ever registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    fn addr(port: u16) -> SocketAddr {
        SocketAddr::from(([127, 0, 0, 1], port))
    }

    fn registry() -> Registry {
        Registry::new(RegistryConfig {
            heartbeat_interval_nanos: 100,
            unhealthy_after_missed: 3,
            replication: 2,
            ..RegistryConfig::default()
        })
    }

    #[test]
    fn expire_then_revive_round_trip() {
        let r = registry();
        r.register(addr(1), 0);
        assert!(r.is_live(addr(1)));

        // Within the window: still live.
        assert!(r.tick(300).newly_unhealthy.is_empty());
        // Past 3 missed intervals: expired.
        let report = r.tick(301);
        assert_eq!(report.newly_unhealthy, vec![addr(1)]);
        assert_eq!(report.examined, 1);
        assert_eq!(r.health(addr(1)), Some(Health::Unhealthy));

        // A late heartbeat revives.
        assert!(r.heartbeat(addr(1), 1, HeartbeatLoad::default(), 400));
        assert!(r.is_live(addr(1)));
        assert!(r.tick(450).newly_unhealthy.is_empty());
    }

    #[test]
    fn heartbeat_rejected_for_unknown_and_decommissioned() {
        let r = registry();
        assert!(!r.heartbeat(addr(9), 1, HeartbeatLoad::default(), 0));
        r.register(addr(1), 0);
        assert!(r.deregister(addr(1), 10));
        assert!(!r.deregister(addr(1), 11), "second deregister is a no-op");
        assert!(!r.heartbeat(addr(1), 1, HeartbeatLoad::default(), 20));
        assert_eq!(r.health(addr(1)), Some(Health::Decommissioned));
        // Tombstones are still examined (O(nodes) fan-in) but never expire.
        let report = r.tick(10_000);
        assert_eq!(report.examined, 1);
        assert!(report.newly_unhealthy.is_empty());
    }

    #[test]
    fn placement_is_sticky_and_deterministic() {
        let r = registry();
        for p in 1..=4 {
            r.register(addr(p), 0);
        }
        let placed = r.assign(7, addr(2));
        assert_eq!(placed.len(), 2);
        assert_eq!(placed[0], addr(2), "primary leads the placement");
        // Sticky: same answer later, even after membership grows.
        r.register(addr(5), 1);
        assert_eq!(r.assign(7, addr(2)), placed);

        // Deterministic: an identically configured registry with the
        // same live set places identically.
        let r2 = registry();
        for p in 1..=4 {
            r2.register(addr(p), 0);
        }
        assert_eq!(r2.assign(7, addr(2)), placed);
    }

    #[test]
    fn resolve_filters_unhealthy_and_decommissioned() {
        let r = registry();
        r.register(addr(1), 0);
        r.register(addr(2), 0);
        let placed = r.assign(3, addr(1));
        assert_eq!(placed, vec![addr(1), addr(2)]);
        assert_eq!(r.resolve(3), vec![addr(1), addr(2)]);

        // Expire the primary: resolve falls back to the replica.
        r.heartbeat(addr(2), 1, HeartbeatLoad::default(), 500);
        r.tick(500);
        assert_eq!(r.resolve(3), vec![addr(2)]);

        // Decommission the replica too: nothing live remains, but the
        // raw placement is retained for explainability.
        r.deregister(addr(2), 600);
        assert_eq!(r.resolve(3), Vec::<SocketAddr>::new());
        assert_eq!(r.placement(3), Some(placed));
        assert_eq!(r.resolve(99), Vec::<SocketAddr>::new());
    }

    #[test]
    fn sync_routes_pushes_health_and_replicas() {
        let r = registry();
        r.register(addr(1), 0);
        r.register(addr(2), 0);
        r.assign(3, addr(1));

        let routes = jbs_transport::RouteTable::new();
        r.sync_routes(&routes);
        assert_eq!(routes.resolve(3), Some(addr(1)));
        assert!(!routes.is_unhealthy(addr(2)));

        r.tick(10_000); // both expire (no heartbeats)
        r.sync_routes(&routes);
        assert!(routes.is_unhealthy(addr(1)));
        assert!(routes.is_unhealthy(addr(2)));
        assert_eq!(routes.resolve(3), None);

        r.heartbeat(addr(2), 1, HeartbeatLoad::default(), 10_001);
        r.sync_routes(&routes);
        assert_eq!(routes.resolve(3), Some(addr(2)));
    }

    #[test]
    fn resolve_with_every_replica_tombstoned_is_empty() {
        let r = registry();
        r.register(addr(1), 0);
        r.register(addr(2), 0);
        let placed = r.assign(3, addr(1));
        assert_eq!(placed.len(), 2);
        // Tombstone the entire placement: resolve must return empty —
        // not panic, not name a dead node — and the raw placement stays
        // readable for explainability.
        r.deregister(addr(1), 10);
        r.deregister(addr(2), 11);
        assert_eq!(r.resolve(3), Vec::<SocketAddr>::new());
        assert_eq!(r.placement(3), Some(placed));
        // Liveness machinery over an all-tombstone table is inert.
        assert!(r.tick(100_000).newly_unhealthy.is_empty());
        assert!(r.live_nodes().is_empty());
    }

    #[test]
    fn stale_incarnation_heartbeats_are_fenced() {
        let r = registry();
        let first = r.register(addr(1), 0);
        assert_eq!(first, 1);
        // The process dies and a successor re-registers the address.
        let second = r.register(addr(1), 50);
        assert_eq!(second, 2);
        assert_eq!(r.incarnation(addr(1)), Some(2));
        // A delayed beat from the dead incarnation is fenced and leaves
        // the record untouched; the live incarnation's beats land.
        assert!(!r.heartbeat(addr(1), first, HeartbeatLoad::default(), 60));
        assert!(r.heartbeat(addr(1), second, HeartbeatLoad::default(), 61));
        // Fencing also revives nothing: expire the node, then beat the
        // stale incarnation — it must stay Unhealthy.
        r.tick(10_000);
        assert_eq!(r.health(addr(1)), Some(Health::Unhealthy));
        assert!(!r.heartbeat(addr(1), first, HeartbeatLoad::default(), 10_001));
        assert_eq!(r.health(addr(1)), Some(Health::Unhealthy));
        assert!(r.heartbeat(addr(1), second, HeartbeatLoad::default(), 10_002));
        assert_eq!(r.health(addr(1)), Some(Health::Live));
    }

    #[test]
    fn reregistration_over_a_tombstone_needs_a_newer_incarnation() {
        let r = registry();
        let inc = r.register(addr(1), 0);
        assert!(r.deregister(addr(1), 10));
        assert_eq!(r.health(addr(1)), Some(Health::Decommissioned));
        // A stale replay of the dead incarnation (or anything not newer)
        // cannot resurrect the tombstone.
        assert!(!r.register_incarnation(addr(1), inc, 20));
        assert_eq!(r.health(addr(1)), Some(Health::Decommissioned));
        // A genuinely newer incarnation replaces it.
        assert!(r.register_incarnation(addr(1), inc + 1, 30));
        assert_eq!(r.health(addr(1)), Some(Health::Live));
        assert_eq!(r.incarnation(addr(1)), Some(inc + 1));
        // Unknown addresses register at any incarnation.
        assert!(r.register_incarnation(addr(7), 42, 40));
        assert_eq!(r.incarnation(addr(7)), Some(42));
        // And plain register() over a tombstone bumps past it.
        assert!(r.deregister(addr(7), 50));
        assert_eq!(r.register(addr(7), 60), 43);
        assert_eq!(r.health(addr(7)), Some(Health::Live));
    }

    #[test]
    fn load_digest_is_retained() {
        let r = registry();
        r.register(addr(1), 0);
        let load = HeartbeatLoad {
            requests: 640,
            bytes: 1 << 20,
            connections: 3,
            prefetch_queue_len: 2,
            memory_bytes: 4096,
            spilled_bytes: 512,
            remote_bytes: 0,
        };
        assert!(r.heartbeat(addr(1), 1, load, 5));
        assert_eq!(r.load(addr(1)), Some(load));
        assert_eq!(load.score(), 3 + 2 + 10);
        assert_eq!(r.load(addr(9)), None);
    }
}

/// Loom model: a liveness tick expiring two nodes races a resolve of a
/// placement spanning both. The single registry mutex must make the
/// expiry atomic with respect to resolution — a reader sees both
/// replicas live or neither, never a torn placement of one.
#[cfg(all(test, loom))]
mod loom_tests {
    use super::*;

    #[test]
    fn loom_tick_vs_resolve_no_torn_liveness() {
        loom::model(|| {
            let r = loom::sync::Arc::new(Registry::new(RegistryConfig {
                heartbeat_interval_nanos: 10,
                unhealthy_after_missed: 1,
                replication: 2,
                ..RegistryConfig::default()
            }));
            let a = SocketAddr::from(([127, 0, 0, 1], 1));
            let b = SocketAddr::from(([127, 0, 0, 1], 2));
            r.register(a, 0);
            r.register(b, 0);
            assert_eq!(r.assign(5, a).len(), 2);

            let ticker = {
                let r = loom::sync::Arc::clone(&r);
                loom::thread::spawn(move || {
                    // Far past expiry: both nodes transition together.
                    r.tick(1_000_000).newly_unhealthy.len()
                })
            };
            let resolver = {
                let r = loom::sync::Arc::clone(&r);
                loom::thread::spawn(move || r.resolve(5).len())
            };

            let expired = ticker.join().unwrap_or(0);
            let seen = resolver.join().unwrap_or(usize::MAX);
            assert_eq!(expired, 2);
            assert!(
                seen == 0 || seen == 2,
                "torn liveness read: resolve saw {seen} of 2 replicas"
            );
            assert_eq!(r.resolve(5).len(), 0);
        });
    }
}
