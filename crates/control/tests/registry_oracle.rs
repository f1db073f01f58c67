//! Property test: the registry against a flat oracle.
//!
//! A random interleaving of register / heartbeat / deregister / clock
//! advance / tick / assign / resolve ops runs against the real
//! [`Registry`] and a deliberately dumb model (flat maps, spec applied
//! literally). After every op the two must agree on every node's
//! health and every MOF's resolution; assign answers must be sticky,
//! lead with a live primary, contain only live distinct nodes, and —
//! replayed against a second identically-configured registry — come
//! out identical (placement is deterministic per seed).

use jbs_control::{Health, HeartbeatLoad, Registry, RegistryConfig};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::net::SocketAddr;

const NODES: u16 = 8;
const MOFS: u64 = 16;
const INTERVAL: u64 = 100;
const MISSED: u32 = 2;
const EXPIRY: u64 = INTERVAL * MISSED as u64;

fn addr(n: u16) -> SocketAddr {
    SocketAddr::from(([127, 0, 0, 1], 1000 + n))
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Register(u16),
    Heartbeat(u16),
    Deregister(u16),
    Advance(u64),
    Tick,
    Assign(u64, u16),
    Resolve(u64),
}

/// Map a raw `(selector, a, b)` tuple onto an op; proptest shrinks the
/// tuples, which shrinks the op sequence.
fn decode((sel, a, b): (u8, u8, u8)) -> Op {
    let node = u16::from(a) % NODES;
    match sel % 7 {
        0 => Op::Register(node),
        1 => Op::Heartbeat(node),
        2 => Op::Deregister(node),
        3 => Op::Advance(u64::from(b) % (EXPIRY * 2) + 1),
        4 => Op::Tick,
        5 => Op::Assign(u64::from(b) % MOFS, node),
        _ => Op::Resolve(u64::from(b) % MOFS),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MHealth {
    Live,
    Unhealthy,
    Dead,
}

/// The flat oracle: the registry spec applied with no cleverness.
#[derive(Default)]
struct Oracle {
    now: u64,
    nodes: BTreeMap<u16, (MHealth, u64)>,
    placements: BTreeMap<u64, Vec<u16>>,
}

impl Oracle {
    fn live(&self, n: u16) -> bool {
        matches!(self.nodes.get(&n), Some((MHealth::Live, _)))
    }

    fn resolve(&self, mof: u64) -> Vec<SocketAddr> {
        self.placements
            .get(&mof)
            .map(|p| {
                p.iter()
                    .filter(|n| self.live(**n))
                    .map(|n| addr(*n))
                    .collect()
            })
            .unwrap_or_default()
    }
}

fn cfg() -> RegistryConfig {
    RegistryConfig {
        heartbeat_interval_nanos: INTERVAL,
        unhealthy_after_missed: MISSED,
        replication: 2,
        ..RegistryConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]
    #[test]
    fn registry_matches_flat_oracle(raw in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..80)) {
        let registry = Registry::new(cfg());
        let twin = Registry::new(cfg()); // replays the same ops
        let mut oracle = Oracle::default();

        for op in raw.into_iter().map(decode) {
            match op {
                Op::Register(n) => {
                    registry.register(addr(n), oracle.now);
                    twin.register(addr(n), oracle.now);
                    oracle.nodes.insert(n, (MHealth::Live, oracle.now));
                }
                Op::Heartbeat(n) => {
                    // Quote the live incarnation: this oracle models
                    // liveness, not fencing (fencing has its own tests).
                    let inc = registry.incarnation(addr(n)).unwrap_or(0);
                    let accepted =
                        registry.heartbeat(addr(n), inc, HeartbeatLoad::default(), oracle.now);
                    twin.heartbeat(addr(n), inc, HeartbeatLoad::default(), oracle.now);
                    let expect = match oracle.nodes.get_mut(&n) {
                        Some((h, last)) if *h != MHealth::Dead => {
                            *h = MHealth::Live;
                            *last = oracle.now;
                            true
                        }
                        _ => false,
                    };
                    prop_assert_eq!(accepted, expect, "heartbeat acceptance diverged");
                }
                Op::Deregister(n) => {
                    registry.deregister(addr(n), oracle.now);
                    twin.deregister(addr(n), oracle.now);
                    if let Some((h, _)) = oracle.nodes.get_mut(&n) {
                        if *h != MHealth::Dead {
                            *h = MHealth::Dead;
                        }
                    }
                }
                Op::Advance(d) => {
                    oracle.now += d;
                }
                Op::Tick => {
                    let report = registry.tick(oracle.now);
                    twin.tick(oracle.now);
                    prop_assert_eq!(report.examined as usize, oracle.nodes.len());
                    let mut expect_newly = Vec::new();
                    for (n, (h, last)) in oracle.nodes.iter_mut() {
                        if *h == MHealth::Live && oracle.now.saturating_sub(*last) > EXPIRY {
                            *h = MHealth::Unhealthy;
                            expect_newly.push(addr(*n));
                        }
                    }
                    prop_assert_eq!(report.newly_unhealthy, expect_newly, "expiry set diverged");
                }
                Op::Assign(mof, primary) => {
                    let placed = registry.assign(mof, addr(primary));
                    let twin_placed = twin.assign(mof, addr(primary));
                    prop_assert_eq!(&placed, &twin_placed, "placement not deterministic");
                    match oracle.placements.get(&mof) {
                        Some(prior) => {
                            // Sticky: assign never moves an existing placement.
                            let prior_addrs: Vec<SocketAddr> =
                                prior.iter().map(|n| addr(*n)).collect();
                            prop_assert_eq!(&placed, &prior_addrs, "placement moved");
                        }
                        None => {
                            // Fresh: at most RF nodes, all live, distinct,
                            // primary first when the primary is live.
                            prop_assert!(placed.len() <= 2);
                            for a in &placed {
                                let n = a.port() - 1000;
                                prop_assert!(oracle.live(n), "placed a non-live node");
                            }
                            let mut dedup = placed.clone();
                            dedup.sort();
                            dedup.dedup();
                            prop_assert_eq!(dedup.len(), placed.len(), "duplicate replica");
                            if oracle.live(primary) {
                                prop_assert_eq!(placed.first(), Some(&addr(primary)));
                            }
                            oracle.placements.insert(
                                mof,
                                placed.iter().map(|a| a.port() - 1000).collect(),
                            );
                        }
                    }
                }
                Op::Resolve(mof) => {
                    prop_assert_eq!(registry.resolve(mof), oracle.resolve(mof), "resolve diverged");
                }
            }

            // Global invariant after every op: health agrees everywhere,
            // and every resolution is live-only within its placement.
            for n in 0..NODES {
                let expect = oracle.nodes.get(&n).map(|(h, _)| match h {
                    MHealth::Live => Health::Live,
                    MHealth::Unhealthy => Health::Unhealthy,
                    MHealth::Dead => Health::Decommissioned,
                });
                prop_assert_eq!(registry.health(addr(n)), expect, "health diverged for node {}", n);
            }
            for mof in oracle.placements.keys() {
                let resolved = registry.resolve(*mof);
                for a in &resolved {
                    let n = a.port() - 1000;
                    prop_assert!(oracle.live(n), "resolved a non-live node");
                    prop_assert!(
                        oracle.placements.get(mof).map(|p| p.contains(&n)).unwrap_or(false),
                        "resolved outside the placement"
                    );
                }
            }
        }
    }
}
