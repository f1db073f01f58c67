//! Proptest state machine over the hybrid store: random
//! write/read/drain interleavings against a plain `Vec<u8>`-per-
//! partition model, asserting byte-exactness and the watermark
//! invariants after every operation:
//!
//! * in-memory usage never exceeds the budget;
//! * a watermark-tripped flush always drains to the low watermark;
//! * reads are never torn — every observed range matches the model.

use jbs_store_hybrid::{HybridConfig, HybridStore, TierStatsSnapshot};
use proptest::prelude::*;

const BUDGET: usize = 256;
const HIGH: usize = 128; // 0.5 * BUDGET
const LOW: usize = 51; // 0.2 * BUDGET
const HUGE: usize = 100;
const PARTS: u8 = 5;

fn cfg() -> HybridConfig {
    HybridConfig {
        memory_budget: BUDGET,
        high_watermark: 0.5,
        low_watermark: 0.2,
        huge_partition_limit: HUGE,
        ..HybridConfig::default()
    }
}

/// One scripted operation, decoded from a generated tuple.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Append `len` bytes of a deterministic pattern to `part`.
    Write { part: u8, len: u16, seed: u8 },
    /// Append an oversize run (≥ budget, goes direct-to-LOCALFILE).
    WriteOversize { part: u8, seed: u8 },
    /// Read a range of `part` (offset/len scaled into the live length).
    Read { part: u8, off: u16, len: u16 },
    /// Quick decommission: spill everything to the REMOTE tier.
    Drain,
}

fn decode(kind: u8, part: u8, a: u16, b: u16) -> Op {
    match kind % 8 {
        0..=3 => Op::Write {
            part: part % PARTS,
            len: a % 60 + 1,
            seed: b as u8,
        },
        4 | 5 => Op::Read {
            part: part % PARTS,
            off: a,
            len: b,
        },
        6 => Op::WriteOversize {
            part: part % PARTS,
            seed: b as u8,
        },
        _ => Op::Drain,
    }
}

fn pattern(n: usize, seed: u8) -> Vec<u8> {
    (0..n)
        .map(|i| (i as u8).wrapping_mul(97).wrapping_add(seed))
        .collect()
}

fn check_invariants(prev: &TierStatsSnapshot, now: &TierStatsSnapshot, wrote: usize) {
    prop_assert!(
        now.memory_bytes as usize <= BUDGET,
        "usage {} exceeds budget",
        now.memory_bytes
    );
    prop_assert!(
        (now.memory_bytes as usize) < HIGH,
        "usage {} not below high watermark after op",
        now.memory_bytes
    );
    prop_assert_eq!(
        now.memory_bytes + now.spilled_bytes + now.remote_bytes,
        now.total_written,
        "tier residency must conserve bytes"
    );
    // A watermark-tripped flush reaches the low watermark.
    if now.spill_trips > prev.spill_trips && prev.memory_bytes as usize + wrote >= HIGH {
        prop_assert!(
            now.memory_bytes as usize <= LOW,
            "flush stopped at {} > low {}",
            now.memory_bytes,
            LOW
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_interleavings_stay_byte_exact(
        ops in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u16>(), any::<u16>()), 1..60),
    ) {
        let store = HybridStore::new(cfg()).unwrap();
        let mut model: Vec<Vec<u8>> = vec![Vec::new(); PARTS as usize];
        let mut prev = store.stats();
        for (kind, part, a, b) in ops {
            let op = decode(kind, part, a, b);
            let mut wrote = 0usize;
            match op {
                Op::Write { part, len, seed } => {
                    let data = pattern(len as usize, seed);
                    store.append(0, u32::from(part), &data).unwrap();
                    model[part as usize].extend_from_slice(&data);
                    wrote = data.len();
                }
                Op::WriteOversize { part, seed } => {
                    let data = pattern(BUDGET + 40, seed);
                    store.append(0, u32::from(part), &data).unwrap();
                    model[part as usize].extend_from_slice(&data);
                }
                Op::Read { part, off, len } => {
                    let expect = &model[part as usize];
                    if expect.is_empty() && store.partition_len(0, u32::from(part)).is_none() {
                        prop_assert!(store
                            .read_segment_range(0, u32::from(part), 0, 0)
                            .unwrap()
                            .is_none());
                    } else {
                        let off = u64::from(off) % (expect.len() as u64 + 8);
                        let len = u64::from(len) % (expect.len() as u64 + 8);
                        let got = store
                            .read_segment_range(0, u32::from(part), off, len)
                            .unwrap()
                            .unwrap();
                        let lo = (off as usize).min(expect.len());
                        let hi = if len == 0 {
                            expect.len()
                        } else {
                            (off as usize + len as usize).min(expect.len())
                        };
                        prop_assert_eq!(&got, &expect[lo..hi.max(lo)], "torn or wrong read");
                    }
                }
                Op::Drain => {
                    let snap = store.drain_to_remote().unwrap();
                    prop_assert_eq!(snap.memory_bytes, 0, "drain leaves nothing in memory");
                    prop_assert_eq!(snap.spilled_bytes, 0, "drain leaves nothing local");
                }
            }
            let now = store.stats();
            check_invariants(&prev, &now, wrote);
            prev = now;
        }
        // Final sweep: every partition reads back exactly.
        for (p, expect) in model.iter().enumerate() {
            if expect.is_empty() {
                continue;
            }
            let got = store.read_segment_range(0, p as u32, 0, 0).unwrap().unwrap();
            prop_assert_eq!(&got, expect, "partition {} diverged", p);
            prop_assert_eq!(store.partition_len(0, p as u32), Some(expect.len() as u64));
        }
    }
}
