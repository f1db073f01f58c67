//! Exhaustive crash-point sweep: for EVERY kill-at-syscall site a
//! workload reaches — counted by a `CrashPlan::survey` dry run — arm a
//! kill at that exact `(site, occurrence)`, run the workload into the
//! crash, recover the store from the surviving directory, and check the
//! recovery contract: each partition serves a byte-exact prefix of what
//! was appended, or is cleanly absent. Never torn bytes, never garbage.

use jbs_store_hybrid::{CrashPlan, HybridConfig, HybridStore};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

type Key = (u64, u32);

#[derive(Debug, Clone)]
enum Op {
    Append { key: Key, len: usize },
    Mark { key: Key },
    Drain,
}

/// Deterministic bytes for the `i`-th op, so every armed run attempts
/// the identical byte stream the survey run attempted.
fn pattern(len: usize, seed: u64) -> Vec<u8> {
    (0..len)
        .map(|i| {
            ((i as u64)
                .wrapping_mul(131)
                .wrapping_add(seed.wrapping_mul(0x9e37_79b9))
                >> 3) as u8
        })
        .collect()
}

struct Dirs {
    base: PathBuf,
}

impl Dirs {
    fn fresh(tag: &str) -> Dirs {
        let base = std::env::temp_dir().join(format!(
            "jbs-crash-sweep-{tag}-{}-{}",
            std::process::id(),
            DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&base);
        Dirs { base }
    }

    fn cfg(&self, sync_interval: u64, plan: Option<Arc<CrashPlan>>) -> HybridConfig {
        HybridConfig {
            memory_budget: 64,
            high_watermark: 0.5,
            low_watermark: 0.2,
            huge_partition_limit: 64,
            durable_spill: true,
            manifest_sync_interval: sync_interval,
            data_dir: Some(self.base.join("data")),
            remote_dir: Some(self.base.join("remote")),
            crash_plan: plan,
            ..HybridConfig::default()
        }
    }
}

impl Drop for Dirs {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.base);
    }
}

/// Run the workload (ignoring errors — a fired crash point poisons the
/// store and later ops fail fast, exactly like a dying process) and
/// return the full byte stream each partition was *asked* to hold.
fn run(ops: &[Op], cfg: HybridConfig) -> BTreeMap<Key, Vec<u8>> {
    let mut attempted: BTreeMap<Key, Vec<u8>> = BTreeMap::new();
    let store = HybridStore::new(cfg).expect("store must construct");
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Append { key, len } => {
                let data = pattern(*len, i as u64);
                attempted.entry(*key).or_default().extend_from_slice(&data);
                let _ = store.append(key.0, key.1, &data);
            }
            Op::Mark { key } => {
                store.mark_replicated(key.0, key.1);
            }
            Op::Drain => {
                let _ = store.drain_to_remote();
            }
        }
    }
    store.close();
    attempted
}

/// The sweep itself: survey the workload's crash-point space, then kill
/// at every single point and hold recovery to the prefix contract.
fn sweep(ops: &[Op], sync_interval: u64) {
    let survey = {
        let dirs = Dirs::fresh("survey");
        let plan = CrashPlan::survey();
        let attempted = run(ops, dirs.cfg(sync_interval, Some(Arc::clone(&plan))));
        assert!(!plan.fired());
        // Sanity: with no crash, the store round-trips everything it
        // still holds as an exact prefix (replica-dropped partitions
        // may be absent).
        let (rec, _) = HybridStore::recover(dirs.cfg(sync_interval, None)).expect("recover");
        check_prefixes(&rec, &attempted);
        plan.counts()
    };
    let mut fired_somewhere = false;
    for (site, count) in survey {
        for occurrence in 0..count {
            let dirs = Dirs::fresh("armed");
            let plan = CrashPlan::at(site, occurrence);
            let attempted = run(ops, dirs.cfg(sync_interval, Some(Arc::clone(&plan))));
            assert!(
                plan.fired(),
                "armed ({site:?}, {occurrence}) never fired; survey promised {count}"
            );
            fired_somewhere = true;
            let (rec, report) =
                HybridStore::recover(dirs.cfg(sync_interval, None)).expect("recover");
            check_prefixes(&rec, &attempted);
            // The recovered store must serve, not just parse: residency
            // identity holds and a fresh append round-trips.
            let s = rec.stats();
            assert_eq!(
                s.memory_bytes + s.spilled_bytes + s.remote_bytes,
                s.total_written,
                "residency after ({site:?}, {occurrence}): {s:?} {report:?}"
            );
            let probe = pattern(17, 0xfeed);
            rec.append(9, 9, &probe)
                .expect("recovered store must accept appends");
            assert_eq!(
                rec.read_segment_range(9, 9, 0, 0).unwrap().unwrap(),
                probe,
                "recovered store must serve new appends"
            );
        }
    }
    assert!(fired_somewhere, "workload reached no crash site at all");
}

/// Byte-exact or cleanly-absent: whatever `recover` rebuilt for each
/// partition must equal a prefix of the bytes the workload appended.
fn check_prefixes(rec: &HybridStore, attempted: &BTreeMap<Key, Vec<u8>>) {
    for (key, want) in attempted {
        let got = rec
            .read_segment_range(key.0, key.1, 0, 0)
            .expect("recovered read must not error")
            .unwrap_or_default();
        assert!(
            got.len() <= want.len(),
            "partition {key:?} recovered MORE than was appended"
        );
        assert_eq!(
            got,
            want[..got.len()],
            "partition {key:?} recovered torn/garbage bytes"
        );
    }
    // No partitions out of thin air.
    for key in rec.partitions() {
        assert!(
            key == (9, 9) || attempted.contains_key(&key),
            "recovered unknown partition {key:?}"
        );
    }
}

/// A handcrafted workload that walks every durable path: watermark
/// spills, an oversize direct write, a replica drop, a drain, and
/// post-drain appends — swept over every crash point it reaches.
#[test]
fn exhaustive_sweep_over_mixed_workload() {
    let ops = vec![
        Op::Append {
            key: (0, 0),
            len: 30,
        },
        Op::Append {
            key: (0, 1),
            len: 40,
        }, // trips the watermark
        Op::Append {
            key: (1, 0),
            len: 100,
        }, // oversize direct write
        Op::Mark { key: (0, 1) },
        Op::Drain, // (0,1) replica-dropped, others → REMOTE
        Op::Append {
            key: (0, 0),
            len: 45,
        }, // post-drain spill
    ];
    sweep(&ops, 1);
}

/// Interval-batched manifest syncs change which records a crash can
/// lose; sweep that shape too.
#[test]
fn exhaustive_sweep_with_batched_manifest_syncs() {
    let ops = vec![
        Op::Append {
            key: (0, 0),
            len: 40,
        },
        Op::Append {
            key: (0, 0),
            len: 40,
        },
        Op::Append {
            key: (1, 1),
            len: 40,
        },
        Op::Drain,
    ];
    sweep(&ops, 3);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random small workloads, each swept exhaustively over every
    /// crash point the survey run finds. The vendored proptest shim has
    /// no `prop_oneof!`, so op choice is an integer field of the tuple:
    /// 0..6 → small append, 6 → oversize append, 7 → mark, 8 → drain.
    #[test]
    fn every_crash_point_recovers_byte_exact_or_cleanly_absent(
        raw in proptest::collection::vec(
            (0u8..9, 0u64..2, 0u32..2, 8usize..48),
            3..9,
        ),
        sync_interval in 1u64..3,
    ) {
        let ops: Vec<Op> = raw
            .into_iter()
            .map(|(choice, mof, reducer, len)| {
                let key = (mof, reducer);
                match choice {
                    0..=5 => Op::Append { key, len },
                    6 => Op::Append { key, len: 100 },
                    7 => Op::Mark { key },
                    _ => Op::Drain,
                }
            })
            .collect();
        sweep(&ops, sync_interval);
    }
}
