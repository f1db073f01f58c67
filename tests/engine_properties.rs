//! Property-based tests over the shuffle engines and resource models:
//! conservation laws and orderings that must hold for *any* workload
//! shape, not just the paper's.

use jbs::core::baseline::{HadoopConfig, HadoopShuffle};
use jbs::core::{JbsConfig, JbsShuffle};
use jbs::des::{CpuMeter, DetRng, SimTime};
use jbs::disk::{DiskParams, FileId, NodeStorage};
use jbs::jvm::{GcModel, GcParams};
use jbs::mapred::sim::plan::{MofInfo, ReducerInfo};
use jbs::mapred::sim::{ShuffleEngine, SimCluster};
use jbs::mapred::{ClusterConfig, ShufflePlan};
use jbs::net::Protocol;
use proptest::prelude::*;

/// Build a random-but-valid shuffle plan on a 3-node tiny cluster.
fn arb_plan() -> impl Strategy<Value = ShufflePlan> {
    let seg = 0u64..(2 << 20);
    let mof = (0usize..3, prop::collection::vec(seg, 6), 0u64..20)
        .prop_map(|(node, seg_bytes, ready_s)| (node, seg_bytes, SimTime::from_secs(ready_s)));
    prop::collection::vec(mof, 1..6).prop_map(|mofs| {
        let mofs = mofs
            .into_iter()
            .enumerate()
            .map(|(i, (node, seg_bytes, ready))| MofInfo {
                mof_id: i,
                node,
                file: FileId(2 * i as u64),
                index_file: FileId(2 * i as u64 + 1),
                ready,
                seg_bytes,
            })
            .collect();
        let reducers = (0..6).map(|id| ReducerInfo { id, node: id % 3 }).collect();
        ShufflePlan {
            mofs,
            reducers,
            avg_record_bytes: 100,
        }
    })
}

fn run_engine(
    engine: &mut dyn ShuffleEngine,
    plan: &ShufflePlan,
    seed: u64,
) -> jbs::mapred::ShuffleOutcome {
    let mut cfg = ClusterConfig::tiny(Protocol::IpoIb);
    cfg.slaves = 3;
    let mut cluster = SimCluster::new(cfg, seed);
    cluster.warm_mofs(plan);
    engine.run(&mut cluster, plan)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Both engines move exactly the plan's bytes and report every
    /// reducer ready no earlier than the last MOF commit.
    #[test]
    fn engines_conserve_bytes_and_respect_the_barrier(plan in arb_plan()) {
        prop_assert!(plan.validate().is_ok());
        let barrier = plan.last_mof_ready();
        for mk in [0usize, 1] {
            let mut jbs_engine;
            let mut hadoop_engine;
            let engine: &mut dyn ShuffleEngine = if mk == 0 {
                jbs_engine = JbsShuffle::new();
                &mut jbs_engine
            } else {
                hadoop_engine = HadoopShuffle::new();
                &mut hadoop_engine
            };
            let out = run_engine(engine, &plan, 9);
            prop_assert_eq!(out.bytes_fetched, plan.total_shuffle_bytes(), "{}", out.engine);
            prop_assert_eq!(out.ready.len(), plan.reducers.len());
            for (r, &t) in out.ready.iter().enumerate() {
                prop_assert!(t >= barrier, "{} reducer {r}: {t} before barrier {barrier}", out.engine);
            }
        }
    }

    /// Engines are deterministic functions of (plan, seed, config).
    #[test]
    fn engines_are_deterministic(plan in arb_plan(), seed in 0u64..100) {
        let a = run_engine(&mut JbsShuffle::new(), &plan, seed);
        let b = run_engine(&mut JbsShuffle::new(), &plan, seed);
        prop_assert_eq!(a.ready, b.ready);
        let c = run_engine(&mut HadoopShuffle::new(), &plan, seed);
        let d = run_engine(&mut HadoopShuffle::new(), &plan, seed);
        prop_assert_eq!(c.ready, d.ready);
    }

    /// JBS never spills; Hadoop's per-fetch connections always dominate
    /// JBS's consolidated per-pair connections.
    #[test]
    fn structural_invariants(plan in arb_plan()) {
        let j = run_engine(&mut JbsShuffle::new(), &plan, 1);
        let h = run_engine(&mut HadoopShuffle::new(), &plan, 1);
        prop_assert_eq!(j.spilled_bytes, 0);
        prop_assert!(j.connections_established <= 9, "at most one per node pair");
        let nonempty_segs: u64 = plan
            .mofs
            .iter()
            .flat_map(|m| m.seg_bytes.iter())
            .filter(|&&b| b > 0)
            .count() as u64;
        prop_assert_eq!(h.connections_established, nonempty_segs);
    }

    /// Shrinking the JBS connection cache can only add establishments,
    /// never change what is fetched.
    #[test]
    fn connection_cap_affects_only_connection_counts(plan in arb_plan(), cap in 1usize..16) {
        let base = run_engine(&mut JbsShuffle::new(), &plan, 3);
        let mut small = JbsShuffle::with_config(JbsConfig {
            max_connections: cap,
            ..JbsConfig::default()
        });
        let capped = run_engine(&mut small, &plan, 3);
        prop_assert_eq!(capped.bytes_fetched, base.bytes_fetched);
        prop_assert!(capped.connections_established >= base.connections_established);
    }

    /// Disk: grouped (sequential) reads never lose to the same reads
    /// interleaved across files.
    #[test]
    fn grouped_disk_reads_beat_interleaved(nfiles in 2usize..6, chunks in 2usize..20) {
        let params = DiskParams::sata_500gb();
        let chunk = 256u64 << 10;
        let mut grouped = NodeStorage::new(1, params.clone(), 1 << 20);
        let mut t_grouped = SimTime::ZERO;
        for f in 0..nfiles {
            for c in 0..chunks {
                t_grouped = grouped
                    .read(t_grouped, FileId(f as u64), c as u64 * chunk, chunk)
                    .completed;
            }
        }
        let mut inter = NodeStorage::new(1, params, 1 << 20);
        let mut t_inter = SimTime::ZERO;
        for c in 0..chunks {
            for f in 0..nfiles {
                t_inter = inter
                    .read(t_inter, FileId(f as u64), c as u64 * chunk, chunk)
                    .completed;
            }
        }
        prop_assert!(t_grouped <= t_inter);
    }

    /// GC: pauses are monotone in allocation and the heap stays bounded.
    #[test]
    fn gc_pause_monotone_and_heap_bounded(allocs in prop::collection::vec(1u64..(64 << 20), 1..200)) {
        let params = GcParams::task_jvm_1g();
        let mut gc = GcModel::new(params.clone());
        let mut last_total = SimTime::ZERO;
        for a in allocs {
            gc.allocate(a);
            let total = gc.stats().total_pause;
            prop_assert!(total >= last_total);
            prop_assert!(gc.old_used() < params.heap_bytes);
            last_total = total;
        }
    }

    /// CPU meter: utilization is bounded and busy time equals the charges.
    #[test]
    fn cpu_meter_conserves_charges(
        charges in prop::collection::vec((0u64..100, 1u64..50, 0.1f64..4.0), 1..60)
    ) {
        let mut m = CpuMeter::new(4, SimTime::from_secs(5));
        let mut expect = 0.0;
        for (start_s, dur_s, par) in charges {
            m.charge(SimTime::from_secs(start_s), SimTime::from_secs(dur_s), par);
            expect += dur_s as f64 * par.min(4.0);
        }
        prop_assert!((m.busy_core_secs() - expect).abs() < 1e-6);
        for (_, u) in m.utilization_series() {
            prop_assert!((0.0..=100.0 + 1e-9).contains(&u));
        }
        // Busy core-seconds reconstructed from the bins can only lose to
        // clamping (a bin cannot exceed 100% even if charges overlap past
        // the core count), never gain.
        let bins: f64 = m
            .utilization_series()
            .iter()
            .map(|&(_, u)| u / 100.0 * 4.0 * 5.0)
            .sum();
        prop_assert!(bins <= expect + 1e-6);
    }

    /// A heartbeat of zero makes the Hadoop engine's readiness independent
    /// of the RNG seed (the only stochastic part of the engine).
    #[test]
    fn zero_heartbeat_is_seed_independent(plan in arb_plan(), s1 in 0u64..50, s2 in 50u64..100) {
        let mk = || HadoopShuffle::with_config(HadoopConfig {
            heartbeat: SimTime::ZERO,
            ..HadoopConfig::default()
        });
        let a = run_engine(&mut mk(), &plan, s1);
        let b = run_engine(&mut mk(), &plan, s2);
        prop_assert_eq!(a.ready, b.ready);
    }
}

/// Non-proptest sanity: the RNG-driven plan generator itself is exercised
/// deterministically.
#[test]
fn plan_generator_smoke() {
    let mut rng = DetRng::new(5);
    let v = rng.uniform_u64(0, 10);
    assert!(v < 10);
}
