//! The huge-partition-limit claim, driven by a Zipf-skewed workload:
//! with reducer traffic drawn from `ZipfPartitioner` (partition 0 is
//! the hot head), the skewed reducer outgrows the per-partition limit
//! and is force-spilled to the LOCALFILE tier, while the cold reducers
//! stay fully memory-resident.

use jbs_store_hybrid::{HybridConfig, HybridStore};
use jbs_workloads::{gen_terasort_records, Partitioner, ZipfPartitioner};

#[test]
fn zipf_skewed_reducer_is_force_spilled_others_stay_resident() {
    const REDUCERS: usize = 6;
    const HUGE_LIMIT: usize = 4096;
    let cfg = HybridConfig {
        memory_budget: 64 << 10,
        high_watermark: 0.5, // 32 KiB: the workload never trips it
        low_watermark: 0.2,
        huge_partition_limit: HUGE_LIMIT,
        ..HybridConfig::default()
    };
    let store = HybridStore::new(cfg).unwrap();
    let part = ZipfPartitioner::new(REDUCERS, 1.2);
    let mut rng = jbs_des::DetRng::new(42);
    let mut per_reducer = vec![0u64; REDUCERS];
    // 160 terasort records (100 B each) = 16 KiB total: under the high
    // watermark, but the Zipf head (~46 % of keys) breaks the 4 KiB
    // huge-partition limit.
    for (k, v) in gen_terasort_records(160, &mut rng) {
        let r = part.partition(&k);
        let mut rec = k;
        rec.extend_from_slice(&v);
        store.append(0, r as u32, &rec).unwrap();
        per_reducer[r] += rec.len() as u64;
    }
    let stats = store.stats();
    assert_eq!(stats.total_written, 16_000);
    assert!(
        per_reducer[0] as usize > HUGE_LIMIT,
        "workload must actually skew: {per_reducer:?}"
    );
    assert!(
        stats.huge_forced >= 1,
        "skewed reducer force-spilled: {stats:?}"
    );
    assert!(
        (stats.memory_bytes as usize) < 32 << 10,
        "high watermark must not have tripped: {stats:?}"
    );

    // The skewed reducer moved to LOCALFILE; cold reducers never left
    // the MEMORY tier.
    let hot = store.layout(0, 0).unwrap();
    assert!(
        hot.local as usize > HUGE_LIMIT,
        "hot reducer spilled: {hot:?}"
    );
    for (r, &appended) in per_reducer.iter().enumerate().skip(1) {
        let l = store.layout(0, r as u32).unwrap();
        assert_eq!(l.local, 0, "cold reducer {r} must stay resident: {l:?}");
        assert_eq!(l.remote, 0);
        assert_eq!(l.memory, appended);
    }

    // Byte-exactness is tier-independent: the spilled reducer reads
    // back exactly as many bytes as were appended.
    for (r, &appended) in per_reducer.iter().enumerate() {
        let bytes = store
            .read_segment_range(0, r as u32, 0, 0)
            .unwrap()
            .unwrap();
        assert_eq!(bytes.len() as u64, appended);
    }
}
