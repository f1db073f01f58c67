//! Trace-driven claims about tier transitions: spills are
//! batched-sequential (exactly one `tier.spill` span per trip, spill
//! writes at strictly ascending file offsets), drains emit one
//! `tier.remote` transition per partition, and memory-tier reads show
//! up as `mem.hit` instants. Dumps the trace to `target/traces/` for
//! the CI artifact.

use jbs_obs::{EventKind, Trace, TraceQuery};
use jbs_store_hybrid::{HybridConfig, HybridStore};

fn dump_trace(trace: &Trace, name: &str) {
    let dir = std::path::Path::new("target/traces");
    if std::fs::create_dir_all(dir).is_ok() {
        let _ = std::fs::write(dir.join(name), trace.to_jsonl());
    }
}

#[test]
fn spills_are_batched_sequential_and_drains_are_traced() {
    let trace = Trace::recording(1 << 16);
    let cfg = HybridConfig {
        memory_budget: 256,
        high_watermark: 0.5,
        low_watermark: 0.2,
        huge_partition_limit: 200,
        trace: trace.clone(),
        ..HybridConfig::default()
    };
    let store = HybridStore::new(cfg).unwrap();
    // Enough appends across 3 partitions to trip several times.
    for round in 0..30u8 {
        for part in 0..3u32 {
            let data = vec![round.wrapping_add(part as u8); 20];
            store.append(0, part, &data).unwrap();
        }
    }
    // Hot read: pick a partition whose tail is still memory-resident
    // (the flusher stops at the low watermark, so one must be) and
    // read it whole — the memory tier serves the tail.
    let resident = (0..3u32)
        .find(|p| store.layout(0, *p).is_some_and(|l| l.memory > 0))
        .expect("low watermark leaves some bytes resident");
    let _ = store
        .read_segment_range(0, resident, 0, 0)
        .unwrap()
        .unwrap();
    let snap = store.drain_to_remote().unwrap();
    assert_eq!(snap.memory_bytes, 0);

    let events = trace.snapshot();
    let q = TraceQuery::new(events.clone());
    let stats = store.stats();
    assert!(stats.spill_trips >= 2, "want repeated trips: {stats:?}");
    // Exactly one flush span per trip.
    assert_eq!(q.count("tier.spill") as u64, stats.spill_trips);
    assert_eq!(q.count("tier.drain"), 1);
    // One remote transition per drained partition.
    assert_eq!(q.count("tier.remote"), 3);
    assert!(q.count("mem.hit") >= 1, "hot read must hit the memory tier");

    // Batched sequential writes: file offsets strictly ascend, and each
    // sealed buffer lands at the end of the previous one (no holes: the
    // whole spill file is one append stream).
    let writes: Vec<(u64, u64)> = events
        .iter()
        .filter(|e| e.name == "spill.write" && e.kind == EventKind::Instant)
        .map(|e| (e.a, e.b))
        .collect();
    assert_eq!(writes.len() as u64, stats.buffers_flushed);
    let mut expected_off = 0u64;
    for (off, len) in &writes {
        assert_eq!(*off, expected_off, "spill writes must be sequential");
        expected_off = off + len;
    }
    // Every spill span closed before the drain began (spans record on
    // close; the drain waits for the flusher token).
    assert!(q.count("tier.spill") > 0 && q.count("tier.drain") > 0);
    dump_trace(&trace, "hybrid_spill.jsonl");
}

#[test]
fn memory_only_workload_emits_no_spill_events() {
    let trace = Trace::recording(1 << 12);
    let cfg = HybridConfig {
        memory_budget: 1 << 20,
        trace: trace.clone(),
        ..HybridConfig::default()
    };
    let store = HybridStore::new(cfg).unwrap();
    store.append(0, 0, &[1, 2, 3, 4]).unwrap();
    let _ = store.read_segment_range(0, 0, 0, 0).unwrap().unwrap();
    let q = TraceQuery::new(trace.snapshot());
    assert_eq!(q.count("tier.spill"), 0);
    assert_eq!(q.count("spill.write"), 0);
    assert!(q.count("mem.hit") >= 1);
}
