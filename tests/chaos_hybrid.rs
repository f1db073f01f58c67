//! Hybrid-store chaos test: a multi-node shuffle under fault injection
//! while one supplier's memory tier is actively spilling (background
//! flusher racing concurrent appends and reads) and another supplier is
//! decommissioned mid-run — drained to the REMOTE tier and restarted on
//! the same address over the surviving objects. The merged output must
//! be byte-exact against the generated records, and the tier counters
//! must show the transitions actually happened: watermark spill trips on
//! the live node, a full memory→remote drain on the decommissioned one,
//! and remote-tier hits from its revived incarnation.

use jbs::des::DetRng;
use jbs::mapred::merge::{is_sorted, sort_run, Record};
use jbs::obs::Trace;
use jbs::store_hybrid::{HybridConfig, HybridStore};
use jbs::transport::client::SegmentRef;
use jbs::transport::{
    ClientConfig, FaultKind, FaultPlan, Hook, MofStore, MofSupplierServer, NetMergerClient,
    RetryPolicy, ServerOptions,
};
use jbs::workloads::{gen_terasort_records, HashPartitioner, Partitioner};
use std::sync::Arc;
use std::time::{Duration, Instant};

const REDUCERS: usize = 4;
const MAPS_PER_NODE: usize = 2;
const RECORDS_PER_MAP: usize = 500;
/// Append granularity into the hybrid stores: small chunks so the
/// memory tier sees many buffered extents and the flusher has real
/// interleavings to race.
const CHUNK: usize = 4 << 10;

/// Seed-deterministic payload flips after the CRC plus admission busy
/// storms, with one forced occurrence of each so the detection counters
/// are guaranteed to move.
fn chaos_plan(seed: u64) -> Arc<FaultPlan> {
    FaultPlan::builder(seed)
        .corrupt_payload(Hook::ServerPayload, 0.02)
        .busy(Hook::ServerAdmission, 0.04)
        .force(Hook::ServerPayload, 2, FaultKind::CorruptPayload)
        .force(Hook::ServerAdmission, 3, FaultKind::Busy)
        .build()
}

fn chaos_client(trace: Trace) -> NetMergerClient {
    NetMergerClient::with_client_config(ClientConfig {
        buffer_bytes: 4 << 10,
        retry: RetryPolicy {
            max_retries: 10,
            base_backoff: Duration::from_millis(30),
            max_backoff: Duration::from_millis(300),
        },
        io_timeout: Duration::from_millis(500),
        integrity_retries: 32,
        breaker_threshold: 2,
        breaker_cooldown: Duration::from_millis(50),
        trace,
        ..ClientConfig::default()
    })
}

/// Dump a trace's JSONL next to the build artifacts so CI can upload it.
fn dump_trace(trace: &Trace, name: &str) {
    let dir = std::path::Path::new("target/traces");
    if std::fs::create_dir_all(dir).is_ok() {
        let _ = std::fs::write(dir.join(name), trace.to_jsonl());
    }
}

/// Materialize map outputs as MOF segment bytes: write them through a
/// scratch on-disk store (the byte-real MOF format) and read every
/// `(mof, reducer)` segment back, so hybrid-held partitions are
/// bit-identical to what a disk supplier would serve.
fn segment_bytes(
    node: usize,
    maps: &[Vec<Record>],
    partitioner: &HashPartitioner,
) -> Vec<(u64, u32, Vec<u8>)> {
    let mut scratch = MofStore::temp().expect("scratch store");
    let mut mofs = Vec::new();
    for (m, records) in maps.iter().enumerate() {
        let mof = (node * MAPS_PER_NODE + m) as u64;
        scratch
            .write_mof(mof, records.clone(), REDUCERS, |k| partitioner.partition(k))
            .expect("write mof");
        mofs.push(mof);
    }
    let mut out = Vec::new();
    for &mof in &mofs {
        for r in 0..REDUCERS as u32 {
            let bytes = scratch
                .read_segment_range(mof, r, 0, 0)
                .expect("read segment")
                .expect("segment exists");
            assert!(!bytes.is_empty(), "workload left reducer {r} empty");
            out.push((mof, r, bytes));
        }
    }
    out
}

/// Append prepared segments into a hybrid store in `CHUNK`-sized pieces.
fn feed(hybrid: &HybridStore, segments: &[(u64, u32, Vec<u8>)]) {
    for (mof, r, bytes) in segments {
        for chunk in bytes.chunks(CHUNK) {
            hybrid.append(*mof, *r, chunk).expect("hybrid append");
        }
    }
}

#[test]
fn shuffle_survives_spill_drain_and_remote_restart() {
    let started = Instant::now();
    let trace = Trace::recording(1 << 20);
    let mut rng = DetRng::new(4242);
    let partitioner = HashPartitioner::new(REDUCERS);
    let mut all_records: Vec<Record> = Vec::new();

    // Node 0: plain MOF-on-disk supplier under payload corruption and
    // busy storms.
    let mut store0 = MofStore::temp().expect("node0 store");
    for m in 0..MAPS_PER_NODE {
        let records = gen_terasort_records(RECORDS_PER_MAP, &mut rng);
        all_records.extend(records.clone());
        store0
            .write_mof(m as u64, records, REDUCERS, |k| partitioner.partition(k))
            .expect("write mof");
    }
    let plan0 = chaos_plan(77);
    let server0 = MofSupplierServer::start_with_options(
        store0,
        ServerOptions {
            buffer_bytes: 4 << 10,
            faults: Some(Arc::clone(&plan0)),
            trace: trace.clone(),
            ..ServerOptions::default()
        },
    )
    .expect("node0 server");

    // Node 1: hybrid supplier with a memory tier small enough that the
    // workload must spill. Reducers 0-1 are fed up front; reducers 2-3
    // are appended *during* the first reduce wave by a feeder thread, so
    // the background flusher spills (with a synthetic per-buffer write
    // delay holding it mid-spill) while the supplier concurrently serves
    // — also under injected faults.
    let hybrid1 = HybridStore::new(HybridConfig {
        memory_budget: 64 << 10,
        high_watermark: 0.5,
        low_watermark: 0.2,
        background_flush: true,
        synthetic_spill_delay: Duration::from_millis(2),
        trace: trace.clone(),
        ..HybridConfig::default()
    })
    .expect("hybrid1");
    let maps1: Vec<Vec<Record>> = (0..MAPS_PER_NODE)
        .map(|_| gen_terasort_records(RECORDS_PER_MAP, &mut rng))
        .collect();
    for m in &maps1 {
        all_records.extend(m.clone());
    }
    let segs1 = segment_bytes(1, &maps1, &partitioner);
    let (eager1, late1): (Vec<_>, Vec<_>) = segs1.into_iter().partition(|(_, r, _)| *r < 2);
    feed(&hybrid1, &eager1);
    let plan1 = chaos_plan(78);
    let server1 = MofSupplierServer::start_with_options(
        MofStore::temp().expect("node1 empty store"),
        ServerOptions {
            buffer_bytes: 4 << 10,
            faults: Some(Arc::clone(&plan1)),
            trace: trace.clone(),
            hybrid: Some(Arc::clone(&hybrid1)),
            ..ServerOptions::default()
        },
    )
    .expect("node1 server");

    // Node 2: hybrid supplier that will be decommissioned mid-shuffle.
    // Its REMOTE tier lives in a caller-managed directory so the revived
    // incarnation can attach over the surviving objects.
    let remote_dir =
        std::env::temp_dir().join(format!("jbs-chaos-hybrid-remote-{}", std::process::id()));
    std::fs::create_dir_all(&remote_dir).expect("remote dir");
    let hybrid2_cfg = HybridConfig {
        memory_budget: 1 << 20,
        remote_dir: Some(remote_dir.clone()),
        trace: trace.clone(),
        ..HybridConfig::default()
    };
    let hybrid2 = HybridStore::new(hybrid2_cfg.clone()).expect("hybrid2");
    let maps2: Vec<Vec<Record>> = (0..MAPS_PER_NODE)
        .map(|_| gen_terasort_records(RECORDS_PER_MAP, &mut rng))
        .collect();
    for m in &maps2 {
        all_records.extend(m.clone());
    }
    let segs2 = segment_bytes(2, &maps2, &partitioner);
    feed(&hybrid2, &segs2);
    let fed2_total = hybrid2.stats().total_written;
    let server2 = MofSupplierServer::start_with_options(
        MofStore::temp().expect("node2 empty store"),
        ServerOptions {
            buffer_bytes: 4 << 10,
            trace: trace.clone(),
            hybrid: Some(Arc::clone(&hybrid2)),
            ..ServerOptions::default()
        },
    )
    .expect("node2 server");
    let node2_addr = server2.addr();

    let segments_for = |reducer: usize| -> Vec<SegmentRef> {
        let mut segs = Vec::new();
        for node in 0..3usize {
            let addr = match node {
                0 => server0.addr(),
                1 => server1.addr(),
                _ => node2_addr,
            };
            for m in 0..MAPS_PER_NODE {
                segs.push(SegmentRef {
                    addr,
                    mof: (node * MAPS_PER_NODE + m) as u64,
                    reducer: reducer as u32,
                });
            }
        }
        segs
    };

    let client = chaos_client(trace.clone());

    // First reduce wave (reducers 0-1) races the feeder appending
    // reducers 2-3 into node 1's spilling memory tier.
    let feeder_hybrid = Arc::clone(&hybrid1);
    let feeder = std::thread::spawn(move || feed(&feeder_hybrid, &late1));
    let mut outputs: Vec<Vec<Record>> = (0..2)
        .map(|r| {
            client
                .levitated_merge(&segments_for(r))
                .expect("merge during spill")
        })
        .collect();
    feeder.join().expect("feeder thread");

    // Quick decommission mid-run: drain node 2 (connections first, then
    // its hybrid contents to the REMOTE tier) and revive it on the same
    // address over the surviving remote objects.
    server2.drain(Duration::from_millis(300));
    let old = hybrid2.stats();
    assert_eq!(old.drains, 1, "drain path must hit the hybrid: {old:?}");
    assert_eq!(old.memory_bytes, 0, "memory tier not emptied: {old:?}");
    assert_eq!(old.spilled_bytes, 0, "local tier not emptied: {old:?}");
    assert_eq!(old.remote_bytes, fed2_total, "bytes lost in drain: {old:?}");

    let revived_hybrid =
        HybridStore::attach_remote(&remote_dir, hybrid2_cfg.clone()).expect("attach remote");
    assert_eq!(
        revived_hybrid.stats().remote_bytes,
        fed2_total,
        "remote objects did not survive the decommission"
    );
    let revived = MofSupplierServer::start_on(
        node2_addr,
        MofStore::temp().expect("revived store"),
        ServerOptions {
            buffer_bytes: 4 << 10,
            trace: trace.clone(),
            hybrid: Some(Arc::clone(&revived_hybrid)),
            ..ServerOptions::default()
        },
    )
    .expect("restart node2");

    // Second reduce wave: node 2's bytes now come from the REMOTE tier.
    outputs.extend((2..REDUCERS).map(|r| {
        client
            .levitated_merge(&segments_for(r))
            .expect("merge after remote restart")
    }));

    // Byte-exact conservation across all three storage paths: disk MOFs
    // under corruption, a spilling memory tier, and a drained-then-
    // reattached REMOTE tier.
    let mut got: Vec<Record> = outputs.iter().flatten().cloned().collect();
    let mut expect = all_records.clone();
    sort_run(&mut got);
    sort_run(&mut expect);
    assert_eq!(got.len(), expect.len(), "records lost or duplicated");
    assert_eq!(got, expect, "merge diverged from ground truth");
    for (r, out) in outputs.iter().enumerate() {
        assert!(is_sorted(out), "reducer {r} unsorted");
    }

    // Moved-tier counters. Node 1: the watermark machinery really
    // tripped, residency stayed coherent, and the supplier answered from
    // the hybrid tiers.
    let s1 = hybrid1.stats();
    assert!(s1.spill_trips >= 1, "memory tier never spilled: {s1:?}");
    assert!(s1.spilled_bytes > 0, "nothing on the LOCALFILE tier: {s1:?}");
    assert_eq!(
        s1.memory_bytes + s1.spilled_bytes + s1.remote_bytes,
        s1.total_written,
        "tier residency leaked: {s1:?}"
    );
    assert!(
        s1.memory_hits + s1.local_hits >= 1,
        "no hybrid tier served a read: {s1:?}"
    );
    assert!(
        server1.stats_snapshot().hybrid_hits >= 1,
        "supplier never answered from its hybrid store"
    );
    // Node 2's revived incarnation served from REMOTE.
    let s2 = revived_hybrid.stats();
    assert!(s2.remote_hits >= 1, "no remote-tier read after revival: {s2:?}");

    // The faults really were injected, not dodged — and survived.
    for plan in [&plan0, &plan1] {
        let ps = plan.stats();
        assert!(ps.payload_corruptions >= 1, "no flip injected: {ps:?}");
        assert!(ps.busy_storms >= 1, "no busy storm injected: {ps:?}");
    }
    let fs = client.fetch_stats();
    assert!(
        fs.corrupt_refetches + fs.spec_discards >= 1,
        "corruption was never detected: {fs:?}"
    );

    // Trace-driven: the tier transitions are visible in the record.
    let q = trace.query();
    assert!(q.count("hybrid.hit") >= 1, "no hybrid.hit traced");
    assert!(q.count("tier.spill") >= 1, "no spill span traced");
    assert_eq!(q.count("tier.drain"), 1, "exactly one hybrid drain");
    assert_eq!(
        q.count("tier.remote"),
        MAPS_PER_NODE * REDUCERS,
        "one remote transition per drained partition"
    );
    assert_eq!(q.count("server.drain.remote"), 1, "drain must go remote");
    assert!(q.count("integrity.verify") >= 1, "no chunk CRC-verified");
    dump_trace(&trace, "chaos_hybrid.jsonl");

    assert!(
        started.elapsed() < Duration::from_secs(60),
        "chaos shuffle took {:?}",
        started.elapsed()
    );

    revived.shutdown();
    server0.shutdown();
    server1.shutdown();
    drop(client);
    let _ = std::fs::remove_dir_all(&remote_dir);
}
