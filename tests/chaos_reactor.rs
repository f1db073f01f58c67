//! Chaos test of the event-driven MOFSupplier: a multi-node shuffle
//! where every supplier serves from its reactor (epoll-style readiness
//! loop, zero-copy vectored transmits, permit-bounded disk workers)
//! under seeded resets, stalls past the read deadline, truncated
//! frames, and post-checksum payload corruption. The merged output must
//! be byte-exact against ground truth, the reactor must demonstrably
//! have served zero-copy, and every segment fetched through the fault
//! schedule must equal the bytes the store itself holds — the serve
//! loop may change performance, never payloads.

use jbs::des::DetRng;
use jbs::mapred::merge::{is_sorted, sort_run, Record};
use jbs::transport::client::SegmentRef;
use jbs::transport::{
    ClientConfig, FaultKind, FaultPlan, Hook, MofStore, MofSupplierServer, NetMergerClient,
    RetryPolicy, ServerOptions,
};
use jbs::workloads::{gen_terasort_records, HashPartitioner, Partitioner};
use std::sync::Arc;
use std::time::Duration;

const REDUCERS: usize = 4;
const MAPS_PER_NODE: usize = 2;
const RECORDS_PER_MAP: usize = 600;

/// The reactor chaos plan: background resets, stalls longer than the
/// client's read deadline, truncated response frames, and payload
/// corruption injected *after* the CRC is computed — plus one forced
/// occurrence of each so the recovery counters are guaranteed to move.
fn reactor_plan(seed: u64) -> Arc<FaultPlan> {
    FaultPlan::builder(seed)
        .reset(Hook::ServerWriteResponse, 0.02)
        .stall(Hook::ServerWriteResponse, 0.02, Duration::from_millis(400))
        .truncate(Hook::ServerWriteResponse, 0.01)
        .corrupt_payload(Hook::ServerPayload, 0.02)
        .force(Hook::ServerWriteResponse, 3, FaultKind::Reset)
        .force(Hook::ServerWriteResponse, 7, FaultKind::Stall)
        .force(Hook::ServerWriteResponse, 11, FaultKind::Truncate)
        .force(Hook::ServerPayload, 2, FaultKind::CorruptPayload)
        .build()
}

/// Server options for the chaos cluster: small buffers so
/// every segment spans many chunks (many fault opportunities, deep
/// pipelines through the reactor), two reactor threads so cross-reactor
/// sharding is exercised too.
fn reactor_options(plan: Arc<FaultPlan>) -> ServerOptions {
    ServerOptions {
        buffer_bytes: 4 << 10,
        reactor_threads: 2,
        faults: Some(plan),
        ..ServerOptions::default()
    }
}

/// A client tuned to survive the plan: checksums on (corruption must be
/// detected, never merged), a read deadline shorter than the injected
/// stall, and a retry budget that rides out resets and truncations.
fn chaos_client() -> NetMergerClient {
    NetMergerClient::with_client_config(ClientConfig {
        buffer_bytes: 4 << 10,
        retry: RetryPolicy {
            max_retries: 10,
            base_backoff: Duration::from_millis(30),
            max_backoff: Duration::from_millis(300),
        },
        io_timeout: Duration::from_millis(200),
        integrity_retries: 32,
        ..ClientConfig::default()
    })
}

fn records_for_node(rng: &mut DetRng) -> Vec<Vec<Record>> {
    (0..MAPS_PER_NODE)
        .map(|_| gen_terasort_records(RECORDS_PER_MAP, rng))
        .collect()
}

#[test]
fn reactor_shuffle_survives_seeded_chaos_byte_exact() {
    let mut rng = DetRng::new(6808);
    let partitioner = HashPartitioner::new(REDUCERS);
    let mut all_records: Vec<Record> = Vec::new();

    let mut servers = Vec::new();
    let mut plans = Vec::new();
    for node in 0..3usize {
        let mut store = MofStore::temp().expect("store");
        for (m, records) in records_for_node(&mut rng).into_iter().enumerate() {
            all_records.extend(records.clone());
            store
                .write_mof((node * MAPS_PER_NODE + m) as u64, records, REDUCERS, |k| {
                    partitioner.partition(k)
                })
                .expect("write mof");
        }
        let plan = reactor_plan(6800 + node as u64);
        plans.push(Arc::clone(&plan));
        servers.push(
            MofSupplierServer::start_with_options(store, reactor_options(plan)).expect("server"),
        );
    }

    let segments_for = |reducer: usize| -> Vec<SegmentRef> {
        servers
            .iter()
            .enumerate()
            .flat_map(|(node, s)| {
                (0..MAPS_PER_NODE).map(move |m| SegmentRef {
                    addr: s.addr(),
                    mof: (node * MAPS_PER_NODE + m) as u64,
                    reducer: reducer as u32,
                })
            })
            .collect()
    };

    let client = chaos_client();
    let outputs: Vec<Vec<Record>> = (0..REDUCERS)
        .map(|r| {
            client
                .levitated_merge(&segments_for(r))
                .expect("merge under reactor chaos")
        })
        .collect();

    // Byte-exact conservation: the union of reducer outputs equals the
    // generated records, faults notwithstanding.
    let mut got: Vec<Record> = outputs.iter().flatten().cloned().collect();
    let mut expect = all_records.clone();
    sort_run(&mut got);
    sort_run(&mut expect);
    assert_eq!(got.len(), expect.len(), "records lost or duplicated");
    assert_eq!(got, expect, "shuffled bytes differ from ground truth");
    for (r, out) in outputs.iter().enumerate() {
        assert!(is_sorted(out), "reducer {r} unsorted");
    }

    // The recovery machinery demonstrably fired against the reactor.
    // (Corruption *detection* is asserted by the focused test below —
    // here a corrupted frame can also die inside a window torn down by
    // a concurrent reset or stall, which is fine: byte-exactness above
    // already proves no corrupt byte reached the merge.)
    let fs = client.fetch_stats();
    assert!(fs.retries >= 1, "no retries recorded: {fs:?}");
    assert!(fs.resets >= 1, "no resets observed: {fs:?}");
    assert!(fs.timeouts >= 1, "no stall-driven timeouts: {fs:?}");

    // And the faults really were injected, not dodged.
    for plan in &plans {
        let ps = plan.stats();
        assert!(ps.resets >= 1, "plan injected no reset: {ps:?}");
        assert!(ps.stalls >= 1, "plan injected no stall: {ps:?}");
        assert!(
            ps.payload_corruptions >= 1,
            "plan injected no corruption: {ps:?}"
        );
    }

    // Reactor-mode coherence: the serve path was the zero-copy one (no
    // per-request payload memcpy), the disk workers staged through the
    // queue, and everything drains once traffic stops.
    for s in &servers {
        let mut snap = s.stats_snapshot();
        for _ in 0..400 {
            if snap.prefetch_queue_len == 0 && snap.bufpool.outstanding == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
            snap = s.stats_snapshot();
        }
        assert_eq!(snap.prefetch_queue_len, 0, "stage jobs stranded: {snap:?}");
        assert!(snap.requests >= 1 && snap.bytes >= 1, "{snap:?}");
        assert!(
            snap.zerocopy_bytes >= 1,
            "reactor never served zero-copy: {snap:?}"
        );
        assert!(
            snap.sync_stages + snap.prefetched_batches >= 1,
            "disk workers never staged: {snap:?}"
        );
        // The lease lifecycle invariant: once the response queues have
        // flushed, only the DataCache's own staged ranges (which the
        // gauge leaves out) still pin a slab buffer.
        let bp = snap.bufpool;
        assert_eq!(bp.outstanding, 0, "leases still pinned after drain: {bp:?}");
    }

    for s in servers {
        s.shutdown();
    }
}

#[test]
fn reactor_detects_post_checksum_corruption() {
    // A corruption-only plan (no resets or stalls to tear windows down
    // mid-flight), so the client's integrity counters are deterministic:
    // every flipped payload byte must be caught by the CRC the reactor
    // sealed before the flip, re-fetched, and kept out of the merge.
    let mut rng = DetRng::new(555);
    let records = gen_terasort_records(2_000, &mut rng);
    let mut store = MofStore::temp().expect("store");
    store.write_mof(0, records, 1, |_| 0).expect("write mof");

    let plan = FaultPlan::builder(3)
        .corrupt_payload(Hook::ServerPayload, 0.05)
        .force(Hook::ServerPayload, 2, FaultKind::CorruptPayload)
        .build();
    let server = MofSupplierServer::start_with_options(
        store,
        ServerOptions {
            buffer_bytes: 4 << 10,
            faults: Some(Arc::clone(&plan)),
            ..ServerOptions::default()
        },
    )
    .expect("server");

    let client = chaos_client();
    let seg = SegmentRef {
        addr: server.addr(),
        mof: 0,
        reducer: 0,
    };
    let fetched = client.fetch_segment(seg).expect("fetch despite corruption");

    // Corruption was injected, and the client caught it.
    assert!(
        plan.stats().payload_corruptions >= 1,
        "plan injected no corruption: {:?}",
        plan.stats()
    );
    let fs = client.fetch_stats();
    assert!(
        fs.corrupt_frames + fs.corrupt_refetches >= 1,
        "corruption was never detected: {fs:?}"
    );

    // And a clean fetch of the same segment yields identical bytes —
    // the re-fetched chunks healed the stream.
    let clean = NetMergerClient::with_client_config(ClientConfig {
        buffer_bytes: 4 << 10,
        ..ClientConfig::default()
    });
    let reference = clean.fetch_segment(seg).expect("clean fetch");
    assert_eq!(
        fetched, reference,
        "healed stream differs from ground truth"
    );

    server.shutdown();
}

#[test]
fn reactor_serves_the_stores_bytes_under_seeded_chaos() {
    // The oracle is the store itself: every segment fetched through the
    // seeded fault schedule must equal what `read_segment_range` returns
    // for the whole segment, read from a second handle on the same
    // directory.
    let mut rng = DetRng::new(1313);
    let partitioner = HashPartitioner::new(REDUCERS);
    let dir = std::env::temp_dir().join(format!("jbs-chaos-oracle-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = MofStore::at(&dir).expect("store");
    for (m, recs) in records_for_node(&mut rng).into_iter().enumerate() {
        store
            .write_mof(m as u64, recs, REDUCERS, |k| partitioner.partition(k))
            .expect("write mof");
    }
    let oracle = MofStore::at(&dir).expect("oracle handle");

    let plan = reactor_plan(99);
    let server = MofSupplierServer::start_with_options(
        store,
        ServerOptions {
            buffer_bytes: 4 << 10,
            faults: Some(Arc::clone(&plan)),
            ..ServerOptions::default()
        },
    )
    .expect("server");

    let client = chaos_client();
    for reducer in 0..REDUCERS as u32 {
        for mof in 0..MAPS_PER_NODE as u64 {
            let served = client
                .fetch_segment(SegmentRef {
                    addr: server.addr(),
                    mof,
                    reducer,
                })
                .expect("fetch under chaos");
            let truth = oracle
                .read_segment_range(mof, reducer, 0, 0)
                .expect("oracle read")
                .expect("segment exists");
            assert_eq!(
                served, truth,
                "served bytes differ from the store on mof {mof} reducer {reducer}"
            );
        }
    }
    let injected = plan.stats();
    assert!(injected.total() >= 4, "chaos never fired: {injected:?}");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
