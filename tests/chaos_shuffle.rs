//! Chaos test of the real TCP dataplane: a multi-node shuffle under a
//! seeded fault plan — injected resets, stalls past the read deadline,
//! and one supplier that is dead when the shuffle starts and restarts
//! mid-flight on the same address. The merged output must be byte-exact
//! against a reference sort, and the client's FetchStats must show the
//! recovery machinery actually fired.

use jbs::des::DetRng;
use jbs::mapred::merge::{is_sorted, sort_run, Record};
use jbs::transport::client::SegmentRef;
use jbs::transport::{
    ClientConfig, FaultAction, FaultKind, FaultPlan, Hook, MofStore, MofSupplierServer,
    NetMergerClient, RetryPolicy, ServerOptions,
};
use jbs::workloads::{gen_terasort_records, HashPartitioner, Partitioner};
use std::sync::Arc;
use std::time::Duration;

const REDUCERS: usize = 4;
const MAPS_PER_NODE: usize = 2;
const RECORDS_PER_MAP: usize = 600;

/// The fault plan every chaos supplier runs: background resets and
/// stalls on the response path, plus one forced reset and one forced
/// stall so the recovery counters are guaranteed to move.
fn chaos_plan(seed: u64) -> Arc<FaultPlan> {
    FaultPlan::builder(seed)
        .reset(Hook::ServerWriteResponse, 0.03)
        .stall(Hook::ServerWriteResponse, 0.02, Duration::from_millis(400))
        .force(Hook::ServerWriteResponse, 3, FaultKind::Reset)
        .force(Hook::ServerWriteResponse, 9, FaultKind::Stall)
        .build()
}

/// A client tuned for the chaos cluster: small buffers (many exchanges,
/// many fault opportunities), a read deadline shorter than the injected
/// stall, and a retry budget generous enough to ride out the supplier
/// restart.
fn chaos_client() -> NetMergerClient {
    NetMergerClient::with_client_config(ClientConfig {
        buffer_bytes: 4 << 10,
        retry: RetryPolicy {
            max_retries: 10,
            base_backoff: Duration::from_millis(30),
            max_backoff: Duration::from_millis(300),
        },
        io_timeout: Duration::from_millis(200),
        ..ClientConfig::default()
    })
}

fn records_for_node(node: usize, rng: &mut DetRng) -> Vec<Vec<Record>> {
    let _ = node;
    (0..MAPS_PER_NODE)
        .map(|_| gen_terasort_records(RECORDS_PER_MAP, rng))
        .collect()
}

#[test]
fn shuffle_survives_seeded_chaos_byte_exact() {
    let mut rng = DetRng::new(4242);
    let partitioner = HashPartitioner::new(REDUCERS);
    let mut all_records: Vec<Record> = Vec::new();

    // Node 0: the supplier that is DOWN when the shuffle starts. Its MOFs
    // live in a caller-managed directory so the restarted incarnation can
    // reopen them.
    let node0_dir = std::env::temp_dir().join(format!("jbs-chaos-node0-{}", std::process::id()));
    std::fs::create_dir_all(&node0_dir).expect("node0 dir");
    let node0_addr = {
        let mut store = MofStore::at(&node0_dir).expect("node0 store");
        for (m, records) in records_for_node(0, &mut rng).into_iter().enumerate() {
            all_records.extend(records.clone());
            store
                .write_mof(m as u64, records, REDUCERS, |k| partitioner.partition(k))
                .expect("write mof");
        }
        let server = MofSupplierServer::start(store).expect("node0 server");
        let addr = server.addr();
        // Die before any client ever connects.
        server.shutdown();
        addr
    };

    // Nodes 1 and 2: alive the whole time, but running fault plans that
    // reset and stall responses on a seed-deterministic schedule.
    let mut servers = Vec::new();
    let mut plans = Vec::new();
    for node in 1..3usize {
        let mut store = MofStore::temp().expect("store");
        for (m, records) in records_for_node(node, &mut rng).into_iter().enumerate() {
            all_records.extend(records.clone());
            store
                .write_mof((node * MAPS_PER_NODE + m) as u64, records, REDUCERS, |k| {
                    partitioner.partition(k)
                })
                .expect("write mof");
        }
        let plan = chaos_plan(7000 + node as u64);
        plans.push(Arc::clone(&plan));
        servers.push(
            MofSupplierServer::start_with_options(
                store,
                ServerOptions {
                    buffer_bytes: 4 << 10,
                    faults: Some(plan),
                    ..ServerOptions::default()
                },
            )
            .expect("server"),
        );
    }

    // Restart node 0 on its original address while the shuffle is already
    // retrying against the dead port.
    let restart_dir = node0_dir.clone();
    let restarter = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(300));
        let store = MofStore::at(&restart_dir).expect("reopen node0 store");
        MofSupplierServer::start_on(node0_addr, store, ServerOptions::default())
            .expect("restart node0")
    });

    let segments_for = |reducer: usize| -> Vec<SegmentRef> {
        let mut segs: Vec<SegmentRef> = (0..MAPS_PER_NODE)
            .map(|m| SegmentRef {
                addr: node0_addr,
                mof: m as u64,
                reducer: reducer as u32,
            })
            .collect();
        for (i, s) in servers.iter().enumerate() {
            let node = i + 1;
            for m in 0..MAPS_PER_NODE {
                segs.push(SegmentRef {
                    addr: s.addr(),
                    mof: (node * MAPS_PER_NODE + m) as u64,
                    reducer: reducer as u32,
                });
            }
        }
        segs
    };

    let client = chaos_client();
    let outputs: Vec<Vec<Record>> = (0..REDUCERS)
        .map(|r| {
            client
                .levitated_merge(&segments_for(r))
                .expect("merge under chaos")
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

    // The recovery machinery demonstrably fired.
    let fs = client.fetch_stats();
    assert!(fs.retries >= 1, "no retries recorded: {fs:?}");
    assert!(fs.reconnects >= 1, "no reconnects recorded: {fs:?}");
    assert!(fs.resets >= 1, "no resets observed: {fs:?}");
    assert!(
        fs.timeouts >= 1,
        "no stall-driven timeouts observed: {fs:?}"
    );
    assert!(
        fs.connect_failures >= 1,
        "dead node 0 should have refused at least one dial: {fs:?}"
    );

    // And the faults really were injected (not dodged): each faulty
    // supplier's plan shows at least the forced reset and stall.
    for plan in &plans {
        let ps = plan.stats();
        assert!(ps.resets >= 1, "plan injected no reset: {ps:?}");
        assert!(ps.stalls >= 1, "plan injected no stall: {ps:?}");
    }

    // Pipeline gauge coherence, chaos notwithstanding. The merge has
    // returned, so after the workers drain their speculative tails the
    // live gauges must read zero while the peaks prove the pipeline ran.
    let fs = {
        let mut fs = client.fetch_stats();
        for _ in 0..400 {
            if fs.queued_ops == 0 && fs.window_inflight == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
            fs = client.fetch_stats();
        }
        fs
    };
    assert_eq!(fs.queued_ops, 0, "ops stuck in peer queues: {fs:?}");
    assert_eq!(fs.window_inflight, 0, "requests stuck in flight: {fs:?}");
    assert!(fs.window_peak >= 1, "pipelining never engaged: {fs:?}");
    assert!(fs.queue_depth_peak >= 1, "no op ever queued: {fs:?}");
    for (addr, depth) in client.queue_depths() {
        assert_eq!(depth, 0, "queue for {addr} not drained");
    }

    // Supplier-side coherence: the prefetch queue drains once traffic
    // stops, and no lease outlives the response that pinned it.
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
        assert!(snap.prefetch_queue_peak >= snap.prefetch_queue_len);
        assert!(snap.requests >= 1 && snap.bytes >= 1, "{snap:?}");
        assert!(
            snap.datacache_hits >= 1,
            "read-ahead never paid off: {snap:?}"
        );
        assert!(
            snap.sync_stages + snap.prefetched_batches >= 1,
            "disk thread never staged: {snap:?}"
        );
        // Once the response queues have flushed, only the DataCache's
        // own staged ranges (which the gauge leaves out) pin a buffer.
        let bp = snap.bufpool;
        assert_eq!(bp.outstanding, 0, "leases still pinned after drain: {bp:?}");
    }

    let revived = restarter.join().expect("restart thread");
    revived.shutdown();
    for s in servers {
        s.shutdown();
    }
    let _ = std::fs::remove_dir_all(&node0_dir);
}

#[test]
fn resumed_fetch_continues_at_received_offset() {
    // One supplier, one multi-chunk segment, a reset forced on the third
    // exchange: the client must resume at 2 buffers' offset, not refetch
    // from zero.
    let mut rng = DetRng::new(99);
    let records = gen_terasort_records(2000, &mut rng);
    let mut store = MofStore::temp().expect("store");
    store.write_mof(0, records, 1, |_| 0).expect("write mof");

    let buffer: u64 = 4 << 10;
    let plan = FaultPlan::builder(1)
        .force(Hook::ServerWriteResponse, 2, FaultKind::Reset)
        .build();
    let server = MofSupplierServer::start_with_options(
        store,
        ServerOptions {
            buffer_bytes: buffer,
            faults: Some(Arc::clone(&plan)),
            ..ServerOptions::default()
        },
    )
    .expect("server");

    let client = NetMergerClient::with_client_config(ClientConfig {
        buffer_bytes: buffer,
        // Lockstep: the supplier has read every request when the forced
        // reset closes the connection, so the two responses it already
        // wrote arrive. With requests still unread in its socket the
        // close is an RST that discards them, and nothing would be left
        // to resume from.
        window: 1,
        retry: RetryPolicy {
            max_retries: 4,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(20),
        },
        ..ClientConfig::default()
    });
    let seg = SegmentRef {
        addr: server.addr(),
        mof: 0,
        reducer: 0,
    };
    let fetched = client.fetch_segment(seg).expect("fetch with resume");

    // Reference copy from a fault-free fetch.
    let clean_client = NetMergerClient::with_client_config(ClientConfig {
        buffer_bytes: buffer,
        ..ClientConfig::default()
    });
    let reference = clean_client.fetch_segment(seg).expect("clean fetch");
    assert_eq!(fetched, reference, "resumed fetch corrupted the segment");

    let fs = client.fetch_stats();
    assert_eq!(plan.stats().resets, 1, "exactly the forced reset fired");
    assert!(fs.retries >= 1);
    assert_eq!(
        fs.resumed_bytes,
        2 * buffer,
        "retry must resume after the two chunks already received"
    );
    server.shutdown();
}

#[test]
fn same_seed_yields_identical_fault_schedule() {
    // The acceptance property for chaos runs: two plans built from the
    // same seed and rules produce the same decision at every occurrence
    // of every hook, so a failing chaos run replays exactly.
    let a = chaos_plan(4242);
    let b = chaos_plan(4242);
    let mut resets = 0;
    let mut stalls = 0;
    for _ in 0..300 {
        let da = a.decide(Hook::ServerWriteResponse);
        let db = b.decide(Hook::ServerWriteResponse);
        assert_eq!(da, db, "fault schedules diverged");
        match da {
            FaultAction::Reset => resets += 1,
            FaultAction::Stall(_) => stalls += 1,
            _ => {}
        }
    }
    assert_eq!(a.stats(), b.stats());
    assert!(resets >= 1, "schedule contains no reset");
    assert!(stalls >= 1, "schedule contains no stall");

    // A different seed gives a different schedule.
    let c = chaos_plan(77);
    let d = chaos_plan(4242);
    let mismatches = (0..300)
        .filter(|_| c.decide(Hook::ServerWriteResponse) != d.decide(Hook::ServerWriteResponse))
        .count();
    assert!(
        mismatches > 0,
        "different seeds produced identical schedules"
    );
}
