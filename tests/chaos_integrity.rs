//! Integrity chaos test of the real TCP dataplane: a multi-node shuffle
//! under post-checksum payload corruption, clean-EOF truncation lies,
//! admission-control busy storms, and one supplier that is dead at
//! shuffle start and restarts mid-flight. The merged output must be
//! byte-exact against a reference sort — no corrupt byte may ever reach
//! the merge — and the trace must show the survivability machinery
//! (targeted cache-bypass re-fetches, busy backoff, the circuit
//! breaker's open → half-open → close lifecycle) actually firing.

use jbs::des::DetRng;
use jbs::mapred::merge::{is_sorted, sort_run, Record};
use jbs::obs::Trace;
use jbs::transport::client::SegmentRef;
use jbs::transport::{
    ClientConfig, FaultKind, FaultPlan, Hook, MofStore, MofSupplierServer, NetMergerClient,
    RetryPolicy, ServerOptions,
};
use jbs::workloads::{gen_terasort_records, HashPartitioner, Partitioner};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

const REDUCERS: usize = 4;
const MAPS_PER_NODE: usize = 2;
const RECORDS_PER_MAP: usize = 600;

/// The integrity fault plan: seed-deterministic payload-byte flips
/// *after* the CRC is computed, lying clean EOFs, and busy storms at
/// the admission hook — plus one forced occurrence of each so the
/// detection counters are guaranteed to move. Deliberately no resets
/// or stalls: connection-level failures stay confined to the dead
/// node 0, so the breaker-lifecycle assertions are unambiguous.
fn integrity_plan(seed: u64) -> Arc<FaultPlan> {
    FaultPlan::builder(seed)
        .corrupt_payload(Hook::ServerPayload, 0.02)
        .clean_eof(Hook::ServerPayload, 0.01)
        .busy(Hook::ServerAdmission, 0.05)
        .force(Hook::ServerPayload, 2, FaultKind::CorruptPayload)
        .force(Hook::ServerPayload, 9, FaultKind::CleanEof)
        .force(Hook::ServerAdmission, 4, FaultKind::Busy)
        .build()
}

/// A client tuned for the integrity chaos cluster: small buffers (many
/// chunks, many corruption opportunities), checksums on (the default),
/// a generous per-op integrity budget (the budget is per *op*, and a
/// whole-remainder op spans many chunks), and a hair-trigger breaker so
/// the dead supplier demonstrably opens it.
fn integrity_client(trace: Trace) -> NetMergerClient {
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

fn records_for_node(rng: &mut DetRng) -> Vec<Vec<Record>> {
    (0..MAPS_PER_NODE)
        .map(|_| gen_terasort_records(RECORDS_PER_MAP, rng))
        .collect()
}

/// Dump a trace's JSONL next to the build artifacts so CI can upload it.
fn dump_trace(trace: &Trace, name: &str) {
    let dir = std::path::Path::new("target/traces");
    if std::fs::create_dir_all(dir).is_ok() {
        let _ = std::fs::write(dir.join(name), trace.to_jsonl());
    }
}

#[test]
fn shuffle_survives_corruption_busy_storms_and_restart() {
    let started = Instant::now();
    let trace = Trace::recording(1 << 20);
    let mut rng = DetRng::new(2026);
    let partitioner = HashPartitioner::new(REDUCERS);
    let mut all_records: Vec<Record> = Vec::new();

    // Node 0: dead when the shuffle starts; its MOFs live in a
    // caller-managed directory so the restarted incarnation reopens them.
    let node0_dir =
        std::env::temp_dir().join(format!("jbs-chaos-integrity-{}", std::process::id()));
    std::fs::create_dir_all(&node0_dir).expect("node0 dir");
    let node0_addr = {
        let mut store = MofStore::at(&node0_dir).expect("node0 store");
        for (m, records) in records_for_node(&mut rng).into_iter().enumerate() {
            all_records.extend(records.clone());
            store
                .write_mof(m as u64, records, REDUCERS, |k| partitioner.partition(k))
                .expect("write mof");
        }
        let server = MofSupplierServer::start(store).expect("node0 server");
        let addr = server.addr();
        server.shutdown();
        addr
    };

    // Nodes 1 and 2: alive throughout, corrupting payloads after the
    // checksum, lying about EOF, and shedding requests in busy storms.
    let mut servers = Vec::new();
    let mut plans = Vec::new();
    for node in 1..3usize {
        let mut store = MofStore::temp().expect("store");
        for (m, records) in records_for_node(&mut rng).into_iter().enumerate() {
            all_records.extend(records.clone());
            store
                .write_mof((node * MAPS_PER_NODE + m) as u64, records, REDUCERS, |k| {
                    partitioner.partition(k)
                })
                .expect("write mof");
        }
        let plan = integrity_plan(2600 + node as u64);
        plans.push(Arc::clone(&plan));
        servers.push(
            MofSupplierServer::start_with_options(
                store,
                ServerOptions {
                    buffer_bytes: 4 << 10,
                    faults: Some(plan),
                    trace: trace.clone(),
                    ..ServerOptions::default()
                },
            )
            .expect("server"),
        );
    }

    // Restart node 0 on its original address while reducer 0's fetch is
    // already failing fast / probing against the dead port.
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

    let client = integrity_client(trace.clone());
    let outputs: Vec<Vec<Record>> = (0..REDUCERS)
        .map(|r| {
            client
                .levitated_merge(&segments_for(r))
                .expect("merge under integrity chaos")
        })
        .collect();

    // Byte-exact conservation: corruption was detected and repaired, not
    // admitted. The union of reducer outputs equals the generated records.
    let mut got: Vec<Record> = outputs.iter().flatten().cloned().collect();
    let mut expect = all_records.clone();
    sort_run(&mut got);
    sort_run(&mut expect);
    assert_eq!(got.len(), expect.len(), "records lost or duplicated");
    assert_eq!(got, expect, "corrupt bytes reached the merge");
    for (r, out) in outputs.iter().enumerate() {
        assert!(is_sorted(out), "reducer {r} unsorted");
    }

    // The integrity machinery demonstrably fired: targeted cache-bypass
    // re-fetches (distinct from connection-level retries) and honored
    // busy pushback on the client; shed requests on the suppliers.
    let fs = client.fetch_stats();
    assert!(
        fs.corrupt_refetches >= 1,
        "no targeted re-fetch recorded: {fs:?}"
    );
    assert!(fs.busy_backoffs >= 1, "no busy pushback honored: {fs:?}");
    let shed: u64 = servers
        .iter()
        .map(|s| s.stats_snapshot().busy_rejections)
        .sum();
    assert!(shed >= 1, "no supplier shed a request with Busy");

    // The faults really were injected, not dodged.
    for plan in &plans {
        let ps = plan.stats();
        assert!(ps.payload_corruptions >= 1, "no flip injected: {ps:?}");
        assert!(ps.busy_storms >= 1, "no busy storm injected: {ps:?}");
    }

    // Breaker lifecycle on dead-then-restarted node 0, read off the
    // trace: opened on consecutive dial failures, granted half-open
    // probes on the cooldown schedule, closed once the restarted
    // supplier answered — and every open precedes the close.
    let q = trace.query();
    assert!(q.count("breaker.open") >= 1, "breaker never opened");
    assert!(q.count("breaker.half_open") >= 1, "breaker never probed");
    assert!(q.count("breaker.close") >= 1, "breaker never closed");
    assert!(
        q.happens_before("breaker.open", "breaker.close"),
        "breaker closed before it opened"
    );
    assert!(
        q.count("integrity.verify") >= 1,
        "no chunk was CRC-verified"
    );
    assert!(
        q.count("integrity.refetch") >= 1,
        "no integrity re-fetch traced"
    );
    dump_trace(&trace, "chaos_integrity.jsonl");

    // Bounded recovery: chaos slows the shuffle, it must not hang it.
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "chaos shuffle took {:?}",
        started.elapsed()
    );

    // Quiescence: queues drained, nothing stuck in flight.
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

    let revived = restarter.join().expect("restart thread");
    revived.shutdown();
    for s in servers {
        s.shutdown();
    }
    let _ = std::fs::remove_dir_all(&node0_dir);
}

/// A lying clean EOF on a *single-exchange* chunk (the levitated-merge
/// path) must not silently terminate the stream early: the segment
/// length exposes the lie and a cache-bypass re-fetch repairs it.
#[test]
fn levitated_stream_survives_clean_eof_lie() {
    let mut rng = DetRng::new(51);
    let records = gen_terasort_records(1200, &mut rng);
    let mut expect = records.clone();
    sort_run(&mut expect);
    let mut store = MofStore::temp().expect("store");
    store.write_mof(0, records, 1, |_| 0).expect("write mof");

    let plan = FaultPlan::builder(7)
        .force(Hook::ServerPayload, 1, FaultKind::CleanEof)
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

    let client = NetMergerClient::with_client_config(ClientConfig {
        buffer_bytes: 4 << 10,
        ..ClientConfig::default()
    });
    let seg = SegmentRef {
        addr: server.addr(),
        mof: 0,
        reducer: 0,
    };
    let merged = client.levitated_merge(&[seg]).expect("levitated merge");
    assert_eq!(merged, expect, "clean-EOF lie truncated the stream");
    assert_eq!(plan.stats().clean_eof_lies, 1, "lie was not injected");
    assert!(
        client.fetch_stats().corrupt_refetches >= 1,
        "lie was not repaired by a targeted re-fetch"
    );
    server.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6 })]

    /// End-to-end detection property: for any seed and corruption rate,
    /// EVERY injected post-checksum flip is caught by CRC verification
    /// before the merge — the levitated merge output is byte-identical
    /// to the ground truth, and whenever the plan injected at least one
    /// flip, the client's detection counters moved.
    #[test]
    fn every_injected_flip_is_detected(seed in 1u64..10_000, pct in 0u32..8) {
        let p = f64::from(pct) * 0.01;
        let reducers = 2usize;
        let mut rng = DetRng::new(seed);
        let partitioner = HashPartitioner::new(reducers);
        let mut store = MofStore::temp().expect("store");
        let mut by_reducer: Vec<Vec<Record>> = vec![Vec::new(); reducers];
        for m in 0..2u64 {
            let records = gen_terasort_records(400, &mut rng);
            for (k, v) in &records {
                by_reducer[partitioner.partition(k)].push((k.clone(), v.clone()));
            }
            store
                .write_mof(m, records, reducers, |k| partitioner.partition(k))
                .expect("write mof");
        }

        let plan = FaultPlan::builder(seed)
            .corrupt_payload(Hook::ServerPayload, p)
            .force(Hook::ServerPayload, 1, FaultKind::CorruptPayload)
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

        let trace = Trace::recording(1 << 16);
        let client = NetMergerClient::with_client_config(ClientConfig {
            buffer_bytes: 4 << 10,
            integrity_retries: 64,
            trace: trace.clone(),
            ..ClientConfig::default()
        });
        for (r, expect) in by_reducer.iter_mut().enumerate() {
            let segs: Vec<SegmentRef> = (0..2u64)
                .map(|mof| SegmentRef {
                    addr: server.addr(),
                    mof,
                    reducer: r as u32,
                })
                .collect();
            let merged = client.levitated_merge(&segs).expect("levitated merge");
            sort_run(expect);
            prop_assert_eq!(&merged, expect, "corrupt bytes reached reducer {}", r);
        }

        let injected = plan.stats().payload_corruptions;
        prop_assert!(injected >= 1, "forced flip never fired");
        let fs = client.fetch_stats();
        prop_assert!(
            fs.corrupt_refetches + fs.spec_discards >= 1,
            "flips injected ({}) but none detected: {:?}",
            injected,
            fs
        );
        prop_assert!(
            trace.query().count("integrity.verify") >= 1,
            "no chunk was CRC-verified"
        );
        server.shutdown();
    }
}
