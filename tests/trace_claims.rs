//! Trace-driven assertions of the paper's pipelining claims against the
//! real TCP dataplane.
//!
//! Instead of asserting on aggregate counters, these tests record the
//! dataplane's structured trace (`jbs::obs`) and assert on the *timeline*:
//! that the pipelined supplier really overlaps disk reads with network
//! transmission (Fig. 5 vs Fig. 4), that the balanced injection order
//! never starves a peer, and that retry backoff follows the exponential
//! schedule within its jitter bounds.

use jbs::des::DetRng;
use jbs::obs::{Entity, Trace};
use jbs::transport::client::SegmentRef;
use jbs::transport::retry::JITTER_FRAC;
use jbs::transport::{
    ClientConfig, FaultKind, FaultPlan, Hook, MofStore, MofSupplierServer, NetMergerClient,
    RetryPolicy, ServerOptions,
};
use jbs::workloads::{gen_terasort_records, HashPartitioner, Partitioner};
use std::time::Duration;

const REDUCERS: usize = 2;

/// A store with `mofs` MOFs of `records_per_mof` terasort records each,
/// hash-partitioned over [`REDUCERS`] reducers. Returns the store and
/// the MOF ids written (offset by `base_mof`).
fn build_store(mofs: usize, records_per_mof: usize, base_mof: u64, seed: u64) -> MofStore {
    let mut rng = DetRng::new(seed);
    let partitioner = HashPartitioner::new(REDUCERS);
    let mut store = MofStore::temp().expect("store");
    for m in 0..mofs {
        let records = gen_terasort_records(records_per_mof, &mut rng);
        store
            .write_mof(base_mof + m as u64, records, REDUCERS, |k| {
                partitioner.partition(k)
            })
            .expect("write mof");
    }
    store
}

fn segments(server: &MofSupplierServer, mofs: std::ops::Range<u64>) -> Vec<SegmentRef> {
    mofs.flat_map(|mof| {
        (0..REDUCERS).map(move |r| SegmentRef {
            addr: server.addr(),
            mof,
            reducer: r as u32,
        })
    })
    .collect()
}

/// Dump a trace's JSONL next to the build artifacts so CI can upload it.
fn dump_trace(trace: &Trace, name: &str) {
    let dir = std::path::Path::new("target/traces");
    if std::fs::create_dir_all(dir).is_ok() {
        let _ = std::fs::write(dir.join(name), trace.to_jsonl());
    }
}

/// The paper's central claim, asserted from the supplier's own timeline:
/// with pipelined prefetching the disk pass for batch k+1 runs while
/// batch k is on the wire, so `disk.read` and `net.xmit` spans overlap
/// substantially; the serial baseline performs them back to back on one
/// thread, so they essentially never coincide.
#[test]
fn pipelined_shuffle_overlaps_disk_read_with_net_xmit() {
    // Loopback transmits an 8 KB chunk in ~3 µs, which would make every
    // overlap measurement degenerate; charge each response a synthetic
    // wire time (a 100%-probability stall inside the `net.xmit` span)
    // alongside the synthetic disk latency, as a slower real network
    // would. Disk reads a 4-chunk batch in 2 ms while the wire takes
    // 4 ms to drain it — exactly the regime of Fig. 5.
    let disk_delay = Duration::from_millis(2);
    let wire_delay = Duration::from_millis(1);
    let run = |pipelined: bool| -> Trace {
        let trace = Trace::recording(1 << 16);
        let wire_cost = FaultPlan::builder(1)
            .stall(Hook::ServerWriteResponse, 1.0, wire_delay)
            .build();
        let server = MofSupplierServer::start_with_options(
            build_store(2, 5200, 0, 31),
            ServerOptions {
                buffer_bytes: 8 << 10,
                prefetch_batch: 4,
                prefetch: pipelined,
                synthetic_disk_delay: disk_delay,
                faults: Some(wire_cost),
                trace: trace.clone(),
                ..ServerOptions::default()
            },
        )
        .expect("server");
        // The serial baseline of Fig. 4 is `window = 1`: one chunk at a
        // time, each waiting for the previous — no request-level
        // pipelining that could smear xmit over an unrelated segment's
        // disk pass.
        let window = if pipelined {
            ClientConfig::default().window
        } else {
            1
        };
        let client = NetMergerClient::with_client_config(ClientConfig {
            buffer_bytes: 8 << 10,
            window,
            ..ClientConfig::default()
        });
        let segs = segments(&server, 0..2);
        let fetched: Vec<Vec<u8>> = if pipelined {
            client.fetch_all(&segs).expect("pipelined fetch")
        } else {
            segs.iter()
                .map(|&s| client.fetch_segment(s).expect("serial fetch"))
                .collect()
        };
        assert!(fetched.iter().all(|b| !b.is_empty()));
        server.shutdown();
        trace
    };

    let pipelined = run(true);
    let serial = run(false);
    dump_trace(&pipelined, "overlap_pipelined.jsonl");
    dump_trace(&serial, "overlap_serial.jsonl");

    let pq = pipelined.query();
    let sq = serial.query();
    // Both modes paid real (synthetic) disk passes and real transmissions.
    for q in [&pq, &sq] {
        assert!(q.count("disk.read") >= 8, "too few disk passes traced");
        assert!(q.count("net.xmit") >= 32, "too few transmissions traced");
        assert!(q.union_nanos("disk.read") > 0 && q.union_nanos("net.xmit") > 0);
    }

    let pipe_frac = pq.overlap_fraction("disk.read", "net.xmit");
    let serial_frac = sq.overlap_fraction("disk.read", "net.xmit");
    assert!(
        pipe_frac >= 0.30,
        "pipelined supplier should overlap disk and wire: {pipe_frac:.3}"
    );
    assert!(
        serial_frac <= 0.05,
        "serial baseline should not overlap disk and wire: {serial_frac:.3}"
    );
    assert!(
        pipe_frac > serial_frac + 0.25,
        "overlap must objectively separate the modes: {pipe_frac:.3} vs {serial_frac:.3}"
    );
}

/// Balanced injection (Sec. IV-C): the scheduler dispatches segments
/// round-robin across suppliers, so no peer waits more than one full
/// rotation between consecutive dispatches — even when every supplier
/// runs a seeded chaos plan.
#[test]
fn balanced_injection_bounds_per_peer_dispatch_gap() {
    const PEERS: usize = 3;
    const MOFS_PER_PEER: usize = 2;
    let trace = Trace::recording(1 << 16);
    let servers: Vec<MofSupplierServer> = (0..PEERS)
        .map(|node| {
            let plan = FaultPlan::builder(900 + node as u64)
                .reset(Hook::ServerWriteResponse, 0.02)
                .stall(Hook::ServerWriteResponse, 0.02, Duration::from_millis(150))
                .force(Hook::ServerWriteResponse, 2, FaultKind::Reset)
                .build();
            MofSupplierServer::start_with_options(
                build_store(
                    MOFS_PER_PEER,
                    400,
                    (node * MOFS_PER_PEER) as u64,
                    500 + node as u64,
                ),
                ServerOptions {
                    buffer_bytes: 4 << 10,
                    faults: Some(plan),
                    ..ServerOptions::default()
                },
            )
            .expect("server")
        })
        .collect();

    let client = NetMergerClient::with_client_config(ClientConfig {
        buffer_bytes: 4 << 10,
        retry: RetryPolicy {
            max_retries: 8,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(100),
        },
        io_timeout: Duration::from_millis(100),
        trace: trace.clone(),
        ..ClientConfig::default()
    });

    // All segments from all peers in one submission, deliberately listed
    // peer-major (worst case for naive FIFO dispatch).
    let segs: Vec<SegmentRef> = servers
        .iter()
        .enumerate()
        .flat_map(|(node, s)| {
            segments(
                s,
                (node * MOFS_PER_PEER) as u64..((node + 1) * MOFS_PER_PEER) as u64,
            )
        })
        .collect();
    let fetched = client.fetch_all(&segs).expect("chaos fetch");
    assert_eq!(fetched.len(), segs.len());
    dump_trace(&trace, "chaos_fairness.jsonl");

    let q = trace.query();
    assert_eq!(q.count("sched.dispatch"), segs.len());
    let peers = q.entities("sched.dispatch");
    assert_eq!(peers.len(), PEERS, "every supplier must appear: {peers:?}");
    for peer in peers {
        let gap = q
            .max_positional_gap("sched.dispatch", peer)
            .expect("peer dispatched");
        assert!(
            gap <= PEERS,
            "{peer:?} starved: waited {gap} dispatches in a {PEERS}-peer rotation"
        );
    }
    for s in servers {
        s.shutdown();
    }
}

/// Retry backoff, read straight off the trace: against a dead supplier
/// the client's `retry.backoff` sleeps follow the exponential schedule
/// `base << (attempt-1)`, each within the configured jitter band, and
/// are monotonically non-decreasing while unclamped.
#[test]
fn retry_backoff_trace_matches_exponential_schedule() {
    // A port that refuses connections: bind, learn the address, drop.
    let dead_addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        l.local_addr().expect("addr")
    };

    let policy = RetryPolicy {
        max_retries: 4,
        base_backoff: Duration::from_millis(5),
        // High enough that no attempt clamps, so monotonicity must hold.
        max_backoff: Duration::from_secs(10),
    };
    let trace = Trace::recording(1 << 10);
    let client = NetMergerClient::with_client_config(ClientConfig {
        retry: policy,
        io_timeout: Duration::from_millis(200),
        trace: trace.clone(),
        ..ClientConfig::default()
    });
    let err = client
        .fetch_segment(SegmentRef {
            addr: dead_addr,
            mof: 0,
            reducer: 0,
        })
        .expect_err("dead supplier must exhaust retries");
    assert!(err.to_string().to_lowercase().contains("gave up"), "{err}");

    let q = trace.query();
    let backoffs = q.named("retry.backoff");
    assert_eq!(
        backoffs.len(),
        policy.max_retries as usize,
        "one backoff sleep per retry"
    );
    // Attempt numbers are recorded in order: 1, 2, ..., max_retries.
    let attempts: Vec<u64> = backoffs.events().iter().map(|e| e.a).collect();
    assert_eq!(attempts, (1..=policy.max_retries as u64).collect::<Vec<_>>());
    // Every event targets the dead peer.
    assert_eq!(
        q.entities("retry.backoff"),
        vec![Entity::peer(u64::from(dead_addr.port()))]
    );

    let delays = q.values_b("retry.backoff");
    for (i, (&attempt, &delay)) in attempts.iter().zip(delays.iter()).enumerate() {
        let raw = policy
            .base_backoff
            .saturating_mul(1u32 << (attempt - 1) as u32)
            .min(policy.max_backoff)
            .as_nanos() as f64;
        let d = delay as f64;
        assert!(
            d >= raw * (1.0 - JITTER_FRAC) - 1.0 && d <= raw * (1.0 + JITTER_FRAC) + 1.0,
            "attempt {attempt}: delay {d}ns outside jitter band of raw {raw}ns"
        );
        if i > 0 {
            assert!(
                delay >= delays[i - 1],
                "backoff regressed: {delays:?}"
            );
        }
    }
    // The span's measured duration covers the requested sleep.
    for e in backoffs.events() {
        assert!(
            e.duration() >= e.b,
            "slept {}ns but promised {}ns",
            e.duration(),
            e.b
        );
    }
}
