//! Cluster chaos test: a 3-supplier real-socket shuffle with the
//! control plane driving replica failover. Segments are written at
//! replication factor 2 through the registry's rendezvous placement,
//! suppliers heartbeat into the registry from background threads, and a
//! monitor pushes the registry's view into the data plane's route
//! table. One supplier is then killed mid-shuffle while seeded resets
//! and stalls batter the survivors — the merge must still come out
//! byte-exact by failing over to the surviving replicas, and every
//! `failover.redirect` event in the trace must come only *after* a
//! breaker-open or a registry unhealthy mark, never spontaneously.

use jbs::control::{ControlClock, HeartbeatLoad, Heartbeater, Monitor, Registry, Replicator};
use jbs::des::DetRng;
use jbs::mapred::merge::{is_sorted, sort_run, Record};
use jbs::obs::Trace;
use jbs::store_hybrid::{HybridConfig, HybridStore};
use jbs::transport::client::SegmentRef;
use jbs::transport::{
    ClientConfig, FaultKind, FaultPlan, Hook, MofStore, MofSupplierServer, NetMergerClient,
    RetryPolicy, RouteTable, ServerOptions,
};
use jbs::workloads::{gen_terasort_records, HashPartitioner, Partitioner};
use std::sync::Arc;
use std::time::{Duration, Instant};

const NODES: usize = 3;
const REDUCERS: usize = 4;
const MAPS_PER_NODE: usize = 2;
const RECORDS_PER_MAP: usize = 400;
/// Append granularity into the replicated hybrid stores.
const CHUNK: usize = 4 << 10;
/// The node that gets killed mid-shuffle.
const VICTIM: usize = 1;

/// Seeded resets and stalls on the serving path, with one forced
/// occurrence of each so the counters are guaranteed to move.
fn chaos_plan(seed: u64) -> Arc<FaultPlan> {
    FaultPlan::builder(seed)
        .reset(Hook::ServerWriteResponse, 0.01)
        .stall(Hook::ServerWriteResponse, 0.01, Duration::from_millis(20))
        .force(Hook::ServerWriteResponse, 3, FaultKind::Reset)
        .force(Hook::ServerWriteResponse, 7, FaultKind::Stall)
        .build()
}

/// Dump a trace's JSONL next to the build artifacts so CI can upload it.
fn dump_trace(trace: &Trace, name: &str) {
    let dir = std::path::Path::new("target/traces");
    if std::fs::create_dir_all(dir).is_ok() {
        let _ = std::fs::write(dir.join(name), trace.to_jsonl());
    }
}

/// Materialize map outputs as byte-real MOF segments via a scratch
/// on-disk store.
fn segment_bytes(
    node: usize,
    maps: &[Vec<Record>],
    partitioner: &HashPartitioner,
) -> Vec<(u64, u32, Vec<u8>)> {
    let mut scratch = MofStore::temp().expect("scratch store");
    let mut out = Vec::new();
    for (m, records) in maps.iter().enumerate() {
        let mof = (node * MAPS_PER_NODE + m) as u64;
        scratch
            .write_mof(mof, records.clone(), REDUCERS, |k| partitioner.partition(k))
            .expect("write mof");
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

/// Earliest timestamp of `name` in the recorded events, if any.
fn first_t(events: &[jbs::obs::Event], name: &str) -> Option<u64> {
    events.iter().filter(|e| e.name == name).map(|e| e.t).min()
}

#[test]
fn shuffle_survives_killed_supplier_via_replica_failover() {
    let started = Instant::now();
    let trace = Trace::recording(1 << 20);
    let mut rng = DetRng::new(9191);
    let partitioner = HashPartitioner::new(REDUCERS);

    // Control plane: registry (RF=2, fast expiry), route table, clock.
    let registry = Arc::new(Registry::new(jbs::control::RegistryConfig {
        heartbeat_interval_nanos: 25_000_000, // 25ms
        unhealthy_after_missed: 2,
        replication: 2,
        trace: trace.clone(),
        ..jbs::control::RegistryConfig::default()
    }));
    let routes = Arc::new(RouteTable::new());
    let clock = ControlClock::new();

    // Three hybrid suppliers, each under seeded resets/stalls.
    let mut hybrids = Vec::new();
    let mut servers = Vec::new();
    let mut plans = Vec::new();
    for n in 0..NODES {
        let hybrid = HybridStore::new(HybridConfig {
            trace: trace.clone(),
            ..HybridConfig::default()
        })
        .expect("hybrid store");
        let plan = chaos_plan(100 + n as u64);
        let server = MofSupplierServer::start_with_options(
            MofStore::temp().expect("empty disk store"),
            ServerOptions {
                buffer_bytes: 4 << 10,
                faults: Some(Arc::clone(&plan)),
                trace: trace.clone(),
                hybrid: Some(Arc::clone(&hybrid)),
                ..ServerOptions::default()
            },
        )
        .expect("supplier");
        hybrids.push(hybrid);
        plans.push(plan);
        servers.push(server);
    }
    let addrs: Vec<std::net::SocketAddr> = servers.iter().map(|s| s.addr()).collect();

    // Heartbeaters register each supplier and keep it live; the monitor
    // expires silent nodes and pushes health + placements into the
    // route table the data plane consults.
    let mut heartbeaters: Vec<Option<Heartbeater>> = Vec::new();
    for n in 0..NODES {
        let h = Arc::clone(&hybrids[n]);
        heartbeaters.push(Some(Heartbeater::spawn(
            Arc::clone(&registry),
            Arc::clone(&clock),
            addrs[n],
            Duration::from_millis(8),
            move || {
                let t = h.stats();
                HeartbeatLoad {
                    memory_bytes: t.memory_bytes,
                    spilled_bytes: t.spilled_bytes,
                    remote_bytes: t.remote_bytes,
                    ..HeartbeatLoad::default()
                }
            },
        )));
    }
    let monitor = Monitor::spawn(
        Arc::clone(&registry),
        Arc::clone(&clock),
        Arc::clone(&routes),
        Duration::from_millis(10),
    );

    // Generate the workload and replicate every segment at RF=2 through
    // the registry's placement, in pipeline order, chunk by chunk.
    let mut all_records: Vec<Record> = Vec::new();
    let mut replicator = Replicator::new(Arc::clone(&registry), trace.clone());
    for (a, h) in addrs.iter().zip(&hybrids) {
        replicator.add_store(*a, Arc::clone(h));
    }
    for (n, &primary) in addrs.iter().enumerate() {
        let maps: Vec<Vec<Record>> = (0..MAPS_PER_NODE)
            .map(|_| gen_terasort_records(RECORDS_PER_MAP, &mut rng))
            .collect();
        for m in &maps {
            all_records.extend(m.clone());
        }
        for (mof, r, bytes) in segment_bytes(n, &maps, &partitioner) {
            for chunk in bytes.chunks(CHUNK) {
                let placed = replicator
                    .replicate(primary, mof, r, chunk)
                    .expect("replicate");
                assert_eq!(placed.len(), 2, "RF=2 placement for mof {mof}");
                assert_eq!(placed[0], primary, "primary leads placement");
            }
        }
    }
    registry.sync_routes(&routes);

    // Every placement is fully mirrored: each replica holds the same
    // partition lengths as the primary.
    for mof in 0..(NODES * MAPS_PER_NODE) as u64 {
        let placement = registry.placement(mof).expect("placed");
        for r in 0..REDUCERS as u32 {
            let lens: Vec<Option<u64>> = placement
                .iter()
                .map(|a| {
                    let i = addrs.iter().position(|x| x == a).expect("known addr");
                    hybrids[i].partition_len(mof, r)
                })
                .collect();
            assert!(lens[0].is_some(), "primary lost mof {mof}/{r}");
            assert_eq!(lens[0], lens[1], "replica diverged on mof {mof}/{r}");
        }
    }

    // NetMerger with the registry-fed route table wired in: the
    // scheduler reroutes proactively on unhealthy marks, the client
    // fails over reactively on breaker-open errors.
    let client = NetMergerClient::with_client_config(ClientConfig {
        buffer_bytes: 4 << 10,
        retry: RetryPolicy {
            max_retries: 10,
            base_backoff: Duration::from_millis(20),
            max_backoff: Duration::from_millis(200),
            jitter_frac: 0.2,
        },
        connect_timeout: Duration::from_secs(1),
        read_timeout: Duration::from_millis(500),
        write_timeout: Duration::from_secs(1),
        integrity_retries: 32,
        breaker_threshold: 2,
        breaker_cooldown: Duration::from_millis(50),
        routes: Some(Arc::clone(&routes)),
        trace: trace.clone(),
        ..ClientConfig::default()
    });

    let segments_for = |reducer: usize| -> Vec<SegmentRef> {
        (0..(NODES * MAPS_PER_NODE) as u64)
            .map(|mof| SegmentRef {
                addr: addrs[(mof as usize) / MAPS_PER_NODE],
                mof,
                reducer: reducer as u32,
            })
            .collect()
    };

    // Wave 1: all suppliers up (resets/stalls only).
    let mut outputs: Vec<Vec<Record>> = (0..2)
        .map(|r| client.levitated_merge(&segments_for(r)).expect("wave 1"))
        .collect();

    // Kill the victim mid-shuffle: crash-stop its heartbeats and tear
    // the server down hard. No deregistration — the registry must
    // *discover* the death via missed heartbeats while the client's
    // breaker discovers it via connection failures.
    if let Some(hb) = heartbeaters[VICTIM].take() {
        hb.stop();
    }
    servers.remove(VICTIM).shutdown();

    // Wave 2: fetches still name the victim as primary; they must fail
    // over to the surviving replica of each of its MOFs.
    outputs
        .extend((2..REDUCERS).map(|r| client.levitated_merge(&segments_for(r)).expect("wave 2")));

    // Byte-exact conservation across the kill.
    let mut got: Vec<Record> = outputs.iter().flatten().cloned().collect();
    let mut expect = all_records.clone();
    sort_run(&mut got);
    sort_run(&mut expect);
    assert_eq!(got.len(), expect.len(), "records lost or duplicated");
    assert_eq!(got, expect, "merge diverged from ground truth");
    for (r, out) in outputs.iter().enumerate() {
        assert!(is_sorted(out), "reducer {r} unsorted");
    }

    // The failover really happened and went through the control plane.
    let fs = client.fetch_stats();
    assert!(fs.failovers >= 1, "no replica failover recorded: {fs:?}");
    let deadline = Instant::now() + Duration::from_secs(10);
    while registry.is_live(addrs[VICTIM]) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        !registry.is_live(addrs[VICTIM]),
        "registry never expired the killed supplier"
    );
    for m in 0..MAPS_PER_NODE as u64 {
        let mof = (VICTIM * MAPS_PER_NODE) as u64 + m;
        let resolved = registry.resolve(mof);
        assert!(
            !resolved.contains(&addrs[VICTIM]),
            "resolve still names the dead supplier for mof {mof}"
        );
        assert!(
            !resolved.is_empty(),
            "mof {mof} lost all replicas: placement {:?}",
            registry.placement(mof)
        );
    }

    // The faults really were injected on the survivors.
    let injected: u64 = plans.iter().map(|p| p.stats().total()).sum();
    assert!(injected >= 2, "resets/stalls never fired");

    // Trace claims. Replication is visible; and the ordering invariant:
    // the first failover.redirect may only follow a breaker-open or a
    // registry unhealthy mark — redirects are never spontaneous.
    let q = trace.query();
    assert!(q.count("replica.write") >= 1, "no replica write traced");
    assert!(q.count("failover.redirect") >= 1, "no redirect traced");
    assert!(
        q.count("registry.unhealthy") >= 1,
        "registry never marked the victim unhealthy"
    );
    let events = q.events();
    let redirect = first_t(events, "failover.redirect").expect("redirect exists");
    let breaker_open = first_t(events, "breaker.open");
    let unhealthy = first_t(events, "registry.unhealthy");
    let earliest_cause = [breaker_open, unhealthy].into_iter().flatten().min();
    let cause = earliest_cause.expect("a failover cause must be traced");
    assert!(
        redirect >= cause,
        "failover.redirect at {redirect}ns precedes its earliest cause at {cause}ns"
    );
    dump_trace(&trace, "chaos_cluster.jsonl");

    assert!(
        started.elapsed() < Duration::from_secs(60),
        "cluster chaos took {:?}",
        started.elapsed()
    );

    monitor.stop();
    for hb in heartbeaters.into_iter().flatten() {
        hb.stop();
    }
    for server in servers {
        server.shutdown();
    }
    drop(client);
}
