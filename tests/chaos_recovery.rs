//! Kill-restart chaos test: the crash-consistency epilogue to
//! `chaos_cluster`. A 3-supplier real-socket shuffle runs over
//! *durable* hybrid stores (every LOCALFILE commit fsynced and
//! manifested) with the control plane driving failover. One supplier is
//! crash-stopped mid-shuffle; the survivors carry wave 2 by replica
//! failover. Then the dead supplier comes BACK: its store is rebuilt
//! from the surviving directory with [`HybridStore::recover`], a fresh
//! server binds the same address, a new heartbeater re-registers it —
//! fenced to incarnation 2 — and the monitor restores its routes. The
//! final wave re-fetches everything through the restarted primary and
//! must merge byte-exact, and the trace must record the recovery
//! protocol in causal order:
//!
//! `failover.redirect` ≺ `store.recover` ≺ `registry.register`
//! (incarnation 2) ≺ `route.restore`.

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
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const NODES: usize = 3;
const REDUCERS: usize = 4;
const MAPS_PER_NODE: usize = 2;
const RECORDS_PER_MAP: usize = 400;
/// Append granularity into the replicated hybrid stores. Far above the
/// durable stores' memory budget, so every replicated chunk takes the
/// oversize direct path: fsynced extent + manifested commit.
const CHUNK: usize = 4 << 10;
/// The node that gets crash-stopped and then recovered.
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

/// Per-node surviving directories; removed only when the test ends, so
/// the victim's data outlives its first process lifetime.
struct NodeDirs {
    base: PathBuf,
}

impl NodeDirs {
    fn fresh(node: usize) -> NodeDirs {
        let base = std::env::temp_dir().join(format!(
            "jbs-chaos-recovery-{}-{node}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&base);
        NodeDirs { base }
    }

    /// A durable-spill config over this node's pinned directories. A
    /// one-byte memory budget makes EVERY append an oversize direct
    /// write, so the on-disk state is byte-complete at any kill point.
    fn cfg(&self, trace: Trace) -> HybridConfig {
        HybridConfig {
            memory_budget: 1,
            huge_partition_limit: 1,
            durable_spill: true,
            manifest_sync_interval: 1,
            data_dir: Some(self.base.join("data")),
            remote_dir: Some(self.base.join("remote")),
            trace,
            ..HybridConfig::default()
        }
    }
}

impl Drop for NodeDirs {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.base);
    }
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

/// Earliest timestamp of the events `pred` accepts, if any.
fn first_t(events: &[jbs::obs::Event], pred: impl Fn(&jbs::obs::Event) -> bool) -> Option<u64> {
    events.iter().filter(|e| pred(e)).map(|e| e.t).min()
}

#[test]
fn killed_supplier_recovers_to_serving_with_fenced_reregistration() {
    let started = Instant::now();
    let trace = Trace::recording(1 << 20);
    let mut rng = DetRng::new(4242);
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

    // Three durable hybrid suppliers over pinned directories, each
    // under seeded resets/stalls.
    let dirs: Vec<NodeDirs> = (0..NODES).map(NodeDirs::fresh).collect();
    let mut hybrids = Vec::new();
    let mut servers: Vec<Option<MofSupplierServer>> = Vec::new();
    let mut plans = Vec::new();
    for (n, dir) in dirs.iter().enumerate() {
        let hybrid = HybridStore::new(dir.cfg(trace.clone())).expect("hybrid store");
        let plan = chaos_plan(700 + n as u64);
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
        servers.push(Some(server));
    }
    let addrs: Vec<std::net::SocketAddr> =
        servers.iter().map(|s| s.as_ref().unwrap().addr()).collect();

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
    for (n, &a) in addrs.iter().enumerate() {
        assert_eq!(
            registry.incarnation(a),
            Some(1),
            "node {n} first registration is incarnation 1"
        );
    }

    // Generate the workload and replicate every segment at RF=2 through
    // the registry's placement, chunk by chunk, every chunk durable.
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

    // The victim's store must be byte-complete on disk BEFORE the kill:
    // nothing lingering in the volatile memory tier, so recovery is
    // held to full restitution, not just a durable prefix.
    let pre = hybrids[VICTIM].stats();
    assert_eq!(
        pre.memory_bytes, 0,
        "victim holds volatile bytes; the test's full-recovery claim needs none: {pre:?}"
    );
    let victim_parts: Vec<((u64, u32), u64)> = hybrids[VICTIM]
        .partitions()
        .into_iter()
        .map(|(m, r)| ((m, r), hybrids[VICTIM].partition_len(m, r).expect("len")))
        .collect();
    assert!(!victim_parts.is_empty(), "victim holds no partitions");

    let client = NetMergerClient::with_client_config(ClientConfig {
        buffer_bytes: 4 << 10,
        retry: RetryPolicy {
            max_retries: 10,
            base_backoff: Duration::from_millis(20),
            max_backoff: Duration::from_millis(200),
        },
        io_timeout: Duration::from_millis(500),
        integrity_retries: 32,
        breaker_threshold: 2,
        // Short base cooldown: it doubles per reopen (capped at 64x =
        // 640ms) while the victim is down, and wave 3 must be able to
        // wait out the deepest cooldown without stalling the test.
        breaker_cooldown: Duration::from_millis(10),
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

    // Crash-stop the victim: no deregistration, no drain — heartbeats
    // just stop and the sockets die. Its directories survive.
    if let Some(hb) = heartbeaters[VICTIM].take() {
        hb.stop();
    }
    servers[VICTIM].take().expect("victim running").shutdown();

    // Wave 2: fetches still name the victim as primary; they must fail
    // over to the surviving replica of each of its MOFs.
    outputs
        .extend((2..REDUCERS).map(|r| client.levitated_merge(&segments_for(r)).expect("wave 2")));

    // Waves 1+2 are byte-exact despite the kill.
    let mut got: Vec<Record> = outputs.iter().flatten().cloned().collect();
    let mut expect = all_records.clone();
    sort_run(&mut got);
    sort_run(&mut expect);
    assert_eq!(got, expect, "pre-recovery merge diverged from ground truth");
    let fs = client.fetch_stats();
    assert!(fs.failovers >= 1, "no replica failover recorded: {fs:?}");

    // Let the control plane discover the death before the restart, so
    // route.restore below is a real unhealthy→healthy transition.
    let deadline = Instant::now() + Duration::from_secs(10);
    while registry.is_live(addrs[VICTIM]) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        !registry.is_live(addrs[VICTIM]),
        "registry never expired the killed supplier"
    );
    std::thread::sleep(Duration::from_millis(30)); // monitor pushes the unhealthy mark

    // Recovery: rebuild the store from the surviving directory. Every
    // partition the dead process held must come back byte-exact — the
    // kill left nothing volatile.
    let (recovered, report) =
        HybridStore::recover(dirs[VICTIM].cfg(trace.clone())).expect("recover");
    assert!(!report.torn_tail, "clean shutdown left a torn manifest");
    assert_eq!(report.dropped_extents, 0, "recovery dropped extents: {report:?}");
    assert_eq!(
        report.recovered_partitions,
        victim_parts.len() as u64,
        "partition count diverged: {report:?}"
    );
    for &((mof, r), len) in &victim_parts {
        assert_eq!(
            recovered.partition_len(mof, r),
            Some(len),
            "mof {mof}/{r} did not recover byte-exact"
        );
    }

    // Back to serving: same address, recovered tiers, fresh heartbeater.
    // Re-registration must be fenced to incarnation 2.
    servers[VICTIM] = Some(
        MofSupplierServer::start_on(
            addrs[VICTIM],
            MofStore::temp().expect("restart store"),
            ServerOptions {
                buffer_bytes: 4 << 10,
                trace: trace.clone(),
                hybrid: Some(Arc::clone(&recovered)),
                ..ServerOptions::default()
            },
        )
        .expect("restart victim"),
    );
    let rh = Arc::clone(&recovered);
    heartbeaters[VICTIM] = Some(Heartbeater::spawn(
        Arc::clone(&registry),
        Arc::clone(&clock),
        addrs[VICTIM],
        Duration::from_millis(8),
        move || {
            let t = rh.stats();
            HeartbeatLoad {
                memory_bytes: t.memory_bytes,
                spilled_bytes: t.spilled_bytes,
                remote_bytes: t.remote_bytes,
                ..HeartbeatLoad::default()
            }
        },
    ));
    assert_eq!(
        registry.incarnation(addrs[VICTIM]),
        Some(2),
        "re-registration must bump the victim's incarnation"
    );

    // Wait for the monitor to restore the victim's routes. Filter by
    // port: a survivor that misses a heartbeat under load can flap and
    // contribute its own route.restore.
    let victim_port = u64::from(addrs[VICTIM].port());
    let victim_restored = |trace: &Trace| {
        trace
            .query()
            .events()
            .iter()
            .any(|e| e.name == "route.restore" && e.entity.id == victim_port)
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    while !victim_restored(&trace) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        registry.is_live(addrs[VICTIM]),
        "restarted supplier never went live again"
    );

    // The victim's client-side breaker kept deepening its cooldown
    // while the node was dead. Wait out the deepest possible cooldown
    // (64 x 10ms) so wave 3's first victim op is admitted as the
    // half-open probe instead of being proactively rerouted.
    std::thread::sleep(Duration::from_millis(700));

    // Wave 3: the full shuffle again, now THROUGH the restarted primary.
    let wave3: Vec<Vec<Record>> = (0..REDUCERS)
        .map(|r| client.levitated_merge(&segments_for(r)).expect("wave 3"))
        .collect();
    let mut got3: Vec<Record> = wave3.iter().flatten().cloned().collect();
    sort_run(&mut got3);
    assert_eq!(got3, expect, "post-recovery merge diverged from ground truth");
    for (r, out) in wave3.iter().enumerate() {
        assert!(is_sorted(out), "reducer {r} unsorted after recovery");
    }
    // The recovered store really served: its LOCALFILE tier was read.
    let post = recovered.stats();
    assert!(
        post.local_hits >= 1,
        "restarted supplier never served from recovered extents: {post:?}"
    );

    // The faults really were injected.
    let injected: u64 = plans.iter().map(|p| p.stats().total()).sum();
    assert!(injected >= 2, "resets/stalls never fired");

    // The recovery protocol's causal order, as the trace recorded it:
    // redirect (the failover) ≺ store.recover (the rebuild) ≺
    // registry.register at incarnation 2 (the fenced return) ≺
    // route.restore (traffic flips back).
    let q = trace.query();
    assert!(q.count("registry.unhealthy") >= 1, "no unhealthy mark traced");
    let events = q.events();
    let victim_restores = events
        .iter()
        .filter(|e| e.name == "route.restore" && e.entity.id == victim_port)
        .count();
    assert_eq!(victim_restores, 1, "exactly one victim route restoration");
    let redirect = first_t(events, |e| e.name == "failover.redirect").expect("redirect traced");
    let recover_t = first_t(events, |e| e.name == "store.recover").expect("recover traced");
    let reregister = first_t(events, |e| e.name == "registry.register" && e.b == 2)
        .expect("fenced re-registration traced");
    let restore = first_t(events, |e| {
        e.name == "route.restore" && e.entity.id == victim_port
    })
    .expect("restore traced");
    assert!(
        redirect < recover_t && recover_t < reregister && reregister < restore,
        "recovery protocol out of order: redirect={redirect} recover={recover_t} \
         reregister={reregister} restore={restore}"
    );
    dump_trace(&trace, "chaos_recovery.jsonl");

    assert!(
        started.elapsed() < Duration::from_secs(60),
        "recovery chaos took {:?}",
        started.elapsed()
    );

    monitor.stop();
    for hb in heartbeaters.into_iter().flatten() {
        hb.stop();
    }
    for server in servers.into_iter().flatten() {
        server.shutdown();
    }
    drop(client);
}
