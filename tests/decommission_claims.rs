//! Trace-driven decommission claims: the graceful exit of a supplier
//! must follow the documented sequence — deregister from the registry,
//! reroute the data plane, then drain (dropping partitions a surviving
//! replica holds instead of copying them to the remote tier) — and no
//! segment read may be lost across it: every byte fetched before the
//! decommission is fetched again, byte-identical, from the surviving
//! replica afterwards. The ordering is proven from the recorded trace
//! with `TraceQuery::happens_before`, not from test-side bookkeeping.

use jbs::control::{decommission, ControlClock, Registry, RegistryConfig, Replicator};
use jbs::des::DetRng;
use jbs::mapred::merge::Record;
use jbs::obs::Trace;
use jbs::store_hybrid::{HybridConfig, HybridStore};
use jbs::transport::client::SegmentRef;
use jbs::transport::{
    ClientConfig, MofStore, MofSupplierServer, NetMergerClient, RetryPolicy, RouteTable,
    ServerOptions,
};
use jbs::workloads::{gen_terasort_records, HashPartitioner, Partitioner};
use std::sync::Arc;
use std::time::Duration;

const REDUCERS: usize = 3;
const MAPS: usize = 2;
const RECORDS_PER_MAP: usize = 300;

fn dump_trace(trace: &Trace, name: &str) {
    let dir = std::path::Path::new("target/traces");
    if std::fs::create_dir_all(dir).is_ok() {
        let _ = std::fs::write(dir.join(name), trace.to_jsonl());
    }
}

#[test]
fn decommission_sequence_is_ordered_and_loses_no_reads() {
    let trace = Trace::recording(1 << 20);
    let mut rng = DetRng::new(2727);
    let partitioner = HashPartitioner::new(REDUCERS);
    let clock = ControlClock::new();

    // Two suppliers, RF=2: every partition on the primary is mirrored
    // on the survivor.
    let registry = Arc::new(Registry::new(RegistryConfig {
        // Long window: nothing expires by accident; health transitions
        // in this test come only from the decommission itself.
        heartbeat_interval_nanos: 60_000_000_000,
        replication: 2,
        trace: trace.clone(),
        ..RegistryConfig::default()
    }));
    let routes = Arc::new(RouteTable::new());

    let mut hybrids = Vec::new();
    let mut servers = Vec::new();
    for _ in 0..2 {
        let hybrid = HybridStore::new(HybridConfig {
            trace: trace.clone(),
            ..HybridConfig::default()
        })
        .expect("hybrid store");
        let server = MofSupplierServer::start_with_options(
            MofStore::temp().expect("empty disk store"),
            ServerOptions {
                buffer_bytes: 4 << 10,
                trace: trace.clone(),
                hybrid: Some(Arc::clone(&hybrid)),
                ..ServerOptions::default()
            },
        )
        .expect("supplier");
        hybrids.push(hybrid);
        servers.push(server);
    }
    let addrs: Vec<std::net::SocketAddr> = servers.iter().map(|s| s.addr()).collect();
    registry.register(addrs[0], 0);
    registry.register(addrs[1], 0);

    // Replicate MOF segments to both nodes through the registry
    // placement (primary = node 0).
    let mut replicator = Replicator::new(Arc::clone(&registry), trace.clone());
    replicator.add_store(addrs[0], Arc::clone(&hybrids[0]));
    replicator.add_store(addrs[1], Arc::clone(&hybrids[1]));
    let mut scratch = MofStore::temp().expect("scratch store");
    for mof in 0..MAPS as u64 {
        let records: Vec<Record> = gen_terasort_records(RECORDS_PER_MAP, &mut rng);
        scratch
            .write_mof(mof, records, REDUCERS, |k| partitioner.partition(k))
            .expect("write mof");
        for r in 0..REDUCERS as u32 {
            let bytes = scratch
                .read_segment_range(mof, r, 0, 0)
                .expect("read segment")
                .expect("segment exists");
            let placed = replicator
                .replicate(addrs[0], mof, r, &bytes)
                .expect("replicate");
            assert_eq!(placed, addrs, "RF=2 placement spans both nodes");
        }
    }
    registry.sync_routes(&routes);
    let fed_primary = hybrids[0].stats().total_written;
    assert!(fed_primary > 0);

    let client_config = || ClientConfig {
        buffer_bytes: 4 << 10,
        retry: RetryPolicy {
            max_retries: 6,
            base_backoff: Duration::from_millis(20),
            max_backoff: Duration::from_millis(200),
        },
        breaker_threshold: 2,
        breaker_cooldown: Duration::from_millis(50),
        routes: Some(Arc::clone(&routes)),
        trace: trace.clone(),
        ..ClientConfig::default()
    };

    // Every fetch names the doomed primary.
    let mut segs = Vec::new();
    for mof in 0..MAPS as u64 {
        for reducer in 0..REDUCERS as u32 {
            segs.push(SegmentRef {
                addr: addrs[0],
                mof,
                reducer,
            });
        }
    }

    // Wave 1: served by the primary. Its client is dropped before the
    // decommission so the connection drain sees the sockets close —
    // consolidated connections are per-client state.
    let wave1 = NetMergerClient::with_client_config(client_config());
    let before = wave1.fetch_all(&segs).expect("wave 1 fetch");
    assert!(before.iter().all(|b| !b.is_empty()));
    drop(wave1);

    // Graceful decommission of the primary: deregister -> reroute ->
    // replica-aware drain. Every partition has a live replica on the
    // survivor, so the drain must *drop* them all rather than copying
    // to the remote tier.
    let server0 = servers.remove(0);
    let clean = decommission(
        &registry,
        &routes,
        addrs[0],
        server0,
        &hybrids[0],
        Duration::from_secs(2),
        clock.now_nanos(),
    );
    assert!(clean, "decommission did not drain cleanly");

    let s0 = hybrids[0].stats();
    assert_eq!(
        s0.replica_drops,
        (MAPS * REDUCERS) as u64,
        "every replicated partition must be dropped, not copied: {s0:?}"
    );
    assert_eq!(s0.replica_dropped_bytes, fed_primary, "drop bytes: {s0:?}");
    assert_eq!(
        s0.remote_bytes, 0,
        "nothing should reach the remote tier: {s0:?}"
    );
    assert_eq!(s0.drains, 1, "exactly one drain: {s0:?}");
    assert_eq!(
        registry.health(addrs[0]),
        Some(jbs::control::Health::Decommissioned)
    );
    assert!(routes.is_unhealthy(addrs[0]), "route table not rerouted");

    // Wave 2: the same fetches, still naming the decommissioned
    // address, must be rerouted to the survivor and return identical
    // bytes — zero segment reads lost across the decommission.
    let client = NetMergerClient::with_client_config(client_config());
    let after = client.fetch_all(&segs).expect("wave 2 fetch");
    assert_eq!(before, after, "segment bytes diverged across decommission");
    let fs = client.fetch_stats();
    assert!(fs.failovers >= segs.len() as u64, "reroutes: {fs:?}");

    // Trace-driven ordering claims: deregister strictly precedes the
    // server drain, which strictly precedes the replica drops inside
    // it; and no redirect fires before the drops are done (wave 2
    // started after the drain returned).
    let q = trace.query();
    assert_eq!(q.count("registry.deregister"), 1);
    assert_eq!(q.count("server.drain"), 1);
    assert_eq!(q.count("tier.drop.replica"), MAPS * REDUCERS);
    assert!(
        q.happens_before("registry.deregister", "server.drain"),
        "deregister must precede the connection drain"
    );
    assert!(
        q.happens_before("registry.deregister", "tier.drop.replica"),
        "deregister must precede the tier drops"
    );
    assert!(
        q.happens_before("server.drain", "tier.drop.replica"),
        "the drain begins before its tier drops"
    );
    assert!(
        q.happens_before("tier.drop.replica", "failover.redirect"),
        "redirects must only start once the drain finished dropping"
    );
    dump_trace(&trace, "decommission_claims.jsonl");

    for server in servers {
        server.shutdown();
    }
    drop(client);
}
