//! End-to-end test of the real TCP dataplane: a full multi-node shuffle
//! over 127.0.0.1 with byte-exact verification against a reference sort.

use jbs::des::DetRng;
use jbs::mapred::merge::{is_sorted, sort_run, Record};
use jbs::transport::client::SegmentRef;
use jbs::transport::{ClientConfig, MofStore, MofSupplierServer, NetMergerClient};
use jbs::workloads::{gen_terasort_records, HashPartitioner, Partitioner, RangePartitioner};

struct MiniCluster {
    servers: Vec<MofSupplierServer>,
    /// All records ever generated (the ground truth).
    all_records: Vec<Record>,
    maps_per_node: usize,
    reducers: usize,
}

fn build_cluster<P: Partitioner>(
    nodes: usize,
    maps_per_node: usize,
    records_per_map: usize,
    reducers: usize,
    partitioner: &P,
    rng: &mut DetRng,
) -> MiniCluster {
    let mut servers = Vec::new();
    let mut all_records = Vec::new();
    for node in 0..nodes {
        let mut store = MofStore::temp().expect("store");
        for m in 0..maps_per_node {
            let records = gen_terasort_records(records_per_map, rng);
            all_records.extend(records.clone());
            store
                .write_mof((node * maps_per_node + m) as u64, records, reducers, |k| {
                    partitioner.partition(k)
                })
                .expect("write mof");
        }
        servers.push(MofSupplierServer::start(store).expect("server"));
    }
    MiniCluster {
        servers,
        all_records,
        maps_per_node,
        reducers,
    }
}

impl MiniCluster {
    fn segments_for(&self, reducer: usize) -> Vec<SegmentRef> {
        self.servers
            .iter()
            .enumerate()
            .flat_map(|(node, s)| {
                (0..self.maps_per_node).map(move |m| SegmentRef {
                    addr: s.addr(),
                    mof: (node * self.maps_per_node + m) as u64,
                    reducer: reducer as u32,
                })
            })
            .collect()
    }

    fn shuffle_all(&self, client: &NetMergerClient) -> Vec<Vec<Record>> {
        (0..self.reducers)
            .map(|r| {
                client
                    .levitated_merge(&self.segments_for(r))
                    .expect("merge")
            })
            .collect()
    }
}

fn client_with_buffer(buffer_bytes: u64) -> NetMergerClient {
    NetMergerClient::with_client_config(ClientConfig {
        buffer_bytes,
        ..ClientConfig::default()
    })
}

#[test]
fn hash_partitioned_shuffle_is_byte_exact() {
    let mut rng = DetRng::new(77);
    let partitioner = HashPartitioner::new(4);
    let cluster = build_cluster(3, 2, 800, 4, &partitioner, &mut rng);
    let client = NetMergerClient::new();
    let outputs = cluster.shuffle_all(&client);

    // Byte-exact conservation: the union of reducer outputs equals the
    // generated records.
    let mut got: Vec<Record> = outputs.iter().flatten().cloned().collect();
    let mut expect = cluster.all_records.clone();
    sort_run(&mut got);
    sort_run(&mut expect);
    assert_eq!(got, expect);

    // Each reducer's stream is sorted and correctly partitioned.
    for (r, out) in outputs.iter().enumerate() {
        assert!(is_sorted(out), "reducer {r} unsorted");
        assert!(out.iter().all(|(k, _)| partitioner.partition(k) == r));
    }
}

#[test]
fn range_partitioned_shuffle_is_globally_sorted() {
    let mut rng = DetRng::new(78);
    let sample: Vec<Vec<u8>> = gen_terasort_records(1000, &mut rng)
        .into_iter()
        .map(|(k, _)| k)
        .collect();
    let partitioner = RangePartitioner::sampled(&sample, 400, 3, &mut rng);
    let cluster = build_cluster(2, 2, 600, 3, &partitioner, &mut rng);
    let client = NetMergerClient::new();
    let outputs = cluster.shuffle_all(&client);

    // Concatenated reducer outputs form one globally sorted run — the
    // Terasort property.
    let concat: Vec<Record> = outputs.into_iter().flatten().collect();
    assert_eq!(concat.len(), cluster.all_records.len());
    assert!(is_sorted(&concat), "global order violated");
}

#[test]
fn consolidation_uses_one_connection_per_supplier() {
    let mut rng = DetRng::new(79);
    let partitioner = HashPartitioner::new(2);
    let cluster = build_cluster(4, 1, 300, 2, &partitioner, &mut rng);
    let client = NetMergerClient::new();
    let _ = cluster.shuffle_all(&client);
    let stats = client.stats();
    assert_eq!(
        stats.connections_established, 4,
        "one connection per node pair, reused across reducers and segments"
    );
    assert!(stats.connections_reused > 0);
    assert!(stats.bytes_fetched > 0);
}

#[test]
fn small_buffers_still_reassemble_exactly() {
    // An 4 KB transport buffer forces many chunked round trips per segment.
    let mut rng = DetRng::new(80);
    let partitioner = HashPartitioner::new(2);
    let cluster = build_cluster(2, 1, 500, 2, &partitioner, &mut rng);
    let tiny = client_with_buffer(4 << 10);
    let big = client_with_buffer(1 << 20);
    for r in 0..2 {
        let segs = cluster.segments_for(r);
        let a = tiny.levitated_merge(&segs).unwrap();
        let b = big.levitated_merge(&segs).unwrap();
        assert_eq!(a, b, "buffer size must not change the merged stream");
    }
}

#[test]
fn server_datacache_sees_grouped_requests() {
    let mut rng = DetRng::new(81);
    let partitioner = HashPartitioner::new(1);
    let cluster = build_cluster(1, 1, 4000, 1, &partitioner, &mut rng);
    // Small buffers so one segment takes many chunks through the server's
    // read-ahead.
    let client = client_with_buffer(8 << 10);
    let out = client.levitated_merge(&cluster.segments_for(0)).unwrap();
    assert_eq!(out.len(), 4000);
    let stats = cluster.servers[0].stats_snapshot();
    let (hits, reqs) = (stats.datacache_hits, stats.requests);
    assert!(
        hits * 2 > reqs,
        "read-ahead should serve most chunks: {hits}/{reqs}"
    );
}
