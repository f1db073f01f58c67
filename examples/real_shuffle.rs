//! A real distributed shuffle over loopback TCP: four MOFSupplier servers
//! (one per simulated "node"), Terasort-style records partitioned by a
//! sampled range partitioner, fetched and merged by a NetMerger per
//! reducer — genuine bytes, genuine sockets, verified sorted output.
//!
//! ```sh
//! cargo run --release --example real_shuffle
//! ```

use jbs::des::DetRng;
use jbs::mapred::merge::is_sorted;
use jbs::transport::client::SegmentRef;
use jbs::transport::{MofStore, MofSupplierServer, NetMergerClient};
use jbs::workloads::{gen_terasort_records, Partitioner, RangePartitioner};

const NODES: usize = 4;
const MAPS_PER_NODE: usize = 2;
const REDUCERS: usize = 3;
const RECORDS_PER_MAP: usize = 5_000;

fn main() {
    let mut rng = DetRng::new(2013);

    // "Map phase": generate records, build a Terasort range partitioner
    // from a sample, and write one MOF per MapTask on each node.
    let all_keys: Vec<Vec<u8>> = gen_terasort_records(2_000, &mut rng)
        .into_iter()
        .map(|(k, _)| k)
        .collect();
    let partitioner = RangePartitioner::sampled(&all_keys, 500, REDUCERS, &mut rng);

    let mut servers = Vec::new();
    let mut total_records = 0usize;
    for node in 0..NODES {
        let mut store = MofStore::temp().expect("temp store");
        for m in 0..MAPS_PER_NODE {
            let records = gen_terasort_records(RECORDS_PER_MAP, &mut rng);
            total_records += records.len();
            store
                .write_mof((node * MAPS_PER_NODE + m) as u64, records, REDUCERS, |k| {
                    partitioner.partition(k)
                })
                .expect("write MOF");
        }
        let server = MofSupplierServer::start(store).expect("start supplier");
        println!("MOFSupplier for node {node} listening on {}", server.addr());
        servers.push(server);
    }

    // "Reduce phase": one NetMerger fetches and merges each reducer's input.
    let client = NetMergerClient::new();
    let mut grand_total = 0usize;
    let mut last_max_key: Option<Vec<u8>> = None;
    for reducer in 0..REDUCERS {
        let segs: Vec<SegmentRef> = servers
            .iter()
            .enumerate()
            .flat_map(|(node, s)| {
                (0..MAPS_PER_NODE).map(move |m| SegmentRef {
                    addr: s.addr(),
                    mof: (node * MAPS_PER_NODE + m) as u64,
                    reducer: reducer as u32,
                })
            })
            .collect();
        let merged = client.levitated_merge(&segs).expect("shuffle");
        assert!(is_sorted(&merged), "reducer {reducer} output not sorted");
        // Range partitioning keeps outputs globally ordered across reducers.
        if let (Some(prev), Some((first, _))) = (&last_max_key, merged.first()) {
            assert!(first >= prev, "partition boundaries out of order");
        }
        last_max_key = merged.last().map(|(k, _)| k.clone());
        println!(
            "reducer {reducer}: merged {:>6} records from {} segments (sorted ✓)",
            merged.len(),
            segs.len()
        );
        grand_total += merged.len();
    }
    assert_eq!(grand_total, total_records, "records conserved");

    let stats = client.stats();
    println!(
        "\nshuffled {} records / {:.1} MB over {} consolidated connections \
         ({} established, {} reused)",
        grand_total,
        stats.bytes_fetched as f64 / (1 << 20) as f64,
        NODES,
        stats.connections_established,
        stats.connections_reused,
    );
    for s in servers {
        s.shutdown();
    }
    println!("all suppliers shut down cleanly");
}
