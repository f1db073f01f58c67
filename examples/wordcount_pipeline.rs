//! A complete, real MapReduce pipeline on the JBS dataplane:
//!
//!   synthetic text → WordCount map → external sort/spill → MOF files →
//!   MOFSupplier servers → NetMerger levitated merge → sum reduce,
//!
//! verified against a single-machine reference count. Everything here is
//! genuine computation on genuine bytes; the only simulated thing is
//! nothing.
//!
//! ```sh
//! cargo run --release --example wordcount_pipeline
//! ```

use jbs::des::DetRng;
use jbs::mapred::extsort::ExternalSorter;
use jbs::transport::client::SegmentRef;
use jbs::transport::{MofStore, MofSupplierServer, NetMergerClient};
use jbs::workloads::mapfns::{sum_reduce, wordcount_map};
use jbs::workloads::{gen_text, HashPartitioner, Partitioner};
use std::collections::HashMap;

const NODES: usize = 3;
const MAPS_PER_NODE: usize = 2;
const REDUCERS: usize = 2;
const TEXT_BYTES: usize = 200_000;

fn main() {
    let mut rng = DetRng::new(42);
    let partitioner = HashPartitioner::new(REDUCERS);
    let mut reference: HashMap<String, u64> = HashMap::new();
    let mut servers = Vec::new();

    // --- Map phase: real text, real map function, real external sort ----
    for node in 0..NODES {
        let mut store = MofStore::temp().expect("store");
        for m in 0..MAPS_PER_NODE {
            let doc = gen_text(TEXT_BYTES, &mut rng);
            for w in doc.split_whitespace() {
                *reference.entry(w.to_string()).or_insert(0) += 1;
            }
            // Map + combiner-less sort/spill with a deliberately tiny
            // buffer, to exercise the spill path.
            let spill_dir =
                std::env::temp_dir().join(format!("jbs-wc-{}-{node}-{m}", std::process::id()));
            let mut sorter = ExternalSorter::new(&spill_dir, 64 << 10).expect("sorter");
            for (k, v) in wordcount_map(&doc) {
                sorter.add(k, v).expect("add");
            }
            let (sorted, stats) = sorter.finish().expect("external sort");
            println!(
                "map {node}.{m}: {} records, {} spills ({} KB spilled)",
                stats.records,
                stats.spills,
                stats.spilled_bytes >> 10
            );
            store
                .write_mof((node * MAPS_PER_NODE + m) as u64, sorted, REDUCERS, |k| {
                    partitioner.partition(k)
                })
                .expect("write MOF");
            std::fs::remove_dir_all(&spill_dir).ok();
        }
        servers.push(MofSupplierServer::start(store).expect("supplier"));
    }

    // --- Shuffle + reduce: levitated merge feeding a streaming reducer --
    let client = NetMergerClient::new();
    let mut total_words = 0u64;
    let mut distinct = 0usize;
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
        let merged = client.levitated_merge(&segs).expect("levitated merge");

        // The classic reduce loop: consume runs of equal keys.
        let mut i = 0;
        while i < merged.len() {
            let key = &merged[i].0;
            let mut values = Vec::new();
            while i < merged.len() && &merged[i].0 == key {
                values.push(merged[i].1.clone());
                i += 1;
            }
            let count = sum_reduce(&values);
            let word = String::from_utf8_lossy(key).to_string();
            assert_eq!(
                Some(&count),
                reference.get(&word),
                "count mismatch for {word:?}"
            );
            total_words += count;
            distinct += 1;
        }
    }
    assert_eq!(distinct, reference.len(), "every word reduced exactly once");
    assert_eq!(total_words, reference.values().sum::<u64>());

    let stats = client.stats();
    println!(
        "\nreduced {distinct} distinct words ({total_words} total) — all counts \
         verified against the reference;\nshuffled {:.1} KB over {} connections \
         via the network-levitated merge",
        stats.bytes_fetched as f64 / 1024.0,
        stats.connections_established,
    );
    for s in servers {
        s.shutdown();
    }
}
