//! Criterion benchmarks of the *real* TCP dataplane (wall-clock, real
//! bytes over loopback): fetch throughput vs transport buffer size, and
//! levitated vs materializing merge.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use jbs_des::DetRng;
use jbs_transport::client::SegmentRef;
use jbs_transport::{ClientConfig, MofStore, MofSupplierServer, NetMergerClient};

/// Build one supplier holding a single-segment MOF of `n` 100-byte
/// records.
fn supplier(n: usize, seed: u64) -> MofSupplierServer {
    let mut rng = DetRng::new(seed);
    let records: Vec<(Vec<u8>, Vec<u8>)> = (0..n)
        .map(|_| {
            let mut k = vec![0u8; 10];
            rng.fill_bytes(&mut k);
            (k, vec![0xAB; 90])
        })
        .collect();
    let mut store = MofStore::temp().expect("store");
    store.write_mof(0, records, 1, |_| 0).expect("mof");
    MofSupplierServer::start(store).expect("server")
}

fn bench_fetch_buffer_sizes(c: &mut Criterion) {
    let server = supplier(20_000, 1);
    let seg = SegmentRef {
        addr: server.addr(),
        mof: 0,
        reducer: 0,
    };
    let mut g = c.benchmark_group("realplane_fetch");
    g.throughput(Throughput::Bytes(20_000 * 100));
    for kb in [8u64, 128] {
        g.bench_function(format!("segment_fetch_{kb}KB_buffers"), |b| {
            let client = NetMergerClient::with_client_config(ClientConfig {
                buffer_bytes: kb << 10,
                ..ClientConfig::default()
            });
            b.iter(|| client.fetch_segment(seg).expect("fetch").len())
        });
    }
    g.finish();
    server.shutdown();
}

fn bench_merge_strategies(c: &mut Criterion) {
    let servers: Vec<MofSupplierServer> = (0..4).map(|i| supplier(5_000, 10 + i)).collect();
    let segs: Vec<SegmentRef> = servers
        .iter()
        .map(|s| SegmentRef {
            addr: s.addr(),
            mof: 0,
            reducer: 0,
        })
        .collect();
    let mut g = c.benchmark_group("realplane_merge");
    g.throughput(Throughput::Elements(4 * 5_000));
    let client = NetMergerClient::new();
    g.bench_function("materializing_merge", |b| {
        b.iter(|| client.shuffle_and_merge(&segs).expect("merge").len())
    });
    g.bench_function("levitated_merge", |b| {
        b.iter(|| client.levitated_merge(&segs).expect("merge").len())
    });
    g.finish();
    for s in servers {
        s.shutdown();
    }
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(400))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_fetch_buffer_sizes, bench_merge_strategies
}
criterion_main!(benches);
