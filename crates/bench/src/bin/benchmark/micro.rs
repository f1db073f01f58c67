//! Layer microbenchmarks: tight loops over public functions, timed from
//! outside. Each reports the median of [`SAMPLES`] samples.

use crate::cluster::{APPEND_CHUNK, GIB, MIB};
use crate::data::{generate_mof, partition_of};
use crate::layers::Metrics;
use crate::stats::median;
use jbs_mapred::levitate::{SliceStream, StreamingMerge};
use jbs_mapred::merge::{merge_sorted_runs, Record};
use jbs_mapred::mof::SegmentReader;
use jbs_obs::{Entity, Trace};
use jbs_store_hybrid::{HybridConfig, HybridStore};
use jbs_transport::{FetchRequest, FetchResponse, IoClass, IoScheduler, MofStore};
use std::hint::black_box;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SAMPLES: usize = 3;

/// Median over [`SAMPLES`] samples of `work` done per second, where one
/// call of `step` does `work` units and a sample lasts `sample` seconds.
/// The first error `step` returns ends the measurement.
fn try_rate(
    sample: Duration,
    work: f64,
    mut step: impl FnMut() -> io::Result<()>,
) -> io::Result<f64> {
    step()?;
    let mut samples = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let start = Instant::now();
        let mut calls = 0u64;
        let elapsed = loop {
            step()?;
            calls += 1;
            let elapsed = start.elapsed();
            if elapsed >= sample {
                break elapsed;
            }
        };
        samples.push(calls as f64 * work / elapsed.as_secs_f64());
    }
    Ok(median(&samples))
}

/// [`try_rate`] for a `step` that cannot fail.
fn rate(sample: Duration, work: f64, mut step: impl FnMut()) -> f64 {
    try_rate(sample, work, || {
        step();
        Ok(())
    })
    .unwrap_or(0.0)
}

/// Nanoseconds per call of `step`, run in batches of `batch`.
fn nanos_per_call(sample: Duration, batch: u32, mut step: impl FnMut()) -> f64 {
    1e9 / rate(sample, f64::from(batch), || {
        for _ in 0..batch {
            step();
        }
    })
}

/// Run every microbenchmark, spending about `seconds` in total, with
/// scratch files under `dir`.
pub fn run_all(seconds: f64, seed: u64, dir: &Path) -> io::Result<Metrics> {
    let mut out = Metrics::new();
    // 17 benchmarks of SAMPLES samples each.
    let sample = Duration::from_secs_f64((seconds / (17 * SAMPLES) as f64).max(0.002));
    let payload: Vec<u8> =
        generate_mof(seed, 0, 1, 2 * APPEND_CHUNK / 108).segments[0][..APPEND_CHUNK].to_vec();

    // checksum + wire
    let frame = FetchResponse::ok_crc(1, payload.clone(), payload.len() as u64);
    out.insert(
        "checksum.crc32c_gib_s",
        rate(sample, APPEND_CHUNK as f64 / GIB, || {
            assert!(black_box(&frame).crc_ok());
        }),
    );
    let req = FetchRequest {
        id: 7,
        mof: 3,
        reducer: 5,
        offset: 1 << 20,
        len: APPEND_CHUNK as u64,
        flags: 0,
    };
    out.insert(
        "wire.request_codec_ns",
        nanos_per_call(sample, 1000, || {
            let bytes = black_box(&req).encode_v3();
            black_box(FetchRequest::decode(&bytes).expect("own encoding decodes"));
        }),
    );
    let mut sink: Vec<u8> = Vec::with_capacity(APPEND_CHUNK + 64);
    let mut body = Some(payload.clone());
    out.insert(
        "wire.response_codec_gib_s",
        rate(sample, APPEND_CHUNK as f64 / GIB, || {
            let p = body.take().unwrap_or_default();
            let resp = FetchResponse::ok_crc(1, p, APPEND_CHUNK as u64);
            sink.clear();
            resp.write_vectored_to(&mut sink).expect("write to a Vec");
            let back = FetchResponse::read_from(&mut sink.as_slice()).expect("own frame reads");
            body = Some(black_box(back).payload);
        }),
    );

    // store
    let records = 40_000;
    let mut store = MofStore::at(&dir.join("micro-mofs"))?;
    let mut write_secs = Vec::new();
    let mut mof_bytes = 0f64;
    for i in 0..SAMPLES as u64 {
        let mof = generate_mof(seed, 100 + i, 1, records);
        mof_bytes = mof.segments[0].len() as f64;
        let t = Instant::now();
        store.write_mof(i, mof.records, 1, |k| partition_of(k, 1))?;
        write_secs.push(t.elapsed().as_secs_f64());
    }
    out.insert(
        "store.write_mof_mib_s",
        mof_bytes / MIB / median(&write_secs),
    );
    let ranges = (mof_bytes as u64 >> 20).max(1);
    let mut next = 0u64;
    out.insert(
        "store.read_range_gib_s",
        try_rate(sample, MIB / GIB, || {
            next = (next + 1) % ranges;
            black_box(store.read_segment_range(0, 0, next << 20, 1 << 20)?);
            Ok(())
        })?,
    );
    drop(store);

    // iosched
    let sched = Arc::new(IoScheduler::new(4, 2));
    out.insert(
        "iosched.acquire_ns",
        nanos_per_call(sample, 1000, || {
            drop(black_box(sched.acquire(IoClass::Read)))
        }),
    );

    // hybrid tiers, no network: 64 chunks in memory, 64 spilled.
    let chunks = 64u64;
    let hybrid = |budget: usize, name: &str| {
        HybridStore::new(HybridConfig {
            memory_budget: budget,
            data_dir: Some(dir.join(name).join("data")),
            remote_dir: Some(dir.join(name).join("remote")),
            ..HybridConfig::default()
        })
    };
    let mem = hybrid(64 * APPEND_CHUNK * chunks as usize, "micro-mem")?;
    let local = hybrid(2 * APPEND_CHUNK, "micro-local")?;
    for _ in 0..chunks {
        mem.append(0, 0, &payload)?;
        local.append(0, 0, &payload)?;
    }
    for (name, store) in [
        ("hybrid.read_mem_gib_s", &mem),
        ("hybrid.read_local_gib_s", &local),
    ] {
        let mut at = 0u64;
        out.insert(
            name,
            try_rate(sample, APPEND_CHUNK as f64 / GIB, || {
                at = (at + 1) % chunks;
                let off = at * APPEND_CHUNK as u64;
                black_box(store.read_segment_range(0, 0, off, APPEND_CHUNK as u64)?);
                Ok(())
            })?,
        );
    }
    mem.close();
    local.close();
    // Appends that stay in the MEMORY tier: a fresh store per sample, 32
    // MiB spread over 8 partitions, well below every spill trigger.
    let mut append_secs = Vec::new();
    for i in 0..SAMPLES {
        let store = hybrid(
            64 * APPEND_CHUNK * chunks as usize,
            &format!("micro-append-{i}"),
        )?;
        let t = Instant::now();
        for n in 0..256u32 {
            store.append(1, n % 8, &payload)?;
        }
        append_secs.push(t.elapsed().as_secs_f64());
        store.close();
    }
    out.insert(
        "hybrid.append_mem_gib_s",
        256.0 * APPEND_CHUNK as f64 / GIB / median(&append_secs),
    );

    // mapred
    let runs = 8;
    let mof = generate_mof(seed, 200, runs, 16_000);
    let total = mof.records.len() as f64;
    out.insert(
        "mapred.streaming_merge_mrec_s",
        rate(sample, total / 1e6, || {
            let streams = mof
                .segments
                .iter()
                .map(|s| SliceStream::chunked(s, APPEND_CHUNK))
                .collect();
            let merged = StreamingMerge::new(streams).collect_all();
            black_box(merged.expect("generated segments parse"));
        }),
    );
    let sorted_runs: Vec<Vec<Record>> = mof
        .segments
        .iter()
        .map(|s| {
            SegmentReader::new(s)
                .flatten()
                .map(|(k, v)| (k.to_vec(), v.to_vec()))
                .collect()
        })
        .collect();
    // Cloning the runs is part of each call; it is the same on every
    // commit and small beside the merge.
    out.insert(
        "mapred.kway_merge_mrec_s",
        rate(sample, total / 1e6, || {
            black_box(merge_sorted_runs(black_box(sorted_runs.clone())));
        }),
    );

    // obs
    let recording = Trace::recording(1 << 16);
    out.insert(
        "obs.span_record_ns",
        nanos_per_call(sample, 1000, || {
            drop(black_box(recording.span("bench.micro", Entity::NONE, 1, 2)));
        }),
    );
    let disabled = Trace::disabled();
    out.insert(
        "obs.span_disabled_ns",
        nanos_per_call(sample, 1000, || {
            drop(black_box(disabled.span("bench.micro", Entity::NONE, 1, 2)));
        }),
    );

    // ceilings
    let big = 8 << 20;
    let src = vec![0x5Au8; big];
    let mut dst = vec![0u8; big];
    out.insert(
        "ceiling.memcpy_gib_s",
        rate(sample, big as f64 / GIB, || {
            dst.copy_from_slice(black_box(&src));
            black_box(&mut dst);
        }),
    );
    out.insert("ceiling.loopback_gib_s", loopback_gib_s(sample, &payload)?);
    Ok(out)
}

/// Raw loopback TCP: one writer, one reader thread, 128 KiB writes —
/// what the machine can move with no protocol on top.
fn loopback_gib_s(sample: Duration, payload: &[u8]) -> io::Result<f64> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let mut tx = TcpStream::connect(listener.local_addr()?)?;
    let (mut rx, _) = listener.accept()?;
    let reader = std::thread::spawn(move || {
        let mut buf = vec![0u8; APPEND_CHUNK];
        while matches!(rx.read(&mut buf), Ok(n) if n > 0) {}
    });
    let gib_s = try_rate(sample, payload.len() as f64 / GIB, || tx.write_all(payload));
    drop(tx);
    reader
        .join()
        .map_err(|_| io::Error::other("loopback reader panicked"))?;
    gib_s
}
