//! `ingest_serve`: the write side beside reads, then crash recovery.
//!
//! One repetition, in a fresh directory: pre-load a durable
//! `HybridStore`, start one supplier over it, then — timed — one writer
//! thread appends the same volume again under fresh MOF ids while the
//! client fetches the pre-loaded set in a loop until the writer is
//! done. The supplier is stopped, the store abandoned, and — timed —
//! `HybridStore::recover` rebuilds it; every recovered partition is
//! compared with the bytes that were appended.

use crate::cluster::{file_len, Counters, APPEND_CHUNK, MIB};
use crate::data::{generate_mof, Mof, Oracle, Shape};
use crate::procfs;
use crate::run::{Measured, Pass, Sample, WaveOut};
use crate::spec::Kind;
use jbs_obs::{Entity, Trace};
use jbs_store_hybrid::{HybridConfig, HybridStore, SpillGate};
use jbs_transport::client::SegmentRef;
use jbs_transport::{
    ClientConfig, IoScheduler, MofStore, MofSupplierServer, NetMergerClient, ServerOptions,
};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// MOF ids of the appended copies sit this far above the pre-loaded ones.
const APPEND_ID_BASE: u64 = 1000;

/// The MOFs every repetition pre-loads and appends, generated once.
pub struct Source {
    mofs: Vec<Mof>,
    oracle: Oracle,
    bytes: u64,
    /// Seconds the generation took (part of `setup_s`).
    pub generate_s: f64,
}

impl Source {
    pub fn generate(shape: Shape, seed: u64) -> Source {
        let start = Instant::now();
        let mofs: Vec<Mof> = (0..shape.mofs() as u64)
            .map(|id| {
                let mut mof = generate_mof(seed, id, shape.reducers, shape.records_per_mof);
                // Only the segment bytes are appended; drop the records.
                mof.records = Vec::new();
                mof
            })
            .collect();
        let mut oracle = Oracle::default();
        for m in &mofs {
            oracle.add_mof(m);
        }
        Source {
            bytes: mofs.iter().flat_map(|m| &m.expect).map(|e| e.len).sum(),
            mofs,
            oracle,
            generate_s: start.elapsed().as_secs_f64(),
        }
    }

    /// Append every segment under `id_base + id`, chunk by chunk, the
    /// partitions taking turns as concurrent map outputs would. Returns
    /// the appends made.
    fn append_all(&self, store: &HybridStore, id_base: u64) -> io::Result<u64> {
        let mut cursors: Vec<(u64, u32, std::slice::Chunks<'_, u8>)> = self
            .mofs
            .iter()
            .flat_map(|m| {
                m.segments
                    .iter()
                    .enumerate()
                    .map(move |(r, seg)| (id_base + m.id, r as u32, seg.chunks(APPEND_CHUNK)))
            })
            .collect();
        let mut appends = 0;
        while !cursors.is_empty() {
            let mut first_error = None;
            cursors.retain_mut(|(mof, reducer, chunks)| match chunks.next() {
                Some(chunk) => {
                    appends += 1;
                    if let Err(e) = store.append(*mof, *reducer, chunk) {
                        first_error.get_or_insert(e);
                    }
                    true
                }
                None => false,
            });
            if let Some(e) = first_error {
                return Err(e);
            }
        }
        Ok(appends)
    }

    fn segment(&self, mof: u64, reducer: u32) -> Option<&[u8]> {
        let m = self.mofs.iter().find(|m| m.id == mof % APPEND_ID_BASE)?;
        m.segments.get(reducer as usize).map(Vec::as_slice)
    }
}

/// What the repetitions add up to beyond what [`Measured`] carries.
#[derive(Default)]
pub struct IngestSamples {
    pub recover_extents_per_s: Vec<f64>,
    /// Size of `spill.data` + `manifest.log` after each repetition.
    pub disk_bytes: u64,
    pub manifest_bytes: u64,
    /// Bytes handed to `append` (pre-load included) across repetitions.
    pub written_bytes: u64,
}

/// Run one repetition in `dir` (created and removed here). Returns what
/// it measured and its sample of every end-to-end metric, and adds to `s`.
pub fn repetition(
    src: &Source,
    dir: &Path,
    trace: &Trace,
    s: &mut IngestSamples,
) -> io::Result<(Measured, Sample)> {
    let mut m = Measured::default();
    let setup_start = Instant::now();
    let setup_span = trace.span("bench.setup", Entity::NONE, 0, 0);
    let iosched = Arc::new(IoScheduler::with_trace(4, 2, trace.clone()));
    let gate: Arc<dyn SpillGate> = iosched.clone();
    let cfg = HybridConfig {
        // 16 MiB at full size (a quarter of what is pre-loaded), and the
        // same proportion under `--smoke`, so spills and recovery still
        // have work to do.
        memory_budget: (16 << 20).min(src.bytes as usize / 4),
        background_flush: true,
        durable_spill: true,
        manifest_sync_interval: 1,
        data_dir: Some(dir.join("data")),
        remote_dir: Some(dir.join("remote")),
        spill_gate: Some(gate),
        trace: trace.clone(),
        ..HybridConfig::default()
    };
    let store = HybridStore::new(cfg.clone())?;
    src.append_all(&store, 0)?;
    let server = MofSupplierServer::start_with_options(
        MofStore::at(&dir.join("mofs"))?,
        ServerOptions {
            hybrid: Some(store.clone()),
            iosched: Some(iosched),
            trace: trace.clone(),
            ..ServerOptions::default()
        },
    )?;
    let client = NetMergerClient::with_client_config(ClientConfig {
        trace: trace.clone(),
        ..ClientConfig::default()
    });
    let reducers = src.mofs.first().map_or(0, |m| m.segments.len()) as u32;
    let waves: Vec<Vec<SegmentRef>> = (0..reducers)
        .map(|reducer| {
            src.mofs
                .iter()
                .map(|m| SegmentRef {
                    addr: server.addr(),
                    mof: m.id,
                    reducer,
                })
                .collect()
        })
        .collect();
    drop(setup_span);
    let setup_s = src.generate_s + setup_start.elapsed().as_secs_f64();

    // The timed window: appends and fetches side by side.
    let servers = [server];
    let hybrids = [store];
    let before = Counters::collect(&servers, &hybrids, &client);
    let ctx0 = procfs::ctx_switches();
    let done = AtomicBool::new(false);
    let mut fetched: Vec<(usize, WaveOut)> = Vec::new();
    let mut wave_ms = Vec::new();
    let cpu0 = procfs::cpu_seconds();
    let start = Instant::now();
    let appended = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let span = trace.span("bench.append", Entity::NONE, 0, 0);
            let t = Instant::now();
            let appends = src.append_all(&hybrids[0], APPEND_ID_BASE);
            let secs = t.elapsed().as_secs_f64();
            drop(span);
            done.store(true, Ordering::Release);
            appends.map(|n| (n, secs))
        });
        let pass_span = trace.span("bench.pass", Entity::NONE, 0, 0);
        'reads: loop {
            for (r, wave) in waves.iter().enumerate() {
                if done.load(Ordering::Acquire) {
                    break 'reads;
                }
                let span = trace.span("bench.wave", Entity::NONE, r as u64, wave.len() as u64);
                let t = Instant::now();
                let out = crate::run::run_wave(&client, Kind::Ingest, wave);
                wave_ms.push(t.elapsed().as_secs_f64() * 1e3);
                drop(span);
                fetched.push((r, out));
            }
        }
        drop(pass_span);
        writer
            .join()
            .unwrap_or_else(|_| Err(io::Error::other("writer thread panicked")))
    });
    let window_s = start.elapsed().as_secs_f64();
    let cpu_s = procfs::cpu_seconds() - cpu0;
    m.ctx_switches += procfs::ctx_switches().saturating_sub(ctx0);
    m.rss_mib = m.rss_mib.max(procfs::rss_mib());
    let after = Counters::collect(&servers, &hybrids, &client);
    m.counters = m.counters.plus(&after.since(&before));
    let (appends, append_s) = appended?;

    // Check what the reads delivered, now that the clock has stopped.
    let verify_span = trace.span("bench.verify", Entity::NONE, 0, 0);
    let mut bytes = 0u64;
    for (r, out) in &fetched {
        let wave = &waves[*r];
        m.attempted += wave.len() as u64;
        match out {
            WaveOut::Segments(payloads) if payloads.len() == wave.len() => {
                for (seg, p) in wave.iter().zip(payloads) {
                    bytes += p.len() as u64;
                    if !src.oracle.segment_ok(seg.mof, seg.reducer, p) {
                        m.failed += 1;
                    }
                }
            }
            _ => m.failed += wave.len() as u64,
        }
    }
    drop(verify_span);
    let pass = Pass {
        wall_s: window_s,
        cpu_s,
        wave_ms: wave_ms.iter().sum::<f64>() / wave_ms.len().max(1) as f64,
        bytes,
        segments: (fetched.len() * src.mofs.len()) as u64,
        records: bytes / (crate::data::RECORD_BYTES + 8) as u64,
    };
    m.passes.push(pass);
    drop(fetched);
    m.wave_ms.extend(wave_ms);
    m.attempted += appends;
    s.written_bytes += 2 * src.bytes;
    let mut values = pass.sample(src.bytes);
    values.insert("setup_s", setup_s);
    values.insert("append_mib_s", src.bytes as f64 / MIB / append_s);

    // Abandon the store the way a killed supplier would, except that
    // the background flusher is let finish first: it owns a handle to
    // the store, and a recovery racing its last write would make the
    // durable prefix (and so the recovery time) differ between runs.
    drop(client);
    let [server] = servers;
    server.shutdown();
    let [store] = hybrids;
    store.close();
    let deadline = Instant::now() + Duration::from_secs(10);
    while Arc::strong_count(&store) > 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let stats = store.stats();
    let durable = stats.total_written - stats.memory_bytes;
    drop(store);
    s.disk_bytes +=
        file_len(&dir.join("data/spill.data")) + file_len(&dir.join("data/manifest.log"));
    s.manifest_bytes += file_len(&dir.join("data/manifest.log"));

    let recover_span = trace.span("bench.recover", Entity::NONE, 0, 0);
    let t = Instant::now();
    let (recovered, report) = HybridStore::recover(HybridConfig {
        background_flush: false,
        ..cfg
    })?;
    let recover_s = t.elapsed().as_secs_f64();
    drop(recover_span);
    values.insert(
        "recover_mib_s",
        report.recovered_bytes as f64 / MIB / recover_s,
    );
    s.recover_extents_per_s
        .push(report.local_extents as f64 / recover_s);

    // Every partition must come back as a byte-exact prefix of what was
    // appended, and together they must be exactly the durable bytes.
    let verify_span = trace.span("bench.verify", Entity::NONE, 1, 0);
    let mut recovered_bytes = 0u64;
    for base in [0, APPEND_ID_BASE] {
        for mof in &src.mofs {
            for reducer in 0..reducers {
                m.attempted += 1;
                let id = base + mof.id;
                let got = recovered.read_segment_range(id, reducer, 0, 0)?;
                let got = got.unwrap_or_default();
                recovered_bytes += got.len() as u64;
                let want = src.segment(id, reducer).unwrap_or_default();
                if want.get(..got.len()) != Some(got.as_slice()) {
                    m.failed += 1;
                }
            }
        }
    }
    m.attempted += 1;
    if recovered_bytes != durable || report.recovered_bytes != durable || report.dropped_extents > 0
    {
        m.failed += 1;
    }
    drop(verify_span);
    recovered.close();
    drop(recovered);
    let _ = std::fs::remove_dir_all(dir);
    Ok((m, values))
}
