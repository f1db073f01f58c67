//! The timed part of the fetch and merge workloads: passes of waves.
//!
//! A *wave* is one `fetch_all` (or `levitated_merge`) for one reducer
//! across all MOFs; a *pass* is every reducer's wave once. What a pass
//! delivered is checked against the oracle after the pass, outside
//! every timed window.

use crate::cluster::{Cluster, Counters, GIB, MIB};
use crate::procfs;
use crate::spec::Kind;
use crate::stats::median;
use jbs_mapred::merge::Record;
use jbs_obs::{Entity, Trace};
use jbs_transport::client::SegmentRef;
use jbs_transport::NetMergerClient;
use std::collections::BTreeMap;
use std::time::Instant;

/// The end-to-end values of one timed pass (one repetition, on
/// `ingest_serve`), by metric name. A run pools the samples of all its
/// set-ups and reports, for each metric, the mean of their better half.
pub type Sample = BTreeMap<&'static str, f64>;

/// What one wave delivered, kept until the clock has stopped.
pub enum WaveOut {
    Segments(Vec<Vec<u8>>),
    Merged(Vec<Record>),
    Failed,
}

/// What one timed pass (one repetition, on `ingest_serve`) moved.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    pub wall_s: f64,
    /// Process CPU seconds (user + system) inside the timed window.
    pub cpu_s: f64,
    /// Mean wall time of the pass's waves, in milliseconds.
    pub wave_ms: f64,
    /// Segment bytes delivered to the client.
    pub bytes: u64,
    pub segments: u64,
    pub records: u64,
}

impl Pass {
    /// This pass as a sample of every end-to-end metric but `setup_s`.
    /// `extra_bytes` is what moved besides the fetched segments. Nothing
    /// is appended to a store or recovered while a fetch or merge pass is
    /// timed, so there `append_mib_s` and `recover_mib_s` stand for the
    /// rate the segments reach the reducer's buffers; `ingest_serve`
    /// overwrites both with what it measures.
    pub fn sample(&self, extra_bytes: u64) -> Sample {
        let mib_s = self.bytes as f64 / MIB / self.wall_s;
        BTreeMap::from([
            ("shuffle_mib_s", mib_s),
            ("wave_ms", self.wave_ms),
            ("segments_per_s", self.segments as f64 / self.wall_s),
            ("merge_mrec_s", self.records as f64 / 1e6 / self.wall_s),
            ("append_mib_s", mib_s),
            ("recover_mib_s", mib_s),
            (
                "cpu_s_per_gib",
                self.cpu_s / ((self.bytes + extra_bytes) as f64 / GIB),
            ),
        ])
    }
}

/// Everything measured over a stretch of timed passes.
#[derive(Default)]
pub struct Measured {
    pub passes: Vec<Pass>,
    /// One sample per timed wave.
    pub wave_ms: Vec<f64>,
    /// Layer counters over the timed windows.
    pub counters: Counters,
    pub ctx_switches: u64,
    pub rss_mib: f64,
    /// Operations checked against the oracle, and how many missed.
    pub attempted: u64,
    pub failed: u64,
}

impl Measured {
    /// Pool another stretch of timed passes into this one.
    pub fn absorb(&mut self, other: Measured) {
        self.passes.extend(other.passes);
        self.wave_ms.extend(other.wave_ms);
        self.counters = self.counters.plus(&other.counters);
        self.ctx_switches += other.ctx_switches;
        self.rss_mib = self.rss_mib.max(other.rss_mib);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Seconds inside the timed windows.
    pub fn wall_s(&self) -> f64 {
        self.passes.iter().map(|p| p.wall_s).sum()
    }

    pub fn bytes(&self) -> u64 {
        self.passes.iter().map(|p| p.bytes).sum()
    }

    pub fn segments(&self) -> u64 {
        self.passes.iter().map(|p| p.segments).sum()
    }

    /// Median over passes of the MiB delivered per second: what the
    /// per-layer ratios between two kinds of pass are taken from.
    pub fn mib_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .passes
            .iter()
            .map(|p| p.bytes as f64 / MIB / p.wall_s)
            .collect();
        median(&rates)
    }
}

/// How long to keep making passes.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Stop once the timed windows add up to this many seconds…
    pub seconds: f64,
    /// …but never before this many passes…
    pub min_passes: usize,
    /// …and never after this many.
    pub max_passes: usize,
}

impl Budget {
    pub fn done(&self, passes: usize, timed_s: f64) -> bool {
        passes >= self.max_passes || (passes >= self.min_passes && timed_s >= self.seconds)
    }
}

/// Run one wave: the only place load is put on the dataplane.
pub fn run_wave(client: &NetMergerClient, kind: Kind, segs: &[SegmentRef]) -> WaveOut {
    match kind {
        Kind::Merge => client
            .levitated_merge(segs)
            .map_or(WaveOut::Failed, WaveOut::Merged),
        Kind::Fetch | Kind::Ingest => client
            .fetch_all(segs)
            .map_or(WaveOut::Failed, WaveOut::Segments),
    }
}

/// Segments of `wave` that `out` got wrong.
pub fn wave_misses(c: &Cluster, wave: &[SegmentRef], out: &WaveOut) -> u64 {
    match out {
        WaveOut::Segments(payloads) if payloads.len() == wave.len() => wave
            .iter()
            .zip(payloads)
            .filter(|(s, p)| !c.oracle.segment_ok(s.mof, s.reducer, p))
            .count() as u64,
        WaveOut::Merged(records) => {
            let keys: Vec<(u64, u32)> = wave.iter().map(|s| (s.mof, s.reducer)).collect();
            if c.oracle.merge_ok(&keys, records) {
                0
            } else {
                wave.len() as u64
            }
        }
        _ => wave.len() as u64,
    }
}

/// One pass: every wave once, timed as a whole and wave by wave.
/// Returns (wall seconds, CPU seconds, per-wave ms, what was delivered).
fn run_pass(
    c: &Cluster,
    client: &NetMergerClient,
    kind: Kind,
    trace: &Trace,
) -> (f64, f64, Vec<f64>, Vec<WaveOut>) {
    let mut wave_ms = Vec::with_capacity(c.waves.len());
    let mut outs = Vec::with_capacity(c.waves.len());
    let span = trace.span("bench.pass", Entity::NONE, 0, 0);
    let cpu0 = procfs::cpu_seconds();
    let start = Instant::now();
    for (r, wave) in c.waves.iter().enumerate() {
        let wave_span = trace.span("bench.wave", Entity::NONE, r as u64, wave.len() as u64);
        let t = Instant::now();
        outs.push(run_wave(client, kind, wave));
        wave_ms.push(t.elapsed().as_secs_f64() * 1e3);
        drop(wave_span);
    }
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = procfs::cpu_seconds() - cpu0;
    drop(span);
    (wall_s, cpu_s, wave_ms, outs)
}

/// Check a pass against the oracle; returns the segments it got wrong.
fn verify_pass(c: &Cluster, outs: &[WaveOut], trace: &Trace) -> u64 {
    let _span = trace.span("bench.verify", Entity::NONE, 0, 0);
    c.waves
        .iter()
        .zip(outs)
        .map(|(wave, out)| wave_misses(c, wave, out))
        .sum()
}

/// One untimed-for-throughput pass right after set-up: fills caches,
/// opens connections, and is itself the cold-start sample. Returns its
/// MiB/s and the segments it got wrong.
pub fn cold_pass(c: &Cluster, kind: Kind, trace: &Trace) -> (f64, u64) {
    let (wall_s, _, _, outs) = run_pass(c, &c.client, kind, trace);
    let misses = verify_pass(c, &outs, trace);
    (c.pass_bytes as f64 / MIB / wall_s, misses)
}

/// Timed passes of `c` through `client` until `budget` is spent.
pub fn measure(
    c: &Cluster,
    client: &NetMergerClient,
    kind: Kind,
    budget: Budget,
    trace: &Trace,
) -> Measured {
    let mut m = Measured::default();
    let before = c.counters();
    let ctx0 = procfs::ctx_switches();
    while !budget.done(m.passes.len(), m.wall_s()) {
        let (wall_s, cpu_s, wave_ms, outs) = run_pass(c, client, kind, trace);
        m.passes.push(Pass {
            wall_s,
            cpu_s,
            wave_ms: wave_ms.iter().sum::<f64>() / wave_ms.len().max(1) as f64,
            bytes: c.pass_bytes,
            segments: c.pass_segments(),
            records: c.pass_records,
        });
        m.wave_ms.extend(wave_ms);
        m.rss_mib = m.rss_mib.max(procfs::rss_mib());
        m.attempted += c.pass_segments();
        m.failed += verify_pass(c, &outs, trace);
    }
    m.ctx_switches = procfs::ctx_switches().saturating_sub(ctx0);
    m.counters = c.counters().since(&before);
    m
}
