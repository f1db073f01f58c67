//! The benchmark's vocabulary: workloads and metric names. `BENCHMARK.json`
//! at the repository root must list exactly these (a unit test checks).

use crate::data::Shape;
use std::time::Duration;

/// What holds the segments a supplier serves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Backing {
    /// MOF files (OS page cache) through IndexCache → prefetch thread →
    /// StageCache, with a synthetic delay per read-ahead.
    Mof { delay: Duration },
    /// Attached `HybridStore`, budget ≥ 4× resident bytes: MEMORY tier.
    HybridMem,
    /// Attached `HybridStore`, budget 256 KiB: LOCALFILE tier.
    HybridSpill,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// A wave is one `fetch_all`.
    Fetch,
    /// A wave is one `levitated_merge`.
    Merge,
    /// Durable appends beside reads, then crash recovery.
    Ingest,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub shape: Shape,
    pub backing: Backing,
    pub kind: Kind,
}

const fn fetch(name: &'static str, shape: Shape, backing: Backing) -> Workload {
    Workload {
        name,
        shape,
        backing,
        kind: Kind::Fetch,
    }
}

pub const WORKLOADS: [Workload; 7] = [
    fetch(
        "mof_disk",
        Shape::ONE_SUPPLIER,
        Backing::Mof {
            delay: Duration::ZERO,
        },
    ),
    fetch(
        "mof_seek",
        Shape::ONE_SUPPLIER,
        Backing::Mof {
            delay: Duration::from_millis(8),
        },
    ),
    fetch("mem_hit", Shape::STANDARD, Backing::HybridMem),
    fetch("spill_read", Shape::STANDARD, Backing::HybridSpill),
    fetch(
        "small_seg",
        Shape::SMALL_SEG,
        Backing::Mof {
            delay: Duration::ZERO,
        },
    ),
    Workload {
        name: "merge_mem",
        shape: Shape::STANDARD,
        backing: Backing::HybridMem,
        kind: Kind::Merge,
    },
    Workload {
        name: "ingest_serve",
        // One supplier: its 4 MOFs are pre-loaded, then appended again
        // under fresh ids while the pre-loaded set is fetched.
        shape: Shape::ONE_SUPPLIER,
        backing: Backing::HybridSpill,
        kind: Kind::Ingest,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen;
    /// 0 for per-layer metrics, which have no bound.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> MetricDef {
    e2e(name, unit, higher, 0.0)
}

/// Every end-to-end metric is defined (and never 0) on every workload;
/// README.md tabulates what each one measures where.
pub const END_TO_END: [MetricDef; 8] = [
    e2e("shuffle_mib_s", "MiB/s", true, 0.25),
    e2e("wave_ms", "ms", false, 0.25),
    e2e("segments_per_s", "1/s", true, 0.25),
    e2e("merge_mrec_s", "Mrec/s", true, 0.25),
    e2e("append_mib_s", "MiB/s", true, 0.25),
    e2e("recover_mib_s", "MiB/s", true, 0.25),
    e2e("cpu_s_per_gib", "s/GiB", false, 0.25),
    e2e("setup_s", "s", false, 0.25),
];

pub const PER_LAYER: [MetricDef; 68] = [
    layer("checksum.crc32c_gib_s", "GiB/s", true),
    layer("checksum.overhead_frac", "frac", false),
    layer("wire.request_codec_ns", "ns", false),
    layer("wire.response_codec_gib_s", "GiB/s", true),
    layer("store.read_range_gib_s", "GiB/s", true),
    layer("store.write_mof_mib_s", "MiB/s", true),
    layer("server.requests", "count", false),
    layer("server.datacache_hit_ratio", "frac", true),
    layer("server.sync_stage_ratio", "frac", false),
    layer("server.prefetched_batches", "count", true),
    layer("server.prefetch_queue_peak", "count", false),
    layer("server.hybrid_hit_ratio", "frac", true),
    layer("server.syscalls_per_mib", "1/MiB", false),
    layer("server.copies_per_byte", "frac", false),
    layer("server.zerocopy_frac", "frac", true),
    layer("server.partial_writes", "count", false),
    layer("server.busy_rejections", "count", false),
    layer("server.bufpool_hit_ratio", "frac", true),
    layer("server.reactor_wakes_per_request", "frac", false),
    layer("server.xmit_busy_frac", "frac", false),
    layer("server.disk_read_busy_frac", "frac", false),
    layer("server.disk_net_overlap_frac", "frac", true),
    layer("server.seal_events", "count", false),
    layer("server.prefetch_wait_busy_frac", "frac", false),
    layer("iosched.read_wait_ratio", "frac", false),
    layer("iosched.append_wait_ratio", "frac", false),
    layer("iosched.wait_busy_frac", "frac", false),
    layer("iosched.acquire_ns", "ns", false),
    layer("client.wave_ms_p95", "ms", false),
    layer("client.wave_ms_max", "ms", false),
    layer("client.wave_samples", "count", true),
    layer("client.requests_per_segment", "frac", false),
    layer("client.retries", "count", false),
    layer("client.reconnects", "count", false),
    layer("client.timeouts", "count", false),
    layer("client.corrupt_refetches", "count", false),
    layer("client.failovers", "count", false),
    layer("client.connections_established", "count", false),
    layer("client.chunk_rtt_us_p50", "us", false),
    layer("client.verify_events", "count", false),
    layer("hybrid.read_mem_gib_s", "GiB/s", true),
    layer("hybrid.read_local_gib_s", "GiB/s", true),
    layer("hybrid.append_mem_gib_s", "GiB/s", true),
    layer("hybrid.memory_hit_ratio", "frac", true),
    layer("hybrid.local_hit_ratio", "frac", false),
    layer("hybrid.spill_trips", "count", false),
    layer("hybrid.write_amp", "frac", false),
    layer("hybrid.manifest_bytes_per_mib", "B/MiB", false),
    layer("hybrid.spill_busy_frac", "frac", false),
    layer("hybrid.recover_extents_per_s", "1/s", true),
    layer("mapred.streaming_merge_mrec_s", "Mrec/s", true),
    layer("mapred.kway_merge_mrec_s", "Mrec/s", true),
    layer("mapred.merge_pull_events", "count", false),
    layer("obs.span_record_ns", "ns", false),
    layer("obs.span_disabled_ns", "ns", false),
    layer("obs.trace_overhead_frac", "frac", false),
    layer("obs.dropped_events", "count", false),
    layer("obs.events_recorded", "count", false),
    layer("ceiling.loopback_gib_s", "GiB/s", true),
    layer("ceiling.memcpy_gib_s", "GiB/s", true),
    layer("ceiling.frac_of_loopback", "frac", true),
    layer("proc.rss_mib", "MiB", false),
    layer("proc.ctx_switches_per_mib", "1/MiB", false),
    layer("bench.unattributed_frac", "frac", false),
    layer("bench.untraced_passes", "count", true),
    layer("bench.traced_passes", "count", true),
    layer("bench.traced_shuffle_mib_s", "MiB/s", true),
    layer("bench.cold_pass_mib_s", "MiB/s", true),
];
