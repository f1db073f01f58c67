//! Per-layer metrics, all taken from outside the program: ratios of the
//! layers' public counters, and busy fractions of the spans the program
//! already records.

use crate::cluster::{Ctr, MIB};
use crate::run::Measured;
use crate::spec::{Backing, Kind, Workload};
use crate::stats::percentile;
use jbs_obs::{EventKind, Trace, TraceQuery};
use std::borrow::Cow;
use std::collections::BTreeMap;

pub type Metrics = BTreeMap<&'static str, f64>;

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Counter-derived metrics of the untraced timed passes.
pub fn from_counters(out: &mut Metrics, m: &Measured) {
    let c = &m.counters;
    let requests = c[Ctr::Requests];
    let served = c[Ctr::ServedBytes];
    let mib = m.bytes() as f64 / MIB;
    let tier_reads = c[Ctr::MemoryHits] + c[Ctr::LocalHits];
    let counts = [
        ("server.requests", requests),
        ("server.prefetched_batches", c[Ctr::PrefetchedBatches]),
        ("server.prefetch_queue_peak", c[Ctr::PrefetchQueuePeak]),
        ("server.partial_writes", c[Ctr::PartialWrites]),
        ("server.busy_rejections", c[Ctr::BusyRejections]),
        ("client.wave_samples", m.wave_ms.len() as u64),
        ("client.retries", c[Ctr::Retries]),
        ("client.reconnects", c[Ctr::Reconnects]),
        ("client.timeouts", c[Ctr::Timeouts]),
        ("client.corrupt_refetches", c[Ctr::CorruptRefetches]),
        ("client.failovers", c[Ctr::Failovers]),
        (
            "client.connections_established",
            c[Ctr::ConnectionsEstablished],
        ),
        ("hybrid.spill_trips", c[Ctr::SpillTrips]),
        ("bench.untraced_passes", m.passes.len() as u64),
    ];
    out.extend(counts.map(|(name, n)| (name, n as f64)));
    let ratios = [
        (
            "server.datacache_hit_ratio",
            c[Ctr::DatacacheHits],
            requests,
        ),
        ("server.sync_stage_ratio", c[Ctr::SyncStages], requests),
        ("server.hybrid_hit_ratio", c[Ctr::HybridHits], requests),
        ("server.copies_per_byte", c[Ctr::CopiedBytes], served),
        ("server.zerocopy_frac", c[Ctr::ZerocopyBytes], served),
        (
            "server.bufpool_hit_ratio",
            c[Ctr::BufpoolHits],
            c[Ctr::BufpoolHits] + c[Ctr::BufpoolMisses],
        ),
        (
            "server.reactor_wakes_per_request",
            c[Ctr::ReactorWakes],
            requests,
        ),
        (
            "iosched.read_wait_ratio",
            c[Ctr::ReadWaits],
            c[Ctr::ReadAcquires],
        ),
        (
            "iosched.append_wait_ratio",
            c[Ctr::AppendWaits],
            c[Ctr::AppendAcquires],
        ),
        ("client.requests_per_segment", requests, m.segments()),
        ("hybrid.memory_hit_ratio", c[Ctr::MemoryHits], tier_reads),
        ("hybrid.local_hit_ratio", c[Ctr::LocalHits], tier_reads),
    ];
    out.extend(ratios.map(|(name, part, whole)| (name, ratio(part, whole))));
    out.insert("server.syscalls_per_mib", c[Ctr::Syscalls] as f64 / mib);
    out.insert("client.wave_ms_p95", percentile(&m.wave_ms, 95.0));
    out.insert("client.wave_ms_max", percentile(&m.wave_ms, 100.0));
    out.insert("proc.rss_mib", m.rss_mib);
    out.insert("proc.ctx_switches_per_mib", m.ctx_switches as f64 / mib);
}

/// Span-derived metrics of the traced passes: for each span name, the
/// share of the `bench.pass` windows during which at least one such
/// span was open.
pub fn from_trace(out: &mut Metrics, trace: &Trace) {
    let q = trace.query();
    let wall = q.union_nanos("bench.pass");
    let busy = |name: &str| ratio(q.overlap_nanos(name, "bench.pass"), wall);
    let fracs = [
        ("server.xmit_busy_frac", "net.xmit"),
        ("server.disk_read_busy_frac", "disk.read"),
        ("server.prefetch_wait_busy_frac", "prefetch.wait"),
        ("iosched.wait_busy_frac", "iosched.wait"),
        ("hybrid.spill_busy_frac", "tier.spill"),
    ];
    out.extend(fracs.map(|(metric, span)| (metric, busy(span))));
    out.insert(
        "server.disk_net_overlap_frac",
        q.overlap_fraction("disk.read", "net.xmit"),
    );
    // Instants in the program: they have a count, not a busy time.
    let events = [
        ("server.seal_events", "integrity.seal"),
        ("client.verify_events", "integrity.verify"),
        ("mapred.merge_pull_events", "merge.pull"),
    ];
    out.extend(events.map(|(metric, name)| (metric, q.count(name) as f64)));
    out.insert("obs.dropped_events", trace.dropped() as f64);
    out.insert("obs.events_recorded", q.len() as f64);

    // Time inside a pass with no program span of any name open: fold
    // every program span under one name and intersect with the passes.
    let folded: Vec<_> = q
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::Span)
        .map(|e| {
            let mut e = e.clone();
            if !e.name.starts_with("bench.") {
                e.name = Cow::Borrowed("program");
            }
            e
        })
        .collect();
    let attributed = TraceQuery::new(folded).overlap_nanos("program", "bench.pass");
    out.insert(
        "bench.unattributed_frac",
        1.0 - ratio(attributed.min(wall), wall),
    );
}

/// What each workload must show to count as exercising the layer it is
/// named for. Returns one line per violated expectation. `full_size`
/// is false under `--smoke`, whose segments are smaller than one
/// read-ahead and so never reach the prefetch thread.
pub fn violations(w: &Workload, metrics: &Metrics, traced: bool, full_size: bool) -> Vec<String> {
    let mut bad = Vec::new();
    let mut expect = |name: &str, ok: &dyn Fn(f64) -> bool, want: &str| match metrics.get(name) {
        Some(&v) if ok(v) => {}
        Some(&v) => bad.push(format!("{}: {name} = {v}, expected {want}", w.name)),
        None => bad.push(format!("{}: {name} was not measured", w.name)),
    };
    let hybrid = !matches!(w.backing, Backing::Mof { .. });
    if hybrid {
        expect("server.hybrid_hit_ratio", &|v| v >= 0.999, "1");
    } else {
        expect("server.hybrid_hit_ratio", &|v| v == 0.0, "0");
    }
    if w.backing == Backing::HybridMem {
        expect("hybrid.memory_hit_ratio", &|v| v == 1.0, "1");
        expect("hybrid.spill_trips", &|v| v == 0.0, "0");
    }
    if w.backing == Backing::HybridSpill && w.kind == Kind::Fetch {
        expect("hybrid.local_hit_ratio", &|v| v >= 0.95, ">= 0.95");
    }
    match w.name {
        "small_seg" => expect("server.datacache_hit_ratio", &|v| v >= 0.95, ">= 0.95"),
        "mof_disk" if full_size => expect("server.prefetched_batches", &|v| v > 0.0, "> 0"),
        _ => {}
    }
    expect("client.failovers", &|v| v == 0.0, "0");
    if traced {
        expect("obs.dropped_events", &|v| v == 0.0, "0");
        if w.name == "mof_seek" && full_size {
            expect("server.disk_read_busy_frac", &|v| v >= 0.8, ">= 0.8");
        }
    }
    bad
}
