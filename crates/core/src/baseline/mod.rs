//! The stock Hadoop shuffle: HttpServlets and MOFCopiers inside the JVM.
//!
//! This is the engine JBS is measured against. Its behaviour follows
//! Sec. II-B and Fig. 4:
//!
//! * every fetch is an HTTP request over its own TCP connection;
//! * the servlet identifies the segment via the IndexCache, then
//!   **serializes** disk read and network transmit chunk by chunk — no
//!   batching, no prefetch, no cross-request disk locality;
//! * every byte moves through Java streams (the [`jbs_jvm::ReadMode::JavaStream`]
//!   CPU tax) and inflates the heap, driving stop-the-world GC pauses in
//!   both the TaskTracker JVM (server side) and the ReduceTask JVM
//!   (client side);
//! * each ReduceTask runs several MOFCopier threads (default 5 parallel
//!   copies) plus merge threads — more than 8 shuffle threads per
//!   ReduceTask (Sec. V-D);
//! * fetched segments accumulate in the reduce JVM's shuffle buffer and
//!   spill to disk under pressure, followed by a multi-pass disk merge.

use crate::indexcache::IndexCache;
use jbs_des::{EventQueue, SimTime};
use jbs_jvm::{GcModel, GcParams, PathCosts};
use jbs_mapred::merge::merge_passes;
use jbs_mapred::sim::{ShuffleEngine, ShuffleOutcome, ShufflePlan, SimCluster};

/// Hadoop's default `mapred.reduce.parallel.copies`.
const PARALLEL_COPIES: usize = 5;

/// Fraction of the reduce JVM heap used as the shuffle buffer
/// (`mapred.job.shuffle.input.buffer.percent` = 0.70).
const SHUFFLE_BUFFER_FRAC: f64 = 0.70;

/// In-memory merge trigger (`mapred.job.shuffle.merge.percent` = 0.66).
const MERGE_TRIGGER_FRAC: f64 = 0.66;

/// A segment larger than this fraction of the buffer goes straight to disk.
const DIRECT_TO_DISK_FRAC: f64 = 0.25;

/// Merge fan-in (`io.sort.factor`).
const MERGE_FANIN: usize = 10;

/// CPU per record of the reduce-side merge: Hadoop's IFile merge
/// deserializes every record into objects, compares through the raw
/// comparator and re-serializes — several hundred nanoseconds per record
/// in the 0.20-era JVM. Benchmarks with tiny records (AdjacencyList: 32 B)
/// are dominated by this, which is why they are JBS's best case.
const MERGE_CPU_PER_RECORD: f64 = 900e-9;

/// Per-record CPU on the MOFCopier receive path (record boundary parsing +
/// buffer object churn).
const RX_CPU_PER_RECORD: f64 = 300e-9;

/// Cores a stop-the-world collection occupies while it runs.
const GC_PARALLELISM: f64 = 2.0;

/// Disk I/O unit during reduce-side spills and merge passes.
const SPILL_IO_UNIT: u64 = 4 << 20;

/// Tuning knobs for the baseline engine (exposed for tests/ablations).
#[derive(Debug, Clone)]
pub struct HadoopConfig {
    /// MOFCopier threads per ReduceTask.
    pub parallel_copies: usize,
    /// Reduce JVM heap (drives the shuffle buffer size and GC).
    pub reduce_heap_bytes: u64,
    /// MOFCopiers learn about completed maps by polling the TaskTracker
    /// for TaskCompletionEvents (every few seconds in Hadoop 0.20), so a
    /// committed MOF becomes fetchable only at the next poll. Set to zero
    /// for micro-benchmarks that fetch directly.
    pub heartbeat: SimTime,
}

impl Default for HadoopConfig {
    fn default() -> Self {
        HadoopConfig {
            parallel_copies: PARALLEL_COPIES,
            reduce_heap_bytes: 1 << 30,
            heartbeat: SimTime::from_secs(3),
        }
    }
}

/// The stock Hadoop shuffle engine.
pub struct HadoopShuffle {
    cfg: HadoopConfig,
}

impl Default for HadoopShuffle {
    fn default() -> Self {
        Self::new()
    }
}

impl HadoopShuffle {
    /// Default Hadoop 0.20.3 configuration.
    pub fn new() -> Self {
        HadoopShuffle {
            cfg: HadoopConfig::default(),
        }
    }

    /// Explicit configuration.
    pub fn with_config(cfg: HadoopConfig) -> Self {
        assert!(cfg.parallel_copies >= 1);
        HadoopShuffle { cfg }
    }
}

struct SegFetch {
    mof: usize,
    seg_off: u64,
    bytes: u64,
    ready: SimTime,
}

struct ReducerState {
    node: usize,
    segs: Vec<SegFetch>,
    next: usize,
    in_mem: u64,
    disk_runs: usize,
    spilled: u64,
    spill_file_bytes: u64,
    last_fetch_done: SimTime,
    gc: GcModel,
}

impl ShuffleEngine for HadoopShuffle {
    fn name(&self) -> &str {
        "Hadoop"
    }

    fn run(&mut self, cluster: &mut SimCluster, plan: &ShufflePlan) -> ShuffleOutcome {
        let slaves = cluster.cfg.slaves;
        let costs = PathCosts::java();
        let read_mode = costs.read_mode;
        let chunk_size = read_mode.io_unit();
        let record = plan.avg_record_bytes.max(1);
        let buffer = (self.cfg.reduce_heap_bytes as f64 * SHUFFLE_BUFFER_FRAC) as u64;

        // Absolute segment offsets inside each MOF.
        let seg_off: Vec<Vec<u64>> = plan
            .mofs
            .iter()
            .map(|m| {
                let mut acc = 0u64;
                m.seg_bytes
                    .iter()
                    .map(|&b| {
                        let o = acc;
                        acc += b;
                        o
                    })
                    .collect()
            })
            .collect();

        let mut reducers: Vec<ReducerState> = plan
            .reducers
            .iter()
            .map(|r| {
                let mut hb_rng = cluster.rng.fork(0xbea7 + r.id as u64);
                let mut segs: Vec<SegFetch> = plan
                    .mofs
                    .iter()
                    .filter(|m| m.seg_bytes[r.id] > 0)
                    .map(|m| SegFetch {
                        mof: m.mof_id,
                        seg_off: seg_off[m.mof_id][r.id],
                        bytes: m.seg_bytes[r.id],
                        // Visible at the next heartbeat after commit.
                        ready: m.ready
                            + SimTime::from_nanos(
                                hb_rng.uniform_u64(0, self.cfg.heartbeat.as_nanos().max(1)),
                            ),
                    })
                    .collect();
                segs.sort_by_key(|s| (s.ready, s.mof));
                ReducerState {
                    node: r.node,
                    segs,
                    next: 0,
                    in_mem: 0,
                    disk_runs: 0,
                    spilled: 0,
                    spill_file_bytes: 0,
                    last_fetch_done: SimTime::ZERO,
                    gc: GcModel::new(GcParams::task_jvm_1g()),
                }
            })
            .collect();

        // Server-side state: IndexCache + TaskTracker JVM GC per node.
        let mut server_index: Vec<IndexCache> = (0..slaves)
            .map(|_| IndexCache::standard(plan.reducers.len()))
            .collect();
        let mut server_gc: Vec<GcModel> = (0..slaves)
            .map(|_| GcModel::new(GcParams::task_jvm_1g()))
            .collect();
        let spill_files: Vec<jbs_disk::FileId> =
            (0..reducers.len()).map(|_| cluster.alloc_file()).collect();

        let proto = cluster.cfg.protocol.params();
        let mut connections = 0u64;
        let mut bytes_fetched = 0u64;
        let mut first_activity = vec![SimTime::MAX; slaves];
        let mut last_activity = vec![SimTime::ZERO; slaves];

        // One event chain per MOFCopier thread. Fig. 4: within a request
        // the servlet first *reads* the whole segment through the Java
        // stream (chunked disk I/O + stream CPU, serialized), then
        // *transmits* it (chunked wire sends, paced by the socket drain).
        // Each event moves one chunk so concurrent chains interleave on
        // the shared disks and NICs; the Read/Xmit split also keeps FIFO
        // resource submissions in arrival-time order.
        enum Step {
            /// Pick the copier's next segment.
            Claim,
            /// Issue the serialized disk read + stream CPU for one chunk.
            Read { seg_idx: usize, off: u64 },
            /// Segment is read; transmit the next chunk. `recv_cursor` is
            /// the client-side stream-processing frontier.
            Xmit {
                seg_idx: usize,
                off: u64,
                recv_cursor: SimTime,
            },
        }
        let mut q: EventQueue<(usize, Step)> = EventQueue::new();
        for (ri, _) in plan.reducers.iter().enumerate() {
            for _ in 0..self.cfg.parallel_copies {
                q.push(SimTime::ZERO, (ri, Step::Claim));
            }
        }

        while let Some((t, (ri, step))) = q.pop() {
            let rn = reducers[ri].node;
            match step {
                Step::Claim => {
                    let (seg_idx, ready) = {
                        let r = &reducers[ri];
                        match r.segs.get(r.next) {
                            None => continue, // copier retires
                            Some(s) => (r.next, s.ready),
                        }
                    };
                    if ready > t {
                        q.push(ready, (ri, Step::Claim));
                        continue;
                    }
                    reducers[ri].next += 1;
                    let mof_id = reducers[ri].segs[seg_idx].mof;
                    let sn = plan.mofs[mof_id].node;

                    // Per-fetch HTTP connection (no reuse) + servlet dispatch.
                    connections += 1;
                    cluster.cpu[rn].charge_thread(t, proto.setup_cpu);
                    cluster.cpu[sn].charge_thread(t, proto.setup_cpu);
                    let mut cursor = t + proto.setup_elapsed();
                    cluster.cpu[sn].charge_thread(cursor, costs.per_message_cpu);
                    cursor += costs.per_message_cpu;
                    // IndexCache lookup (disk on miss).
                    cursor = server_index[sn].lookup(
                        cursor,
                        plan.mofs[mof_id].index_file,
                        &mut cluster.storage[sn],
                    );
                    first_activity[rn] = first_activity[rn].min(t);
                    first_activity[sn] = first_activity[sn].min(t);
                    q.push(cursor, (ri, Step::Read { seg_idx, off: 0 }));
                }
                Step::Read { seg_idx, off } => {
                    let (mof_id, seg_abs, seg_bytes) = {
                        let s = &reducers[ri].segs[seg_idx];
                        (s.mof, s.seg_off, s.bytes)
                    };
                    let sn = plan.mofs[mof_id].node;
                    let chunk = chunk_size.min(seg_bytes - off);
                    let io =
                        cluster.storage[sn].read(t, plan.mofs[mof_id].file, seg_abs + off, chunk);
                    // Java stream read CPU + GC pressure on the TaskTracker.
                    let read_cpu = read_mode.call_overhead()
                        + SimTime::from_secs_f64(chunk as f64 * read_mode.cpu_per_byte());
                    let srv_pause =
                        server_gc[sn].allocate((chunk as f64 * read_mode.alloc_per_byte()) as u64);
                    cluster.cpu[sn].charge_thread(io.completed, read_cpu);
                    if srv_pause > SimTime::ZERO {
                        cluster.cpu[sn].charge(io.completed + read_cpu, srv_pause, GC_PARALLELISM);
                    }
                    let after_read = io.completed + read_cpu + srv_pause;
                    if off + chunk < seg_bytes {
                        // Keep reading: the segment is not in the send
                        // buffer yet (Fig. 4 serializes Read before Xmit).
                        q.push(
                            after_read,
                            (
                                ri,
                                Step::Read {
                                    seg_idx,
                                    off: off + chunk,
                                },
                            ),
                        );
                    } else {
                        q.push(
                            after_read,
                            (
                                ri,
                                Step::Xmit {
                                    seg_idx,
                                    off: 0,
                                    recv_cursor: SimTime::ZERO,
                                },
                            ),
                        );
                    }
                }
                Step::Xmit {
                    seg_idx,
                    off,
                    recv_cursor,
                } => {
                    let (mof_id, seg_bytes) = {
                        let s = &reducers[ri].segs[seg_idx];
                        (s.mof, s.bytes)
                    };
                    let sn = plan.mofs[mof_id].node;
                    let chunk = chunk_size.min(seg_bytes - off);

                    // Send-side stream CPU, then the wire.
                    let tx_cpu = costs.send_cpu(chunk) + proto.tx_cpu(chunk);
                    cluster.cpu[sn].charge_thread(t, tx_cpu);
                    let timing = cluster.fabric.transfer(t + tx_cpu, sn, rn, chunk);

                    // Client-side stream processing is serialized per
                    // copier: it drains arrivals at the JVM receive rate,
                    // paying per-record parsing on top of per-byte costs.
                    let rx_cpu = costs.recv_cpu(chunk)
                        + timing.rx_cpu
                        + SimTime::from_secs_f64(
                            (chunk / record).max(1) as f64 * RX_CPU_PER_RECORD,
                        );
                    let cli_pause = reducers[ri].gc.allocate(costs.alloc_bytes(chunk));
                    let rx_start = timing.arrived.max(recv_cursor);
                    cluster.cpu[rn].charge_thread(rx_start, rx_cpu);
                    if cli_pause > SimTime::ZERO {
                        cluster.cpu[rn].charge(rx_start + rx_cpu, cli_pause, GC_PARALLELISM);
                    }
                    let cursor = rx_start + rx_cpu + cli_pause;
                    bytes_fetched += chunk;
                    last_activity[sn] = last_activity[sn].max(timing.tx_done);
                    last_activity[rn] = last_activity[rn].max(cursor);

                    if off + chunk < seg_bytes {
                        // Next send is paced by the socket drain (tx side),
                        // while the receiver keeps processing in parallel.
                        q.push(
                            timing.tx_done,
                            (
                                ri,
                                Step::Xmit {
                                    seg_idx,
                                    off: off + chunk,
                                    recv_cursor: cursor,
                                },
                            ),
                        );
                        continue;
                    }

                    // --- Segment complete: shuffle buffer / spill ---------
                    // Spill writes are buffered and issued in SPILL_IO_UNIT
                    // chunks so concurrent fetch chains can interleave on
                    // the disk arm.
                    let spill = |bytes: u64,
                                 at: SimTime,
                                 r: &mut ReducerState,
                                 cluster: &mut SimCluster| {
                        let mut woff = r.spill_file_bytes;
                        let end = woff + bytes;
                        while woff < end {
                            let unit = SPILL_IO_UNIT.min(end - woff);
                            cluster.storage[rn].write(at, spill_files[ri], woff, unit);
                            woff += unit;
                        }
                        r.spill_file_bytes = end;
                        r.spilled += bytes;
                        r.disk_runs += 1;
                    };
                    let r = &mut reducers[ri];
                    if seg_bytes as f64 > buffer as f64 * DIRECT_TO_DISK_FRAC {
                        spill(seg_bytes, cursor, r, cluster);
                    } else {
                        r.in_mem += seg_bytes;
                        if r.in_mem as f64 > buffer as f64 * MERGE_TRIGGER_FRAC {
                            let bytes = r.in_mem;
                            r.in_mem = 0;
                            spill(bytes, cursor, r, cluster);
                        }
                    }
                    r.last_fetch_done = r.last_fetch_done.max(cursor);
                    q.push(cursor, (ri, Step::Claim));
                }
            }
        }

        // --- Final multi-pass disk merge per reducer ---------------------
        let barrier = plan.last_mof_ready();
        let mut ready_times = Vec::with_capacity(reducers.len());
        let mut spilled_total = 0u64;
        for (ri, r) in reducers.iter_mut().enumerate() {
            let mut t = r.last_fetch_done.max(barrier);
            let rn = r.node;
            if r.disk_runs > 0 {
                let runs = r.disk_runs + usize::from(r.in_mem > 0);
                // Hadoop merges just enough of the smallest runs to bring
                // the count under io.sort.factor (an intermediate merge of
                // roughly (runs - fanin + 1)/runs of the data), then the
                // final pass streams everything into the reduce function.
                // A single disk run needs no intermediate pass at all —
                // the final pass streams it directly.
                debug_assert!(runs >= 1);
                debug_assert!(runs == 1 || merge_passes(runs, MERGE_FANIN) >= 1);
                let intermediate_bytes = if runs > MERGE_FANIN {
                    let k = runs - MERGE_FANIN + 1;
                    (r.spill_file_bytes as f64 * k as f64 / runs as f64) as u64
                } else {
                    0
                };
                let merge_io = |bytes: u64,
                                write_back: bool,
                                mut t: SimTime,
                                cluster: &mut SimCluster,
                                gc: &mut jbs_jvm::GcModel| {
                    let mut off = 0u64;
                    while off < bytes {
                        let chunk = SPILL_IO_UNIT.min(bytes - off);
                        let io = cluster.storage[rn].read(t, spill_files[ri], off, chunk);
                        let cpu =
                            SimTime::from_secs_f64(
                                (chunk / record).max(1) as f64 * MERGE_CPU_PER_RECORD,
                            ) + SimTime::from_secs_f64(chunk as f64 * read_mode.cpu_per_byte());
                        cluster.cpu[rn].charge_thread(io.completed, cpu);
                        let pause = gc.allocate((chunk as f64 * read_mode.alloc_per_byte()) as u64);
                        if pause > SimTime::ZERO {
                            cluster.cpu[rn].charge(io.completed + cpu, pause, GC_PARALLELISM);
                        }
                        t = io.completed + cpu + pause;
                        if write_back {
                            cluster.storage[rn].write(t, spill_files[ri], off, chunk);
                        }
                        off += chunk;
                    }
                    t
                };
                if intermediate_bytes > 0 {
                    t = merge_io(intermediate_bytes, true, t, cluster, &mut r.gc);
                }
                t = merge_io(r.spill_file_bytes, false, t, cluster, &mut r.gc);
                cluster.storage[rn].invalidate(spill_files[ri]);
            }
            spilled_total += r.spilled;
            ready_times.push(t);
        }

        // --- Background JVM thread overhead -------------------------------
        let java_threads =
            self.cfg.parallel_copies as f64 + costs.shuffle_threads_per_reducetask as f64;
        let threads_per_node =
            java_threads * cluster.cfg.reduce_slots as f64 + 4.0 /* servlets */;
        for node in 0..slaves {
            if first_activity[node] < last_activity[node] {
                let span = last_activity[node] - first_activity[node];
                cluster.cpu[node].charge(
                    first_activity[node],
                    span,
                    threads_per_node * costs.per_thread_overhead,
                );
            }
        }

        ShuffleOutcome {
            ready: ready_times,
            bytes_fetched,
            spilled_bytes: spilled_total,
            connections_established: connections,
            connections_evicted: connections, // per-fetch connections close
            engine: "Hadoop".into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jbs::JbsShuffle;
    use jbs_mapred::{ClusterConfig, JobSimulator, JobSpec};
    use jbs_net::Protocol;

    fn sim(bytes: u64, protocol: Protocol) -> JobSimulator {
        JobSimulator::new(ClusterConfig::tiny(protocol), JobSpec::terasort(bytes))
    }

    #[test]
    fn completes_and_conserves_bytes() {
        let r = sim(1 << 30, Protocol::IpoIb).run(&mut HadoopShuffle::new());
        assert_eq!(r.engine, "Hadoop");
        let diff = (r.bytes_shuffled as i64 - (1i64 << 30)).unsigned_abs();
        assert!(diff < 64, "shuffled {}", r.bytes_shuffled);
    }

    #[test]
    fn opens_a_connection_per_fetch() {
        let r = sim(1 << 30, Protocol::IpoIb).run(&mut HadoopShuffle::new());
        // tiny cluster: 16 MOFs x 8 reducers = 128 non-empty segments.
        assert_eq!(r.connections_established, 128);
    }

    #[test]
    fn jbs_beats_hadoop_on_fast_networks() {
        // 6 GiB over the tiny cluster (1 GB page cache per node) is the
        // disk-bound regime where JVM-bypass matters; at tiny cached sizes
        // the two engines are within noise, as the paper reports.
        let s = sim(6 << 30, Protocol::IpoIb);
        let hadoop = s.run(&mut HadoopShuffle::new());
        let jbs = s.run(&mut JbsShuffle::new());
        assert!(
            jbs.job_time.as_secs_f64() < hadoop.job_time.as_secs_f64() * 0.95,
            "JBS {} vs Hadoop {}",
            jbs.job_time,
            hadoop.job_time
        );
    }

    fn shuffle_gain(protocol: Protocol) -> f64 {
        use jbs_mapred::sim::SimCluster;
        use jbs_mapred::ShufflePlan;
        let plan = ShufflePlan::synthetic(4, 4, 2, 4 << 20, 100);
        let mut c1 = SimCluster::new(ClusterConfig::tiny(protocol), 1);
        c1.warm_mofs(&plan);
        let hadoop = HadoopShuffle::new().run(&mut c1, &plan).all_ready();
        let mut c2 = SimCluster::new(ClusterConfig::tiny(protocol), 1);
        c2.warm_mofs(&plan);
        let jbs_cfg = crate::JbsConfig {
            notification_latency: SimTime::ZERO,
            ..crate::JbsConfig::default()
        };
        let jbs = JbsShuffle::with_config(jbs_cfg)
            .run(&mut c2, &plan)
            .all_ready();
        hadoop.as_secs_f64() / jbs.as_secs_f64()
    }

    #[test]
    fn jbs_gap_shrinks_on_1gige() {
        // Sec. II-B / Fig. 2: the 1GigE wire hides the JVM overhead, so
        // JBS's shuffle-phase advantage must be larger on InfiniBand.
        let gain_slow = shuffle_gain(Protocol::Tcp1GigE);
        let gain_fast = shuffle_gain(Protocol::IpoIb);
        assert!(
            gain_fast > gain_slow,
            "gain on IB {gain_fast:.3} should exceed gain on 1GigE {gain_slow:.3}"
        );
    }

    #[test]
    fn hadoop_uses_more_cpu_than_jbs() {
        let s = sim(2 << 30, Protocol::IpoIb);
        let hadoop = s.run(&mut HadoopShuffle::new());
        let jbs = s.run(&mut JbsShuffle::new());
        let h_cpu: f64 = hadoop.cpu.iter().map(|m| m.busy_core_secs()).sum();
        let j_cpu: f64 = jbs.cpu.iter().map(|m| m.busy_core_secs()).sum();
        assert!(h_cpu > j_cpu, "Hadoop {h_cpu} vs JBS {j_cpu} core-secs");
    }

    #[test]
    fn large_inputs_spill() {
        // Shrink the reduce heap so the tiny job spills.
        let s = sim(1 << 30, Protocol::IpoIb);
        let mut engine = HadoopShuffle::with_config(HadoopConfig {
            reduce_heap_bytes: 64 << 20,
            ..HadoopConfig::default()
        });
        let r = s.run(&mut engine);
        assert!(r.spilled_bytes > 0, "expected reduce-side spills");
    }

    #[test]
    fn deterministic() {
        let s = sim(1 << 30, Protocol::Sdp);
        let a = s.run(&mut HadoopShuffle::new());
        let b = s.run(&mut HadoopShuffle::new());
        assert_eq!(a.job_time, b.job_time);
    }
}
