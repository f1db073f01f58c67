//! The MOFSupplier: JBS's native server-side component.
//!
//! One MOFSupplier runs per node, launched by the TaskTracker, and replaces
//! every HttpServlet (Sec. III-A). It keeps an [`IndexCache`] for segment
//! identification and a DataCache into which a disk prefetch thread reads
//! *batches* of segment data, grouped by target MOF and ordered by segment
//! offset, so the disk sees long sequential runs instead of the interleaved
//! small reads of concurrent servlets (Fig. 5 vs. Fig. 4).

use crate::config::JbsConfig;
use crate::indexcache::IndexCache;
use jbs_des::{CpuMeter, SimTime};
use jbs_disk::NodeStorage;
use jbs_jvm::PathCosts;
use jbs_mapred::sim::plan::MofInfo;
use std::collections::HashMap;

/// Read-ahead state for one (MOF, reducer) segment.
#[derive(Debug, Clone, Copy, Default)]
struct Prefetched {
    /// Bytes of the segment already staged in the DataCache.
    end: u64,
    /// When the staged bytes became available.
    ready: SimTime,
}

/// Per-node MOFSupplier state.
pub struct MofSupplier {
    index_cache: IndexCache,
    prefetched: HashMap<(usize, usize), Prefetched>,
    costs: PathCosts,
    bytes_served: u64,
    disk_reads: u64,
}

impl MofSupplier {
    /// A supplier for a job with `reducers` partitions.
    pub fn new(reducers: usize) -> Self {
        MofSupplier {
            index_cache: IndexCache::standard(reducers),
            prefetched: HashMap::new(),
            costs: PathCosts::native_c(),
            bytes_served: 0,
            disk_reads: 0,
        }
    }

    /// Stage `[chunk_off, chunk_off + len)` (segment-relative) of reducer
    /// `reducer`'s segment in `mof`, arriving as a request at `arrival`.
    /// Returns when the bytes are in the DataCache ready to transmit.
    ///
    /// With `group_by_mof` the prefetch server reads `prefetch_batch`
    /// transport buffers ahead in one sequential sweep; without it every
    /// chunk is its own disk request (the grouping ablation).
    #[allow(clippy::too_many_arguments)]
    pub fn stage_chunk(
        &mut self,
        arrival: SimTime,
        mof: &MofInfo,
        reducer: usize,
        seg_off: u64,
        chunk_off: u64,
        len: u64,
        cfg: &JbsConfig,
        storage: &mut NodeStorage,
        cpu: &mut CpuMeter,
    ) -> SimTime {
        debug_assert!(len > 0);
        let seg_bytes = mof.seg_bytes[reducer];
        debug_assert!(chunk_off + len <= seg_bytes);

        // Identify the segment via the IndexCache (disk read on miss).
        let mut t = self.index_cache.lookup(arrival, mof.index_file, storage);

        let entry = self.prefetched.entry((mof.mof_id, reducer)).or_default();
        if chunk_off + len > entry.end {
            let batch = if cfg.group_by_mof {
                cfg.prefetch_batch as u64 * cfg.buffer_bytes
            } else {
                len
            };
            let read_cpu_per_byte = self.costs.read_mode.cpu_per_byte();
            let call_overhead = self.costs.read_mode.call_overhead();
            while entry.end < chunk_off + len {
                let read_len = batch.min(seg_bytes - entry.end);
                let io = storage.read(t, mof.file, seg_off + entry.end, read_len);
                let cpu_dur =
                    call_overhead + SimTime::from_secs_f64(read_len as f64 * read_cpu_per_byte);
                cpu.charge_thread(io.completed, cpu_dur);
                let done = io.completed + cpu_dur;
                entry.end += read_len;
                entry.ready = done;
                t = done;
                self.disk_reads += 1;
            }
        }
        self.bytes_served += len;
        t.max(entry.ready)
    }

    /// Total payload bytes staged.
    pub fn bytes_served(&self) -> u64 {
        self.bytes_served
    }

    /// Number of disk read batches issued.
    pub fn disk_reads(&self) -> u64 {
        self.disk_reads
    }

    /// IndexCache hit count.
    pub fn index_hits(&self) -> u64 {
        self.index_cache.hits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jbs_disk::{DiskParams, FileId};

    fn mof(bytes_per_seg: u64, reducers: usize) -> MofInfo {
        MofInfo {
            mof_id: 0,
            node: 0,
            file: FileId(10),
            index_file: FileId(11),
            ready: SimTime::ZERO,
            seg_bytes: vec![bytes_per_seg; reducers],
        }
    }

    fn setup() -> (NodeStorage, CpuMeter, JbsConfig) {
        (
            NodeStorage::new(2, DiskParams::sata_500gb(), 64 << 20),
            CpuMeter::sar(24),
            JbsConfig::default(),
        )
    }

    #[test]
    fn first_chunk_triggers_batched_prefetch_later_chunks_are_staged() {
        let (mut st, mut cpu, cfg) = setup();
        let m = mof(4 << 20, 2);
        let mut s = MofSupplier::new(2);
        let b = cfg.buffer_bytes;
        let t1 = s.stage_chunk(SimTime::ZERO, &m, 0, 0, 0, b, &cfg, &mut st, &mut cpu);
        assert!(t1 > SimTime::ZERO, "cold read costs disk time");
        let reads_after_first = s.disk_reads();
        assert_eq!(reads_after_first, 1);
        // The next 7 chunks (prefetch_batch = 8) are already staged.
        for i in 1..8 {
            let t = s.stage_chunk(t1, &m, 0, 0, i * b, b, &cfg, &mut st, &mut cpu);
            assert_eq!(t, t1, "chunk {i} must be served from the DataCache");
        }
        assert_eq!(s.disk_reads(), reads_after_first);
        // Chunk 8 needs the next batch.
        let t9 = s.stage_chunk(t1, &m, 0, 0, 8 * b, b, &cfg, &mut st, &mut cpu);
        assert!(t9 > t1);
        assert_eq!(s.disk_reads(), 2);
    }

    #[test]
    fn grouping_off_reads_per_chunk() {
        let (mut st, mut cpu, mut cfg) = setup();
        cfg.group_by_mof = false;
        let m = mof(1 << 20, 1);
        let mut s = MofSupplier::new(1);
        let b = cfg.buffer_bytes;
        let mut t = SimTime::ZERO;
        for i in 0..8 {
            t = s.stage_chunk(t, &m, 0, 0, i * b, b, &cfg, &mut st, &mut cpu);
        }
        assert_eq!(s.disk_reads(), 8, "one disk request per chunk");
    }

    #[test]
    fn page_cache_hit_still_counts_service() {
        let (mut st, mut cpu, cfg) = setup();
        // Pre-warm the page cache as a freshly written MOF would.
        st.write(SimTime::ZERO, FileId(10), 0, 4 << 20);
        let m = mof(4 << 20, 1);
        let mut s = MofSupplier::new(1);
        let t = s.stage_chunk(
            SimTime::from_secs(1),
            &m,
            0,
            0,
            0,
            cfg.buffer_bytes,
            &cfg,
            &mut st,
            &mut cpu,
        );
        // Warm MOF: only index read + CPU, far below a cold seek.
        assert!(t < SimTime::from_secs_f64(1.05), "warm staging at {t}");
        assert_eq!(s.bytes_served(), cfg.buffer_bytes);
    }

    #[test]
    fn index_cache_hits_after_first_touch() {
        let (mut st, mut cpu, cfg) = setup();
        let m = mof(1 << 20, 1);
        let mut s = MofSupplier::new(1);
        s.stage_chunk(
            SimTime::ZERO,
            &m,
            0,
            0,
            0,
            cfg.buffer_bytes,
            &cfg,
            &mut st,
            &mut cpu,
        );
        let hits0 = s.index_hits();
        s.stage_chunk(
            SimTime::from_secs(1),
            &m,
            0,
            0,
            cfg.buffer_bytes,
            cfg.buffer_bytes,
            &cfg,
            &mut st,
            &mut cpu,
        );
        assert_eq!(s.index_hits(), hits0 + 1);
    }

    #[test]
    fn batch_never_reads_past_segment_end() {
        let (mut st, mut cpu, cfg) = setup();
        // Segment smaller than one prefetch batch.
        let m = mof(100 << 10, 1);
        let mut s = MofSupplier::new(1);
        s.stage_chunk(
            SimTime::ZERO,
            &m,
            0,
            0,
            0,
            100 << 10,
            &cfg,
            &mut st,
            &mut cpu,
        );
        assert_eq!(s.disk_reads(), 1);
        assert_eq!(s.bytes_served(), 100 << 10);
    }
}
