//! Per-node storage: a set of disks behind one shared page cache.
//!
//! Files are statically routed to a disk by hashing the file id, as Hadoop's
//! `LocalDirAllocator` spreads MOFs and spills across the configured local
//! directories. Reads probe the page cache first; only miss runs touch the
//! platter. Buffered writes return immediately (writeback) but still occupy
//! the disk arm, so heavy write traffic delays later reads — visible during
//! the spill-heavy map phase of large jobs.

use crate::model::{Disk, DiskParams};
use crate::pagecache::PageCache;
use jbs_des::SimTime;
use std::fmt;

/// Identifier of a simulated file (MOF, index file, spill, HDFS block...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct FileId(pub u64);

impl fmt::Display for FileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "file#{}", self.0)
    }
}

/// Result of a read against [`NodeStorage`].
#[derive(Debug, Clone, Copy)]
pub struct ReadOutcome {
    /// When the last byte was available.
    pub completed: SimTime,
    /// Bytes served from the page cache.
    pub hit_bytes: u64,
    /// Bytes read from a platter (block-aligned, may exceed the request).
    pub disk_bytes: u64,
    /// Positioning penalties paid.
    pub seeks: u32,
}

impl ReadOutcome {
    /// True when no platter access was needed.
    pub fn fully_cached(&self) -> bool {
        self.disk_bytes == 0
    }
}

/// Whether an access should populate the page cache.
///
/// Streaming use-once traffic — HDFS input reads, final output writes —
/// behaves like `Bypass` on a real kernel (drop-behind / writeback then
/// reclaim), so it must not evict the freshly written MOFs that the
/// shuffle is about to read. MOF and spill traffic is `Cache`d.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachePolicy {
    /// Populate the cache (hot data: MOFs, spills).
    Cache,
    /// Probe the cache but do not populate it (use-once streams).
    Bypass,
}

/// All storage of one node.
pub struct NodeStorage {
    disks: Vec<Disk>,
    cache: PageCache,
}

impl NodeStorage {
    /// `ndisks` identical drives sharing a page cache of `cache_bytes`.
    pub fn new(ndisks: usize, params: DiskParams, cache_bytes: u64) -> Self {
        assert!(ndisks >= 1, "need at least one disk");
        NodeStorage {
            disks: (0..ndisks).map(|_| Disk::new(params.clone())).collect(),
            cache: PageCache::new(cache_bytes),
        }
    }

    /// Which disk a file lives on.
    pub fn disk_for(&self, file: FileId) -> usize {
        // Fibonacci hashing spreads consecutive ids across drives.
        (file.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % self.disks.len()
    }

    /// Read `[offset, offset+len)` of `file`, submitted at `now`, with an
    /// explicit cache policy.
    pub fn read_with(
        &mut self,
        now: SimTime,
        file: FileId,
        offset: u64,
        len: u64,
        policy: CachePolicy,
    ) -> ReadOutcome {
        let probe = self.cache.read(file.0, offset, len);
        if probe.fully_cached() {
            return ReadOutcome {
                completed: now,
                hit_bytes: probe.hit_bytes,
                disk_bytes: 0,
                seeks: 0,
            };
        }
        let disk = self.disk_for(file);
        let mut completed = now;
        let mut disk_bytes = 0u64;
        let mut seeks = 0u32;
        for &(run_off, run_len) in &probe.miss_runs {
            let g = self.disks[disk].read(now, file.0, run_off, run_len);
            completed = completed.max(g.end);
            disk_bytes += run_len;
            if g.seeked {
                seeks += 1;
            }
            if policy == CachePolicy::Cache {
                self.cache.fill(file.0, run_off, run_len);
            }
        }
        ReadOutcome {
            completed,
            hit_bytes: probe.hit_bytes,
            disk_bytes,
            seeks,
        }
    }

    /// Cached read (see [`NodeStorage::read_with`]).
    pub fn read(&mut self, now: SimTime, file: FileId, offset: u64, len: u64) -> ReadOutcome {
        self.read_with(now, file, offset, len, CachePolicy::Cache)
    }

    /// Buffered write with an explicit cache policy: returns at once and
    /// charges the platter asynchronously (the arm stays busy, delaying
    /// later I/O).
    pub fn write_with(
        &mut self,
        now: SimTime,
        file: FileId,
        offset: u64,
        len: u64,
        policy: CachePolicy,
    ) -> SimTime {
        if len == 0 {
            return now;
        }
        if policy == CachePolicy::Cache {
            self.cache.write(file.0, offset, len);
        }
        let disk = self.disk_for(file);
        self.disks[disk].write(now, file.0, offset, len);
        now
    }

    /// Buffered cached write (see [`NodeStorage::write_with`]).
    pub fn write(&mut self, now: SimTime, file: FileId, offset: u64, len: u64) -> SimTime {
        self.write_with(now, file, offset, len, CachePolicy::Cache)
    }

    /// Synchronous (write-through) write: returns when the data is on the
    /// platter. Used for fsync-like barriers, e.g. committing a MOF index.
    pub fn write_sync(&mut self, now: SimTime, file: FileId, offset: u64, len: u64) -> SimTime {
        self.write_sync_with(now, file, offset, len, CachePolicy::Cache)
    }

    /// Synchronous write with an explicit cache policy.
    pub fn write_sync_with(
        &mut self,
        now: SimTime,
        file: FileId,
        offset: u64,
        len: u64,
        policy: CachePolicy,
    ) -> SimTime {
        if len == 0 {
            return now;
        }
        if policy == CachePolicy::Cache {
            self.cache.write(file.0, offset, len);
        }
        let disk = self.disk_for(file);
        self.disks[disk].write(now, file.0, offset, len).end
    }

    /// Drop cached blocks of a file (after its consumer is done with it).
    pub fn invalidate(&mut self, file: FileId) {
        self.cache.invalidate_file(file.0);
    }

    /// Earliest time the file's disk frees up.
    pub fn disk_next_free(&self, file: FileId) -> SimTime {
        self.disks[self.disk_for(file)].next_free()
    }

    /// Aggregate busy time across all arms.
    pub fn total_disk_busy(&self) -> SimTime {
        self.disks.iter().map(|d| d.busy_time()).sum()
    }

    /// Aggregate seek count across all arms.
    pub fn total_seeks(&self) -> u64 {
        self.disks.iter().map(|d| d.seeks()).sum()
    }

    /// Aggregate platter bytes read.
    pub fn total_bytes_read(&self) -> u64 {
        self.disks.iter().map(|d| d.bytes_read()).sum()
    }

    /// Aggregate platter bytes written.
    pub fn total_bytes_written(&self) -> u64 {
        self.disks.iter().map(|d| d.bytes_written()).sum()
    }

    /// The shared page cache (for statistics).
    pub fn cache(&self) -> &PageCache {
        &self.cache
    }

    /// Number of drives.
    pub fn ndisks(&self) -> usize {
        self.disks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1 << 20;

    fn storage() -> NodeStorage {
        NodeStorage::new(2, DiskParams::sata_500gb(), 64 * MB)
    }

    #[test]
    fn cold_read_goes_to_disk() {
        let mut s = storage();
        let r = s.read(SimTime::ZERO, FileId(1), 0, 4 * MB);
        assert!(!r.fully_cached());
        assert_eq!(r.disk_bytes, 4 * MB);
        assert!(r.completed > SimTime::ZERO);
        assert_eq!(r.seeks, 1);
    }

    #[test]
    fn warm_read_is_instant() {
        let mut s = storage();
        s.write(SimTime::ZERO, FileId(1), 0, 4 * MB);
        let r = s.read(SimTime::from_secs(1), FileId(1), 0, 4 * MB);
        assert!(r.fully_cached());
        assert_eq!(r.completed, SimTime::from_secs(1));
        assert_eq!(r.hit_bytes, 4 * MB);
    }

    #[test]
    fn files_spread_across_disks() {
        let s = storage();
        let mut on0 = 0;
        for i in 0..100 {
            if s.disk_for(FileId(i)) == 0 {
                on0 += 1;
            }
        }
        assert!(on0 > 20 && on0 < 80, "distribution skewed: {on0}/100");
    }

    #[test]
    fn buffered_write_returns_immediately_but_occupies_arm() {
        let mut s = storage();
        let f = FileId(1);
        let t = s.write(SimTime::ZERO, f, 0, 100 * MB);
        assert_eq!(t, SimTime::ZERO);
        // A cold read of a *different* file on the same disk must wait for
        // the writeback.
        let same_disk_file = (0..1000)
            .map(FileId)
            .find(|&g| g != f && s.disk_for(g) == s.disk_for(f))
            .unwrap();
        let r = s.read(SimTime::ZERO, same_disk_file, 0, MB);
        assert!(r.completed.as_secs_f64() > 0.9, "read at {}", r.completed);
    }

    #[test]
    fn sync_write_waits_for_platter() {
        let mut s = storage();
        let t = s.write_sync(SimTime::ZERO, FileId(3), 0, 100 * MB);
        assert!(t.as_secs_f64() > 0.9);
        assert_eq!(s.write_sync(SimTime::ZERO, FileId(3), 0, 0), SimTime::ZERO);
    }

    #[test]
    fn invalidate_forces_disk_read() {
        let mut s = storage();
        s.write(SimTime::ZERO, FileId(1), 0, MB);
        s.invalidate(FileId(1));
        let r = s.read(SimTime::from_secs(5), FileId(1), 0, MB);
        assert!(!r.fully_cached());
    }

    #[test]
    fn bypass_read_does_not_populate_cache() {
        let mut s = storage();
        let r1 = s.read_with(SimTime::ZERO, FileId(1), 0, MB, CachePolicy::Bypass);
        assert!(!r1.fully_cached());
        // Re-reading must hit the disk again: bypass did not fill.
        let r2 = s.read_with(r1.completed, FileId(1), 0, MB, CachePolicy::Bypass);
        assert!(!r2.fully_cached());
    }

    #[test]
    fn bypass_write_does_not_populate_cache() {
        let mut s = storage();
        s.write_with(SimTime::ZERO, FileId(1), 0, MB, CachePolicy::Bypass);
        assert!(!s
            .read(SimTime::from_secs(1), FileId(1), 0, MB)
            .fully_cached());
        let t = s.write_sync_with(SimTime::from_secs(2), FileId(2), 0, MB, CachePolicy::Bypass);
        assert!(t > SimTime::from_secs(2));
        assert!(!s.read(t, FileId(2), 0, MB).fully_cached());
    }

    #[test]
    fn bypass_read_still_uses_existing_cache_entries() {
        let mut s = storage();
        s.write(SimTime::ZERO, FileId(1), 0, MB); // cached
        let r = s.read_with(SimTime::from_secs(1), FileId(1), 0, MB, CachePolicy::Bypass);
        assert!(r.fully_cached());
    }

    #[test]
    fn totals_accumulate() {
        let mut s = storage();
        s.write(SimTime::ZERO, FileId(1), 0, MB);
        s.read(SimTime::ZERO, FileId(2), 0, MB);
        assert_eq!(s.total_bytes_written(), MB);
        assert_eq!(s.total_bytes_read(), MB);
        assert!(s.total_seeks() >= 2);
        assert!(s.total_disk_busy() > SimTime::ZERO);
        assert_eq!(s.ndisks(), 2);
    }
}
