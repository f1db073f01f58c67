//! The IndexCache: cached MOF index entries.
//!
//! "An IndexCache is usually maintained to cache the entries from the Index
//! file and speed up the identification of MOF segments" (Sec. III-B).
//! Both the stock HttpServlet path and JBS's MOFSupplier use one; a miss
//! costs an index-file disk read, a hit costs nothing but a lookup.

use jbs_des::lru::LruCache;
use jbs_des::SimTime;
use jbs_disk::{FileId, NodeStorage};

/// Per-node cache of MOF index files.
pub struct IndexCache {
    cache: LruCache<FileId, ()>,
    index_bytes: u64,
}

impl IndexCache {
    /// A cache holding up to `capacity` MOF indexes, each `index_bytes`
    /// on disk (24 bytes per reducer plus header/CRC).
    pub fn new(capacity: usize, index_bytes: u64) -> Self {
        IndexCache {
            cache: LruCache::new(capacity),
            index_bytes,
        }
    }

    /// The standard sizing: 1000 indexes for a job with `reducers`
    /// partitions (Hadoop's `mapred.tasktracker.indexcache.mb` default
    /// comfortably holds this many).
    pub fn standard(reducers: usize) -> Self {
        IndexCache::new(1000, 24 * reducers as u64 + 16)
    }

    /// Look up the index for `mof_index_file` at `now`; on a miss, read it
    /// from `storage` and cache it. Returns when the entry is available.
    pub fn lookup(
        &mut self,
        now: SimTime,
        mof_index_file: FileId,
        storage: &mut NodeStorage,
    ) -> SimTime {
        if self.cache.touch(&mof_index_file) {
            return now;
        }
        let io = storage.read(now, mof_index_file, 0, self.index_bytes);
        self.cache.insert(mof_index_file, ());
        io.completed
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.cache.hits()
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.cache.misses()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jbs_disk::DiskParams;

    fn storage() -> NodeStorage {
        NodeStorage::new(1, DiskParams::sata_500gb(), 16 << 20)
    }

    #[test]
    fn first_lookup_reads_disk_then_hits() {
        let mut s = storage();
        let mut ic = IndexCache::standard(44);
        let t0 = SimTime::from_secs(1);
        let t1 = ic.lookup(t0, FileId(7), &mut s);
        assert!(t1 > t0, "miss must cost disk time");
        let t2 = ic.lookup(t1, FileId(7), &mut s);
        assert_eq!(t2, t1, "hit is free");
        assert_eq!(ic.hits(), 1);
        assert_eq!(ic.misses(), 1);
    }

    #[test]
    fn capacity_eviction_forces_reread() {
        let mut s = storage();
        let mut ic = IndexCache::new(2, 1072);
        ic.lookup(SimTime::ZERO, FileId(1), &mut s);
        ic.lookup(SimTime::from_secs(1), FileId(2), &mut s);
        ic.lookup(SimTime::from_secs(2), FileId(3), &mut s); // evicts 1
                                                             // FileId(1) falls out of the IndexCache. (The page cache may still
                                                             // hold the file's blocks, so the re-read can be cheap — but the
                                                             // IndexCache itself must miss.)
        let misses_before = ic.misses();
        ic.lookup(SimTime::from_secs(3), FileId(1), &mut s);
        assert_eq!(ic.misses(), misses_before + 1);
    }

    #[test]
    fn index_size_matches_reducer_count() {
        let ic = IndexCache::standard(44);
        assert_eq!(ic.index_bytes, 24 * 44 + 16);
    }
}
