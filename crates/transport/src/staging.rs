//! The DataCache staging map: the supplier's grouped read-ahead state,
//! factored out of the server generically so the `cfg(loom)` models
//! below drive the *production* hit/stage logic.
//!
//! One read at segment offset `o` stages a whole read-ahead range
//! `[o, o+ahead)`; subsequent chunk fetches of the same key are served
//! from the staged bytes without touching the store (the paper's
//! DataCache, Fig. 5). The map double-buffers each key: the range the
//! reader is consuming, plus at most one run-ahead range contiguous
//! with it. A run-ahead that lands early therefore never evicts bytes
//! the reader has not reached; the reader's first hit in the run-ahead
//! range retires the one before it. Staging anywhere else (a cold
//! start, a resumed or restarted reader) replaces both.
//!
//! Two things make the map pipeline-aware:
//!
//! * a range carries the **length of its segment** as the store
//!   declared it when the range was read, so a range that reaches the
//!   segment's end knows it — even one that ends exactly on a batch
//!   boundary — and the prefetch machinery never runs ahead past it;
//! * a hit reports when the reader is **close to draining** the range
//!   ([`LeaseHit::stage_next`]), which is the signal the server turns
//!   into an asynchronous read-ahead job — a disk worker stages the next
//!   range while the network is still transmitting this one.
//!
//! Ranges are stored as refcounted [`Lease`]s. A hit *clones the lease*
//! ([`StageCache::hit_lease`]) and the reactor transmits straight from
//! the cached allocation — zero copies between DataCache and socket,
//! with eviction safe at any moment because the in-flight clone keeps
//! the bytes alive. Staging returns the evicted range's lease so the
//! caller decides where that pin drops.
//!
//! Locking: the single `staged` mutex is held only to clone a lease or
//! swap a range in — never across disk I/O, and never together with
//! another lock. A hit needs nothing else: the staged range carries the
//! segment length a frame is sealed with.

use crate::bufpool::Lease;
use crate::sync::{lock, Mutex};
use std::collections::HashMap;
use std::hash::Hash;

/// One staged read-ahead range.
struct StagedRange {
    /// Segment offset of `bytes[0]`.
    offset: u64,
    bytes: Lease,
    /// Total length of the segment the range was read from.
    seg_len: u64,
}

impl StagedRange {
    /// Segment offset one past the last staged byte.
    fn end(&self) -> u64 {
        self.offset.saturating_add(self.bytes.len() as u64)
    }

    /// Whether this range reaches the end of its segment.
    fn at_end(&self) -> bool {
        self.end() >= self.seg_len
    }

    fn contains(&self, offset: u64) -> bool {
        offset >= self.offset && offset < self.end()
    }
}

/// One key's staged state: the range being read and, once a run-ahead
/// has landed, the range that continues it (`next.offset == cur.end()`).
struct Staged {
    cur: StagedRange,
    next: Option<StagedRange>,
}

/// A zero-copy hit: a clone of the staged lease plus the byte window of
/// the request within it. The bytes stay pinned (and the underlying
/// buffer alive) for exactly as long as the caller holds the
/// lease — through an arbitrary number of partial-write resumptions.
pub(crate) struct LeaseHit {
    pub(crate) lease: Lease,
    /// The request's window within `lease` (`lo..hi`, already clamped
    /// for at-end ranges).
    pub(crate) range: std::ops::Range<usize>,
    /// `Some(next)` when the hit consumed into the low-water tail of the
    /// range and the segment continues past it: the caller should queue
    /// an asynchronous read-ahead starting at absolute offset `next`.
    pub(crate) stage_next: Option<u64>,
    /// Total length of the segment, which a frame is sealed with.
    pub(crate) seg_len: u64,
}

/// Keyed staging map (the DataCache).
pub(crate) struct StageCache<K> {
    staged: Mutex<HashMap<K, Staged>>,
}

impl<K: Hash + Eq> StageCache<K> {
    /// An empty cache.
    pub(crate) fn new() -> Self {
        StageCache {
            staged: Mutex::new(HashMap::new()),
        }
    }

    /// The window of `[offset, offset+want)` within staged range `s`,
    /// or `None` on a miss. Checked arithmetic makes the test total: an
    /// offset below the staged base, a range past its end, or any u64
    /// overflow is a miss, never a panic. A request running into (or
    /// past) the end of an **at-end** range is served clamped —
    /// possibly empty: the segment truly ends inside the range, so a
    /// shorter answer is the final answer, and treating it as a miss
    /// would send pipelined past-EOF speculation to the disk, where its
    /// empty result would evict the live range it raced.
    fn window(s: &StagedRange, offset: u64, want: u64) -> Option<std::ops::Range<usize>> {
        let lo = offset.checked_sub(s.offset).map(|lo| lo as usize)?;
        match lo
            .checked_add(want as usize)
            .filter(|&hi| hi <= s.bytes.len() && lo <= hi)
        {
            Some(hi) => Some(lo..hi),
            None if s.at_end() => {
                let lo = lo.min(s.bytes.len());
                Some(lo..s.bytes.len())
            }
            None => None,
        }
    }

    /// Serve `[offset, offset+want)` as a pinned window over a staged
    /// lease — no copy — if the whole request lies inside one range (or
    /// the range is at-end, see [`Self::window`]). A request the current
    /// range cannot serve but the run-ahead range can means the reader
    /// has moved on: the run-ahead range becomes current and the old
    /// one's pin drops. [`LeaseHit::stage_next`] is set when at most
    /// `low_water` bytes remain beyond the request, the segment
    /// continues past the range, and no run-ahead range is staged yet.
    pub(crate) fn hit_lease(
        &self,
        key: &K,
        offset: u64,
        want: u64,
        low_water: u64,
    ) -> Option<LeaseHit> {
        let mut staged = lock(&self.staged);
        let s = staged.get_mut(key)?;
        if Self::window(&s.cur, offset, want).is_none() {
            s.cur = s
                .next
                .take_if(|n| Self::window(n, offset, want).is_some())?;
        }
        let range = Self::window(&s.cur, offset, want)?;
        let remaining = s.cur.end().saturating_sub(offset.saturating_add(want));
        let pull = !s.cur.at_end() && s.next.is_none() && remaining <= low_water;
        Some(LeaseHit {
            lease: s.cur.bytes.clone(),
            range,
            stage_next: pull.then_some(s.cur.end()),
            seg_len: s.cur.seg_len,
        })
    }

    /// Stage `bytes` (read from the store at `offset` of a segment
    /// `seg_len` long); a miss-path caller clones the lease *before*
    /// staging and builds its response window from the clone. Bytes
    /// that continue the current range become `key`'s run-ahead range;
    /// anything else replaces what was staged. Returns the lease this
    /// displaced, if any.
    pub(crate) fn stage_lease(
        &self,
        key: K,
        offset: u64,
        bytes: Lease,
        seg_len: u64,
    ) -> Option<Lease> {
        let new = StagedRange {
            offset,
            bytes,
            seg_len,
        };
        let mut staged = lock(&self.staged);
        if let Some(s) = staged.get_mut(&key) {
            if !s.cur.at_end() && s.cur.end() == offset {
                return s.next.replace(new).map(|r| r.bytes);
            }
        }
        let fresh = Staged {
            cur: new,
            next: None,
        };
        staged.insert(key, fresh).map(|s| s.cur.bytes)
    }

    /// Drop everything staged for `key`, returning the current range's
    /// lease. The cache-bypass re-fetch path: after a checksum mismatch
    /// the staged bytes are suspect and must not be served again.
    pub(crate) fn invalidate(&self, key: &K) -> Option<Lease> {
        lock(&self.staged).remove(key).map(|s| s.cur.bytes)
    }

    /// How many pool-counted staged ranges nothing but the cache pins:
    /// the live-lease gauge minus this is what responses still hold.
    pub(crate) fn idle_pins(&self) -> u64 {
        let staged = lock(&self.staged);
        let ranges = staged
            .values()
            .flat_map(|s| std::iter::once(&s.cur).chain(&s.next));
        ranges.filter(|r| r.bytes.is_sole_pooled_pin()).count() as u64
    }

    /// Whether a read-ahead starting at `offset` would be redundant:
    /// `offset` lies at or past the end of a segment with a staged
    /// range, or a staged range already contains it.
    pub(crate) fn covers(&self, key: &K, offset: u64) -> bool {
        let staged = lock(&self.staged);
        let Some(s) = staged.get(key) else {
            return false;
        };
        offset >= s.cur.seg_len
            || std::iter::once(&s.cur)
                .chain(&s.next)
                .any(|r| r.contains(offset))
    }
}

/// Bounded model checks of the staging logic. Build and run with
/// `RUSTFLAGS="--cfg loom" cargo test -p jbs-transport --lib loom_`.
#[cfg(all(test, loom))]
mod loom_tests {
    use super::*;
    use std::sync::Arc;

    fn hit(cache: &StageCache<u8>, key: u8, offset: u64, want: u64) -> Option<Vec<u8>> {
        cache
            .hit_lease(&key, offset, want, 0)
            .map(|h| h.lease.get(h.range).unwrap_or_default().to_vec())
    }

    /// Every modelled range lies well inside a segment this long.
    const SEG_LEN: u64 = 64;

    fn stage(cache: &StageCache<u8>, key: u8, offset: u64, bytes: Vec<u8>) -> Option<Lease> {
        cache.stage_lease(key, offset, Lease::detached(bytes), SEG_LEN)
    }

    /// A disk worker stages a range while the reactor looks the same
    /// key up. In every interleaving a served chunk is byte-exact for
    /// its requested range — a reader sees a complete staged range or a
    /// miss, never a torn one.
    #[test]
    fn loom_hit_races_stage_without_tearing() {
        loom::model(|| {
            let cache = Arc::new(StageCache::<u8>::new());
            let c2 = Arc::clone(&cache);
            let h = loom::thread::spawn(move || stage(&c2, 0u8, 0, vec![1, 2, 3, 4]));
            if let Some(chunk) = hit(&cache, 0u8, 1, 2) {
                assert_eq!(chunk, vec![2, 3]);
            }
            if h.join().is_err() {
                panic!("stager panicked");
            }
            // After both finish, the staged range serves hits exactly.
            assert_eq!(hit(&cache, 0u8, 2, 2), Some(vec![3, 4]));
        });
    }

    /// A run-ahead lands while the reader is still inside the current
    /// range. In every interleaving the reader's hit is served from the
    /// current range — the run-ahead never evicts it — and once both
    /// finish the reader walks on into the run-ahead range.
    #[test]
    fn loom_run_ahead_never_evicts_the_range_being_read() {
        loom::model(|| {
            let cache = Arc::new(StageCache::<u8>::new());
            stage(&cache, 0u8, 0, vec![1, 2, 3, 4]);
            let c2 = Arc::clone(&cache);
            let h = loom::thread::spawn(move || stage(&c2, 0u8, 4, vec![5, 6, 7, 8]));
            assert_eq!(hit(&cache, 0u8, 2, 2), Some(vec![3, 4]));
            match h.join() {
                Ok(displaced) => assert!(displaced.is_none(), "nothing to displace"),
                Err(_) => panic!("stager panicked"),
            }
            assert_eq!(hit(&cache, 0u8, 4, 2), Some(vec![5, 6]));
            assert_eq!(hit(&cache, 0u8, 2, 2), None, "the drained range retired");
        });
    }

    /// Two workers stage unrelated ranges for one key concurrently. The
    /// survivor is one of the two complete ranges (last write wins),
    /// a later hit is consistent with whichever survived, and exactly
    /// one of the racers gets the loser's lease back.
    #[test]
    fn loom_concurrent_stages_last_write_wins() {
        loom::model(|| {
            let cache = Arc::new(StageCache::<u8>::new());
            let c2 = Arc::clone(&cache);
            let h = loom::thread::spawn(move || stage(&c2, 0u8, 0, vec![10, 11]));
            let ev2 = stage(&cache, 0u8, 5, vec![20, 21]);
            let ev1 = match h.join() {
                Ok(r) => r,
                Err(_) => panic!("stager panicked"),
            };
            let survivor = (hit(&cache, 0u8, 0, 2), hit(&cache, 0u8, 5, 2));
            assert!(
                matches!(survivor, (Some(_), None) | (None, Some(_))),
                "exactly one complete range survives: {survivor:?}"
            );
            // The losing range's lease was returned to exactly one
            // caller (the one that staged second); never both, never a
            // phantom lease.
            let evictions = [&ev1, &ev2].iter().filter(|e| e.is_some()).count();
            assert_eq!(evictions, 1, "{ev1:?} {ev2:?}");
        });
    }

    /// The partial-write-resume vs. eviction race: a transmitter clones
    /// the staged lease (as the reactor does before its first
    /// `writev`), then a restage evicts the range while the transmit is
    /// still in flight. In every interleaving the transmitter's clone
    /// reads the original payload byte-exactly — eviction can drop the
    /// cache entry but never the pinned bytes.
    #[test]
    fn loom_eviction_races_pinned_transmit() {
        loom::model(|| {
            let cache = Arc::new(StageCache::<u8>::new());
            stage(&cache, 0u8, 0, vec![1, 2, 3, 4]);
            let pinned = cache.hit_lease(&0u8, 1, 2, 0).expect("staged range hit");
            let c2 = Arc::clone(&cache);
            let h = loom::thread::spawn(move || {
                // Restage: evicts the range the transmitter pinned, and
                // the cache's pin goes away mid-transmit.
                drop(stage(&c2, 0u8, 50, vec![9]));
            });
            // "Resume the partial write": the clone still reads true.
            let window = pinned.lease.get(pinned.range.clone()).unwrap_or_default();
            assert_eq!(window, &[2, 3], "pinned bytes survived eviction");
            if h.join().is_err() {
                panic!("restager panicked");
            }
            assert_eq!(window, &[2, 3]);
        });
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    /// A segment length past every range these tests stage, so each
    /// staged range stops short of its segment's end.
    const MID: u64 = 1000;

    fn hit(cache: &StageCache<u8>, key: u8, offset: u64, want: u64) -> Option<Vec<u8>> {
        cache
            .hit_lease(&key, offset, want, 0)
            .map(|h| h.lease.get(h.range).unwrap_or_default().to_vec())
    }

    fn stage(
        cache: &StageCache<u8>,
        key: u8,
        offset: u64,
        bytes: Vec<u8>,
        seg_len: u64,
    ) -> Option<Lease> {
        cache.stage_lease(key, offset, Lease::detached(bytes), seg_len)
    }

    #[test]
    fn hit_requires_containment() {
        let cache = StageCache::<u8>::new();
        assert_eq!(hit(&cache, 1, 0, 4), None, "empty cache misses");
        stage(&cache, 1, 100, vec![1, 2, 3, 4, 5, 6], MID);
        assert_eq!(hit(&cache, 1, 100, 4), Some(vec![1, 2, 3, 4]));
        assert_eq!(hit(&cache, 1, 102, 3), Some(vec![3, 4, 5]));
        assert_eq!(hit(&cache, 1, 99, 2), None, "below staged base");
        assert_eq!(hit(&cache, 1, 104, 4), None, "past staged end");
        assert_eq!(hit(&cache, 1, u64::MAX, 2), None, "overflowing offset");
    }

    #[test]
    fn restage_replaces_range_and_returns_evicted_buffer() {
        let cache = StageCache::<u8>::new();
        assert!(stage(&cache, 1, 0, vec![1, 2, 3], MID).is_none());
        let evicted = stage(&cache, 1, 10, vec![4, 5, 6], MID);
        assert_eq!(
            evicted.as_deref(),
            Some(&[1u8, 2, 3][..]),
            "old lease comes back"
        );
        assert_eq!(hit(&cache, 1, 0, 2), None, "old range gone");
        assert_eq!(hit(&cache, 1, 10, 3), Some(vec![4, 5, 6]));
    }

    #[test]
    fn tail_hits_request_read_ahead() {
        let cache = StageCache::<u8>::new();
        // Range [100, 108), segment continues beyond it.
        stage(&cache, 1, 100, vec![0; 8], MID);
        // Head of the range with 2 bytes of low-water: plenty left.
        let h = cache.hit_lease(&1, 100, 2, 2).unwrap();
        assert_eq!(h.stage_next, None);
        // Consuming to within low-water of the end: stage at 108 next.
        let h = cache.hit_lease(&1, 104, 2, 2).unwrap();
        assert_eq!(h.stage_next, Some(108));
        // Same tail hit on an at-end range: nothing beyond to stage.
        stage(&cache, 2, 100, vec![0; 8], 108);
        let h = cache.hit_lease(&2, 104, 2, 2).unwrap();
        assert_eq!(h.stage_next, None);
    }

    #[test]
    fn run_ahead_lands_beside_the_range_being_read() {
        let cache = StageCache::<u8>::new();
        stage(&cache, 1, 100, vec![1, 2, 3, 4], MID);
        // The continuation displaces nothing and evicts nothing.
        assert!(stage(&cache, 1, 104, vec![5, 6, 7, 8], MID).is_none());
        assert!(cache.covers(&1, 101) && cache.covers(&1, 107));
        let h = cache.hit_lease(&1, 102, 2, 2).unwrap();
        assert_eq!(h.lease.get(h.range), Some(&[3u8, 4][..]));
        assert_eq!(h.stage_next, None, "the next range is already staged");
        // A second continuation replaces the first, not the current.
        let displaced = stage(&cache, 1, 104, vec![5, 6, 7, 9], MID);
        assert_eq!(displaced.as_deref(), Some(&[5u8, 6, 7, 8][..]));
        // The reader's first hit past the current range retires it.
        let h = cache.hit_lease(&1, 106, 2, 2).unwrap();
        assert_eq!(h.lease.get(h.range), Some(&[7u8, 9][..]));
        assert_eq!(h.stage_next, Some(108), "nothing staged beyond it");
        assert_eq!(hit(&cache, 1, 102, 2), None, "the drained range retired");
        // Staging anywhere else replaces both ranges.
        stage(&cache, 1, 108, vec![0; 4], MID);
        let displaced = stage(&cache, 1, 0, vec![1], MID);
        assert_eq!(displaced.as_deref(), Some(&[5u8, 6, 7, 9][..]));
        assert_eq!(hit(&cache, 1, 108, 2), None, "run-ahead range went with it");
        assert_eq!(hit(&cache, 1, 0, 1), Some(vec![1]));
    }

    #[test]
    fn at_end_range_serves_clamped_and_empty_tails() {
        let cache = StageCache::<u8>::new();
        stage(&cache, 1, 100, vec![1, 2, 3, 4], 104);
        // Runs into the end: clamped, not a miss.
        assert_eq!(hit(&cache, 1, 102, 8), Some(vec![3, 4]));
        // At and past the end: empty — the stream's EOF answer.
        assert_eq!(hit(&cache, 1, 104, 4), Some(vec![]));
        assert_eq!(hit(&cache, 1, 200, 4), Some(vec![]));
        // A mid-segment range still misses past its staged end.
        stage(&cache, 2, 100, vec![1, 2, 3, 4], MID);
        assert_eq!(hit(&cache, 2, 102, 8), None);
    }

    #[test]
    fn invalidate_drops_range_and_returns_buffer() {
        let cache = StageCache::<u8>::new();
        assert!(cache.invalidate(&1).is_none(), "nothing staged");
        stage(&cache, 1, 0, vec![1, 2, 3], MID);
        assert_eq!(cache.invalidate(&1).as_deref(), Some(&[1u8, 2, 3][..]));
        assert_eq!(hit(&cache, 1, 0, 2), None, "range gone after invalidate");
        stage(&cache, 1, 0, vec![1, 2], MID);
        stage(&cache, 1, 2, vec![3, 4], MID);
        drop(cache.invalidate(&1));
        assert_eq!(hit(&cache, 1, 2, 2), None, "run-ahead range goes too");
    }

    #[test]
    fn covers_tracks_range_and_segment_end() {
        let cache = StageCache::<u8>::new();
        assert!(!cache.covers(&1, 0), "empty cache covers nothing");
        stage(&cache, 1, 100, vec![0; 8], MID);
        assert!(cache.covers(&1, 100));
        assert!(cache.covers(&1, 107));
        assert!(!cache.covers(&1, 108), "just past a mid-segment range");
        assert!(!cache.covers(&1, 99));
        // An at-end range also covers everything past the segment end.
        stage(&cache, 2, 100, vec![0; 8], 108);
        assert!(cache.covers(&2, 108));
        assert!(cache.covers(&2, 10_000));
    }

    #[test]
    fn eviction_mid_transmit_keeps_pinned_bytes_alive() {
        let cache = StageCache::<u8>::new();
        stage(&cache, 1, 0, vec![1, 2, 3, 4], MID);
        let pinned = cache.hit_lease(&1, 1, 2, 0).expect("hit");
        // Evict while the "transmit" still holds its lease clone.
        drop(stage(&cache, 1, 50, vec![9], MID));
        assert_eq!(pinned.lease.get(pinned.range).unwrap_or_default(), &[2, 3]);
    }
}
