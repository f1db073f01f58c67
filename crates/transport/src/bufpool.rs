//! Refcounted slab leases for the zero-copy dataplane, plus the gauge
//! that counts how many are live.
//!
//! A staged read-ahead buffer is wrapped in a [`Lease`] — an `Arc` over
//! the bytes — and the *same allocation* is pinned by the DataCache and
//! by any in-flight vectored transmit at once. No copy happens between
//! the cache and the socket; when the last clone drops, the buffer is
//! freed. Eviction is therefore safe at any moment: it drops the cache's
//! pin, never the bytes a partial write is still sending. A lease can
//! also pin a buffer someone else owns ([`BufPool::lend`]): a hybrid
//! store's MEMORY buffer, transmitted the same way with no copy.
//!
//! [`BufPool`] is the supplier's handle for making leases. It counts
//! the leased buffers currently pinned through it; the supplier's
//! snapshot subtracts the staged ranges that only the DataCache pins,
//! so its `outstanding` is what responses still hold and a test — or
//! an operator — can tell that nothing stays pinned once the response
//! queues have flushed. The count is exact: it moves in the pinned
//! allocation's own `Drop`, which `Arc` runs once, on whichever thread
//! lets go last.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Slab-lease gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufPoolStats {
    /// Always 0: nothing draws recycled buffers (the reactor transmits
    /// from leases); kept because the benchmark binary reads the field.
    pub hits: u64,
    /// Always 0, kept for the same reason as [`Self::hits`].
    pub misses: u64,
    /// Buffers currently pinned by at least one pooled lease (a store
    /// buffer counts once per `BufPool::lend` that pins it). In a
    /// [`crate::SupplierStatsSnapshot`], the ones a response still pins:
    /// ranges that only the DataCache holds are not counted.
    pub outstanding: u64,
}

/// Maker of counted [`Lease`]s: every lease made through one pool
/// shares its live-lease gauge.
pub(crate) struct BufPool {
    live: Arc<AtomicU64>,
}

impl BufPool {
    pub(crate) fn new() -> Self {
        BufPool {
            live: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Wrap `buf` in a refcounted lease counted by this pool: clones pin
    /// the same allocation, and the last drop frees it and retires it
    /// from `outstanding`.
    pub(crate) fn lease(&self, buf: Vec<u8>) -> Lease {
        self.lend(Arc::new(buf))
    }

    /// A lease counted by this pool over a buffer shared with its owner
    /// (a hybrid store's MEMORY buffer): clones pin it like any lease,
    /// and the last clone's drop retires it from `outstanding` and
    /// drops this pin — the owner's bytes are never copied.
    pub(crate) fn lend(&self, buf: Arc<Vec<u8>>) -> Lease {
        self.live.fetch_add(1, Ordering::Relaxed);
        Lease(Arc::new(Pinned {
            bytes: buf,
            live: Some(Arc::clone(&self.live)),
        }))
    }

    /// Copy out the gauges.
    pub(crate) fn stats(&self) -> BufPoolStats {
        BufPoolStats {
            hits: 0,
            misses: 0,
            outstanding: self.live.load(Ordering::Relaxed),
        }
    }
}

/// One pinned buffer and the gauge it retires from when it goes.
struct Pinned {
    bytes: Arc<Vec<u8>>,
    live: Option<Arc<AtomicU64>>,
}

impl Drop for Pinned {
    fn drop(&mut self) {
        if let Some(live) = &self.live {
            live.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// A refcounted pin over one buffer: the DataCache holds one lease,
/// every in-flight vectored transmit of the same bytes holds another,
/// and the *last* drop frees the allocation — zero copies in between.
/// A lease made with [`Lease::detached`] (bytes no pool counts, e.g. an
/// error frame's empty payload) is the same pin without the gauge.
#[derive(Clone)]
pub(crate) struct Lease(Arc<Pinned>);

impl Lease {
    /// A lease over bytes that no pool counts.
    pub(crate) fn detached(buf: Vec<u8>) -> Lease {
        Lease(Arc::new(Pinned {
            bytes: Arc::new(buf),
            live: None,
        }))
    }

    pub(crate) fn len(&self) -> usize {
        self.0.bytes.len()
    }

    /// Whether this handle is the only pin left on a pool-counted
    /// allocation (how the DataCache tells an idle staged range from
    /// one a response is still transmitting).
    pub(crate) fn is_sole_pooled_pin(&self) -> bool {
        self.0.live.is_some() && Arc::strong_count(&self.0) == 1
    }

    pub(crate) fn as_slice(&self) -> &[u8] {
        &self.0.bytes
    }
}

impl std::ops::Deref for Lease {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::fmt::Debug for Lease {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lease")
            .field("len", &self.len())
            .field("pooled", &self.0.live.is_some())
            .finish()
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn outstanding_counts_live_allocations_not_clones() {
        let pool = BufPool::new();
        let lease = pool.lease(b"payload".to_vec());
        let clone = lease.clone();
        assert_eq!(&lease[..], b"payload");
        assert_eq!(pool.stats().outstanding, 1, "one allocation, two pins");
        assert!(!clone.is_sole_pooled_pin());
        drop(lease);
        // A clone still pins the bytes across this stats read.
        assert_eq!(pool.stats().outstanding, 1);
        assert_eq!(&clone[..], b"payload");
        assert!(clone.is_sole_pooled_pin());
        drop(clone);
        assert_eq!(pool.stats().outstanding, 0);
        let (a, b) = (pool.lease(vec![1]), pool.lease(vec![2]));
        assert_eq!(pool.stats().outstanding, 2);
        drop((a, b));
        assert_eq!(pool.stats(), BufPoolStats::default());
    }

    #[test]
    fn lent_buffer_is_pinned_not_copied_and_counted_per_lend() {
        let pool = BufPool::new();
        let owned = Arc::new(b"store bytes".to_vec());
        let (a, b) = (pool.lend(Arc::clone(&owned)), pool.lend(Arc::clone(&owned)));
        assert_eq!(a.as_slice().as_ptr(), owned.as_ptr(), "same bytes, no copy");
        assert_eq!(&b[..], b"store bytes");
        assert_eq!(pool.stats().outstanding, 2, "one per lend");
        assert_eq!(Arc::strong_count(&owned), 3);
        drop((a, b));
        assert_eq!(pool.stats().outstanding, 0);
        assert_eq!(Arc::strong_count(&owned), 1, "every pin dropped");
    }

    #[test]
    fn detached_lease_never_touches_the_gauge() {
        let pool = BufPool::new();
        let lease = Lease::detached(vec![1, 2, 3]);
        assert_eq!(lease.len(), 3);
        assert!(!lease.is_sole_pooled_pin(), "no pool counts it");
        assert_eq!(pool.stats().outstanding, 0);
        drop(lease);
        assert_eq!(pool.stats().outstanding, 0);
    }
}
