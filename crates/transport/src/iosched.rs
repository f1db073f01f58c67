//! Permit-based disk IO scheduler: one semaphore per class of disk IO.
//!
//! The supplier's disk traffic comes from two producers — the disk
//! workers reading segment ranges, and the hybrid store's spill flusher
//! appending sealed buffers to local files. [`IoScheduler`] gives each
//! class ([`IoClass::Read`] for worker reads, [`IoClass::Append`] for
//! spill appends) its own configured number of permits; an IO holds a
//! permit of its class for its duration, and excess demand queues on a
//! condvar, visibly (per-class `held`/`queued` gauges, `iosched.acquire`
//! instants, `iosched.wait` spans).
//!
//! The two classes are independent: a read never waits for an append,
//! nor an append for a read. Within a class nothing waits either as the
//! dataplane is wired: a supplier runs exactly `read_permits` disk
//! workers, and the hybrid store takes its Append permit only under its
//! single-flusher token, so one LOCALFILE write runs at a time.
//!
//! Locking: the single `permits` mutex guards only the free/queued
//! counts; it is never held across the IO itself (the permit is a
//! separate RAII value), and the condvar wait releases it — both facts
//! the blocking-under-lock lint checks.
//!
//! Every class has at least one permit: arbitration is always on. A
//! supplier started without a scheduler builds one with
//! [`IoScheduler::DEFAULT_READ_PERMITS`] /
//! [`IoScheduler::DEFAULT_APPEND_PERMITS`].
//!
//! The hybrid store cannot depend on this crate (it would be a cycle),
//! so it defines the two-method [`jbs_store_hybrid::SpillGate`] trait
//! and [`IoScheduler`] implements it; `jbs::dataplane` wires one shared
//! scheduler into both the server options and the hybrid config.

use crate::sync::{lock, wait, Condvar, Mutex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which class of disk IO a permit covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoClass {
    /// Staging/prefetch reads (and any other segment read).
    Read,
    /// Spill-flush appends from the hybrid store.
    Append,
}

impl IoClass {
    /// Payload word used in `iosched.*` trace events.
    fn code(self) -> u64 {
        match self {
            IoClass::Read => 0,
            IoClass::Append => 1,
        }
    }
}

/// Free/queued counts for one class.
#[derive(Debug, Clone, Copy)]
struct ClassState {
    free: usize,
    queued: usize,
}

/// Per-class counts; the one mutex-guarded state. Named fields instead
/// of `[_; 2]` arrays keep the dataplane free of panicking indexing.
struct PermitState {
    read: ClassState,
    append: ClassState,
}

impl PermitState {
    fn class(&mut self, class: IoClass) -> &mut ClassState {
        match class {
            IoClass::Read => &mut self.read,
            IoClass::Append => &mut self.append,
        }
    }
}

/// Lock-free counters for one class.
#[derive(Default)]
struct ClassCounters {
    acquires: AtomicU64,
    waits: AtomicU64,
}

/// Point-in-time view of the scheduler, for stats snapshots and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoSchedStats {
    /// Configured permits per class.
    pub read_permits: usize,
    pub append_permits: usize,
    /// Permits currently held (configured minus free).
    pub read_held: usize,
    pub append_held: usize,
    /// Acquirers currently blocked waiting for a permit.
    pub read_queued: usize,
    pub append_queued: usize,
    /// Total permits ever granted per class.
    pub read_acquires: u64,
    pub append_acquires: u64,
    /// Acquisitions that had to block first.
    pub read_waits: u64,
    pub append_waits: u64,
}

/// A counting semaphore with two permit classes and full observability.
pub struct IoScheduler {
    permits: Mutex<PermitState>,
    cv: Condvar,
    read_cap: usize,
    append_cap: usize,
    read_counters: ClassCounters,
    append_counters: ClassCounters,
    trace: jbs_obs::Trace,
}

impl std::fmt::Debug for IoScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("IoScheduler")
            .field("read_permits", &s.read_permits)
            .field("append_permits", &s.append_permits)
            .field("read_held", &s.read_held)
            .field("append_held", &s.append_held)
            .finish()
    }
}

impl IoScheduler {
    /// Read permits of the scheduler a supplier builds for itself.
    pub const DEFAULT_READ_PERMITS: usize = 4;
    /// Append permits of the scheduler a supplier builds for itself.
    pub const DEFAULT_APPEND_PERMITS: usize = 2;

    /// A scheduler with `read_permits`/`append_permits` per class,
    /// tracing disabled. A class given 0 permits gets 1.
    pub fn new(read_permits: usize, append_permits: usize) -> Self {
        Self::with_trace(read_permits, append_permits, jbs_obs::Trace::disabled())
    }

    /// A scheduler that records `iosched.acquire` instants and
    /// `iosched.wait` spans to `trace`.
    pub fn with_trace(read_permits: usize, append_permits: usize, trace: jbs_obs::Trace) -> Self {
        let (read_permits, append_permits) = (read_permits.max(1), append_permits.max(1));
        IoScheduler {
            permits: Mutex::new(PermitState {
                read: ClassState {
                    free: read_permits,
                    queued: 0,
                },
                append: ClassState {
                    free: append_permits,
                    queued: 0,
                },
            }),
            cv: Condvar::new(),
            read_cap: read_permits,
            append_cap: append_permits,
            read_counters: ClassCounters::default(),
            append_counters: ClassCounters::default(),
            trace,
        }
    }

    fn cap(&self, class: IoClass) -> usize {
        match class {
            IoClass::Read => self.read_cap,
            IoClass::Append => self.append_cap,
        }
    }

    /// The configured Read-class permit cap (at least 1). The server
    /// sizes its disk-worker pool off this, so the permits bound real
    /// concurrency rather than an oversubscribed thread herd.
    pub fn read_permits(&self) -> usize {
        self.read_cap
    }

    fn counters(&self, class: IoClass) -> &ClassCounters {
        match class {
            IoClass::Read => &self.read_counters,
            IoClass::Append => &self.append_counters,
        }
    }

    /// Block until a permit of `class` is free and take it. The permit
    /// is released when the returned guard drops.
    pub fn acquire(self: &Arc<Self>, class: IoClass) -> IoPermit {
        self.acquire_raw(class);
        IoPermit {
            sched: Arc::clone(self),
            class,
        }
    }

    /// Permit acquisition without the RAII wrapper — the form the
    /// [`jbs_store_hybrid::SpillGate`] impl needs (trait methods cannot
    /// return a borrow-carrying guard across the crate boundary). Every
    /// `acquire_raw` must be paired with exactly one `release_raw`.
    pub fn acquire_raw(&self, class: IoClass) {
        let mut g = lock(&self.permits);
        if g.class(class).free == 0 {
            self.counters(class).waits.fetch_add(1, Ordering::Relaxed);
            g.class(class).queued += 1;
            let queued = g.class(class).queued as u64;
            let span = self.trace.span(
                "iosched.wait",
                jbs_obs::Entity::pool(1),
                class.code(),
                queued,
            );
            while g.class(class).free == 0 {
                g = wait(&self.cv, g);
            }
            g.class(class).queued -= 1;
            drop(span);
        }
        g.class(class).free -= 1;
        let held = (self.cap(class) - g.class(class).free) as u64;
        drop(g);
        self.counters(class)
            .acquires
            .fetch_add(1, Ordering::Relaxed);
        self.trace.instant(
            "iosched.acquire",
            jbs_obs::Entity::pool(1),
            class.code(),
            held,
        );
    }

    /// Return a permit of `class`; wakes one queued acquirer.
    pub fn release_raw(&self, class: IoClass) {
        let mut g = lock(&self.permits);
        debug_assert!(
            g.class(class).free < self.cap(class),
            "permit released twice"
        );
        g.class(class).free += 1;
        let any_queued = g.read.queued + g.append.queued > 0;
        drop(g);
        if any_queued {
            // Waiters of both classes share the condvar; notify_all keeps
            // a Read release from waking only an Append waiter and
            // stranding the Read queue (and vice versa).
            self.cv.notify_all();
        }
    }

    /// Copy out the gauges and counters.
    pub fn stats(&self) -> IoSchedStats {
        let g = lock(&self.permits);
        IoSchedStats {
            read_permits: self.read_cap,
            append_permits: self.append_cap,
            read_held: self.read_cap - g.read.free,
            append_held: self.append_cap - g.append.free,
            read_queued: g.read.queued,
            append_queued: g.append.queued,
            read_acquires: self.read_counters.acquires.load(Ordering::Relaxed),
            append_acquires: self.append_counters.acquires.load(Ordering::Relaxed),
            read_waits: self.read_counters.waits.load(Ordering::Relaxed),
            append_waits: self.append_counters.waits.load(Ordering::Relaxed),
        }
    }
}

/// RAII permit: held for the duration of one disk IO, released on drop.
#[must_use = "the permit is released as soon as this guard drops"]
pub struct IoPermit {
    sched: Arc<IoScheduler>,
    class: IoClass,
}

impl Drop for IoPermit {
    fn drop(&mut self) {
        self.sched.release_raw(self.class);
    }
}

/// The hybrid store's spill flusher takes an append permit around each
/// `write_local` without depending on this crate: it calls through the
/// [`jbs_store_hybrid::SpillGate`] object in its config.
impl jbs_store_hybrid::SpillGate for IoScheduler {
    fn acquire_append(&self) {
        self.acquire_raw(IoClass::Append);
    }
    fn release_append(&self) {
        self.release_raw(IoClass::Append);
    }
}

/// Bounded model checks. Run with
/// `RUSTFLAGS="--cfg loom" cargo test -p jbs-transport --lib loom_`.
#[cfg(all(test, loom))]
mod loom_tests {
    use super::*;

    /// The release-vs-waiter race (satellite model): with one Append
    /// permit, a holder releasing concurrently with a blocked acquirer
    /// must hand the permit over in every interleaving — the waiter
    /// always wakes (no lost notify), and at no point do two holders
    /// coexist.
    #[test]
    fn loom_permit_release_wakes_waiter() {
        loom::model(|| {
            let sched = Arc::new(IoScheduler::new(1, 1));
            sched.acquire_raw(IoClass::Append);
            let s2 = Arc::clone(&sched);
            let h = loom::thread::spawn(move || {
                // Blocks until the main thread releases.
                s2.acquire_raw(IoClass::Append);
                let st = s2.stats();
                assert_eq!(st.append_held, 1, "two holders coexisted");
                s2.release_raw(IoClass::Append);
            });
            sched.release_raw(IoClass::Append);
            if h.join().is_err() {
                panic!("waiter panicked");
            }
            let st = sched.stats();
            assert_eq!(st.append_held, 0);
            assert_eq!(st.append_queued, 0);
            assert_eq!(st.append_acquires, 2);
        });
    }

    /// Classes are independent: a Read holder never blocks an Append
    /// acquirer (and the gauges stay per-class).
    #[test]
    fn loom_classes_do_not_interfere() {
        loom::model(|| {
            let sched = Arc::new(IoScheduler::new(1, 1));
            sched.acquire_raw(IoClass::Read);
            let s2 = Arc::clone(&sched);
            let h = loom::thread::spawn(move || {
                s2.acquire_raw(IoClass::Append);
                s2.release_raw(IoClass::Append);
            });
            if h.join().is_err() {
                panic!("append acquirer panicked");
            }
            sched.release_raw(IoClass::Read);
            let st = sched.stats();
            assert_eq!((st.read_held, st.append_held), (0, 0));
        });
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn permits_bound_concurrency_and_count() {
        let sched = Arc::new(IoScheduler::new(2, 1));
        let a = sched.acquire(IoClass::Read);
        let b = sched.acquire(IoClass::Read);
        let st = sched.stats();
        assert_eq!(st.read_held, 2);
        assert_eq!(st.read_acquires, 2);
        assert_eq!(st.read_waits, 0);
        drop(a);
        assert_eq!(sched.stats().read_held, 1);
        drop(b);
        assert_eq!(sched.stats().read_held, 0);
    }

    #[test]
    fn blocked_acquirer_waits_then_proceeds() {
        let sched = Arc::new(IoScheduler::new(1, 1));
        let held = sched.acquire(IoClass::Read);
        let s2 = Arc::clone(&sched);
        let h = std::thread::spawn(move || {
            let p = s2.acquire(IoClass::Read); // blocks until release below
            let held_now = s2.stats().read_held;
            drop(p);
            held_now
        });
        // Wait until the thread is visibly queued, then release.
        let mut spins = 0;
        while sched.stats().read_queued == 0 && spins < 2000 {
            std::thread::sleep(Duration::from_millis(1));
            spins += 1;
        }
        assert_eq!(sched.stats().read_queued, 1, "acquirer never queued");
        drop(held);
        let held_now = h.join().expect("waiter panicked");
        assert_eq!(held_now, 1);
        let st = sched.stats();
        assert_eq!(st.read_waits, 1);
        assert_eq!(st.read_acquires, 2);
        assert_eq!(st.read_queued, 0);
    }

    #[test]
    fn zero_permits_clamp_to_one() {
        let sched = Arc::new(IoScheduler::new(0, 0));
        assert_eq!(sched.read_permits(), 1);
        let a = sched.acquire(IoClass::Read);
        let st = sched.stats();
        assert_eq!((st.read_permits, st.append_permits), (1, 1));
        assert_eq!(st.read_held, 1, "the one permit is held");
        drop(a);
        assert_eq!(sched.stats().read_held, 0);
    }

    #[test]
    fn wait_events_land_in_trace() {
        let trace = jbs_obs::Trace::recording(256);
        let sched = Arc::new(IoScheduler::with_trace(1, 1, trace.clone()));
        let p = sched.acquire(IoClass::Read);
        let s2 = Arc::clone(&sched);
        let h = std::thread::spawn(move || drop(s2.acquire(IoClass::Read)));
        while sched.stats().read_queued == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(p);
        h.join().expect("waiter panicked");
        let q = trace.query();
        assert!(q.count("iosched.acquire") >= 2);
        assert_eq!(q.count("iosched.wait"), 1);
    }
}
