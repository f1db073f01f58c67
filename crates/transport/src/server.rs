//! The MOFSupplier server: a real TCP server over a [`MofStore`].
//!
//! One supplier runs per "node". It answers framed
//! [`crate::wire::FetchRequest`]s — each a range of at most one
//! transport buffer — on cached connections, and mirrors the paper's
//! server design ("epoll, event-driven, multiple data threads"):
//!
//! * an in-memory **IndexCache** (the `MofStore` caches each MOF's
//!   parsed index and open data file, and answers through `&self`);
//! * one **serve loop**: every accepted connection is a state machine
//!   on a reactor thread (`reactor.rs`), which answers DataCache hits
//!   inline — zero-copy, straight from the staged lease — and hybrid
//!   MEMORY-tier hits inline too, and never touches a file;
//! * a **DataCache** with grouped read-ahead: a fetch at segment offset
//!   `o` stages `prefetch_batch` buffers beyond `o` in one file read, so
//!   consecutive chunk fetches of the same segment are served from memory
//!   and the disk sees long sequential runs (Fig. 5);
//! * a pool of **disk workers** (`prefetch.rs`), one per read
//!   permit: stage requests are queued grouped by MOF, offset-ordered
//!   within a group, and served round-robin across groups. The reactor
//!   writes already-staged buffers while the disk runs ahead, so disk
//!   Read and network Xmit overlap instead of adding (the Fig. 4 fix).
//!   A hit in the tail of a staged range queues the *next* range
//!   asynchronously; only a cold miss parks a request behind the disk.
//!   Every worker read goes through one function, `read_range`, which
//!   decides the tier once under one Read permit: the attached hybrid
//!   store if it holds the partition, otherwise the MOF. Only MOF bytes
//!   are ever staged; hybrid bytes are answered and dropped.
//!
//! For chaos testing the server takes an optional [`FaultPlan`]
//! ([`ServerOptions::faults`]): at the accept and response-write hooks it
//! can refuse connections, reset mid-exchange, truncate or corrupt a
//! frame, or stall before writing — all on a seed-deterministic schedule.
//! [`MofSupplierServer::start_on`] rebinds a *specific* address, which is
//! how a test restarts a "dead" supplier where clients expect it.
//!
//! [`ServerOptions::prefetch`] = `false` is the paper's Fig. 4
//! discipline on the same loop: no run-ahead is ever queued, so every
//! range is staged by a disk worker while the request that missed
//! parks, and a lockstep client sees disk and wire strictly alternate.
//! [`ServerOptions::synthetic_disk_delay`] charges every MOF read a
//! fixed latency, which is how benchmarks and `tests/trace_claims.rs`
//! expose (or measure away) the disk/network overlap.

use crate::bufpool::{BufPool, BufPoolStats, Lease};
use crate::faults::{self, FaultAction, FaultPlan, FaultStatsSnapshot, Hook};
use crate::iosched::{IoClass, IoSchedStats, IoScheduler};
use crate::prefetch::{Pop, PrefetchQueue, Reply, StageJob};
use crate::reactor::{self, JobKind, NewConn, ReactorHandle, Source};
use crate::staging::StageCache;
use crate::stats::{FetchStats, FetchStatsSnapshot};
use crate::store::MofStore;
use crate::sync::{lock, Mutex};
use crate::wire::{Status, WireVersion};
use jbs_obs::Entity;
use jbs_store_hybrid::HybridStore;
use std::collections::HashMap;
use std::io;
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Server statistics: the live counters behind
/// [`MofSupplierServer::stats_snapshot`].
#[derive(Debug, Default)]
pub(crate) struct SupplierStats {
    /// Requests served.
    pub requests: AtomicU64,
    /// Payload bytes served.
    pub bytes: AtomicU64,
    /// Requests satisfied from the DataCache (read-ahead hits).
    pub datacache_hits: AtomicU64,
    /// Connections admitted.
    pub connections: AtomicU64,
    /// Asynchronous run-ahead batches staged by the disk thread.
    pub prefetched_batches: AtomicU64,
    /// Miss-path stages a request had to park for.
    pub sync_stages: AtomicU64,
    /// Requests shed with typed `Busy` pushback (admission control or an
    /// injected busy storm) instead of being served.
    pub busy_rejections: AtomicU64,
    /// Cache-bypass re-reads served (a client's targeted re-fetch after
    /// a checksum mismatch).
    pub bypass_reads: AtomicU64,
    /// Requests answered by the attached hybrid store's tiers (memory
    /// tail or its own spill/remote extents) instead of the MOF path.
    pub hybrid_hits: AtomicU64,
    /// Reactor poll-loop wakeups: disk-worker completions plus newly
    /// admitted connections.
    pub reactor_wakes: AtomicU64,
    /// Vectored transmits cut short by a full socket buffer and resumed
    /// from a byte cursor on the next writability report.
    pub partial_writes: AtomicU64,
    /// Payload bytes transmitted straight from a pinned DataCache lease
    /// — never copied between the slab and the socket.
    pub zerocopy_bytes: AtomicU64,
    /// Payload bytes memcpy'd into a per-response buffer: every
    /// hybrid-tier response (the store copies its range out) and the
    /// copy-on-corrupt fault path. The bench's `copies_per_byte` is
    /// this over [`SupplierStats::bytes`].
    pub copied_bytes: AtomicU64,
    /// `read(2)` calls that returned request bytes.
    pub read_syscalls: AtomicU64,
    /// `write(2)`/`writev(2)` calls that moved response bytes.
    pub write_syscalls: AtomicU64,
}

/// A point-in-time copy of the supplier's pipeline observability:
/// counters, prefetch-queue gauges, and the live-lease gauge.
#[derive(Debug, Clone, Copy, Default)]
pub struct SupplierStatsSnapshot {
    /// Requests served.
    pub requests: u64,
    /// Payload bytes served.
    pub bytes: u64,
    /// Requests satisfied from the DataCache.
    pub datacache_hits: u64,
    /// Connections admitted.
    pub connections: u64,
    /// Asynchronous run-ahead batches staged by the disk thread.
    pub prefetched_batches: u64,
    /// Miss-path stages a request had to park for.
    pub sync_stages: u64,
    /// Requests shed with typed `Busy` pushback instead of being served.
    pub busy_rejections: u64,
    /// Cache-bypass re-reads served after client checksum mismatches.
    pub bypass_reads: u64,
    /// Requests answered by the attached hybrid store's tiers.
    pub hybrid_hits: u64,
    /// Stage jobs currently queued for the disk thread.
    pub prefetch_queue_len: u64,
    /// High-water mark of the prefetch queue.
    pub prefetch_queue_peak: u64,
    /// Slab-lease gauges (`outstanding` = allocations a response still
    /// pins; 0 once the response queues have flushed).
    pub bufpool: BufPoolStats,
    /// Reactor poll-loop wakeups.
    pub reactor_wakes: u64,
    /// Partial vectored writes resumed from a byte cursor.
    pub partial_writes: u64,
    /// Payload bytes served zero-copy from pinned DataCache leases.
    pub zerocopy_bytes: u64,
    /// Payload bytes memcpy'd into response buffers (hybrid tiers and
    /// the copy-on-corrupt fault path).
    pub copied_bytes: u64,
    /// Socket read syscalls.
    pub read_syscalls: u64,
    /// Socket write syscalls.
    pub write_syscalls: u64,
    /// Disk IO scheduler gauges (permit grants/waits per class).
    pub iosched: IoSchedStats,
}

/// Tunables for a supplier.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Transport buffer (chunk) size; the paper uses 128 KB.
    pub buffer_bytes: u64,
    /// Read-ahead batch, in buffers; the paper uses 8.
    pub prefetch_batch: u64,
    /// Queue asynchronous run-ahead stages from the hit path (`true`,
    /// the paper's pipelined design, Fig. 5). `false` is the serial
    /// baseline of Fig. 4: nothing runs ahead, so each range is staged
    /// only when a request misses on it and parks for the disk.
    pub prefetch: bool,
    /// Added latency charged to every MOF read, emulating a slow disk
    /// so benchmarks can expose (or measure away) the disk/network
    /// overlap. Zero in production.
    pub synthetic_disk_delay: Duration,
    /// Optional fault-injection plan (tests only; `None` in production).
    pub faults: Option<Arc<FaultPlan>>,
    /// Structured tracing sink; [`jbs_obs::Trace::disabled`] (the
    /// default) is a single branch per instrumentation point.
    pub trace: jbs_obs::Trace,
    /// Admission: concurrently-served connections at or above this bound
    /// are shed with `Busy` pushback instead of admitted. A bound of 0
    /// sheds everything (useful in tests).
    pub max_connections: u64,
    /// Admission: concurrently-served connections *per peer IP* at or
    /// above this bound are shed — one misbehaving NetMerger cannot
    /// monopolize the supplier's connection slots.
    pub max_inflight_per_peer: u64,
    /// Optional memory-tier hybrid store. Partitions it holds are
    /// answered from its tiers *before* the DataCache/disk path — hot
    /// tails straight from memory — and [`MofSupplierServer::drain`]
    /// pushes its contents to the REMOTE tier (quick decommission).
    pub hybrid: Option<Arc<HybridStore>>,
    /// Reactor poll loops to run. Connections are
    /// assigned round-robin at accept. One loop drives thousands of
    /// loopback connections; more mainly help multi-NIC setups.
    pub reactor_threads: usize,
    /// Disk IO arbitration: the scheduler whose Read permits bound the
    /// disk workers' reads, shared with whatever else should queue on
    /// the same disk (e.g. installed as the hybrid store's spill gate).
    /// `None` builds a private one with
    /// [`IoScheduler::DEFAULT_READ_PERMITS`] /
    /// [`IoScheduler::DEFAULT_APPEND_PERMITS`], tracing to `trace`.
    pub iosched: Option<Arc<IoScheduler>>,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            buffer_bytes: 128 << 10,
            prefetch_batch: 8,
            prefetch: true,
            synthetic_disk_delay: Duration::ZERO,
            faults: None,
            trace: jbs_obs::Trace::disabled(),
            max_connections: 512,
            max_inflight_per_peer: 256,
            hybrid: None,
            reactor_threads: 1,
            iosched: None,
        }
    }
}

pub(crate) struct Shared {
    /// The MOFs and their IndexCache, read through `&self` by every
    /// disk worker at once; the store's own lock is never held across
    /// I/O.
    pub(crate) store: MofStore,
    /// DataCache: one staged read-ahead range per (mof, reducer), each
    /// carrying its segment's length; the hit/stage logic lives in
    /// [`StageCache`], where the `cfg(loom)` models exercise it.
    pub(crate) staged: StageCache<(u64, u32)>,
    /// Maker (and live-count gauge) of the slab leases staged ranges
    /// and responses are pinned through.
    pub(crate) pool: BufPool,
    /// Stage requests for the disk workers, grouped by MOF. Pushing
    /// wakes a blocked worker through the queue's own condvar.
    pub(crate) prefetch: PrefetchQueue,
    /// Permit-based disk IO arbitration: staging reads vs. spill
    /// appends. Acquired by a disk worker around every store read.
    pub(crate) iosched: Arc<IoScheduler>,
    pub(crate) stats: SupplierStats,
    pub(crate) fetch_stats: FetchStats,
    pub(crate) stop: AtomicBool,
    /// Drain mode: stop admitting, finish in-flight exchanges, exit.
    pub(crate) draining: AtomicBool,
    /// Connections currently being served (admission + drain gauge).
    pub(crate) active_conns: AtomicU64,
    /// Connections currently being served, per peer IP (admission).
    pub(crate) conns_per_peer: Mutex<HashMap<IpAddr, u64>>,
    pub(crate) options: ServerOptions,
}

/// A running MOFSupplier.
pub struct MofSupplierServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    prefetch_threads: Vec<JoinHandle<()>>,
    /// One handle per reactor thread.
    reactors: Vec<Arc<ReactorHandle>>,
    reactor_threads: Vec<JoinHandle<()>>,
}

impl MofSupplierServer {
    /// Start a supplier over `store` on an ephemeral 127.0.0.1 port, with
    /// the paper's defaults: 128 KB transport buffers, 8-buffer read-ahead.
    pub fn start(store: MofStore) -> io::Result<Self> {
        Self::start_with_options(store, ServerOptions::default())
    }

    /// Start with full options on an ephemeral port.
    pub fn start_with_options(store: MofStore, options: ServerOptions) -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        Self::run(listener, store, options)
    }

    /// Start on a *specific* address — the restart path for a supplier
    /// that died and must come back where clients already expect it.
    /// Retries the bind briefly in case the previous incarnation's socket
    /// is still draining.
    pub fn start_on(addr: SocketAddr, store: MofStore, options: ServerOptions) -> io::Result<Self> {
        let mut last_err = None;
        for _ in 0..50 {
            match TcpListener::bind(addr) {
                Ok(listener) => return Self::run(listener, store, options),
                Err(e) => {
                    last_err = Some(e);
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
        Err(last_err.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::AddrInUse, format!("cannot rebind {addr}"))
        }))
    }

    fn run(listener: TcpListener, store: MofStore, options: ServerOptions) -> io::Result<Self> {
        crate::poll::pin_malloc_thresholds();
        let addr = listener.local_addr()?;
        let iosched = match &options.iosched {
            Some(s) => Arc::clone(s),
            None => Arc::new(IoScheduler::with_trace(
                IoScheduler::DEFAULT_READ_PERMITS,
                IoScheduler::DEFAULT_APPEND_PERMITS,
                options.trace.clone(),
            )),
        };
        let shared = Arc::new(Shared {
            store,
            staged: StageCache::new(),
            pool: BufPool::new(),
            prefetch: PrefetchQueue::new(),
            iosched,
            stats: SupplierStats::default(),
            fetch_stats: FetchStats::new(),
            stop: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            active_conns: AtomicU64::new(0),
            conns_per_peer: Mutex::new(HashMap::new()),
            options: ServerOptions {
                buffer_bytes: options.buffer_bytes.max(1),
                prefetch_batch: options.prefetch_batch.max(1),
                ..options
            },
        });
        // The reactor ships *every* disk touch through the queue, so it
        // runs a pool of disk workers — one per read permit — and the
        // IO scheduler bounds how many of them actually hit the disk at
        // once.
        let mut prefetch_threads = Vec::new();
        for _ in 0..shared.iosched.read_permits() {
            let disk_shared = Arc::clone(&shared);
            prefetch_threads.push(std::thread::spawn(move || {
                prefetch_loop(&disk_shared);
            }));
        }
        let mut reactors = Vec::new();
        let mut reactor_threads = Vec::new();
        for idx in 0..shared.options.reactor_threads.max(1) {
            let handle = ReactorHandle::new(idx as u64)?;
            let r_shared = Arc::clone(&shared);
            let r_handle = Arc::clone(&handle);
            reactor_threads.push(std::thread::spawn(move || {
                reactor::run(&r_shared, &r_handle);
            }));
            reactors.push(handle);
        }
        let accept_reactors = reactors.clone();
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if accept_shared.stop.load(Ordering::Acquire)
                    || accept_shared.draining.load(Ordering::Acquire)
                {
                    break;
                }
                let Ok(stream) = conn else { continue };
                match faults::decide(&accept_shared.options.faults, Hook::ServerAccept) {
                    FaultAction::RefuseConnect | FaultAction::Reset => {
                        // Drop the accepted socket before any exchange;
                        // the client sees a refused/reset connection.
                        drop(stream);
                        continue;
                    }
                    FaultAction::Stall(d) => std::thread::sleep(d),
                    _ => {}
                }
                // Admission: a connection over the global or per-peer
                // bound still goes to a reactor, which sheds its first
                // request and closes it; it holds no slot and is not
                // counted in `connections`.
                let peer_ip = stream.peer_addr().ok().map(|a| a.ip());
                let admitted = admit(&accept_shared, peer_ip);
                let conn_no = accept_shared
                    .stats
                    .connections
                    .fetch_add(u64::from(admitted), Ordering::Relaxed);
                if admitted {
                    accept_shared.options.trace.instant(
                        "server.accept",
                        Entity::conn(conn_no),
                        0,
                        0,
                    );
                }
                let idx = conn_no as usize % accept_reactors.len().max(1);
                match accept_reactors.get(idx) {
                    Some(reactor) => reactor.submit(NewConn {
                        stream,
                        peer_ip,
                        conn_no,
                        admitted,
                    }),
                    // `run` always starts at least one reactor.
                    None if admitted => release(&accept_shared, peer_ip),
                    None => {}
                }
            }
        });
        Ok(MofSupplierServer {
            addr,
            shared,
            accept_thread: Some(accept_thread),
            prefetch_threads,
            reactors,
            reactor_threads,
        })
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Full observability snapshot: request counters plus the pipeline
    /// gauges (prefetch-queue depth/peak, live leases).
    pub fn stats_snapshot(&self) -> SupplierStatsSnapshot {
        let s = &self.shared.stats;
        // A staged range only the DataCache pins is not outstanding
        // work. The two reads are not one cut, hence saturating.
        let idle = self.shared.staged.idle_pins();
        let mut bufpool = self.shared.pool.stats();
        bufpool.outstanding = bufpool.outstanding.saturating_sub(idle);
        SupplierStatsSnapshot {
            requests: s.requests.load(Ordering::Relaxed),
            bytes: s.bytes.load(Ordering::Relaxed),
            datacache_hits: s.datacache_hits.load(Ordering::Relaxed),
            connections: s.connections.load(Ordering::Relaxed),
            prefetched_batches: s.prefetched_batches.load(Ordering::Relaxed),
            sync_stages: s.sync_stages.load(Ordering::Relaxed),
            busy_rejections: s.busy_rejections.load(Ordering::Relaxed),
            bypass_reads: s.bypass_reads.load(Ordering::Relaxed),
            hybrid_hits: s.hybrid_hits.load(Ordering::Relaxed),
            prefetch_queue_len: self.shared.prefetch.len() as u64,
            prefetch_queue_peak: self.shared.prefetch.peak() as u64,
            bufpool,
            reactor_wakes: s.reactor_wakes.load(Ordering::Relaxed),
            partial_writes: s.partial_writes.load(Ordering::Relaxed),
            zerocopy_bytes: s.zerocopy_bytes.load(Ordering::Relaxed),
            copied_bytes: s.copied_bytes.load(Ordering::Relaxed),
            read_syscalls: s.read_syscalls.load(Ordering::Relaxed),
            write_syscalls: s.write_syscalls.load(Ordering::Relaxed),
            iosched: self.shared.iosched.stats(),
        }
    }

    /// Recovery counters observed server-side (client resets/timeouts
    /// seen on connections).
    pub fn fetch_stats(&self) -> FetchStatsSnapshot {
        self.shared.fetch_stats.snapshot()
    }

    /// Faults injected so far, if a plan is installed.
    pub fn fault_stats(&self) -> Option<FaultStatsSnapshot> {
        self.shared.options.faults.as_ref().map(|p| p.stats())
    }

    /// The hybrid store this supplier serves from, if one is attached.
    pub fn hybrid(&self) -> Option<&Arc<HybridStore>> {
        self.shared.options.hybrid.as_ref()
    }

    /// Stop accepting and shut down.
    pub fn shutdown(mut self) {
        self.do_shutdown();
    }

    /// Graceful drain: stop admitting new work, let every in-flight
    /// exchange finish, then shut down. Returns `true` if all
    /// connections closed within `timeout`; `false` means the deadline
    /// expired and the remainder was torn down hard.
    pub fn drain(mut self, timeout: Duration) -> bool {
        self.shared.draining.store(true, Ordering::Release);
        self.shared.options.trace.instant(
            "server.drain",
            Entity::conn(0),
            timeout.as_millis() as u64,
            self.shared.active_conns.load(Ordering::Acquire),
        );
        // Wake the accept loop so it observes the drain flag and stops.
        let _ = TcpStream::connect(self.addr);
        let deadline = std::time::Instant::now() + timeout;
        let mut clean = true;
        while self.shared.active_conns.load(Ordering::Acquire) > 0 {
            if std::time::Instant::now() >= deadline {
                clean = false;
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        // Quick decommission: with a hybrid store attached, push every
        // partition it holds (memory tails and local spill alike) to
        // the REMOTE tier, so a successor supplier can
        // `HybridStore::attach_remote` over the surviving objects.
        if let Some(hybrid) = &self.shared.options.hybrid {
            match hybrid.drain_to_remote() {
                Ok(snap) => self.shared.options.trace.instant(
                    "server.drain.remote",
                    Entity::conn(0),
                    snap.remote_bytes,
                    snap.drains,
                ),
                Err(_) => clean = false,
            }
        }
        self.do_shutdown();
        clean
    }

    fn do_shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        // Close the prefetch queue: refuse new jobs and wake every disk
        // worker to see `Closed` instead of blocking forever. A queued
        // job dies with its ticket — the reactor's own shutdown releases
        // the connection, nothing is waiting on it.
        drop(self.shared.prefetch.close());
        // Wake the accept loop and every reactor so they observe `stop`.
        let _ = TcpStream::connect(self.addr);
        for reactor in &self.reactors {
            reactor.waker.wake();
        }
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for t in self.prefetch_threads.drain(..) {
            let _ = t.join();
        }
        for t in self.reactor_threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for MofSupplierServer {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.do_shutdown();
        }
    }
}

/// Admission check at accept time: reserve an active-connection slot
/// (global and per-peer) or refuse. The reservation is released by
/// [`release`] when the owning reactor reaps the connection.
fn admit(shared: &Shared, peer_ip: Option<IpAddr>) -> bool {
    if shared.draining.load(Ordering::Acquire) {
        return false;
    }
    if shared.active_conns.load(Ordering::Acquire) >= shared.options.max_connections {
        return false;
    }
    if let Some(ip) = peer_ip {
        let mut peers_map = lock(&shared.conns_per_peer);
        let count = peers_map.entry(ip).or_insert(0);
        if *count >= shared.options.max_inflight_per_peer {
            return false;
        }
        *count += 1;
    }
    shared.active_conns.fetch_add(1, Ordering::AcqRel);
    true
}

/// Release the admission slot taken by [`admit`]. Called from the
/// owning reactor when it reaps the connection.
pub(crate) fn release(shared: &Shared, peer_ip: Option<IpAddr>) {
    if let Some(ip) = peer_ip {
        let mut peers_map = lock(&shared.conns_per_peer);
        if let Some(count) = peers_map.get_mut(&ip) {
            *count = count.saturating_sub(1);
            if *count == 0 {
                peers_map.remove(&ip);
            }
        }
    }
    shared.active_conns.fetch_sub(1, Ordering::AcqRel);
}

/// Total length of one reducer's segment: a hybrid partition's live
/// length (it grows with every append), else the MOF index's. `None`
/// for an unknown MOF/reducer.
fn segment_len(shared: &Shared, mof: u64, reducer: u32) -> Option<u64> {
    if let Some(hybrid) = &shared.options.hybrid {
        if let Some(len) = hybrid.partition_len(mof, reducer) {
            return Some(len);
        }
    }
    shared.store.segment_len(mof, reducer).ok().flatten()
}

/// One read-ahead batch: `prefetch_batch` transport buffers.
pub(crate) fn batch_bytes(shared: &Shared) -> u64 {
    shared.options.buffer_bytes * shared.options.prefetch_batch
}

/// Every disk-worker read of a segment range, with the tier decided
/// once: under one Read permit
/// (arbitrating against spill-flush appends), the attached hybrid store
/// answers a partition it holds from its own tiers; any other range is
/// read from the MOF, charged the synthetic disk delay — it models the
/// device, so it runs under the permit too. Returns the bytes tagged
/// with their [`Source`]; `None` for an unknown MOF/reducer.
fn read_range(
    shared: &Shared,
    mof: u64,
    reducer: u32,
    offset: u64,
    len: u64,
) -> io::Result<Option<(Vec<u8>, Source)>> {
    let _permit = shared.iosched.acquire(IoClass::Read);
    if let Some(hybrid) = &shared.options.hybrid {
        if let Some(bytes) = hybrid.read_segment_range(mof, reducer, offset, len)? {
            return Ok(Some((bytes, Source::Hybrid)));
        }
    }
    let _read_span = shared
        .options
        .trace
        .span("disk.read", Entity::mof(mof), offset, len);
    let delay = shared.options.synthetic_disk_delay;
    if !delay.is_zero() {
        std::thread::sleep(delay);
    }
    let read = shared.store.read_segment_range(mof, reducer, offset, len)?;
    Ok(read.map(|bytes| (bytes, Source::Mof)))
}

/// Stage one MOF read-ahead batch read at `offset` into the DataCache,
/// with the segment length from the index the read just went through.
/// Returns whether the batch reaches the segment's end.
fn stage_batch(shared: &Shared, key: (u64, u32), offset: u64, lease: Lease) -> bool {
    let end = offset + lease.len() as u64;
    let seg_len = shared
        .store
        .segment_len(key.0, key.1)
        .ok()
        .flatten()
        .unwrap_or(end);
    // A displaced lease drops here; its buffer is freed once nothing in
    // flight still pins it.
    drop(shared.staged.stage_lease(key, offset, lease, seg_len));
    end >= seg_len
}

/// One disk worker: pop stage jobs (round-robin across MOF groups,
/// offset-ordered within), read ahead, stage, and answer whoever waits.
/// Blocks on the queue's condvar between jobs; runs until the queue is
/// closed. The supplier runs a pool of these, one per Read permit.
fn prefetch_loop(shared: &Shared) {
    loop {
        match shared.prefetch.pop_wait() {
            Pop::Item(job) => run_stage_job(shared, job),
            Pop::Closed => break,
            // pop_wait never yields Empty; retry rather than trusting
            // that invariant with a panic on the disk path.
            Pop::Empty => continue,
        }
    }
}

/// Execute one stage job on a disk worker.
fn run_stage_job(shared: &Shared, job: StageJob) {
    let key = (job.mof, job.reducer);
    match job.reply {
        Reply::None => {
            // Run-ahead jobs are queued from every tail hit, so
            // consecutive chunk fetches can queue the same next range
            // several times; the staged map is the dedupe point.
            if shared.staged.covers(&key, job.offset) {
                return;
            }
            // Hybrid bytes are dropped, never staged: a cached copy of
            // a partition that is still growing would go stale.
            let ahead = batch_bytes(shared);
            if let Ok(Some((bytes, Source::Mof))) =
                read_range(shared, job.mof, job.reducer, job.offset, ahead)
            {
                stage_batch(shared, key, job.offset, shared.pool.lease(bytes));
                shared
                    .stats
                    .prefetched_batches
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        Reply::Reactor(ticket) => {
            run_reactor_job(shared, ticket, job.mof, job.reducer, job.offset);
        }
    }
}

/// Queue an async run-ahead stage for `(mof, reducer)` starting at
/// `next`, waking a disk worker. Used by every hit path that notices
/// the staged range running low (the pull half of Fig. 5 pipelining).
/// With [`ServerOptions::prefetch`] off nothing is ever queued: the
/// next range is staged only when a request misses on it, so disk and
/// wire alternate (Fig. 4).
pub(crate) fn queue_run_ahead(shared: &Shared, mof: u64, reducer: u32, next: u64) {
    if !shared.options.prefetch {
        return;
    }
    let queued = shared.prefetch.push(StageJob {
        mof,
        reducer,
        offset: next,
        reply: Reply::None,
    });
    if queued.is_ok() {
        shared
            .options
            .trace
            .instant("prefetch.queue", Entity::mof(mof), next, 0);
    }
}

/// Finish a reactor-dispatched request on a disk worker: do the IO its
/// [`JobKind`] calls for, frame the complete response, and deliver it
/// to the owning reactor's completion queue.
fn run_reactor_job(
    shared: &Shared,
    ticket: crate::reactor::JobTicket,
    mof: u64,
    reducer: u32,
    offset: u64,
) {
    let key = (mof, reducer);
    let (id, version, want) = (ticket.id, ticket.version, ticket.want);
    let stage = ticket.kind == JobKind::Stage;
    // An async run-ahead may have staged this range while the job sat
    // queued: serve the overtaken request as the reactor would have,
    // pulling the next batch too — in a request burst most hits land
    // here, and without the pull the disk falls back to lockstep sync
    // staging.
    if stage {
        if let Some(hit) = reactor::hit_resp(shared, id, version, key, offset, want) {
            ticket.deliver(hit);
            return;
        }
    }
    let len = if stage { batch_bytes(shared) } else { want };
    let resp = match read_range(shared, mof, reducer, offset, len) {
        Ok(Some((bytes, source))) => {
            let lease = shared.pool.lease(bytes);
            let hi = lease.len().min(want as usize);
            // A staged batch's response window is a clone of the lease
            // going into the cache: both pin one allocation.
            if stage && source == Source::Mof {
                shared.stats.sync_stages.fetch_add(1, Ordering::Relaxed);
                let next = offset + lease.len() as u64;
                // Keep the disk one batch ahead of the burst: the
                // requests behind this one in the same readiness batch
                // will hit the staged range, and the follow-on batch is
                // already queued by the time they drain it.
                if !stage_batch(shared, key, offset, lease.clone()) {
                    queue_run_ahead(shared, mof, reducer, next);
                }
            }
            // A hybrid partition's length is its live one.
            let seg_len = match version {
                WireVersion::V2 => None,
                WireVersion::V3 => segment_len(shared, mof, reducer),
            };
            reactor::build_ok(
                shared,
                id,
                version,
                seg_len,
                source,
                lease,
                0..hi,
                mof,
                offset,
            )
        }
        Ok(None) => reactor::build_error(id, Status::NotFound, mof, offset),
        Err(_) => reactor::build_error(id, Status::BadRequest, mof, offset),
    };
    ticket.deliver(resp);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultKind;
    use crate::wire::{FetchRequest, FetchResponse, FLAG_BYPASS_CACHE};
    use jbs_mapred::merge::Record;

    fn store_with_one_mof(records: Vec<Record>) -> MofStore {
        let mut store = MofStore::temp().unwrap();
        store.write_mof(0, records, 1, |_| 0).unwrap();
        store
    }

    fn connect(addr: SocketAddr) -> (io::BufReader<TcpStream>, TcpStream) {
        let stream = TcpStream::connect(addr).unwrap();
        (io::BufReader::new(stream.try_clone().unwrap()), stream)
    }

    /// The first 128 KiB chunk of `(mof, 0)`: at the default transport
    /// buffer, every segment these tests write in one piece.
    fn first_chunk(mof: u64) -> FetchRequest {
        FetchRequest {
            id: 0,
            mof,
            reducer: 0,
            offset: 0,
            len: 128 << 10,
            flags: 0,
        }
    }

    #[test]
    fn serves_a_small_segment_in_its_first_chunk() {
        let recs: Vec<Record> = (0..100)
            .map(|i| (format!("k{i:03}").into_bytes(), vec![i as u8; 16]))
            .collect();
        let server = MofSupplierServer::start(store_with_one_mof(recs)).unwrap();
        let (mut r, mut w) = connect(server.addr());
        first_chunk(0).write_to(&mut w).unwrap();
        let resp = FetchResponse::read_from(&mut r).unwrap();
        assert_eq!(resp.status, Status::Ok);
        let whole = server.shared.store.read_segment_range(0, 0, 0, 0);
        assert_eq!(resp.payload, whole.unwrap().unwrap());
        assert_eq!(server.stats_snapshot().requests, 1);
        server.shutdown();
    }

    #[test]
    fn hybrid_partitions_are_served_memory_first_and_drained_remote() {
        use jbs_store_hybrid::HybridConfig;
        let hybrid = HybridStore::new(HybridConfig {
            memory_budget: 1 << 20,
            ..HybridConfig::default()
        })
        .unwrap();
        let payload: Vec<u8> = (0..10_000u32).map(|i| i as u8).collect();
        hybrid.append(7, 0, &payload).unwrap();
        let remote_dir = hybrid.remote_dir().to_path_buf();
        // The MofStore knows nothing about MOF 7 — only the hybrid does,
        // and both serve side by side through one supplier.
        let store = store_with_one_mof(vec![(b"k".to_vec(), vec![1; 8])]);
        let server = MofSupplierServer::start_with_options(
            store,
            ServerOptions {
                hybrid: Some(Arc::clone(&hybrid)),
                ..ServerOptions::default()
            },
        )
        .unwrap();
        let (mut r, mut w) = connect(server.addr());
        first_chunk(7).write_to(&mut w).unwrap();
        let resp = FetchResponse::read_from(&mut r).unwrap();
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.payload, payload, "hybrid bytes byte-exact");
        assert_eq!(server.stats_snapshot().hybrid_hits, 1);
        first_chunk(0).write_to(&mut w).unwrap();
        let resp = FetchResponse::read_from(&mut r).unwrap();
        assert_eq!(resp.status, Status::Ok, "MOF path still serves");
        drop((r, w));
        // Drain = quick decommission: hybrid contents move REMOTE.
        assert!(server.drain(Duration::from_secs(5)));
        let snap = hybrid.stats();
        assert_eq!(snap.memory_bytes, 0);
        assert_eq!(snap.remote_bytes, payload.len() as u64);
        assert!(remote_dir.join("part-7-0.obj").exists());
    }

    fn pattern(n: usize) -> Vec<u8> {
        (0..n as u32)
            .map(|i| (i.wrapping_mul(31) >> 3) as u8)
            .collect()
    }

    /// `data` appended to hybrid partition `(mof, 0)` in `piece`-sized
    /// appends, as a spilling ingest would land it.
    fn feed(hybrid: &HybridStore, mof: u64, data: &[u8], piece: usize) {
        for chunk in data.chunks(piece) {
            hybrid.append(mof, 0, chunk).unwrap();
        }
    }

    /// A supplier with 4 KiB chunks over one MOF and `hybrid`.
    fn hybrid_supplier(hybrid: &Arc<HybridStore>, trace: jbs_obs::Trace) -> MofSupplierServer {
        let recs: Vec<Record> = (0..200)
            .map(|i| (format!("k{i:04}").into_bytes(), vec![i as u8; 32]))
            .collect();
        MofSupplierServer::start_with_options(
            store_with_one_mof(recs),
            ServerOptions {
                buffer_bytes: 4 << 10,
                hybrid: Some(Arc::clone(hybrid)),
                trace,
                ..ServerOptions::default()
            },
        )
        .unwrap()
    }

    /// One v3 request for `len` bytes at `offset` of `(mof, 0)`, answered.
    fn v3_fetch(
        r: &mut io::BufReader<TcpStream>,
        w: &mut TcpStream,
        mof: u64,
        offset: u64,
        len: u64,
    ) -> FetchResponse {
        let req = FetchRequest {
            id: offset + 1,
            mof,
            reducer: 0,
            offset,
            len,
            flags: 0,
        };
        req.write_versioned(w, WireVersion::V3).unwrap();
        let resp = FetchResponse::read_from(r).unwrap();
        assert_eq!(resp.status, Status::OkCrc, "at {offset}");
        assert_eq!(resp.id, req.id);
        assert!(resp.crc_ok(), "sealed frame verifies at {offset}");
        resp
    }

    #[test]
    fn memory_tier_hits_are_answered_on_the_reactor() {
        use jbs_obs::{Trace, TraceQuery};
        use jbs_store_hybrid::HybridConfig;
        let trace = Trace::recording(1 << 14);
        let hybrid = HybridStore::new(HybridConfig {
            memory_budget: 1 << 20,
            trace: trace.clone(),
            ..HybridConfig::default()
        })
        .unwrap();
        let data = pattern(40_000);
        feed(&hybrid, 7, &data, 1000);
        let server = hybrid_supplier(&hybrid, trace.clone());
        let (mut r, mut w) = connect(server.addr());
        // The first exchange adopts the connection (one wake); every
        // later one must be answered without another.
        let mut got = v3_fetch(&mut r, &mut w, 7, 0, 4 << 10).payload;
        let wakes = server.stats_snapshot().reactor_wakes;
        loop {
            let resp = v3_fetch(&mut r, &mut w, 7, got.len() as u64, 4 << 10);
            assert_eq!(resp.seg_len, data.len() as u64);
            if resp.payload.is_empty() {
                break;
            }
            got.extend_from_slice(&resp.payload);
        }
        assert_eq!(got, data, "memory tier served byte-exact");
        let snap = server.stats_snapshot();
        let chunks = data.len().div_ceil(4 << 10) as u64;
        assert_eq!(snap.requests, chunks + 1, "{snap:?}");
        assert_eq!(snap.reactor_wakes, wakes, "no completion woke the reactor");
        assert_eq!(snap.prefetch_queue_peak, 0, "no disk-worker job: {snap:?}");
        assert_eq!(snap.datacache_hits + snap.sync_stages, 0, "{snap:?}");
        assert_eq!(snap.hybrid_hits, snap.requests, "{snap:?}");
        let tiers = hybrid.stats();
        assert_eq!((tiers.memory_hits, tiers.local_hits), (chunks, 0));
        let q = TraceQuery::new(trace.snapshot());
        assert_eq!(q.count("hybrid.hit") as u64, snap.requests);
        assert_eq!(q.count("mem.hit") as u64, chunks, "the empty tail read hit no tier");
        server.shutdown();
    }

    #[test]
    fn spilled_prefix_goes_through_a_worker_and_stitches_at_every_chunk_offset() {
        use jbs_store_hybrid::HybridConfig;
        let hybrid = HybridStore::new(HybridConfig {
            memory_budget: 64 << 10,
            high_watermark: 0.5,
            low_watermark: 0.2,
            huge_partition_limit: 64 << 10,
            ..HybridConfig::default()
        })
        .unwrap();
        let data = pattern(100_000);
        feed(&hybrid, 7, &data, 1000);
        let layout = hybrid.layout(7, 0).unwrap();
        assert!(layout.local > 0 && layout.memory > 0, "{layout:?}");
        let server = hybrid_supplier(&hybrid, jbs_obs::Trace::disabled());
        let (mut r, mut w) = connect(server.addr());
        v3_fetch(&mut r, &mut w, 7, 0, 4 << 10);
        let wakes = server.stats_snapshot().reactor_wakes;
        let before = hybrid.stats();
        // Every 1000-byte step: chunks wholly in the spilled prefix, the
        // ones straddling the memory/LOCALFILE boundary, and the ones
        // wholly in the memory tail.
        let (mut durable, mut memory) = (0u64, 0u64);
        for offset in (0..data.len()).step_by(1000) {
            let end = (offset + (4 << 10)).min(data.len());
            let resp = v3_fetch(&mut r, &mut w, 7, offset as u64, 4 << 10);
            assert_eq!(resp.payload, data[offset..end], "stitched at {offset}");
            assert_eq!(resp.seg_len, data.len() as u64);
            durable += u64::from((offset as u64) < layout.local);
            memory += u64::from(end as u64 > layout.local);
        }
        let steps = data.len().div_ceil(1000) as u64;
        assert!(durable > 0 && steps > durable, "both paths exercised");
        let snap = server.stats_snapshot();
        assert_eq!(
            snap.reactor_wakes - wakes,
            durable,
            "exactly the reads touching LOCALFILE went to a worker: {snap:?}"
        );
        let tiers = hybrid.stats();
        assert_eq!(tiers.local_hits - before.local_hits, durable);
        assert_eq!(tiers.memory_hits - before.memory_hits, memory);
        server.shutdown();
    }

    #[test]
    fn every_frame_carries_a_length_the_growing_partition_had() {
        use crate::client::{ClientConfig, NetMergerClient, SegmentRef};
        use jbs_store_hybrid::HybridConfig;
        const PIECE: usize = 1000;
        let hybrid = HybridStore::new(HybridConfig {
            memory_budget: 4 << 20,
            ..HybridConfig::default()
        })
        .unwrap();
        let data = pattern(600 * PIECE);
        feed(&hybrid, 7, &data[..PIECE], PIECE);
        let server = hybrid_supplier(&hybrid, jbs_obs::Trace::disabled());
        // The appender starts after the first round of reads, so those
        // see the partition at one piece; every later round races it.
        let (go, started) = std::sync::mpsc::channel::<()>();
        let appender = {
            let (hybrid, data) = (Arc::clone(&hybrid), data.clone());
            std::thread::spawn(move || {
                started.recv().unwrap();
                for piece in data[PIECE..].chunks(PIECE) {
                    hybrid.append(7, 0, piece).unwrap();
                    std::thread::sleep(Duration::from_micros(100));
                }
            })
        };
        let client = NetMergerClient::with_client_config(ClientConfig {
            buffer_bytes: 4 << 10,
            ..ClientConfig::default()
        });
        let seg = SegmentRef {
            addr: server.addr(),
            mof: 7,
            reducer: 0,
        };
        let (mut r, mut w) = connect(server.addr());
        let (mut offset, mut shortest) = (0u64, u64::MAX);
        while offset < data.len() as u64 {
            let resp = v3_fetch(&mut r, &mut w, 7, offset, 4 << 10);
            shortest = shortest.min(resp.seg_len);
            let end = offset + resp.payload.len() as u64;
            // Appends land whole, so every length the partition had is
            // a multiple of PIECE — and covers what this frame carries.
            assert_eq!(resp.seg_len % PIECE as u64, 0, "seg_len {}", resp.seg_len);
            assert!(resp.seg_len >= end, "seg_len {} short of {end}", resp.seg_len);
            if resp.payload.is_empty() {
                assert_eq!(resp.seg_len, offset, "an empty frame ends the segment");
            }
            assert_eq!(resp.payload, data[offset as usize..end as usize]);
            // A whole fetch racing the appender ends cleanly at some
            // length the partition had: never Truncated or Corrupt.
            let fetched = client.fetch_segment(seg).unwrap();
            assert_eq!(fetched.len() % PIECE, 0);
            assert_eq!(fetched, data[..fetched.len()]);
            offset = end;
            let _ = go.send(());
        }
        appender.join().unwrap();
        assert_eq!(shortest, PIECE as u64, "the first frame saw one piece");
        assert_eq!(client.fetch_segment(seg).unwrap(), data);
        server.shutdown();
    }

    /// Which hybrid tier a read-matrix row is backed by: the tier-hit
    /// counter that row's reads must advance (`None` for the MOF).
    type TierHits = Option<fn(&jbs_store_hybrid::TierStatsSnapshot) -> u64>;

    /// Every read-matrix cell of `rows` (request kind × dialect): the
    /// answer is the backing store's own bytes, a v3 frame carries the
    /// segment's length, and the copy meter counts hybrid bytes as
    /// copied and MOF bytes as zero-copy.
    fn check_read_rows(
        server: &MofSupplierServer,
        hybrid: &HybridStore,
        rows: &[(&str, u64, TierHits)],
    ) {
        const CHUNK: u64 = 4 << 10;
        const OFFSET: u64 = 1000;
        let requests = [("chunk", 0), ("bypass", FLAG_BYPASS_CACHE)];
        let (mut r, mut w) = connect(server.addr());
        let mut id = 0;
        for &(backing, mof, tier) in rows {
            let truth = |offset, len| match tier {
                Some(_) => hybrid.read_segment_range(mof, 0, offset, len),
                None => server.shared.store.read_segment_range(mof, 0, offset, len),
            };
            for (kind, flags) in requests {
                for version in [WireVersion::V2, WireVersion::V3] {
                    let cell = format!("{kind} × {backing} × {version:?}");
                    id += 1;
                    let (before, tiers) = (server.stats_snapshot(), hybrid.stats());
                    let req = FetchRequest {
                        id,
                        mof,
                        reducer: 0,
                        offset: OFFSET,
                        len: CHUNK,
                        flags,
                    };
                    req.write_versioned(&mut w, version).unwrap();
                    let resp = FetchResponse::read_from(&mut r).unwrap();
                    let (after, tiers_after) = (server.stats_snapshot(), hybrid.stats());
                    let want = truth(OFFSET, CHUNK).unwrap().unwrap();
                    let seg_len = truth(0, 0).unwrap().unwrap().len() as u64;
                    assert!(!want.is_empty(), "{cell}: the cell reads bytes");
                    assert_eq!(resp.id, id, "{cell}");
                    assert_eq!(resp.payload, want, "{cell}: the store's own bytes");
                    match version {
                        WireVersion::V2 => assert_eq!(resp.status, Status::Ok, "{cell}"),
                        WireVersion::V3 => {
                            assert_eq!(resp.status, Status::OkCrc, "{cell}");
                            assert!(resp.crc_ok(), "{cell}");
                            assert_eq!(resp.seg_len, seg_len, "{cell}");
                        }
                    }
                    let n = want.len() as u64;
                    let counted = (
                        after.hybrid_hits - before.hybrid_hits,
                        after.copied_bytes - before.copied_bytes,
                        after.zerocopy_bytes - before.zerocopy_bytes,
                    );
                    let all_hits = |t: &jbs_store_hybrid::TierStatsSnapshot| {
                        t.memory_hits + t.local_hits + t.remote_hits
                    };
                    match tier {
                        Some(hits) => {
                            assert_eq!(counted, (1, n, 0), "{cell}: {after:?}");
                            assert_eq!(hits(&tiers_after) - hits(&tiers), 1, "{cell}");
                        }
                        None => {
                            assert_eq!(counted, (0, 0, n), "{cell}: {after:?}");
                            assert_eq!(all_hits(&tiers_after), all_hits(&tiers), "{cell}");
                        }
                    }
                }
            }
        }
    }

    /// The supplier's read matrix: request kind (chunk, cache bypass) ×
    /// backing (MOF, hybrid MEMORY, LOCALFILE, REMOTE) × dialect (v2,
    /// v3).
    #[test]
    fn copy_meter_counts_hybrid_bytes_copied_and_mof_bytes_zero_copy() {
        use jbs_store_hybrid::HybridConfig;
        let hybrid = HybridStore::new(HybridConfig {
            memory_budget: 64 << 10,
            high_watermark: 0.5,
            low_watermark: 0.2,
            huge_partition_limit: 64 << 10,
            ..HybridConfig::default()
        })
        .unwrap();
        feed(&hybrid, 7, &pattern(10_000), 1000); // memory only
        feed(&hybrid, 8, &pattern(100_000), 1000); // spilled prefix
        assert_eq!(hybrid.layout(7, 0).unwrap().local, 0);
        assert!(hybrid.layout(8, 0).unwrap().local > 1000 + (4 << 10));
        let server = hybrid_supplier(&hybrid, jbs_obs::Trace::disabled());
        check_read_rows(
            &server,
            &hybrid,
            &[
                ("MOF", 0, None),
                ("MEMORY", 7, Some(|t| t.memory_hits)),
                ("LOCALFILE", 8, Some(|t| t.local_hits)),
            ],
        );
        hybrid.drain_to_remote().unwrap();
        assert_eq!(hybrid.layout(7, 0).unwrap().remote, 10_000);
        check_read_rows(&server, &hybrid, &[("REMOTE", 7, Some(|t| t.remote_hits))]);
        server.shutdown();
    }

    #[test]
    fn hybrid_bytes_never_enter_the_datacache() {
        use jbs_store_hybrid::HybridConfig;
        let hybrid = HybridStore::new(HybridConfig::default()).unwrap();
        feed(&hybrid, 7, &pattern(10_000), 1000);
        let server = hybrid_supplier(&hybrid, jbs_obs::Trace::disabled());
        // A run-ahead for a hybrid-held key, as a raced tail hit would
        // queue it: the worker reads the store's tiers, then drops them.
        run_stage_job(
            &server.shared,
            StageJob {
                mof: 7,
                reducer: 0,
                offset: 0,
                reply: Reply::None,
            },
        );
        let staged = server.shared.staged.covers(&(7, 0), 0);
        assert!(!staged, "hybrid bytes entered the DataCache");
        assert_eq!(server.stats_snapshot().prefetched_batches, 0);
        server.shutdown();
    }

    #[test]
    fn a_v3_hit_on_a_range_a_v2_fetch_staged_is_answered_on_the_reactor() {
        let recs: Vec<Record> = (0..2000)
            .map(|i| (format!("k{i:05}").into_bytes(), vec![0xAB; 64]))
            .collect();
        let server = MofSupplierServer::start_with_options(
            store_with_one_mof(recs),
            ServerOptions {
                buffer_bytes: 4 << 10,
                prefetch_batch: 8,
                ..ServerOptions::default()
            },
        )
        .unwrap();
        let (mut r, mut w) = connect(server.addr());
        // Warm (0, 0) in the length-less dialect: a miss that stages
        // [0, 32 KiB) on a worker.
        FetchRequest {
            id: 1,
            mof: 0,
            reducer: 0,
            offset: 0,
            len: 4 << 10,
            flags: 0,
        }
        .write_to(&mut w)
        .unwrap();
        assert_eq!(FetchResponse::read_from(&mut r).unwrap().status, Status::Ok);
        let before = server.stats_snapshot();
        // A v3 chunk inside the staged range needs the segment's length
        // to be sealed; the stage recorded it, so the reactor answers.
        let resp = v3_fetch(&mut r, &mut w, 0, 4 << 10, 4 << 10);
        assert_eq!(resp.payload.len(), 4 << 10);
        let after = server.stats_snapshot();
        assert_eq!(after.datacache_hits - before.datacache_hits, 1, "{after:?}");
        assert_eq!(after.reactor_wakes, before.reactor_wakes, "{after:?}");
        server.shutdown();
    }

    #[test]
    fn a_segment_ending_on_a_batch_boundary_queues_no_run_ahead() {
        use jbs_obs::{Trace, TraceQuery};
        let recs: Vec<Record> = (0..500)
            .map(|i| (format!("k{i:05}").into_bytes(), vec![0x5A; 64]))
            .collect();
        let store = store_with_one_mof(recs);
        let seg_len = store.segment_len(0, 0).unwrap().unwrap();
        let trace = Trace::recording(1 << 12);
        // One batch is exactly the segment, so the stage is a full read
        // that nonetheless reaches the end.
        let server = MofSupplierServer::start_with_options(
            store,
            ServerOptions {
                buffer_bytes: seg_len,
                prefetch_batch: 1,
                trace: trace.clone(),
                ..ServerOptions::default()
            },
        )
        .unwrap();
        let (mut r, mut w) = connect(server.addr());
        let resp = v3_fetch(&mut r, &mut w, 0, 0, seg_len);
        assert_eq!(resp.payload.len() as u64, seg_len);
        assert_eq!(resp.seg_len, seg_len);
        server.shutdown();
        let q = TraceQuery::new(trace.snapshot());
        assert_eq!(q.count("prefetch.queue"), 0, "nothing lies past the end");
    }

    fn chunked_fetch_roundtrip(options: ServerOptions) -> MofSupplierServer {
        let recs: Vec<Record> = (0..2000)
            .map(|i| (format!("k{i:05}").into_bytes(), vec![0xAB; 64]))
            .collect();
        let store = store_with_one_mof(recs);
        let server = MofSupplierServer::start_with_options(store, options).unwrap();
        let (mut r, mut w) = connect(server.addr());

        // The store's own bytes as reference.
        let whole = server.shared.store.read_segment_range(0, 0, 0, 0);
        let whole = whole.unwrap().unwrap();

        // Chunked fetch on the same (reused) connection.
        let mut assembled = Vec::new();
        let mut off = 0u64;
        let mut id = 1u64;
        loop {
            FetchRequest {
                id,
                mof: 0,
                reducer: 0,
                offset: off,
                len: 4 << 10,
                flags: 0,
            }
            .write_to(&mut w)
            .unwrap();
            let resp = FetchResponse::read_from(&mut r).unwrap();
            assert_eq!(resp.status, Status::Ok);
            assert_eq!(resp.id, id, "response id echoes the request id");
            id += 1;
            if resp.payload.is_empty() {
                break;
            }
            off += resp.payload.len() as u64;
            assembled.extend_from_slice(&resp.payload);
        }
        assert_eq!(assembled, whole);
        server
    }

    #[test]
    fn chunked_fetch_reassembles_and_hits_datacache() {
        let server = chunked_fetch_roundtrip(ServerOptions {
            buffer_bytes: 4 << 10,
            prefetch_batch: 8,
            ..ServerOptions::default()
        });
        // Read-ahead must have served most chunks from memory.
        let snap = server.stats_snapshot();
        let (hits, reqs) = (snap.datacache_hits, snap.requests);
        assert!(hits * 2 > reqs, "hits {hits} of {reqs} requests");
        // The disk workers ran ahead of the reader: the pipeline gauges
        // are coherent.
        let snap = server.stats_snapshot();
        assert!(snap.prefetched_batches > 0, "{snap:?}");
        assert!(snap.sync_stages >= 1, "{snap:?}");
        assert_eq!(snap.prefetch_queue_len, 0, "queue drained: {snap:?}");
        assert!(snap.prefetch_queue_peak >= 1, "{snap:?}");
        // Every byte left from a pinned lease, none through a copy.
        assert_eq!(snap.zerocopy_bytes, snap.bytes, "{snap:?}");
        assert_eq!(snap.copied_bytes, 0, "{snap:?}");
        // Lease ledger. The gauge counts what responses pin, not what
        // the cache holds: 0 once the last response has flushed, 1
        // while a hit is in hand (a past-EOF read is served, empty,
        // from the at-end range), 0 again when it drops.
        let flushed = std::time::Instant::now() + Duration::from_secs(5);
        while server.stats_snapshot().bufpool.outstanding > 0 {
            assert!(
                std::time::Instant::now() < flushed,
                "a response lease leaked"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let held = server.shared.staged.hit_lease(&(0, 0), u64::MAX, 0, 0);
        assert!(held.is_some(), "the last range stays staged");
        assert_eq!(server.stats_snapshot().bufpool.outstanding, 1);
        drop(held);
        assert_eq!(server.stats_snapshot().bufpool.outstanding, 0);
        // With every thread joined, the only allocation still pinned is
        // the DataCache's own staged range.
        let shared = Arc::clone(&server.shared);
        server.shutdown();
        assert_eq!(shared.pool.stats().outstanding, 1);
        drop(shared.staged.invalidate(&(0, 0)));
        assert_eq!(shared.pool.stats().outstanding, 0, "a served lease leaked");
    }

    #[test]
    fn serial_baseline_never_runs_ahead_and_serves_identical_bytes() {
        let server = chunked_fetch_roundtrip(ServerOptions {
            buffer_bytes: 4 << 10,
            prefetch_batch: 8,
            prefetch: false,
            ..ServerOptions::default()
        });
        let snap = server.stats_snapshot();
        assert_eq!(snap.prefetched_batches, 0, "nothing ran ahead: {snap:?}");
        assert!(snap.sync_stages >= 2, "ranges staged on misses: {snap:?}");
        assert!(snap.datacache_hits > 0, "staged ranges still serve hits");
        server.shutdown();
    }

    #[test]
    fn unknown_mof_is_not_found() {
        let server =
            MofSupplierServer::start(store_with_one_mof(vec![(b"k".to_vec(), b"v".to_vec())]))
                .unwrap();
        let (mut r, mut w) = connect(server.addr());
        first_chunk(42).write_to(&mut w).unwrap();
        let resp = FetchResponse::read_from(&mut r).unwrap();
        assert_eq!(resp.status, Status::NotFound);
        // A *chunked* miss takes the sync-stage path through a disk
        // worker and must come back NotFound too, not hang.
        FetchRequest {
            id: 5,
            mof: 42,
            reducer: 0,
            offset: 0,
            len: 1 << 10,
            flags: 0,
        }
        .write_to(&mut w)
        .unwrap();
        let resp = FetchResponse::read_from(&mut r).unwrap();
        assert_eq!(resp.status, Status::NotFound);
        assert_eq!(resp.id, 5);
        server.shutdown();
    }

    #[test]
    fn concurrent_clients_are_isolated() {
        let recs: Vec<Record> = (0..500)
            .map(|i| (format!("{i:06}").into_bytes(), vec![1; 32]))
            .collect();
        let server = Arc::new(MofSupplierServer::start(store_with_one_mof(recs)).unwrap());
        let addr = server.addr();
        let mut joins = Vec::new();
        for _ in 0..8 {
            joins.push(std::thread::spawn(move || {
                let (mut r, mut w) = connect(addr);
                first_chunk(0).write_to(&mut w).unwrap();
                FetchResponse::read_from(&mut r).unwrap().payload.len()
            }));
        }
        let sizes: Vec<usize> = joins.into_iter().map(|j| j.join().unwrap()).collect();
        assert!(sizes.windows(2).all(|w| w[0] == w[1]));
        assert!(server.stats_snapshot().connections >= 8);
    }

    #[test]
    fn injected_corruption_is_detected_by_decoder() {
        let recs: Vec<Record> = (0..50)
            .map(|i| (format!("k{i:03}").into_bytes(), vec![7; 16]))
            .collect();
        let plan = FaultPlan::builder(1)
            .force(Hook::ServerWriteResponse, 0, FaultKind::Corrupt)
            .build();
        let server = MofSupplierServer::start_with_options(
            store_with_one_mof(recs),
            ServerOptions {
                faults: Some(Arc::clone(&plan)),
                ..ServerOptions::default()
            },
        )
        .unwrap();
        let (mut r, mut w) = connect(server.addr());
        first_chunk(0).write_to(&mut w).unwrap();
        let err = FetchResponse::read_from(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(plan.stats().corruptions, 1);
        server.shutdown();
    }

    #[test]
    fn injected_truncation_drops_connection_mid_frame() {
        let recs: Vec<Record> = (0..50)
            .map(|i| (format!("k{i:03}").into_bytes(), vec![9; 16]))
            .collect();
        let plan = FaultPlan::builder(2)
            .force(Hook::ServerWriteResponse, 0, FaultKind::Truncate)
            .build();
        let server = MofSupplierServer::start_with_options(
            store_with_one_mof(recs),
            ServerOptions {
                faults: Some(Arc::clone(&plan)),
                ..ServerOptions::default()
            },
        )
        .unwrap();
        let (mut r, mut w) = connect(server.addr());
        first_chunk(0).write_to(&mut w).unwrap();
        let err = FetchResponse::read_from(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert_eq!(plan.stats().truncations, 1);
        server.shutdown();
    }

    #[test]
    fn v3_requests_get_okcrc_with_valid_crc_and_seg_len() {
        let recs: Vec<Record> = (0..200)
            .map(|i| (format!("k{i:04}").into_bytes(), vec![i as u8; 32]))
            .collect();
        let server = MofSupplierServer::start(store_with_one_mof(recs)).unwrap();
        let (mut r, mut w) = connect(server.addr());
        // The whole segment in one v3 chunk: seg_len equals the payload.
        first_chunk(0)
            .write_versioned(&mut w, WireVersion::V3)
            .unwrap();
        let whole = FetchResponse::read_from(&mut r).unwrap();
        assert_eq!(whole.status, Status::OkCrc);
        assert!(whole.crc_ok(), "server-computed CRC verifies");
        assert_eq!(whole.seg_len, whole.payload.len() as u64);
        // A chunked v3 fetch carries the same total seg_len on every
        // chunk — the client's expected-length accounting anchor.
        let chunk = FetchRequest {
            id: 9,
            mof: 0,
            reducer: 0,
            offset: 64,
            len: 1 << 10,
            flags: 0,
        };
        chunk.write_versioned(&mut w, WireVersion::V3).unwrap();
        let resp = FetchResponse::read_from(&mut r).unwrap();
        assert_eq!(resp.status, Status::OkCrc);
        assert_eq!(resp.id, 9);
        assert!(resp.crc_ok());
        assert_eq!(resp.seg_len, whole.seg_len);
        assert_eq!(resp.payload, whole.payload[64..64 + (1 << 10)]);
        server.shutdown();
    }

    #[test]
    fn v2_requests_still_get_plain_ok_frames() {
        let server =
            MofSupplierServer::start(store_with_one_mof(vec![(b"k".to_vec(), b"v".to_vec())]))
                .unwrap();
        let (mut r, mut w) = connect(server.addr());
        first_chunk(0).write_to(&mut w).unwrap();
        let resp = FetchResponse::read_from(&mut r).unwrap();
        assert_eq!(resp.status, Status::Ok, "v2 dialect answered in kind");
        server.shutdown();
    }

    #[test]
    fn injected_busy_storm_sheds_then_serves() {
        let recs: Vec<Record> = (0..50)
            .map(|i| (format!("k{i:03}").into_bytes(), vec![5; 16]))
            .collect();
        let plan = FaultPlan::builder(4)
            .force(Hook::ServerAdmission, 0, FaultKind::Busy)
            .build();
        let server = MofSupplierServer::start_with_options(
            store_with_one_mof(recs),
            ServerOptions {
                faults: Some(Arc::clone(&plan)),
                ..ServerOptions::default()
            },
        )
        .unwrap();
        let (mut r, mut w) = connect(server.addr());
        let req = first_chunk(0);
        req.write_versioned(&mut w, WireVersion::V3).unwrap();
        let resp = FetchResponse::read_from(&mut r).unwrap();
        assert_eq!(resp.status, Status::Busy);
        assert_eq!(
            resp.retry_after_ms,
            crate::reactor::BUSY_RETRY_HINT_MS,
            "hint travels in the frame"
        );
        assert!(resp.payload.is_empty());
        // The connection survived the pushback: the retry is served.
        req.write_versioned(&mut w, WireVersion::V3).unwrap();
        let resp = FetchResponse::read_from(&mut r).unwrap();
        assert_eq!(resp.status, Status::OkCrc);
        assert!(!resp.payload.is_empty());
        assert_eq!(server.stats_snapshot().busy_rejections, 1);
        assert_eq!(plan.stats().busy_storms, 1);
        server.shutdown();
    }

    #[test]
    fn admission_cap_replies_busy_to_unadmitted_connection() {
        let server = MofSupplierServer::start_with_options(
            store_with_one_mof(vec![(b"k".to_vec(), b"v".to_vec())]),
            ServerOptions {
                max_connections: 0, // zero capacity: shed everything
                ..ServerOptions::default()
            },
        )
        .unwrap();
        let (mut r, mut w) = connect(server.addr());
        first_chunk(0)
            .write_versioned(&mut w, WireVersion::V3)
            .unwrap();
        let resp = FetchResponse::read_from(&mut r).unwrap();
        assert_eq!(resp.status, Status::Busy);
        assert!(resp.retry_after_ms > 0, "hint is a real backoff");
        assert_eq!(server.stats_snapshot().busy_rejections, 1);
        server.shutdown();
    }

    /// A connection over the admission cap is answered on a reactor like
    /// any other: its first request gets one `Busy` frame (v3) or a bare
    /// close (v2), one that sends nothing is closed at the deadline, and
    /// none of them holds an admission slot.
    #[test]
    fn unadmitted_connections_get_pushback_or_a_deadline_and_hold_no_slot() {
        use std::io::Read;
        let server = MofSupplierServer::start_with_options(
            store_with_one_mof(vec![(b"k".to_vec(), b"v".to_vec())]),
            ServerOptions {
                max_connections: 1,
                ..ServerOptions::default()
            },
        )
        .unwrap();
        let (mut r, mut w) = connect(server.addr());
        first_chunk(0).write_to(&mut w).unwrap();
        assert_eq!(FetchResponse::read_from(&mut r).unwrap().status, Status::Ok);
        let start = std::time::Instant::now();
        let silent: Vec<TcpStream> = (0..16)
            .map(|_| TcpStream::connect(server.addr()).unwrap())
            .collect();
        let (mut r3, mut w3) = connect(server.addr());
        first_chunk(0)
            .write_versioned(&mut w3, WireVersion::V3)
            .unwrap();
        let resp = FetchResponse::read_from(&mut r3).unwrap();
        assert_eq!(resp.status, Status::Busy);
        assert_eq!(r3.read(&mut [0u8; 1]).unwrap(), 0, "closed after the Busy");
        let (mut r2, mut w2) = connect(server.addr());
        first_chunk(0).write_to(&mut w2).unwrap();
        let mut frame = Vec::new();
        assert_eq!(
            r2.read_to_end(&mut frame).unwrap(),
            0,
            "v2: closed, no frame"
        );
        for mut s in silent {
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            assert_eq!(s.read(&mut [0u8; 1]).unwrap(), 0, "silent one closed");
            assert!(
                start.elapsed() >= Duration::from_millis(500),
                "not before the deadline"
            );
        }
        // The admitted connection is still served.
        first_chunk(0).write_to(&mut w).unwrap();
        assert_eq!(FetchResponse::read_from(&mut r).unwrap().status, Status::Ok);
        let snap = server.stats_snapshot();
        assert_eq!((snap.connections, snap.busy_rejections), (1, 2), "{snap:?}");
        server.shutdown();
    }

    /// `len == 0` is malformed on every backing and in both dialects: it
    /// is answered `BadRequest` with its id, reads no tier, and the next
    /// chunk on the same connection is served.
    #[test]
    fn zero_length_requests_are_bad_requests_on_every_backing() {
        use jbs_store_hybrid::HybridConfig;
        const CHUNK: u64 = 4 << 10;
        let hybrid = HybridStore::new(HybridConfig {
            memory_budget: 1 << 20,
            ..HybridConfig::default()
        })
        .unwrap();
        let data = pattern(10_000);
        feed(&hybrid, 7, &data, 1000);
        let server = hybrid_supplier(&hybrid, jbs_obs::Trace::disabled());
        let (mut r, mut w) = connect(server.addr());
        let before = hybrid.stats();
        let mut id = 0;
        for mof in [0, 7] {
            let truth = match mof {
                7 => data[..CHUNK as usize].to_vec(),
                _ => (server.shared.store)
                    .read_segment_range(0, 0, 0, CHUNK)
                    .unwrap()
                    .unwrap(),
            };
            for (version, ok) in [
                (WireVersion::V2, Status::Ok),
                (WireVersion::V3, Status::OkCrc),
            ] {
                let cell = format!("MOF {mof} × {version:?}");
                id += 1;
                let empty = FetchRequest {
                    id,
                    len: 0,
                    ..first_chunk(mof)
                };
                empty.write_versioned(&mut w, version).unwrap();
                let resp = FetchResponse::read_from(&mut r).unwrap();
                assert_eq!((resp.status, resp.id), (Status::BadRequest, id), "{cell}");
                assert!(resp.payload.is_empty(), "{cell}");
                id += 1;
                let chunk = FetchRequest {
                    id,
                    len: CHUNK,
                    ..first_chunk(mof)
                };
                chunk.write_versioned(&mut w, version).unwrap();
                let resp = FetchResponse::read_from(&mut r).unwrap();
                assert_eq!((resp.status, resp.id), (ok, id), "{cell}");
                assert!(resp.crc_ok(), "{cell}");
                assert_eq!(resp.payload, truth, "{cell}");
            }
        }
        let hits = hybrid.stats().memory_hits - before.memory_hits;
        assert_eq!(hits, 2, "only the two real chunks read the MEMORY tier");
        assert_eq!(server.stats_snapshot().hybrid_hits, 2);
        server.shutdown();
    }

    #[test]
    fn bypass_flag_skips_poisoned_datacache() {
        let recs: Vec<Record> = (0..2000)
            .map(|i| (format!("k{i:05}").into_bytes(), vec![0xCD; 64]))
            .collect();
        let server = MofSupplierServer::start_with_options(
            store_with_one_mof(recs),
            ServerOptions {
                buffer_bytes: 4 << 10,
                prefetch_batch: 8,
                ..ServerOptions::default()
            },
        )
        .unwrap();
        let (mut r, mut w) = connect(server.addr());
        // Warm the DataCache, remembering the true first chunk.
        let chunk = FetchRequest {
            id: 1,
            mof: 0,
            reducer: 0,
            offset: 0,
            len: 4 << 10,
            flags: 0,
        };
        chunk.write_versioned(&mut w, WireVersion::V3).unwrap();
        let truth = FetchResponse::read_from(&mut r).unwrap().payload;
        // Poison the staged range the way bad RAM would: same offsets,
        // wrong bytes.
        server.shared.staged.stage_lease(
            (0, 0),
            0,
            crate::bufpool::Lease::detached(vec![0xEE; 32 << 10]),
            server.shared.store.segment_len(0, 0).unwrap().unwrap(),
        );
        // A plain re-fetch serves the poison (this is the failure the
        // integrity layer exists to catch)...
        chunk.write_versioned(&mut w, WireVersion::V3).unwrap();
        let poisoned = FetchResponse::read_from(&mut r).unwrap().payload;
        assert_eq!(poisoned, vec![0xEE; 4 << 10]);
        // ...and the bypass re-fetch invalidates it and re-reads disk.
        FetchRequest {
            flags: FLAG_BYPASS_CACHE,
            ..chunk
        }
        .write_versioned(&mut w, WireVersion::V3)
        .unwrap();
        let resp = FetchResponse::read_from(&mut r).unwrap();
        assert_eq!(resp.status, Status::OkCrc);
        assert!(resp.crc_ok());
        assert_eq!(resp.payload, truth);
        assert_eq!(server.stats_snapshot().bypass_reads, 1);
        // The poisoned range is gone: the next cached fetch re-stages
        // from disk and serves truth again.
        chunk.write_versioned(&mut w, WireVersion::V3).unwrap();
        assert_eq!(FetchResponse::read_from(&mut r).unwrap().payload, truth);
        server.shutdown();
    }

    #[test]
    fn drain_finishes_inflight_then_refuses_new_work() {
        let recs: Vec<Record> = (0..100)
            .map(|i| (format!("k{i:03}").into_bytes(), vec![2; 16]))
            .collect();
        let server = MofSupplierServer::start(store_with_one_mof(recs)).unwrap();
        let addr = server.addr();
        let (mut r, mut w) = connect(addr);
        first_chunk(0).write_to(&mut w).unwrap();
        let resp = FetchResponse::read_from(&mut r).unwrap();
        assert_eq!(resp.status, Status::Ok);
        // Close our connection so the drain can converge, then drain.
        drop((r, w));
        assert!(
            server.drain(Duration::from_secs(5)),
            "drain converged within its deadline"
        );
        // The drained supplier is gone: a new exchange cannot complete.
        let refused = TcpStream::connect(addr)
            .and_then(|mut s| {
                first_chunk(0).write_to(&mut s)?;
                let mut rd = io::BufReader::new(s.try_clone()?);
                FetchResponse::read_from(&mut rd)
            })
            .is_err();
        assert!(refused, "no exchanges after drain");
    }

    #[test]
    fn restart_on_same_address_serves_again() {
        let recs: Vec<Record> = (0..50)
            .map(|i| (format!("k{i:03}").into_bytes(), vec![3; 16]))
            .collect();
        let dir = std::env::temp_dir().join(format!("jbs-restart-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut store = MofStore::at(&dir).unwrap();
        store.write_mof(0, recs, 1, |_| 0).unwrap();
        let server = MofSupplierServer::start(store).unwrap();
        let addr = server.addr();
        server.shutdown();

        let store = MofStore::at(&dir).unwrap();
        let revived = MofSupplierServer::start_on(addr, store, ServerOptions::default()).unwrap();
        assert_eq!(revived.addr(), addr);
        let (mut r, mut w) = connect(addr);
        first_chunk(0).write_to(&mut w).unwrap();
        let resp = FetchResponse::read_from(&mut r).unwrap();
        assert_eq!(resp.status, Status::Ok);
        revived.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
