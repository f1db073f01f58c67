//! The NetMerger's background fetch scheduler: per-supplier request
//! queues drained by worker threads that keep a **bounded window of
//! pipelined requests** in flight on each connection.
//!
//! This is the client half of the Fig. 4 fix, and the NetMerger's only
//! fetch path. With `window = 1` it is strict lockstep — request, wait,
//! response, request — so disk time on the supplier and network time
//! strictly add: the Fig. 4 baseline, kept as a configuration. Each
//! supplier address gets one worker thread that owns the single
//! connection to it (so no lock guards the socket) and:
//!
//! * admits up to `window` fetch ops from its [`DispatchQueue`] into an
//!   active set;
//! * gives a free window slot first to an active op with nothing in
//!   flight, then round-robins further chunk requests across the active
//!   ops (the paper's balanced injection), keeping up to `window`
//!   requests on the wire — so while chunk `k` streams back, chunk
//!   `k+1` is already being staged by the supplier's prefetch thread;
//! * matches responses to requests by the **id echo** in strict FIFO
//!   order: TCP delivers responses in request order, so a mismatched id
//!   means the stream desynchronized and the connection is torn down as
//!   corrupt rather than trusted;
//! * batches its socket I/O: a window refill is encoded into one buffer
//!   and sent with one write, and after its one blocking read a step
//!   also takes every response already whole in the 64 KiB receive
//!   buffer, down to half the window — so the supplier reads a refill
//!   with one syscall and always has half a window left to serve while
//!   the client verifies the rest;
//! * requests *speculative* offsets for multi-chunk ops (chunk `k+1`'s
//!   offset is predicted before chunk `k` lands), but never at or past
//!   the segment length a response declared, and the last request is
//!   sized to what remains. Until the first response declares that
//!   length, an op runs at most one request ahead. A short read
//!   proves a prediction wrong: speculation collapses back to the
//!   committed offset and the stale responses are discarded by offset
//!   mismatch ([`crate::stats::FetchStatsSnapshot::spec_discards`]);
//! * ends a whole-segment op the moment its committed bytes reach the
//!   declared length, with no empty-frame probe; an empty frame short
//!   of that length is a truncation, never an end;
//! * keeps PR 1's recovery semantics **per in-flight op**: any
//!   connection-level failure drains the window, resets every active op
//!   to its committed offset (resume — bytes received are never
//!   refetched), and retries under the shared [`RetryPolicy`] budget
//!   with deterministic backoff; exhaustion fails every active op with
//!   its own [`TransportError::Segment`] context.
//!
//! Completion is a channel handoff: each [`FetchOp`] carries the sender
//! half of its submitter's channel, so `fetch_all` and the levitated
//! merge consume segments as they land instead of joining threads in
//! order.
//!
//! Every per-peer policy lives here. Failover is one routing function,
//! [`Registry::route`], with two callers: `submit` before queueing
//! (proactive) and a worker about to fail an op (reactive), which
//! re-queues the op at a replica at its own offset. So every op shape —
//! whole segments, single chunks, the levitated stream's chunks — fails
//! over the same way.
//!
//! Locking: `peers` (the worker registry) is taken before a worker's
//! `ops` queue lock on the submit path; workers take `ops` alone.
//! Neither is ever held across socket I/O, sleeps, or a channel send.

use crate::breaker::{Admit, Breaker, Transition};
use crate::client::{ClientConfig, ClientShared, SegmentRef};
use crate::error::{Result, TransportError};
use crate::faults::{self, FaultAction, Hook};
use crate::prefetch::Pop;
use crate::stats::FetchStats;
use crate::sync::{lock, Mutex};
use crate::wire::{self, FetchRequest, ResponseHead, Status, FLAG_BYPASS_CACHE};
use jbs_des::DetRng;
use jbs_obs::Entity;
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc, Weak};
use std::time::{Duration, Instant};

/// One queued fetch: a chunk (or whole remainder) of one segment.
pub(crate) struct FetchOp {
    /// Caller-chosen correlation token, echoed in [`FetchDone`]. Tokens
    /// are scoped to the `done` channel, not global.
    pub(crate) token: u64,
    /// Which segment on which supplier.
    pub(crate) seg: SegmentRef,
    /// Absolute segment offset the fetch starts at.
    pub(crate) offset: u64,
    /// `0` fetches the whole remainder `[offset, end)` across as many
    /// pipelined chunks as it takes; otherwise one single-exchange chunk
    /// of at most `limit` bytes (short or empty at segment end).
    pub(crate) limit: u64,
    /// Completion handoff; every accepted op sends exactly one result.
    pub(crate) done: mpsc::Sender<FetchDone>,
    /// Peers a failover has routed this op away from, never to be
    /// routed back to: it grows strictly, so failover is bounded by the
    /// replica set. Empty for a fresh op.
    pub(crate) tried: Vec<SocketAddr>,
}

/// The completion record for one [`FetchOp`].
pub(crate) struct FetchDone {
    /// The op's `token`, so a submitter multiplexing one channel can
    /// tell its completions apart.
    pub(crate) token: u64,
    /// The supplier the op ended on: its own, or the replica a failover
    /// redirected it to.
    pub(crate) addr: SocketAddr,
    /// The fetched bytes, or the failure wrapped in per-segment context.
    pub(crate) result: Result<Vec<u8>>,
}

struct OpQueue<T> {
    queue: VecDeque<T>,
    closed: bool,
}

/// The per-peer op queue: a plain FIFO with a closed latch, factored out
/// of the worker so the `cfg(loom)` models below drive the production
/// push/pop/close logic. Fairness across *segments* comes from the
/// worker's round-robin over its active set, not from queue order.
pub(crate) struct DispatchQueue<T> {
    ops: Mutex<OpQueue<T>>,
}

impl<T> DispatchQueue<T> {
    pub(crate) fn new() -> Self {
        DispatchQueue {
            ops: Mutex::new(OpQueue {
                queue: VecDeque::new(),
                closed: false,
            }),
        }
    }

    /// Queue an op. Returns it back if the queue is already closed, so
    /// the caller fails its completion channel instead of losing it.
    pub(crate) fn push(&self, item: T) -> std::result::Result<(), T> {
        let mut ops = lock(&self.ops);
        if ops.closed {
            return Err(item);
        }
        ops.queue.push_back(item);
        Ok(())
    }

    /// Take the oldest queued op, or learn the queue is empty / closed.
    pub(crate) fn try_pop(&self) -> Pop<T> {
        let mut ops = lock(&self.ops);
        match ops.queue.pop_front() {
            Some(item) => Pop::Item(item),
            None if ops.closed => Pop::Closed,
            None => Pop::Empty,
        }
    }

    /// Close the queue and drain everything still pending so the caller
    /// can fail those ops' completions. Pushes after this are refused.
    pub(crate) fn close(&self) -> Vec<T> {
        let mut ops = lock(&self.ops);
        ops.closed = true;
        ops.queue.drain(..).collect()
    }

    /// Ops currently queued (not yet admitted by the worker).
    pub(crate) fn len(&self) -> usize {
        lock(&self.ops).queue.len()
    }
}

/// The per-peer registry: one handle per supplier address, `None` once
/// closed. Factored out like [`DispatchQueue`] so a `cfg(loom)` model
/// drives it. Handles are registered only under the `peers` lock while
/// it is open, and `close` takes them all under that lock, so a worker
/// re-queueing an op while the scheduler drops never spawns a worker
/// nobody joins.
pub(crate) struct PeerMap<H> {
    peers: Mutex<Option<HashMap<SocketAddr, H>>>,
}

impl<H> PeerMap<H> {
    pub(crate) fn new() -> Self {
        PeerMap {
            peers: Mutex::new(Some(HashMap::new())),
        }
    }

    /// `f` of the registered handles; `None` once closed.
    pub(crate) fn with<R>(&self, f: impl FnOnce(&mut HashMap<SocketAddr, H>) -> R) -> Option<R> {
        lock(&self.peers).as_mut().map(f)
    }

    /// Close the registry and take every handle, so the caller can shut
    /// the workers down and join them.
    pub(crate) fn close(&self) -> Vec<H> {
        let handles = lock(&self.peers).take();
        handles
            .map(|h| h.into_values().collect())
            .unwrap_or_default()
    }
}

/// The scheduler owned by [`crate::client::NetMergerClient`]: a registry
/// of per-supplier queues and worker threads, spawned lazily on the
/// first op for an address and joined on drop.
pub(crate) struct FetchScheduler {
    registry: Arc<Registry>,
}

/// What the scheduler shares with its workers. The scheduler owns it;
/// workers reach it through a `Weak`, to re-queue an op at a replica,
/// so a worker never keeps a dropped scheduler alive.
struct Registry {
    shared: Arc<ClientShared>,
    peers: PeerMap<PeerHandle>,
    /// Monotonic time origin shared with every worker, so the circuit
    /// breakers (which never read a clock themselves) see one timeline.
    anchor: Instant,
}

struct PeerHandle {
    queue: Arc<DispatchQueue<FetchOp>>,
    /// Wakes the worker when it is parked with nothing active.
    tick: mpsc::Sender<()>,
    /// This peer's circuit breaker, shared with its worker: the submit
    /// path fails fast against it while the worker drives transitions.
    breaker: Arc<Breaker>,
    worker: Option<std::thread::JoinHandle<()>>,
}

impl FetchScheduler {
    pub(crate) fn new(shared: Arc<ClientShared>) -> Self {
        FetchScheduler {
            registry: Arc::new(Registry {
                shared,
                peers: PeerMap::new(),
                anchor: Instant::now(),
            }),
        }
    }

    /// Hand an op to its supplier's worker, re-aimed first at a replica
    /// if its peer is unhealthy or breaker-open (proactive failover).
    pub(crate) fn submit(&self, mut op: FetchOp) {
        self.registry.route(&mut op);
        self.registry.enqueue(op);
    }

    /// Per-peer queue depths (ops admitted but not yet picked up), for
    /// the pipeline gauges.
    pub(crate) fn queue_depths(&self) -> Vec<(SocketAddr, usize)> {
        let depths = self
            .registry
            .peers
            .with(|m| m.iter().map(|(addr, h)| (*addr, h.queue.len())).collect());
        depths.unwrap_or_default()
    }
}

impl Registry {
    /// Nanoseconds since the breakers' shared anchor.
    fn now(&self) -> u64 {
        self.anchor.elapsed().as_nanos() as u64
    }

    /// The one failover decision, for both callers: `submit` before
    /// queueing, and a worker about to fail an op. If `op`'s peer is
    /// marked unhealthy or its breaker is open, re-aim the op at the
    /// first healthy replica of its MOF it has not been routed away
    /// from, and say so. Fires only behind one of those health signals
    /// and only with a [`crate::routes::RouteTable`] configured, so a
    /// transient error on a healthy peer stays with that peer's own
    /// retry budget. Replicas are byte-identical, so the op keeps its
    /// offset.
    fn route(&self, op: &mut FetchOp) -> bool {
        let Some(routes) = &self.shared.config.routes else {
            return false;
        };
        let from = op.seg.addr;
        // A peer no op was ever submitted for has no breaker: closed.
        let breaker = self
            .peers
            .with(|m| m.get(&from).map(|h| Arc::clone(&h.breaker)));
        let open = breaker.flatten().is_some_and(|b| b.is_open(self.now()));
        if !routes.is_unhealthy(from) && !open {
            return false;
        }
        op.tried.push(from);
        let Some(next) = routes.failover_target(op.seg.mof, &op.tried) else {
            op.tried.pop();
            return false;
        };
        self.shared.fetch_stats.record_failover();
        self.shared.config.trace.instant(
            "failover.redirect",
            Entity::peer(u64::from(next.port())),
            op.seg.mof,
            u64::from(from.port()),
        );
        op.seg.addr = next;
        true
    }

    /// Queue an op on its supplier's worker, spawning the worker on
    /// first contact. An op for a peer whose circuit breaker is open
    /// fails fast with [`TransportError::CircuitOpen`] — no queueing, no
    /// wire traffic. An op refused by a closed registry or queue (client
    /// shutting down) fails through its own completion channel.
    fn enqueue(self: &Arc<Self>, op: FetchOp) {
        let addr = op.seg.addr;
        let (peer, mof, reducer) = (
            Entity::peer(u64::from(addr.port())),
            op.seg.mof,
            u64::from(op.seg.reducer),
        );
        let link = self.peers.with(|m| {
            let h = m.entry(addr).or_insert_with(|| spawn_worker(addr, self));
            (Arc::clone(&h.queue), h.tick.clone(), Arc::clone(&h.breaker))
        });
        let Some((queue, tick, breaker)) = link else {
            finish(op, Err(shutdown_error()));
            return;
        };
        let trace = &self.shared.config.trace;
        if breaker.is_open(self.now()) {
            self.shared.fetch_stats.record_breaker_fast_fail();
            trace.instant("breaker.fast_fail", peer, mof, reducer);
            let open = TransportError::CircuitOpen {
                peer: addr.to_string(),
            };
            finish(op, Err(open));
            return;
        }
        match push_counted(&queue, &self.shared.fetch_stats, op) {
            Ok(()) => {
                trace.instant("sched.dispatch", peer, mof, reducer);
                let _ = tick.send(());
            }
            Err(op) => finish(op, Err(shutdown_error())),
        }
    }
}

impl Drop for FetchScheduler {
    fn drop(&mut self) {
        let handles = self.registry.peers.close();
        // Close every queue first so no worker admits more work, and
        // fail the ops that never reached a worker.
        for h in &handles {
            for op in h.queue.close() {
                self.registry.shared.fetch_stats.record_op_dequeued();
                finish(op, Err(shutdown_error()));
            }
            let _ = h.tick.send(());
        }
        for mut h in handles {
            // Dropping the tick sender unparks a worker blocked on an
            // empty queue; it observes Closed and exits.
            drop(h.tick);
            if let Some(t) = h.worker.take() {
                let _ = t.join();
            }
        }
    }
}

/// Queue `item` for a peer's worker, counted in `queued_ops` *before*
/// the worker can see it: `admit` may pop and un-count it the instant
/// `push` returns, and a gauge bumped only afterwards would dip below
/// zero in between. A refused push (queue closed) is un-counted.
fn push_counted<T>(
    queue: &DispatchQueue<T>,
    stats: &FetchStats,
    item: T,
) -> std::result::Result<(), T> {
    stats.record_op_queued();
    queue.push(item).inspect_err(|_| stats.record_op_dequeued())
}

fn shutdown_error() -> TransportError {
    TransportError::Io {
        during: "fetch scheduler",
        source: io::Error::new(io::ErrorKind::Interrupted, "client shut down"),
    }
}

/// Send `op`'s one completion.
fn finish(op: FetchOp, result: Result<Vec<u8>>) {
    let result = result.map_err(|e| TransportError::Segment {
        mof: op.seg.mof,
        reducer: op.seg.reducer,
        peer: op.seg.addr.to_string(),
        source: Box::new(e),
    });
    let _ = op.done.send(FetchDone {
        token: op.token,
        addr: op.seg.addr,
        result,
    });
}

/// Seed of the backoff-jitter rng streams, mixed with each worker's
/// [`addr_seed`].
const RETRY_SEED: u64 = 0x4A42_5331;

/// Seed material that differs per worker but is identical across runs,
/// so backoff jitter stays deterministic under [`RETRY_SEED`].
fn addr_seed(addr: &SocketAddr) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    addr.hash(&mut h);
    h.finish()
}

fn spawn_worker(addr: SocketAddr, registry: &Arc<Registry>) -> PeerHandle {
    let queue = Arc::new(DispatchQueue::new());
    let (tick, ticks) = mpsc::channel();
    let config = &registry.shared.config;
    let breaker = Arc::new(Breaker::new(
        config.breaker_threshold,
        config.breaker_cooldown.as_nanos() as u64,
    ));
    let (worker_queue, worker_breaker) = (Arc::clone(&queue), Arc::clone(&breaker));
    let mut worker = Worker::new(addr, registry, worker_queue, ticks, worker_breaker);
    PeerHandle {
        queue,
        tick,
        breaker,
        worker: Some(std::thread::spawn(move || worker.run())),
    }
}

/// Capacity of a connection's receive buffer: one `recv` takes a whole
/// window of small frames (8 × ~6.8 KiB on `small_seg`). Past the
/// first fill, `read_to_end` asks for the rest of a large payload in
/// slices at least this large, which bypass the buffer.
const RECV_BUF_BYTES: usize = 64 << 10;

/// A worker's one connection to its supplier.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Requests encoded by one `fill_window` pass and not yet written:
    /// at most `window` frames, flushed with one write.
    wbuf: Vec<u8>,
}

/// Dial a supplier with the configured deadlines (and fault hooks), for
/// a scheduler worker's one connection to it.
fn dial(addr: SocketAddr, config: &ClientConfig) -> Result<Conn> {
    match faults::decide(&config.faults, Hook::ClientConnect) {
        FaultAction::RefuseConnect => {
            return Err(TransportError::Connect {
                target: addr.to_string(),
                source: io::Error::new(io::ErrorKind::ConnectionRefused, "injected refusal"),
            });
        }
        FaultAction::Stall(d) => std::thread::sleep(d),
        _ => {}
    }
    let stream = TcpStream::connect_timeout(&addr, config.io_timeout).map_err(|e| {
        TransportError::Connect {
            target: addr.to_string(),
            source: e,
        }
    })?;
    let setup = |e| TransportError::Io {
        during: "socket setup",
        source: e,
    };
    stream.set_nodelay(true).map_err(setup)?;
    stream
        .set_read_timeout(Some(config.io_timeout))
        .map_err(setup)?;
    stream
        .set_write_timeout(Some(config.io_timeout))
        .map_err(setup)?;
    let reader = BufReader::with_capacity(RECV_BUF_BYTES, stream.try_clone().map_err(setup)?);
    Ok(Conn {
        reader,
        writer: stream,
        wbuf: Vec::new(),
    })
}

/// Bump the per-kind failure counter for a failed attempt.
fn record_failure(fetch: &FetchStats, e: &TransportError) {
    match e {
        TransportError::Timeout { .. } => fetch.record_timeout(),
        TransportError::Reset { .. } => fetch.record_reset(),
        TransportError::Corrupt { .. } => fetch.record_corrupt_frame(),
        TransportError::Connect { .. } => fetch.record_connect_failure(),
        _ => {}
    }
}

/// One op admitted into a worker's active set.
struct ActiveOp {
    /// Worker-local name of the op, which its requests on the wire
    /// carry (caller tokens are not unique across submitters).
    key: u64,
    op: FetchOp,
    /// The segment bytes `[op.offset, committed)`: payloads are read off
    /// the socket straight onto its end and verified there, and it is
    /// cut back to `committed` whenever one fails, so it never holds a
    /// byte that has not passed its CRC.
    buf: Vec<u8>,
    /// Absolute offset up to which `buf` is complete:
    /// `op.offset + buf.len()` between any two worker steps.
    committed: u64,
    /// Absolute offset the *next* (possibly speculative) request starts
    /// at; collapses back to `committed` on a short read or a failure.
    spec: u64,
    /// Offset up to which resume credit was already recorded, so one op
    /// surviving several reconnects doesn't double-count.
    resume_mark: u64,
    /// Segment length declared by the supplier's latest `OkCrc` frame:
    /// a whole-segment op requests nothing at or past it. `None` until
    /// the first response.
    expected: Option<u64>,
    /// The next request at the committed offset must carry
    /// [`FLAG_BYPASS_CACHE`]: the last chunk there failed verification,
    /// so the supplier must re-read disk, not its (possibly poisoned)
    /// cache.
    bypass_next: bool,
    /// Remaining targeted re-fetches (CRC mismatches + boundary-EOF
    /// lies) at the committed offset before the typed error surfaces;
    /// refilled whenever `committed` advances, so the budget is per
    /// chunk position, not per segment.
    refetch_budget: u32,
}

/// One request on the wire, awaiting its response in FIFO order.
struct Outstanding {
    id: u64,
    key: u64,
    offset: u64,
    len: u64,
}

struct Worker {
    addr: SocketAddr,
    shared: Arc<ClientShared>,
    /// The scheduler's registry, for re-queueing an op at a replica;
    /// dead once the scheduler is dropped.
    registry: Weak<Registry>,
    queue: Arc<DispatchQueue<FetchOp>>,
    ticks: mpsc::Receiver<()>,
    conn: Option<Conn>,
    /// The active ops, at most `window`, in round-robin order for
    /// balanced chunk injection: the front op is offered the next
    /// request.
    active: VecDeque<ActiveOp>,
    outstanding: VecDeque<Outstanding>,
    next_key: u64,
    next_id: u64,
    /// Connection-level failures since the last successful response.
    attempts: u32,
    ever_connected: bool,
    rng: DetRng,
    closed: bool,
    /// This peer's circuit breaker (shared with the submit path).
    breaker: Arc<Breaker>,
    /// Monotonic origin for breaker timestamps.
    anchor: Instant,
}

impl Worker {
    /// Trace handle shared with the owning client config.
    fn trace(&self) -> &jbs_obs::Trace {
        &self.shared.config.trace
    }

    /// This worker's trace entity: the supplier, keyed by TCP port
    /// (loopback addresses differ only there).
    fn peer(&self) -> Entity {
        Entity::peer(u64::from(self.addr.port()))
    }

    fn new(
        addr: SocketAddr,
        registry: &Arc<Registry>,
        queue: Arc<DispatchQueue<FetchOp>>,
        ticks: mpsc::Receiver<()>,
        breaker: Arc<Breaker>,
    ) -> Self {
        let shared = Arc::clone(&registry.shared);
        let seed = RETRY_SEED ^ addr_seed(&addr);
        Worker {
            addr,
            shared,
            registry: Arc::downgrade(registry),
            queue,
            ticks,
            conn: None,
            active: VecDeque::new(),
            outstanding: VecDeque::new(),
            next_key: 0,
            next_id: 0,
            attempts: 0,
            ever_connected: false,
            rng: DetRng::new(seed),
            closed: false,
            breaker,
            anchor: registry.anchor,
        }
    }

    /// Nanoseconds since the scheduler's monotonic anchor.
    fn now(&self) -> u64 {
        self.anchor.elapsed().as_nanos() as u64
    }

    /// Sleep until the breaker's probe time in short slices, staying
    /// responsive to scheduler shutdown (the tick sender disappearing).
    fn park_until(&mut self, retry_at_nanos: u64) {
        const SLICE: Duration = Duration::from_millis(20);
        loop {
            match self.ticks.try_recv() {
                Ok(()) | Err(mpsc::TryRecvError::Empty) => {}
                Err(mpsc::TryRecvError::Disconnected) => {
                    self.closed = true;
                    return;
                }
            }
            let now = self.now();
            if now >= retry_at_nanos {
                return;
            }
            std::thread::sleep(Duration::from_nanos(retry_at_nanos - now).min(SLICE));
        }
    }

    fn run(&mut self) {
        while self.step() {}
    }

    /// One scheduling step; `false` once the worker has shut down.
    fn step(&mut self) -> bool {
        self.admit();
        if self.closed {
            self.fail_all_active(&shutdown_error());
            return false;
        }
        if self.active.is_empty() {
            if !self.outstanding.is_empty() {
                // The last op completed with speculative requests
                // still on the wire. Drain their responses (they
                // discard as stale) before parking — otherwise the
                // next op on this connection would read them as the
                // answers to ITS requests and desynchronize.
                if let Err(e) = self.read_one() {
                    self.on_failure(e);
                }
                return true;
            }
            // Parked: nothing to fetch until a submit ticks us, or
            // the sender disappears (scheduler dropped). One wake per
            // burst: every op whose tick is pending was pushed before
            // its tick was sent, so the next `admit` sees them all.
            match self.ticks.recv() {
                Ok(()) => self.ticks.try_iter().for_each(drop),
                Err(_) => self.closed = true,
            }
            return true;
        }
        if let Err(e) = self.pump() {
            self.on_failure(e);
        }
        true
    }

    /// Move queued ops into the active set, up to the window.
    fn admit(&mut self) {
        let window = self.shared.config.window.max(1);
        while self.active.len() < window {
            match self.queue.try_pop() {
                Pop::Item(op) => {
                    self.shared.fetch_stats.record_op_dequeued();
                    self.trace().instant(
                        "sched.admit",
                        self.peer(),
                        op.seg.mof,
                        u64::from(op.seg.reducer),
                    );
                    if self.conn.is_some() {
                        // The pipelined analogue of a connection-cache
                        // hit: this op rides the worker's live socket.
                        self.shared.fetch_stats.record_connection_reused();
                    }
                    let key = self.next_key;
                    self.next_key += 1;
                    let committed = op.offset;
                    self.active.push_back(ActiveOp {
                        key,
                        op,
                        buf: Vec::new(),
                        committed,
                        spec: committed,
                        resume_mark: committed,
                        expected: None,
                        bypass_next: false,
                        refetch_budget: self.shared.config.integrity_retries,
                    });
                }
                Pop::Empty => break,
                Pop::Closed => {
                    self.closed = true;
                    break;
                }
            }
        }
    }

    /// One scheduling step: connect if needed (subject to the circuit
    /// breaker), top up the in-flight window round-robin across active
    /// ops, then consume one response — and any more already in the
    /// receive buffer, down to half the window.
    fn pump(&mut self) -> Result<()> {
        if self.conn.is_none() {
            match self.breaker.try_acquire(self.now()) {
                Admit::Yes => {}
                Admit::Probe => {
                    // This connection attempt IS the half-open probe;
                    // its outcome reports through the normal
                    // success/failure paths below.
                    self.trace().instant("breaker.half_open", self.peer(), 0, 0);
                }
                Admit::No { retry_at_nanos } => {
                    // Open: already-admitted work parks until the probe
                    // time instead of hammering a dead peer.
                    self.park_until(retry_at_nanos);
                    return Ok(());
                }
            }
            let conn = dial(self.addr, &self.shared.config)?;
            self.shared.fetch_stats.record_connection_established();
            if self.ever_connected {
                self.shared.fetch_stats.record_reconnect();
            }
            self.ever_connected = true;
            self.conn = Some(conn);
        }
        self.fill_window()?;
        if self.outstanding.is_empty() {
            // Nothing on the wire and nothing issuable — only possible
            // transiently; go round again rather than blocking on read.
            return Ok(());
        }
        self.read_one()?;
        // Frames that already arrived cost no syscall to take, so take
        // them now and refill the freed slots with one write next step.
        // Stopping at half the window keeps the supplier serving the
        // other half meanwhile, instead of the two ends taking turns.
        let keep = self.shared.config.window.max(1) / 2;
        while self.outstanding.len() > keep && self.frame_buffered() {
            self.read_one()?;
        }
        Ok(())
    }

    /// Is a whole response frame already in the receive buffer, so
    /// [`Self::read_one`] takes it without touching the socket?
    fn frame_buffered(&self) -> bool {
        self.conn
            .as_ref()
            .is_some_and(|c| wire::response_frame_len(c.reader.buffer()).is_some())
    }

    /// The next chunk request for an active op, or `None` if the op has
    /// nothing more to ask for right now.
    fn next_request(&self, a: &ActiveOp) -> Option<(u64, u64)> {
        let buffer = self.shared.config.buffer_bytes;
        if a.op.limit > 0 {
            // Single-exchange chunk: issued at most once per connection
            // incarnation (spec collapses back on failure for re-issue).
            return (a.spec == a.op.offset).then_some((a.spec, a.op.limit));
        }
        match a.expected {
            // The length is declared: nothing at or past the end, and
            // the last request asks for exactly what remains.
            Some(end) => (a.spec < end).then(|| (a.spec, buffer.min(end - a.spec))),
            // Before its first response: one request beyond the first,
            // so a wave of few ops still fills the window.
            None => (a.spec.saturating_sub(a.committed) <= buffer).then_some((a.spec, buffer)),
        }
    }

    /// Top up the pipeline window and put the whole pass on the wire
    /// with one write. A batch is at most `window` requests (360 B at
    /// the default window of 8), so the write never waits on a response
    /// stream this worker is not reading.
    fn fill_window(&mut self) -> Result<()> {
        self.queue_requests()?;
        let Some(conn) = self.conn.as_mut() else {
            return Ok(());
        };
        if conn.wbuf.is_empty() {
            return Ok(());
        }
        let sent = conn.writer.write_all(&conn.wbuf);
        conn.wbuf.clear();
        sent.map_err(|e| TransportError::from_io("write request", e))
    }

    /// Queue one pass of requests: first one for each active op with
    /// nothing in flight, so a newly admitted op never waits behind
    /// another op's speculation, then further chunks round-robin so
    /// injection stays balanced across segments.
    fn queue_requests(&mut self) -> Result<()> {
        let window = self.shared.config.window.max(1);
        for at in 0..self.active.len() {
            if self.outstanding.len() >= window {
                return Ok(());
            }
            let fresh = self.active.get(at).filter(|a| a.spec == a.committed);
            if let Some((offset, len)) = fresh.and_then(|a| self.next_request(a)) {
                self.send_request(at, offset, len)?;
            }
        }
        loop {
            let mut progressed = false;
            for _ in 0..self.active.len() {
                if self.outstanding.len() >= window {
                    return Ok(());
                }
                if let Some((offset, len)) = self.active.front().and_then(|a| self.next_request(a))
                {
                    self.send_request(0, offset, len)?;
                    progressed = true;
                }
                self.active.rotate_left(1);
            }
            if !progressed {
                return Ok(());
            }
        }
    }

    /// Encode one request for the active op at position `at` into the
    /// connection's write buffer and book it as sent: it goes on the
    /// wire with the rest of its pass.
    fn send_request(&mut self, at: usize, offset: u64, len: u64) -> Result<()> {
        let Some(a) = self.active.get(at) else {
            return Ok(());
        };
        let (key, mof, reducer) = (a.key, a.op.seg.mof, a.op.seg.reducer);
        // A targeted re-fetch after a failed verification asks the
        // supplier to re-read disk instead of serving the poisoned
        // cache entry back.
        let bypass = a.bypass_next && offset == a.committed;
        let id = self.next_id;
        self.next_id += 1;
        let Some(conn) = self.conn.as_mut() else {
            return Err(TransportError::Reset {
                during: "write request",
            });
        };
        FetchRequest {
            id,
            mof,
            reducer,
            offset,
            len,
            flags: if bypass { FLAG_BYPASS_CACHE } else { 0 },
        }
        .write_to(&mut conn.wbuf)
        .map_err(|e| TransportError::from_io("write request", e))?;
        self.outstanding.push_back(Outstanding {
            id,
            key,
            offset,
            len,
        });
        self.shared.fetch_stats.record_window_send();
        self.trace().instant("sched.send", self.peer(), offset, len);
        let peer = self.peer();
        if let Some(a) = self.active.get_mut(at) {
            if offset > a.committed {
                // This request runs ahead of confirmed data: offset
                // speculation in action.
                self.shared
                    .config
                    .trace
                    .instant("sched.speculate", peer, offset, a.committed);
            }
            a.spec = offset.saturating_add(len);
            if bypass {
                a.bypass_next = false;
            }
        }
        Ok(())
    }

    /// Read one response and match it to the head of the FIFO window.
    fn read_one(&mut self) -> Result<()> {
        match faults::decide(&self.shared.config.faults, Hook::ClientReadResponse) {
            FaultAction::Reset => {
                return Err(TransportError::Reset {
                    during: "read response (injected)",
                })
            }
            FaultAction::Stall(d) => std::thread::sleep(d),
            _ => {}
        }
        let Some(conn) = self.conn.as_mut() else {
            return Err(TransportError::Reset {
                during: "read response",
            });
        };
        let head = ResponseHead::read_from(&mut conn.reader)
            .map_err(|e| TransportError::from_io("read response", e))?;
        let Some(exp) = self.outstanding.pop_front() else {
            return Err(TransportError::Corrupt {
                detail: "response frame with no outstanding request".into(),
            });
        };
        self.shared.fetch_stats.record_window_recv();
        self.shared.config.trace.instant(
            "sched.recv",
            Entity::peer(u64::from(self.addr.port())),
            head.id,
            head.len as u64,
        );
        if head.id != exp.id {
            // In-order pipelining means the echoed id MUST match the
            // oldest unanswered request; anything else is a
            // desynchronized stream we cannot trust.
            return Err(TransportError::Corrupt {
                detail: format!(
                    "pipelined response id {} does not match outstanding id {}",
                    head.id, exp.id
                ),
            });
        }
        if head.len as u64 > head.declared_remaining(exp.offset) {
            // A frame whose payload runs past the segment length it
            // declares contradicts itself: trusting it would complete
            // an op on bytes the supplier never declared.
            return Err(TransportError::Corrupt {
                detail: format!(
                    "frame at offset {} carries {} bytes past its declared segment length {}",
                    exp.offset, head.len, head.seg_len
                ),
            });
        }
        // The id names the op before any payload byte is read, so a
        // payload that continues its segment goes straight onto the end
        // of that segment's buffer; anything else (stale speculation,
        // an op already completed) is consumed and verified in a
        // scratch buffer and dropped.
        let mut scratch = Vec::new();
        let data = head.status == Status::OkCrc;
        let wanted = match op_mut(&mut self.active, exp.key) {
            Some(a) if data && exp.offset == a.committed => {
                let declared = head.declared_remaining(exp.offset);
                let extent = if a.op.limit == 0 {
                    declared
                } else {
                    declared.min(a.op.limit)
                };
                wire::reserve_tail(&mut a.buf, head.len, extent);
                Some(&mut a.buf)
            }
            _ => None,
        };
        let verify = self.shared.config.checksum;
        let verified = head
            .read_verified(&mut conn.reader, wanted.unwrap_or(&mut scratch), verify)
            .map_err(|e| TransportError::from_io("read response", e))?;
        // Any well-formed, correctly-matched response is progress: the
        // connection works, so the failure budget resets.
        self.attempts = 0;
        if self.breaker.on_success(self.now()) == Transition::Closed {
            self.trace().instant("breaker.close", self.peer(), 0, 0);
        }
        match head.status {
            Status::OkCrc => {
                if !verified {
                    self.on_bad_payload(exp);
                    return Ok(());
                }
                if verify {
                    self.trace().instant(
                        "integrity.verify",
                        self.peer(),
                        exp.offset,
                        head.len as u64,
                    );
                }
                if let Some(a) = op_mut(&mut self.active, exp.key) {
                    a.expected = Some(head.seg_len);
                }
                self.apply_payload(exp, head.len, head.seg_len)
            }
            Status::Busy => {
                self.on_busy(exp, head.retry_after_ms);
                Ok(())
            }
            Status::NotFound => {
                let what = self.describe(exp.key);
                self.complete(exp.key, Err(TransportError::NotFound { what }));
                Ok(())
            }
            Status::BadRequest => {
                let detail = format!("supplier rejected fetch of {}", self.describe(exp.key));
                self.complete(exp.key, Err(TransportError::BadRequest { detail }));
                Ok(())
            }
        }
    }

    /// A pipelined payload failed its CRC32C. If it targeted the
    /// committed offset of a live op, aim a targeted cache-bypass
    /// re-fetch there (bounded by the integrity budget); a stale
    /// speculative frame is discarded like any other.
    fn on_bad_payload(&mut self, exp: Outstanding) {
        enum Verdict {
            Stale,
            Refetch,
            Exhausted,
        }
        let verdict = match op_mut(&mut self.active, exp.key) {
            None => Verdict::Stale,
            Some(a) if exp.offset != a.committed => Verdict::Stale,
            Some(a) if a.refetch_budget == 0 => Verdict::Exhausted,
            Some(a) => {
                a.refetch_budget -= 1;
                a.bypass_next = true;
                a.spec = a.committed;
                Verdict::Refetch
            }
        };
        match verdict {
            Verdict::Stale => {
                self.shared.fetch_stats.record_spec_discard();
                self.trace()
                    .instant("sched.spec_discard", self.peer(), exp.offset, 0);
            }
            Verdict::Refetch => {
                self.shared.fetch_stats.record_corrupt_refetch();
                self.trace()
                    .instant("integrity.refetch", self.peer(), exp.offset, exp.len);
            }
            Verdict::Exhausted => self.complete(
                exp.key,
                Err(TransportError::Corrupt {
                    detail: format!(
                        "pipelined chunk at offset {} failed CRC32C verification \
                         after targeted re-fetches",
                        exp.offset
                    ),
                }),
            ),
        }
    }

    /// The supplier shed this request under admission control: honor
    /// the retry-after hint before injecting more requests, and re-aim
    /// the op so the denied chunk is re-requested.
    fn on_busy(&mut self, exp: Outstanding, retry_after_ms: u64) {
        self.shared.fetch_stats.record_busy_backoff();
        self.trace()
            .instant("sched.busy", self.peer(), exp.offset, retry_after_ms);
        if let Some(a) = op_mut(&mut self.active, exp.key) {
            a.spec = a.committed;
        }
        std::thread::sleep(Duration::from_millis(retry_after_ms.min(1_000)));
    }

    fn describe(&self, key: u64) -> String {
        match self.active.iter().find(|a| a.key == key) {
            Some(a) => format!("mof {} reducer {}", a.op.seg.mof, a.op.seg.reducer),
            None => "completed op".into(),
        }
    }

    /// Account for a verified payload of `len` bytes answering `exp`, in
    /// a frame declaring the segment `end` bytes long. If it continued
    /// its op's segment it is already the tail of that op's buffer
    /// (`read_one` put it there); if it did not, it is gone.
    fn apply_payload(&mut self, exp: Outstanding, len: usize, end: u64) -> Result<()> {
        let Some(a) = op_mut(&mut self.active, exp.key) else {
            // The op already completed (or failed); this was a
            // speculative request past its end.
            self.shared.fetch_stats.record_spec_discard();
            self.shared
                .config
                .trace
                .instant("sched.spec_discard", self.peer(), exp.offset, 0);
            return Ok(());
        };
        if exp.offset != a.committed {
            // Stale speculation: a short read moved the committed offset
            // below where this request was aimed.
            let committed = a.committed;
            self.shared.fetch_stats.record_spec_discard();
            self.shared.config.trace.instant(
                "sched.spec_discard",
                self.peer(),
                exp.offset,
                committed,
            );
            return Ok(());
        }
        if len == 0 && a.committed < end {
            // Empty at exactly the committed offset while the declared
            // length says bytes are still owed: a "clean EOF" that is a
            // truncation lie landing exactly on a chunk boundary (a
            // levitated stream would otherwise terminate early and
            // silently lose records).
            let committed = a.committed;
            if a.refetch_budget > 0 {
                a.refetch_budget -= 1;
                a.bypass_next = true;
                a.spec = a.committed;
                self.shared.fetch_stats.record_corrupt_refetch();
                self.shared
                    .config
                    .trace
                    .instant("integrity.refetch", self.peer(), committed, end);
                return Ok(());
            }
            self.complete(
                exp.key,
                Err(TransportError::Truncated {
                    got: committed,
                    expected: end,
                }),
            );
            return Ok(());
        }
        self.shared.fetch_stats.record_bytes_fetched(len as u64);
        a.committed = a.committed.saturating_add(len as u64);
        a.refetch_budget = self.shared.config.integrity_retries;
        if a.op.limit > 0 || a.committed >= end {
            // A single-exchange chunk's payload (possibly short or empty
            // at segment end) IS the result; a whole-segment op ends at
            // the declared length.
            let buf = std::mem::take(&mut a.buf);
            self.complete(exp.key, Ok(buf));
            return Ok(());
        }
        if (len as u64) < exp.len {
            // Short read: outstanding speculation beyond this point is
            // aimed wrong; re-aim the next request at the new committed
            // offset and let the stale responses be discarded above.
            a.spec = a.committed;
        }
        Ok(())
    }

    /// Retire one op from the active set and deliver its result. A
    /// failure on a peer that is unhealthy or breaker-open is the
    /// reactive failover instead: [`Registry::route`] re-aims the op at
    /// a replica and it is re-queued there at its own offset.
    fn complete(&mut self, key: u64, result: Result<Vec<u8>>) {
        let at = self.active.iter().position(|a| a.key == key);
        let Some(mut a) = at.and_then(|at| self.active.remove(at)) else {
            return;
        };
        if result.is_err() {
            if let Some(registry) = self.registry.upgrade() {
                if registry.route(&mut a.op) {
                    registry.enqueue(a.op);
                    return;
                }
            }
        }
        finish(a.op, result);
    }

    /// A connection-level failure: drain the window, rewind every active
    /// op to its committed offset (resume), and either back off for a
    /// retry or fail everything with exhausted context.
    fn on_failure(&mut self, e: TransportError) {
        record_failure(&self.shared.fetch_stats, &e);
        if self.breaker.on_failure(self.now()) == Transition::Opened {
            self.trace()
                .instant("breaker.open", self.peer(), u64::from(self.attempts + 1), 0);
        }
        self.conn = None;
        let drained = self.outstanding.len() as u64;
        self.outstanding.clear();
        self.shared.fetch_stats.record_window_drained(drained);
        for a in &mut self.active {
            a.spec = a.committed;
            if a.committed > a.resume_mark {
                // These bytes survive the reconnect: the op resumes at
                // `committed` instead of refetching from its start.
                self.shared
                    .fetch_stats
                    .record_resumed_bytes(a.committed - a.resume_mark);
                a.resume_mark = a.committed;
            }
        }
        if !e.is_retryable() {
            self.fail_all_active(&e);
            return;
        }
        self.attempts += 1;
        if self.attempts <= self.shared.config.retry.max_retries {
            self.shared.fetch_stats.record_retry();
            let delay = self
                .shared
                .config
                .retry
                .backoff(self.attempts, &mut self.rng);
            let _backoff = self.trace().span(
                "retry.backoff",
                self.peer(),
                u64::from(self.attempts),
                delay.as_nanos() as u64,
            );
            std::thread::sleep(delay);
        } else {
            self.shared.fetch_stats.record_exhausted();
            let attempts = self.attempts;
            self.attempts = 0;
            self.fail_all_active(&TransportError::RetriesExhausted {
                attempts,
                last: Box::new(e),
            });
        }
    }

    /// Fail every active op with (a structural copy of) `e`, each in its
    /// own segment context.
    fn fail_all_active(&mut self, e: &TransportError) {
        let keys: Vec<u64> = self.active.iter().map(|a| a.key).collect();
        for key in keys {
            self.complete(key, Err(e.duplicate()));
        }
    }
}

/// The active op with worker-local `key`: a scan of at most `window`
/// ops.
fn op_mut(active: &mut VecDeque<ActiveOp>, key: u64) -> Option<&mut ActiveOp> {
    active.iter_mut().find(|a| a.key == key)
}

/// Bounded model checks of the dispatch queue. Build and run with
/// `RUSTFLAGS="--cfg loom" cargo test -p jbs-transport --lib loom_`.
#[cfg(all(test, loom))]
mod loom_tests {
    use super::*;

    /// A push racing the shutdown close: in every interleaving the op
    /// surfaces exactly once — refused back to the pusher, or drained by
    /// close — never both, never lost. This is the invariant that makes
    /// "every accepted op completes exactly once" hold across shutdown.
    #[test]
    fn loom_push_races_close_exactly_once() {
        loom::model(|| {
            let q = Arc::new(DispatchQueue::new());
            let q2 = Arc::clone(&q);
            let h = loom::thread::spawn(move || q2.push(7u32).err());
            let drained = q.close();
            let refused = match h.join() {
                Ok(r) => r,
                Err(_) => panic!("pusher panicked"),
            };
            let surfaced = usize::from(refused.is_some()) + drained.len();
            assert_eq!(surfaced, 1, "op must surface exactly once");
            // After close the queue stays terminal.
            assert!(matches!(q.try_pop(), Pop::Closed));
            assert!(q.push(8u32).is_err());
        });
    }

    /// A submit races the worker's `admit` (pop, then un-count). In every
    /// interleaving the op is counted before the worker can pop it, so
    /// the gauge never dips below zero on the way back to rest.
    #[test]
    fn loom_submit_counts_before_the_worker_can_admit() {
        loom::model(|| {
            let q = Arc::new(DispatchQueue::new());
            let stats = Arc::new(FetchStats::default());
            let (q2, s2) = (Arc::clone(&q), Arc::clone(&stats));
            let h = loom::thread::spawn(move || push_counted(&q2, &s2, 7u32).is_ok());
            if let Pop::Item(_) = q.try_pop() {
                stats.record_op_dequeued();
                assert_eq!(stats.snapshot().queued_ops, 0, "admit un-counted first");
            }
            match h.join() {
                Ok(pushed) => assert!(pushed),
                Err(_) => panic!("submitter panicked"),
            }
            assert!(stats.snapshot().queued_ops <= 1);
        });
    }

    /// Shutdown while a worker holds in-flight work: a pop races close.
    /// Every queued op surfaces exactly once — via the pop (in-flight in
    /// the worker) or via close's drain — and the queue reads Closed
    /// afterwards, so the worker cannot admit work the scheduler will
    /// never see complete.
    #[test]
    fn loom_close_races_pop_loses_nothing() {
        loom::model(|| {
            let q = Arc::new(DispatchQueue::new());
            assert!(q.push(1u32).is_ok());
            assert!(q.push(2u32).is_ok());
            let q2 = Arc::clone(&q);
            let h = loom::thread::spawn(move || match q2.try_pop() {
                Pop::Item(v) => Some(v),
                _ => None,
            });
            let drained = q.close();
            let popped = match h.join() {
                Ok(p) => p,
                Err(_) => panic!("popper panicked"),
            };
            let mut all = drained;
            if let Some(v) = popped {
                all.push(v);
            }
            all.sort_unstable();
            assert_eq!(all, vec![1, 2], "every op surfaces exactly once");
            assert!(matches!(q.try_pop(), Pop::Closed));
        });
    }

    /// A worker's reactive re-queue races the scheduler's drop. The
    /// worker reaches the registry through a `Weak` and registers the
    /// replica's queue on first contact (where the scheduler spawns its
    /// worker); the dropping side closes the registry, closes every
    /// queue it drained, and would join one worker per drained handle.
    /// In every interleaving the op surfaces exactly once — refused back
    /// to the worker, which fails it, or drained by a queue close — and
    /// every handle ever registered was drained, so no worker goes
    /// unjoined. (The shim's `Arc`/`Weak` are std's: `upgrade` is not a
    /// decision point, but the registry and queue locks around it are.)
    #[test]
    fn loom_requeue_races_drop_exactly_once() {
        use loom::sync::atomic::{AtomicUsize, Ordering};
        loom::model(|| {
            let replica = SocketAddr::from(([127, 0, 0, 1], 7001));
            let peers = Arc::new(PeerMap::<Arc<DispatchQueue<u32>>>::new());
            let spawned = Arc::new(AtomicUsize::new(0));
            let (weak, counter) = (Arc::downgrade(&peers), Arc::clone(&spawned));
            let worker = loom::thread::spawn(move || {
                let Some(peers) = weak.upgrade() else {
                    return Some(7);
                };
                let queue = peers.with(|m| {
                    let q = m.entry(replica).or_insert_with(|| {
                        counter.fetch_add(1, Ordering::SeqCst);
                        Arc::new(DispatchQueue::new())
                    });
                    Arc::clone(q)
                });
                match queue {
                    Some(queue) => queue.push(7u32).err(),
                    None => Some(7),
                }
            });
            let handles = peers.close();
            let drained: Vec<u32> = handles.iter().flat_map(|q| q.close()).collect();
            drop(peers);
            let refused = match worker.join() {
                Ok(r) => r,
                Err(_) => panic!("worker panicked"),
            };
            let surfaced = usize::from(refused.is_some()) + drained.len();
            assert_eq!(surfaced, 1, "op must complete exactly once");
            assert_eq!(
                spawned.load(Ordering::SeqCst),
                handles.len(),
                "a worker was spawned that drop never joins"
            );
        });
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::client::ClientConfig;
    use crate::faults::{FaultKind, FaultPlan};
    use crate::retry::RetryPolicy;
    use crate::server::{MofSupplierServer, ServerOptions};
    use crate::store::MofStore;
    use crate::wire::FetchResponse;
    use std::io::BufReader;
    use std::net::TcpListener;

    #[test]
    fn dispatch_queue_is_fifo_until_closed() {
        let q = DispatchQueue::new();
        assert!(matches!(q.try_pop(), Pop::<u32>::Empty));
        assert!(q.push(1u32).is_ok());
        assert!(q.push(2u32).is_ok());
        assert_eq!(q.len(), 2);
        assert!(matches!(q.try_pop(), Pop::Item(1)));
        let drained = q.close();
        assert_eq!(drained, vec![2]);
        assert!(matches!(q.try_pop(), Pop::Closed));
        assert_eq!(q.push(3u32).err(), Some(3));
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn refused_push_is_uncounted() {
        let (q, stats) = (DispatchQueue::new(), FetchStats::default());
        assert!(push_counted(&q, &stats, 1u32).is_ok());
        assert_eq!(stats.snapshot().queued_ops, 1);
        drop(q.close());
        assert_eq!(push_counted(&q, &stats, 2u32).err(), Some(2));
        assert_eq!(stats.snapshot().queued_ops, 1, "the refusal rolled back");
    }

    #[test]
    fn addr_seed_is_stable_and_distinguishes_peers() {
        let a: SocketAddr = "127.0.0.1:7000".parse().expect("addr");
        let b: SocketAddr = "127.0.0.1:7001".parse().expect("addr");
        assert_eq!(addr_seed(&a), addr_seed(&a));
        assert_ne!(addr_seed(&a), addr_seed(&b));
    }

    /// A worker stepped by hand on the test's own thread, so its segment
    /// buffers can be inspected between any two frames: whatever the
    /// last frame was — verified, corrupt, stale, or cut off mid-payload
    /// — each buffer must hold exactly its op's committed bytes.
    struct Rig {
        worker: Worker,
        shared: Arc<ClientShared>,
        done_tx: mpsc::Sender<FetchDone>,
        done_rx: mpsc::Receiver<FetchDone>,
        /// Keeps the worker's tick channel open; nothing is ever sent.
        _tick: mpsc::Sender<()>,
    }

    impl Rig {
        fn new(addr: SocketAddr, config: ClientConfig) -> Rig {
            let shared = Arc::new(ClientShared {
                fetch_stats: FetchStats::new(),
                config,
            });
            let (tick, ticks) = mpsc::channel();
            // The registry drops at the end of this function, so the
            // worker fails its ops in place instead of re-queueing them.
            let registry = Arc::new(Registry {
                shared: Arc::clone(&shared),
                peers: PeerMap::new(),
                anchor: Instant::now(),
            });
            let breaker = Arc::new(Breaker::new(0, 0));
            let queue = Arc::new(DispatchQueue::new());
            let worker = Worker::new(addr, &registry, queue, ticks, breaker);
            let (done_tx, done_rx) = mpsc::channel();
            Rig {
                worker,
                shared,
                done_tx,
                done_rx,
                _tick: tick,
            }
        }

        /// Queue whole-segment fetches of `reducers` of MOF 0 from the
        /// worker's peer, all before its next step.
        fn queue(&mut self, reducers: std::ops::Range<u32>) {
            for reducer in reducers {
                let op = FetchOp {
                    token: u64::from(reducer),
                    seg: SegmentRef {
                        addr: self.worker.addr,
                        mof: 0,
                        reducer,
                    },
                    offset: 0,
                    limit: 0,
                    done: self.done_tx.clone(),
                    tried: Vec::new(),
                };
                assert!(self.worker.queue.push(op).is_ok());
            }
        }

        /// Step the worker until every queued op completed and the
        /// speculation left on the wire drained, checking the buffer
        /// invariant after every step. The results, by reducer.
        fn drain(&mut self) -> Vec<Result<Vec<u8>>> {
            let mut results = Vec::new();
            loop {
                assert!(self.worker.step(), "worker shut down mid-fetch");
                for a in &self.worker.active {
                    assert_eq!(
                        a.buf.len() as u64,
                        a.committed - a.op.offset,
                        "buffer holds exactly the committed bytes"
                    );
                    assert!(a.buf.capacity() <= 2 * wire::RESERVE_STEP);
                }
                results.extend(self.done_rx.try_iter().map(|d| (d.token, d.result)));
                if self.worker.active.is_empty()
                    && self.worker.outstanding.is_empty()
                    && self.worker.queue.len() == 0
                {
                    break;
                }
            }
            results.sort_by_key(|(token, _)| *token);
            results.into_iter().map(|(_, r)| r).collect()
        }

        /// Fetch the whole of reducer 0 of MOF 0 from the worker's peer.
        fn fetch(&mut self) -> Result<Vec<u8>> {
            self.queue(0..1);
            self.drain().pop().expect("the op completed")
        }
    }

    fn fast_retry() -> RetryPolicy {
        RetryPolicy {
            max_retries: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
        }
    }

    /// One supplier holding ~50 KB of records in MOF 0, hashed into
    /// `partitions` segments and served in 4 KiB chunks under `plan`,
    /// and each segment's bytes read back from the store as the oracle.
    fn supplier_split(
        partitions: usize,
        plan: Arc<FaultPlan>,
    ) -> (MofSupplierServer, Vec<Vec<u8>>) {
        let mut store = MofStore::temp().expect("store");
        let records: Vec<_> = (0..1600u32)
            .map(|i| (format!("key-{i:06}").into_bytes(), vec![i as u8; 20]))
            .collect();
        let hash = |k: &[u8]| {
            k.iter()
                .fold(0usize, |h, &b| h.wrapping_mul(31) ^ usize::from(b))
        };
        store
            .write_mof(0, records, partitions, |k| hash(k) % partitions)
            .expect("mof");
        let truths: Vec<Vec<u8>> = (0..partitions as u32)
            .map(|r| {
                let seg = store.read_segment_range(0, r, 0, 0).expect("segment read");
                seg.expect("segment exists")
            })
            .collect();
        let server = MofSupplierServer::start_with_options(
            store,
            ServerOptions {
                buffer_bytes: 4 << 10,
                faults: Some(plan),
                ..ServerOptions::default()
            },
        )
        .expect("server");
        (server, truths)
    }

    /// [`supplier_split`] with the records in a single segment of many
    /// chunks.
    fn supplier(plan: Arc<FaultPlan>) -> (MofSupplierServer, Vec<u8>) {
        let (server, mut truths) = supplier_split(1, plan);
        let truth = truths.pop().expect("one segment");
        assert!(truth.len() > 10 * 4096, "many chunks");
        (server, truth)
    }

    fn served(server: &MofSupplierServer) -> u64 {
        server.stats_snapshot().requests
    }

    /// A wave of many segments, each shorter than one buffer: every op
    /// is fresh when admitted and ends at its declared length, so the
    /// only requests past an end are the wave tail's, one for each op
    /// still waiting on its first response when the queue runs dry.
    #[test]
    fn small_segment_wave_wastes_at_most_the_window_tail() {
        let (server, truths) = supplier_split(64, FaultPlan::builder(25).build());
        assert!(truths.iter().all(|t| !t.is_empty() && t.len() < 4096));
        let mut rig = Rig::new(
            server.addr(),
            ClientConfig {
                retry: fast_retry(),
                ..ClientConfig::default()
            },
        );
        rig.queue(0..64);
        let got: Vec<Vec<u8>> = rig.drain().into_iter().map(|r| r.expect("fetch")).collect();
        assert_eq!(got, truths);
        let window = rig.shared.config.window as u64;
        let sent = served(&server);
        // At most one wasted request per other slot of the window.
        assert!(sent < 64 + window, "{sent} requests for 64 segments");
        server.shutdown();
    }

    /// Before any length is declared, each op of a small wave may run
    /// one request ahead, so 4 ops fill a window of 8 before the first
    /// response; every one of those requests is a chunk the op needs.
    /// A step takes buffered responses down to half the window, no
    /// further.
    #[test]
    fn unknown_length_still_fills_the_window() {
        let (server, truths) = supplier_split(4, FaultPlan::builder(26).build());
        assert!(truths.iter().all(|t| t.len() > 2 * 4096), "multi-chunk");
        let mut rig = Rig::new(
            server.addr(),
            ClientConfig {
                buffer_bytes: 4 << 10,
                window: 8,
                retry: fast_retry(),
                ..ClientConfig::default()
            },
        );
        rig.queue(0..4);
        assert!(rig.worker.step());
        let fs = rig.shared.fetch_stats.snapshot();
        assert_eq!(fs.window_peak, 8, "{fs:?}");
        let half = rig.shared.config.window / 2;
        assert!(rig.worker.outstanding.len() >= half, "{fs:?}");
        let got: Vec<Vec<u8>> = rig.drain().into_iter().map(|r| r.expect("fetch")).collect();
        assert_eq!(got, truths);
        let chunks: usize = truths.iter().map(|t| t.len().div_ceil(4096)).sum();
        assert_eq!(served(&server), chunks as u64, "no request past an end");
        server.shutdown();
    }

    /// A window of fresh ops goes out as one batch: the supplier reads
    /// all eight requests with one `read(2)`.
    #[test]
    fn a_window_of_fresh_ops_reaches_the_supplier_in_one_read() {
        let (server, truths) = supplier_split(64, FaultPlan::builder(27).build());
        let mut rig = Rig::new(
            server.addr(),
            ClientConfig {
                buffer_bytes: 4 << 10,
                window: 8,
                retry: fast_retry(),
                ..ClientConfig::default()
            },
        );
        assert!(truths.iter().all(|t| t.len() < 4096), "one chunk each");
        rig.queue(0..8);
        assert!(rig.worker.step());
        // The worker sends nothing until its next step, so the supplier
        // serves exactly the first batch; `requests` counts a response
        // once it is queued for the wire, after its request was read.
        let deadline = Instant::now() + Duration::from_secs(10);
        while served(&server) < 8 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let snap = server.stats_snapshot();
        assert_eq!((snap.requests, snap.read_syscalls), (8, 1), "{snap:?}");
        let got: Vec<Vec<u8>> = rig.drain().into_iter().map(|r| r.expect("fetch")).collect();
        assert_eq!(got, truths[..8]);
        server.shutdown();
    }

    fn rig_for(server: &MofSupplierServer, buffer_bytes: u64) -> Rig {
        Rig::new(
            server.addr(),
            ClientConfig {
                buffer_bytes,
                window: 4,
                retry: fast_retry(),
                ..ClientConfig::default()
            },
        )
    }

    #[test]
    fn corrupt_payload_mid_segment_never_reaches_the_buffer() {
        let plan = FaultPlan::builder(21)
            .force(Hook::ServerPayload, 5, FaultKind::CorruptPayload)
            .build();
        let (server, truth) = supplier(Arc::clone(&plan));
        let mut rig = rig_for(&server, 4 << 10);
        assert_eq!(rig.fetch().expect("fetch"), truth);
        assert_eq!(plan.stats().payload_corruptions, 1);
        let fs = rig.shared.fetch_stats.snapshot();
        assert_eq!(fs.corrupt_refetches, 1, "{fs:?}");
        assert!(
            fs.spec_discards >= 1,
            "frames behind the bad one were stale: {fs:?}"
        );
        server.shutdown();
    }

    /// The client asks for 8 KiB, the supplier serves 4 KiB: every read
    /// is short, so every second frame is a *non-empty* stale
    /// speculation, consumed, verified and dropped.
    #[test]
    fn stale_speculation_after_short_reads_is_dropped() {
        let (server, truth) = supplier(FaultPlan::builder(22).build());
        let mut rig = rig_for(&server, 8 << 10);
        assert_eq!(rig.fetch().expect("fetch"), truth);
        let fs = rig.shared.fetch_stats.snapshot();
        assert!(fs.spec_discards >= 3, "{fs:?}");
        assert_eq!(fs.corrupt_refetches, 0, "{fs:?}");
        server.shutdown();
    }

    #[test]
    fn clean_eof_lie_on_a_chunk_boundary_is_refetched() {
        let plan = FaultPlan::builder(23)
            .force(Hook::ServerPayload, 4, FaultKind::CleanEof)
            .build();
        let (server, truth) = supplier(Arc::clone(&plan));
        let mut rig = rig_for(&server, 4 << 10);
        assert_eq!(rig.fetch().expect("fetch"), truth);
        assert_eq!(plan.stats().clean_eof_lies, 1);
        assert!(rig.shared.fetch_stats.snapshot().corrupt_refetches >= 1);
        server.shutdown();
    }

    /// What a scripted supplier does with one request.
    enum Reply {
        Frame(FetchResponse),
        /// Write only the first `n` bytes of the frame, then close.
        CutAfter(FetchResponse, usize),
    }

    /// A supplier that answers `connections` connections from a script:
    /// the real one never lies about `seg_len`, and closes a connection
    /// with requests unread (a reset that discards what it had sent)
    /// where this one can end a stream cleanly in mid-payload.
    fn scripted_supplier(
        connections: usize,
        script: impl Fn(&FetchRequest) -> Reply + Send + 'static,
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = std::thread::spawn(move || {
            for _ in 0..connections {
                let (mut stream, _) = listener.accept().expect("accept");
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                while let Ok(Some(req)) = FetchRequest::read_from(&mut reader) {
                    let mut frame = Vec::new();
                    let (resp, keep) = match script(&req) {
                        Reply::Frame(resp) => (resp, usize::MAX),
                        Reply::CutAfter(resp, keep) => (resp, keep),
                    };
                    resp.write_to(&mut frame).expect("encode");
                    let cut = keep < frame.len();
                    frame.truncate(keep);
                    if std::io::Write::write_all(&mut stream, &frame).is_err() || cut {
                        break;
                    }
                }
            }
        });
        (addr, handle)
    }

    /// The supplier sends a head and half its payload, then closes: the
    /// half-read payload is taken back out of the segment buffer, and
    /// the fetch resumes at the committed offset on a fresh connection.
    #[test]
    fn reset_with_a_half_read_payload_resumes_at_committed() {
        let truth: Vec<u8> = (0..5 * 4096u32).map(|i| (i % 253) as u8).collect();
        let segment = truth.clone();
        let tripped = std::sync::atomic::AtomicBool::new(false);
        let (addr, supplier) = scripted_supplier(2, move |req| {
            let from = (req.offset as usize).min(segment.len());
            let to = (from + 4096).min(segment.len());
            let resp =
                FetchResponse::ok_crc(req.id, segment[from..to].to_vec(), segment.len() as u64);
            if req.offset == 2 * 4096 && !tripped.swap(true, std::sync::atomic::Ordering::SeqCst) {
                return Reply::CutAfter(resp, 29 + 2048);
            }
            Reply::Frame(resp)
        });
        let mut rig = Rig::new(
            addr,
            ClientConfig {
                buffer_bytes: 4 << 10,
                // Lockstep: the supplier has read every request when it
                // closes, so the close is a FIN after the half payload
                // and not a reset that discards it.
                window: 1,
                retry: fast_retry(),
                ..ClientConfig::default()
            },
        );
        assert_eq!(rig.fetch().expect("fetch"), truth);
        let fs = rig.shared.fetch_stats.snapshot();
        assert_eq!(fs.reconnects, 1, "{fs:?}");
        assert_eq!(fs.resumed_bytes, 2 * 4096, "{fs:?}");
        drop(rig);
        supplier.join().expect("supplier thread");
    }

    /// A reconnect keeps the injection order the ops had: window 4 over
    /// three fresh ops sends chunk 0 of each and then chunk 1 of op 0,
    /// which moves op 0 to the back. The supplier drops that connection
    /// on the first request it reads, so the first pass on the next one
    /// must name the ops 1, 2, 0.
    #[test]
    fn a_reconnect_reinjects_ops_in_their_round_robin_order() {
        const CHUNK: usize = 4096;
        let segment = |reducer: u32| -> Vec<u8> {
            (0..3 * CHUNK as u32)
                .map(|i| (i % 251) as u8 ^ reducer as u8)
                .collect()
        };
        let log = Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::clone(&log);
        let (addr, supplier) = scripted_supplier(2, move |req| {
            let bytes = segment(req.reducer);
            let from = (req.offset as usize).min(bytes.len());
            let to = (from + CHUNK).min(bytes.len());
            let resp = FetchResponse::ok_crc(req.id, bytes[from..to].to_vec(), bytes.len() as u64);
            let mut seen = lock(&seen);
            seen.push(req.reducer);
            if seen.len() == 1 {
                return Reply::CutAfter(resp, 0);
            }
            Reply::Frame(resp)
        });
        let mut rig = Rig::new(
            addr,
            ClientConfig {
                buffer_bytes: CHUNK as u64,
                window: 4,
                retry: fast_retry(),
                ..ClientConfig::default()
            },
        );
        rig.queue(0..3);
        let got: Vec<Vec<u8>> = rig.drain().into_iter().map(|r| r.expect("fetch")).collect();
        assert_eq!(got, (0..3).map(segment).collect::<Vec<_>>());
        assert_eq!(rig.shared.fetch_stats.snapshot().reconnects, 1);
        let second = lock(&log).get(1..4).map(<[u32]>::to_vec);
        assert_eq!(
            second,
            Some(vec![1, 2, 0]),
            "first pass after the reconnect"
        );
        drop(rig);
        supplier.join().expect("supplier thread");
    }

    /// A frame whose payload runs one byte past the segment length it
    /// declares is corrupt: the connection is torn down before its
    /// payload is read, every retry meets the same lie, and the fetch
    /// ends in a typed error instead of the undeclared bytes.
    #[test]
    fn frame_overrunning_its_declared_length_is_corrupt() {
        let segment: Vec<u8> = (0..3000u32).map(|i| (i % 251) as u8).collect();
        let retry = fast_retry();
        let (addr, supplier) = scripted_supplier(retry.max_retries as usize + 1, move |req| {
            let from = (req.offset as usize).min(segment.len());
            let payload = segment[from..].to_vec();
            let lie = segment.len() as u64 - 1;
            Reply::Frame(FetchResponse::ok_crc(req.id, payload, lie))
        });
        let mut rig = Rig::new(
            addr,
            ClientConfig {
                retry,
                ..ClientConfig::default()
            },
        );
        let err = rig.fetch().expect_err("the frame contradicts itself");
        match err {
            TransportError::Segment { source, .. } => match *source {
                TransportError::RetriesExhausted { last, .. } => {
                    assert!(matches!(*last, TransportError::Corrupt { .. }), "{last}");
                }
                other => panic!("expected exhausted retries, got {other}"),
            },
            other => panic!("expected segment context, got {other}"),
        }
        let fs = rig.shared.fetch_stats.snapshot();
        assert_eq!(fs.bytes_fetched, 0, "{fs:?}");
        drop(rig);
        supplier.join().expect("supplier thread");
    }

    /// One real 4 KiB chunk declared to be the start of 2^64 − 1 bytes,
    /// then clean EOFs.
    fn hostile_seg_len(req: &FetchRequest) -> Reply {
        let payload = if req.offset == 0 {
            vec![0xAB; 4096]
        } else {
            Vec::new()
        };
        Reply::Frame(FetchResponse::ok_crc(req.id, payload, u64::MAX))
    }

    #[test]
    fn hostile_seg_len_ends_in_truncated_not_a_huge_reserve() {
        let (addr, supplier) = scripted_supplier(1, hostile_seg_len);
        let mut rig = Rig::new(
            addr,
            ClientConfig {
                buffer_bytes: 4 << 10,
                retry: fast_retry(),
                ..ClientConfig::default()
            },
        );
        // `fetch` bounds the buffer's capacity after every step.
        let err = rig.fetch().expect_err("the segment can never complete");
        match err {
            TransportError::Segment { source, .. } => match *source {
                TransportError::Truncated { got, expected } => {
                    assert_eq!((got, expected), (4096, u64::MAX));
                }
                other => panic!("expected Truncated, got {other}"),
            },
            other => panic!("expected segment context, got {other}"),
        }
        let spent = rig.shared.fetch_stats.snapshot().corrupt_refetches;
        assert_eq!(spent, u64::from(rig.shared.config.integrity_retries));
        drop(rig);
        supplier.join().expect("supplier thread");
    }

    /// The same lie through the public client in lockstep
    /// (`window = 1`): every empty frame answers a request at the
    /// committed offset, so each spends budget until `Truncated`
    /// surfaces.
    #[test]
    fn hostile_seg_len_on_the_serial_path_ends_in_truncated() {
        let (addr, supplier) = scripted_supplier(1, hostile_seg_len);
        let client = crate::client::NetMergerClient::with_client_config(ClientConfig {
            buffer_bytes: 4 << 10,
            window: 1,
            retry: fast_retry(),
            ..ClientConfig::default()
        });
        let err = client
            .fetch_segment(SegmentRef {
                addr,
                mof: 0,
                reducer: 0,
            })
            .expect_err("the segment can never complete");
        match err {
            TransportError::Segment { source, .. } => assert!(
                matches!(
                    *source,
                    TransportError::Truncated {
                        got: 4096,
                        expected: u64::MAX
                    }
                ),
                "{source}"
            ),
            other => panic!("expected segment context, got {other}"),
        }
        drop(client);
        supplier.join().expect("supplier thread");
    }

    /// The integrity budget is per chunk position: three corrupted
    /// chunks, each re-fetched once, fit a budget of two because every
    /// verified chunk refills it.
    #[test]
    fn refetch_budget_refills_at_each_chunk() {
        let plan = FaultPlan::builder(24)
            .force(Hook::ServerPayload, 1, FaultKind::CorruptPayload)
            .force(Hook::ServerPayload, 3, FaultKind::CorruptPayload)
            .force(Hook::ServerPayload, 5, FaultKind::CorruptPayload)
            .build();
        let (server, truth) = supplier(Arc::clone(&plan));
        let mut rig = Rig::new(
            server.addr(),
            ClientConfig {
                buffer_bytes: 4 << 10,
                // Lockstep, so payload occurrences 1, 3 and 5 are three
                // different chunks, each followed by its own re-fetch.
                window: 1,
                integrity_retries: 2,
                retry: fast_retry(),
                ..ClientConfig::default()
            },
        );
        assert_eq!(rig.fetch().expect("fetch"), truth);
        assert_eq!(plan.stats().payload_corruptions, 3);
        let fs = rig.shared.fetch_stats.snapshot();
        assert_eq!(fs.corrupt_refetches, 3, "{fs:?}");
        server.shutdown();
    }
}
