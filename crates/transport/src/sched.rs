//! The NetMerger's fetch scheduler: **event loops** that own every
//! supplier connection of a client and keep a **bounded window of
//! pipelined requests** in flight on each (DESIGN.md §10).
//!
//! This is the client half of the Fig. 4 fix, and the NetMerger's only
//! fetch path; `window = 1` is the Fig. 4 lockstep baseline, kept as a
//! configuration. Like the supplier's reactor, a loop is one thread
//! over `poll(2)` and a [`Waker`]: callers hand it ops through one
//! closable [`Mailbox`], and it keeps one nonblocking connection per
//! supplier it owns, so no lock guards a socket. A client runs one loop
//! per available core at most, and never more loops than suppliers
//! ([`Router`]), so one loop serves any number of suppliers. For each
//! supplier a loop:
//!
//! * admits up to `window` ops into an active set, gives a free window
//!   slot first to an op with nothing in flight and then round-robins
//!   chunk requests across the active ops (balanced injection);
//! * sends a window refill with one `write`, then takes one response
//!   frame and every frame already whole in its receive buffer, down to
//!   half the window: the supplier always has half a window to serve,
//!   and one fast supplier cannot keep the loop from the others;
//! * matches each response to the oldest request by its **id echo** (a
//!   mismatch tears the connection down as corrupt), and reads its
//!   payload straight onto its op's segment buffer, across as many
//!   readiness reports as it takes, verifying its CRC32C when whole;
//! * requests *speculative* offsets, but never at or past the segment
//!   length a response declared; a short read collapses speculation to
//!   the committed offset and stale responses are discarded
//!   ([`crate::stats::FetchStatsSnapshot::spec_discards`]);
//! * on a connection-level failure drains the window, resumes every
//!   active op at its committed offset and retries under the shared
//!   [`RetryPolicy`] budget, failing each op with its own
//!   [`TransportError::Segment`] context once it is spent.
//!
//! Nothing in a loop sleeps or blocks. A retry backoff, a breaker
//! cooldown, a `Busy` hint and an injected read stall each hold one
//! supplier until a deadline in the poll timeout, and so does
//! `io_timeout`: no byte received and no write progress for that long
//! while a response is due is a [`TransportError::Timeout`]. A dial (a
//! blocking `connect`, with its fault hook) runs on a short-lived thread
//! that hands the stream back through the mailbox and the waker.
//!
//! Each [`FetchOp`] carries the sender half of its submitter's channel,
//! so `fetch_all` and the levitated merge consume segments as they land.
//! Failover is one routing function, [`route`], with two callers: the
//! loop dispatching a submitted op (proactive), and a supplier about to
//! fail an op (reactive), which re-submits it to a replica at its own
//! offset — so every op shape fails over the same way.
//!
//! [`RetryPolicy`]: crate::retry::RetryPolicy

use crate::breaker::{Admit, Breaker, Transition};
use crate::client::{ClientShared, SegmentRef};
use crate::error::{Result, TransportError};
use crate::faults::{self, FaultAction, Hook};
use crate::poll::{sys_poll, PollFd, Waker, POLLIN, POLLOUT};
use crate::stats::FetchStats;
use crate::sync::{lock, Mailbox, Mutex};
use crate::wire::{self, FetchRequest, ResponseHead, Status, FLAG_BYPASS_CACHE};
use jbs_des::DetRng;
use jbs_obs::{Entity, OwnedSpan};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
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

/// What reaches the client loop through its mailbox.
enum Msg {
    /// A submitted op, already counted in `queued_ops`.
    Op(FetchOp),
    /// A dial thread's outcome: a nonblocking stream to the supplier at
    /// this address, or why there is none.
    Dialed(SocketAddr, Result<TcpStream>),
}

/// The client loop's mailbox and the waker that interrupts its poll.
struct Inbox {
    mail: Mailbox<Msg>,
    waker: Waker,
}

impl Inbox {
    /// Hand `ops` to the loop in one push, counted in `queued_ops`, or
    /// fail them if the loop is gone. The loop is woken at most once.
    fn submit(&self, stats: &FetchStats, ops: Vec<Msg>) {
        match push_counted(&self.mail, stats, ops) {
            Ok(true) => self.waker.wake(),
            Ok(false) => {}
            Err(refused) => {
                for msg in refused {
                    if let Msg::Op(op) = msg {
                        finish(op, Err(shutdown_error()));
                    }
                }
            }
        }
    }
}

/// The scheduler owned by [`crate::client::NetMergerClient`]: its
/// loops, stopped and joined on drop.
pub(crate) struct FetchScheduler {
    router: Arc<Router>,
}

impl FetchScheduler {
    pub(crate) fn new(shared: Arc<ClientShared>) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let loops = Mutex::new(Loops::default());
        FetchScheduler {
            router: Arc::new(Router {
                shared,
                cores,
                loops,
            }),
        }
    }

    /// Hand each op to the loop that owns its supplier, which queues it
    /// there — or on a replica, if that supplier is unhealthy or
    /// breaker-open (proactive failover). Each loop gets its share of
    /// `ops` in one push, so a wave wakes each loop at most once.
    pub(crate) fn submit(&self, ops: Vec<FetchOp>) {
        self.router.submit(ops);
    }
}

impl Drop for FetchScheduler {
    fn drop(&mut self) {
        self.router.stop();
    }
}

/// A client's loops, and which one owns each supplier. There is one
/// loop per available core at most, started as suppliers first appear
/// and never more than there are suppliers: each of the first suppliers
/// gets a loop of its own, and later ones are dealt to those loops in
/// turn. So one thread serves any number of suppliers, but a
/// memory-tier shuffle from two suppliers is not held to the one core
/// that would receive and verify all their bytes.
struct Router {
    shared: Arc<ClientShared>,
    /// `std::thread::available_parallelism`: the most loops to run.
    cores: usize,
    loops: Mutex<Loops>,
}

#[derive(Default)]
struct Loops {
    inboxes: Vec<Arc<Inbox>>,
    threads: Vec<JoinHandle<()>>,
    /// The loop (an index into `inboxes`) of each supplier so far.
    owner: HashMap<SocketAddr, usize>,
    closed: bool,
}

impl Router {
    /// The mailbox of the loop that owns `addr`, starting a loop for it
    /// while cores are left. `None` once the client shut down, or if no
    /// loop could start (the process is out of fds or threads).
    fn inbox(self: &Arc<Self>, addr: SocketAddr) -> Option<Arc<Inbox>> {
        let mut loops = lock(&self.loops);
        if loops.closed {
            return None;
        }
        let next = loops.owner.len();
        if !loops.owner.contains_key(&addr) && loops.inboxes.len() < self.cores {
            if let Ok((inbox, thread)) = self.start() {
                loops.inboxes.push(inbox);
                loops.threads.push(thread);
            }
        }
        let count = loops.inboxes.len().max(1);
        let at = *loops.owner.entry(addr).or_insert(next % count);
        loops.inboxes.get(at).cloned()
    }

    /// Hand each op to the loop that owns its supplier, or fail it if
    /// the client shut down. Ops meet their loops in order, so the first
    /// contact with a supplier picks its loop as one submit at a time
    /// would, and each loop gets its share in one push. `sched.dispatch`
    /// is traced here, on the submitting thread, so the trace keeps the
    /// order ops were injected in across every loop.
    fn submit(self: &Arc<Self>, ops: Vec<FetchOp>) {
        let mut shares: Vec<(Arc<Inbox>, Vec<Msg>)> = Vec::new();
        for op in ops {
            let Some(inbox) = self.inbox(op.seg.addr) else {
                finish(op, Err(shutdown_error()));
                continue;
            };
            let (peer, mof) = (Entity::peer(u64::from(op.seg.addr.port())), op.seg.mof);
            let reducer = u64::from(op.seg.reducer);
            self.shared
                .config
                .trace
                .instant("sched.dispatch", peer, mof, reducer);
            match shares.iter_mut().find(|(i, _)| Arc::ptr_eq(i, &inbox)) {
                Some((_, share)) => share.push(Msg::Op(op)),
                None => shares.push((inbox, vec![Msg::Op(op)])),
            }
        }
        for (inbox, share) in shares {
            inbox.submit(&self.shared.fetch_stats, share);
        }
    }

    /// Start one more loop on a thread of its own.
    fn start(self: &Arc<Self>) -> io::Result<(Arc<Inbox>, JoinHandle<()>)> {
        let inbox = Arc::new(Inbox {
            mail: Mailbox::new(),
            waker: Waker::new()?,
        });
        let mut client_loop = ClientLoop::new(Arc::clone(self), Arc::clone(&inbox));
        let thread = std::thread::Builder::new()
            .name("jbs-netmerger".into())
            .spawn(move || client_loop.run())?;
        Ok((inbox, thread))
    }

    /// Close every loop's mailbox, failing the ops it never took, and
    /// join each loop once it has failed the rest.
    fn stop(&self) {
        let (inboxes, threads) = {
            let mut loops = lock(&self.loops);
            loops.closed = true;
            let inboxes = std::mem::take(&mut loops.inboxes);
            (inboxes, std::mem::take(&mut loops.threads))
        };
        for inbox in &inboxes {
            close(inbox, &self.shared.fetch_stats);
            inbox.waker.wake();
        }
        for thread in threads {
            let _ = thread.join();
        }
    }
}

/// Queue `items` for the loop, each counted in `queued_ops` *before* the
/// loop can see it: the loop may take and admit them, un-counting them,
/// the instant `push_all` returns, and a gauge bumped only afterwards
/// would dip below zero in between. A refused push (mailbox closed) is
/// un-counted.
fn push_counted<T>(
    mail: &Mailbox<T>,
    stats: &FetchStats,
    items: Vec<T>,
) -> std::result::Result<bool, Vec<T>> {
    items.iter().for_each(|_| stats.record_op_queued());
    mail.push_all(items)
        .inspect_err(|refused| refused.iter().for_each(|_| stats.record_op_dequeued()))
}

/// Close the loop's mailbox and fail every op still in it.
fn close(inbox: &Inbox, stats: &FetchStats) {
    for msg in inbox.mail.close() {
        if let Msg::Op(op) = msg {
            stats.record_op_dequeued();
            finish(op, Err(shutdown_error()));
        }
    }
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

/// The one failover decision, for both callers: the loop dispatching a
/// submitted op, and a supplier's state about to fail one. If `op`'s
/// peer is marked unhealthy or its breaker is `open`, re-aim the op at
/// the first healthy replica of its MOF it has not been routed away
/// from, and say so. Fires only behind one of those health signals and
/// only with a [`crate::routes::RouteTable`] configured, so a transient
/// error on a healthy peer stays with that peer's own retry budget.
/// Replicas are byte-identical, so the op keeps its offset.
fn route(shared: &ClientShared, op: &mut FetchOp, open: bool) -> bool {
    let Some(routes) = &shared.config.routes else {
        return false;
    };
    let from = op.seg.addr;
    if !routes.is_unhealthy(from) && !open {
        return false;
    }
    op.tried.push(from);
    let Some(next) = routes.failover_target(op.seg.mof, &op.tried) else {
        op.tried.pop();
        return false;
    };
    shared.fetch_stats.record_failover();
    shared.config.trace.instant(
        "failover.redirect",
        Entity::peer(u64::from(next.port())),
        op.seg.mof,
        u64::from(from.port()),
    );
    op.seg.addr = next;
    true
}

/// `d` in whole milliseconds, rounded up so that a deadline is never
/// polled early, as a `poll(2)` timeout.
fn ceil_ms(d: Duration) -> i32 {
    i32::try_from(d.as_micros().div_ceil(1000)).unwrap_or(i32::MAX)
}

/// A client loop: the state of every supplier it owns, driven from one
/// thread.
struct ClientLoop {
    shared: Arc<ClientShared>,
    router: Arc<Router>,
    inbox: Arc<Inbox>,
    /// One entry per supplier address an op was ever dispatched to.
    peers: HashMap<SocketAddr, Peer>,
    /// Monotonic time origin of every peer's circuit breaker (which
    /// never reads a clock itself).
    anchor: Instant,
    /// A peer's last turn left work that must not wait for readiness
    /// (frames landed, so window slots may refill), so the next poll
    /// does not block.
    more: bool,
    fds: Vec<PollFd>,
    /// The peer owning each entry of `fds` after the waker's.
    owners: Vec<SocketAddr>,
}

impl ClientLoop {
    fn new(router: Arc<Router>, inbox: Arc<Inbox>) -> Self {
        ClientLoop {
            shared: Arc::clone(&router.shared),
            router,
            inbox,
            peers: HashMap::new(),
            anchor: Instant::now(),
            more: false,
            fds: Vec::new(),
            owners: Vec::new(),
        }
    }

    fn run(&mut self) {
        while self.iterate() {}
        // Refuse further mail, and fail everything still here.
        close(&self.inbox, &self.shared.fetch_stats);
        for peer in self.peers.values_mut() {
            peer.shut_down();
        }
    }

    /// One pass of the loop: wait in `poll(2)` for a socket, the waker
    /// or the nearest deadline; take the mail; give every peer a turn.
    /// `false` once the mailbox is closed (or `poll` failed).
    fn iterate(&mut self) -> bool {
        let now = Instant::now();
        self.fds.clear();
        self.owners.clear();
        self.fds.push(PollFd::new(self.inbox.waker.fd(), POLLIN));
        for (addr, peer) in &self.peers {
            if let Some((fd, events)) = peer.interest() {
                self.fds.push(PollFd::new(fd, events));
                self.owners.push(*addr);
            }
        }
        let due = self.peers.values().filter_map(Peer::due).min();
        let timeout = match due {
            _ if self.more => 0,
            Some(at) => ceil_ms(at.saturating_duration_since(now)),
            None => -1,
        };
        if sys_poll(&mut self.fds, timeout).is_err() {
            return false;
        }
        for (fd, addr) in self.fds.iter().skip(1).zip(&self.owners) {
            if let Some(peer) = self.peers.get_mut(addr) {
                peer.ready = (fd.readable(), fd.writable());
            }
        }
        // Mail comes with a wake-up; taking the wake-ups first means one
        // that arrives meanwhile is seen next pass, not lost.
        if self.fds.first().is_some_and(PollFd::readable) {
            self.inbox.waker.drain();
            for msg in self.inbox.mail.drain() {
                match msg {
                    Msg::Op(op) => self.dispatch(op),
                    Msg::Dialed(addr, dialed) => {
                        if let Some(peer) = self.peers.get_mut(&addr) {
                            peer.dialed(dialed);
                        }
                    }
                }
            }
            if self.inbox.mail.is_closed() {
                return false;
            }
        }
        let now = Instant::now();
        self.more = false;
        for peer in self.peers.values_mut() {
            self.more |= peer.turn(now);
        }
        true
    }

    /// Route a counted op (proactive failover) and queue it on its
    /// supplier, whose state is created on first contact — or pass it
    /// to the loop that owns the replica it was routed to. An op for a
    /// peer whose circuit breaker is open fails fast with
    /// [`TransportError::CircuitOpen`] instead — no queueing, no wire
    /// traffic.
    fn dispatch(&mut self, mut op: FetchOp) {
        let now = self.anchor.elapsed().as_nanos() as u64;
        let open = self
            .peers
            .get(&op.seg.addr)
            .is_some_and(|p| p.breaker.is_open(now));
        let stats = &self.shared.fetch_stats;
        if route(&self.shared, &mut op, open) && !self.peers.contains_key(&op.seg.addr) {
            let owner = self.router.inbox(op.seg.addr);
            if let Some(inbox) = owner.filter(|inbox| !Arc::ptr_eq(inbox, &self.inbox)) {
                stats.record_op_dequeued();
                return inbox.submit(stats, vec![Msg::Op(op)]);
            }
        }
        let addr = op.seg.addr;
        let peer = self.peers.entry(addr).or_insert_with(|| {
            Peer::new(addr, &self.shared, &self.router, &self.inbox, self.anchor)
        });
        let (entity, mof, reducer) = (peer.entity(), op.seg.mof, u64::from(op.seg.reducer));
        let trace = &self.shared.config.trace;
        if peer.breaker.is_open(now) {
            stats.record_op_dequeued();
            stats.record_breaker_fast_fail();
            trace.instant("breaker.fast_fail", entity, mof, reducer);
            let open = TransportError::CircuitOpen {
                peer: addr.to_string(),
            };
            finish(op, Err(open));
            return;
        }
        peer.queued.push_back(op);
    }
}

/// Seed of the backoff-jitter rng streams, mixed with each peer's
/// [`addr_seed`].
const RETRY_SEED: u64 = 0x4A42_5331;

/// Seed material that differs per peer but is identical across runs,
/// so backoff jitter stays deterministic under [`RETRY_SEED`].
fn addr_seed(addr: &SocketAddr) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    addr.hash(&mut h);
    h.finish()
}

/// Capacity of a connection's receive buffer: one `read` takes a whole
/// window of small frames (8 × ~6.8 KiB on `small_seg`). The bytes of a
/// larger payload that do not arrive with its head are read straight
/// onto its op's buffer, bypassing this one.
const RECV_BUF_BYTES: usize = 64 << 10;

/// A peer's one nonblocking connection to its supplier.
struct Conn {
    stream: TcpStream,
    recv: RecvBuf,
    /// Encoded requests not yet written: `wbuf[wpos..]`.
    wbuf: Vec<u8>,
    wpos: usize,
    /// The frame whose head is decoded and whose payload is arriving.
    frame: Option<Frame>,
    /// The `io_timeout` clock: the last byte received, the last write
    /// progress, or the first request put on an idle connection.
    last_io: Instant,
    /// Payloads that continue no op (stale speculation, error frames)
    /// are read and verified here, then dropped.
    scratch: Vec<u8>,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            recv: RecvBuf {
                buf: vec![0; RECV_BUF_BYTES].into_boxed_slice(),
                pos: 0,
                end: 0,
                large: false,
            },
            wbuf: Vec::new(),
            wpos: 0,
            frame: None,
            last_io: Instant::now(),
            scratch: Vec::new(),
        }
    }
}

/// Received bytes not yet consumed: `buf[pos..end]`.
struct RecvBuf {
    buf: Box<[u8]>,
    pos: usize,
    end: usize,
    /// The last payload did not fit this buffer.
    large: bool,
}

impl RecvBuf {
    fn buffered(&self) -> &[u8] {
        self.buf.get(self.pos..self.end).unwrap_or_default()
    }

    /// Decode the next frame head, reading `stream` for it as needed:
    /// `Ok(None)` if the socket runs dry first.
    fn head(&mut self, stream: &TcpStream) -> io::Result<Option<ResponseHead>> {
        let mut dry = false;
        loop {
            if let Some((head, used)) = ResponseHead::decode(self.buffered())? {
                self.pos += used;
                self.large = head.len >= self.buf.len();
                return Ok(Some(head));
            }
            if dry {
                return Ok(None);
            }
            // Move the partial head to the front, and read after it:
            // after a large payload, no further than the next head, so
            // that another large one goes from the socket straight onto
            // its op's buffer with no copy through this one.
            self.buf.copy_within(self.pos..self.end, 0);
            self.end -= self.pos;
            self.pos = 0;
            let cap = if self.large {
                wire::RESPONSE_HEADER_LEN + wire::CRC_EXT_LEN
            } else {
                self.buf.len()
            };
            let room = self.buf.get_mut(self.end..cap).unwrap_or_default();
            let asked = room.len();
            match (&*stream).read(room) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                // A short read took all the socket had: another would
                // only find it dry.
                Ok(n) => {
                    self.end += n;
                    dry = n < asked;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Read more of `head`'s payload onto `buf` from `start`: the bytes
    /// buffered here first, then straight off `stream` until it runs
    /// dry. [`ResponseHead::read_verified`] says what comes back.
    fn payload(
        &mut self,
        stream: &TcpStream,
        head: &ResponseHead,
        buf: &mut Vec<u8>,
        start: usize,
        verify: bool,
    ) -> io::Result<bool> {
        let owed = head.len.saturating_sub(buf.len().saturating_sub(start));
        let here = owed.min(self.end - self.pos);
        buf.extend_from_slice(self.buf.get(self.pos..self.pos + here).unwrap_or_default());
        self.pos += here;
        head.read_verified(&mut &*stream, buf, start, verify)
    }
}

/// A response frame whose head is decoded and whose payload is still
/// arriving.
struct Frame {
    head: ResponseHead,
    exp: Outstanding,
    /// The op whose segment buffer the payload continues, and that
    /// buffer's length before it; `None` reads it into the connection's
    /// scratch buffer.
    into: Option<(u64, usize)>,
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

/// One op admitted into a peer's active set.
struct ActiveOp {
    /// Peer-local name of the op, which its requests on the wire carry
    /// (caller tokens are not unique across submitters).
    key: u64,
    op: FetchOp,
    /// The segment bytes `[op.offset, committed)`: payloads are read off
    /// the socket straight onto its end and verified there, and it is
    /// cut back to `committed` whenever one fails, so between frames it
    /// never holds a byte that has not passed its CRC.
    buf: Vec<u8>,
    /// Absolute offset up to which `buf` is complete:
    /// `op.offset + buf.len()` whenever no payload is half read.
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

/// One supplier's share of the client loop: its queue, its connection,
/// its window and its recovery state.
struct Peer {
    addr: SocketAddr,
    shared: Arc<ClientShared>,
    /// Where a failed op goes to be queued on a replica.
    router: Arc<Router>,
    /// Where a dial thread hands its stream back: this peer's loop.
    inbox: Arc<Inbox>,
    /// Ops dispatched here and not yet admitted, oldest first.
    queued: VecDeque<FetchOp>,
    conn: Option<Conn>,
    /// The dial thread, while one runs.
    dialer: Option<JoinHandle<()>>,
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
    breaker: Breaker,
    /// The loop's monotonic origin for breaker timestamps.
    anchor: Instant,
    /// Nothing happens here before this instant: a retry backoff, a
    /// breaker cooldown, a `Busy` hint or an injected read stall.
    wake_at: Option<Instant>,
    /// The `retry.backoff` span of the backoff `wake_at` ends, which
    /// closes when it does.
    backoff: Option<OwnedSpan>,
    /// Whether `poll(2)` last reported the connection (readable,
    /// writable).
    ready: (bool, bool),
}

impl Peer {
    fn new(
        addr: SocketAddr,
        shared: &Arc<ClientShared>,
        router: &Arc<Router>,
        inbox: &Arc<Inbox>,
        anchor: Instant,
    ) -> Self {
        let config = &shared.config;
        Peer {
            addr,
            shared: Arc::clone(shared),
            router: Arc::clone(router),
            inbox: Arc::clone(inbox),
            queued: VecDeque::new(),
            conn: None,
            dialer: None,
            active: VecDeque::new(),
            outstanding: VecDeque::new(),
            next_key: 0,
            next_id: 0,
            attempts: 0,
            ever_connected: false,
            rng: DetRng::new(RETRY_SEED ^ addr_seed(&addr)),
            breaker: Breaker::new(
                config.breaker_threshold,
                config.breaker_cooldown.as_nanos() as u64,
            ),
            anchor,
            wake_at: None,
            backoff: None,
            ready: (false, false),
        }
    }

    /// Trace handle shared with the owning client config.
    fn trace(&self) -> &jbs_obs::Trace {
        &self.shared.config.trace
    }

    /// This peer's trace entity: the supplier, keyed by TCP port
    /// (loopback addresses differ only there).
    fn entity(&self) -> Entity {
        Entity::peer(u64::from(self.addr.port()))
    }

    /// Nanoseconds since the loop's monotonic anchor.
    fn now(&self) -> u64 {
        self.anchor.elapsed().as_nanos() as u64
    }

    /// Is a response due: a request outstanding, or a payload half read?
    fn awaiting(&self) -> bool {
        !self.outstanding.is_empty() || self.conn.as_ref().is_some_and(|c| c.frame.is_some())
    }

    /// When the connection times out, if a response is due on it.
    fn io_deadline(&self) -> Option<Instant> {
        let conn = self.conn.as_ref().filter(|_| self.awaiting())?;
        conn.last_io.checked_add(self.shared.config.io_timeout)
    }

    /// The deadline this peer waits on, if any.
    fn due(&self) -> Option<Instant> {
        self.wake_at.or_else(|| self.io_deadline())
    }

    /// The connection's fd and `poll(2)` interest, unless it awaits
    /// nothing or a deadline holds the peer: `POLLIN` while a response
    /// is due, `POLLOUT` while request bytes wait for room.
    fn interest(&self) -> Option<(RawFd, i16)> {
        let conn = self.conn.as_ref().filter(|_| self.wake_at.is_none())?;
        let mut events = 0;
        if self.awaiting() {
            events |= POLLIN;
        }
        if conn.wpos < conn.wbuf.len() {
            events |= POLLOUT;
        }
        (events != 0).then(|| (conn.stream.as_raw_fd(), events))
    }

    /// This peer's turn of the loop at `now`, after `poll(2)` reported
    /// `self.ready`: fire a due deadline, admit queued ops, then dial —
    /// or refill the window, write, and take response frames. Returns
    /// whether it left work that must not wait for readiness.
    fn turn(&mut self, now: Instant) -> bool {
        let (readable, writable) = std::mem::take(&mut self.ready);
        if let Some(at) = self.wake_at {
            if now < at {
                return false;
            }
            self.wake_at = None;
            self.backoff = None;
            if let Some(conn) = self.conn.as_mut() {
                conn.last_io = now;
            }
        }
        self.admit();
        let timed_out = self.io_deadline().is_some_and(|at| now >= at);
        let Some(conn) = self.conn.as_mut() else {
            if self.dialer.is_none() && !self.active.is_empty() {
                self.connect();
            }
            return false;
        };
        if readable || writable {
            conn.last_io = now;
        } else if timed_out {
            self.on_failure(TransportError::Timeout {
                during: "read response",
            });
            return self.wake_at.is_none();
        }
        match self.pump(readable) {
            Ok(more) => more,
            Err(e) => {
                self.on_failure(e);
                self.wake_at.is_none()
            }
        }
    }

    /// Move queued ops into the active set, up to the window.
    fn admit(&mut self) {
        let window = self.shared.config.window.max(1);
        while self.active.len() < window {
            let Some(op) = self.queued.pop_front() else {
                break;
            };
            self.shared.fetch_stats.record_op_dequeued();
            self.trace().instant(
                "sched.admit",
                self.entity(),
                op.seg.mof,
                u64::from(op.seg.reducer),
            );
            if self.conn.is_some() {
                // The pipelined analogue of a connection-cache hit: this
                // op rides the peer's live socket.
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
    }

    /// Dial the supplier, subject to the circuit breaker: an open one
    /// holds the peer until its probe time instead. The connect blocks,
    /// so it runs on a thread of its own, which hands the stream back
    /// through the mailbox.
    fn connect(&mut self) {
        match self.breaker.try_acquire(self.now()) {
            Admit::Yes => {}
            // This dial IS the half-open probe; its outcome reports
            // through the normal success/failure paths.
            Admit::Probe => self
                .trace()
                .instant("breaker.half_open", self.entity(), 0, 0),
            Admit::No { retry_at_nanos } => {
                self.wake_at = self
                    .anchor
                    .checked_add(Duration::from_nanos(retry_at_nanos));
                return;
            }
        }
        let (addr, shared, inbox) = (self.addr, Arc::clone(&self.shared), Arc::clone(&self.inbox));
        let spawned = std::thread::Builder::new()
            .name("jbs-dial".into())
            .spawn(move || {
                let config = &shared.config;
                let stream = match faults::decide(&config.faults, Hook::ClientConnect) {
                    FaultAction::RefuseConnect => Err(io::Error::new(
                        io::ErrorKind::ConnectionRefused,
                        "injected refusal",
                    )),
                    action => {
                        if let FaultAction::Stall(d) = action {
                            std::thread::sleep(d);
                        }
                        TcpStream::connect_timeout(&addr, config.io_timeout)
                    }
                };
                let dialed = stream
                    .and_then(|s| s.set_nodelay(true).and(s.set_nonblocking(true)).map(|()| s))
                    .map_err(|source| TransportError::Connect {
                        target: addr.to_string(),
                        source,
                    });
                // A closed mailbox (the loop is gone) drops the stream.
                if let Ok(true) = inbox.mail.push(Msg::Dialed(addr, dialed)) {
                    inbox.waker.wake();
                }
            });
        match spawned {
            Ok(dialer) => self.dialer = Some(dialer),
            Err(source) => self.on_failure(TransportError::Io {
                during: "dial",
                source,
            }),
        }
    }

    /// A dial thread's outcome arrived: adopt the stream, or count the
    /// failure.
    fn dialed(&mut self, dialed: Result<TcpStream>) {
        if let Some(dialer) = self.dialer.take() {
            // It has handed its outcome over and is exiting.
            let _ = dialer.join();
        }
        match dialed {
            Ok(stream) => {
                self.shared.fetch_stats.record_connection_established();
                if self.ever_connected {
                    self.shared.fetch_stats.record_reconnect();
                }
                self.ever_connected = true;
                self.conn = Some(Conn::new(stream));
            }
            Err(e) => self.on_failure(e),
        }
    }

    /// Top up the in-flight window round-robin across active ops and
    /// write, then take response frames if any are here. Returns whether
    /// a frame landed.
    fn pump(&mut self, readable: bool) -> Result<bool> {
        self.queue_requests()?;
        self.write_out()?;
        // Bytes the last turn left in the receive buffer are there
        // whatever poll says about the socket.
        let buffered = self
            .conn
            .as_ref()
            .is_some_and(|c| !c.recv.buffered().is_empty());
        if readable || buffered {
            return self.read_frames();
        }
        Ok(false)
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

    /// Put the encoded requests on the wire until the socket's send
    /// buffer fills; the rest goes once `poll(2)` reports room. A
    /// window's refill is at most `window` requests (360 B at the
    /// default window of 8): one write.
    fn write_out(&mut self) -> Result<()> {
        let Some(conn) = self.conn.as_mut() else {
            return Ok(());
        };
        while let Some(rest) = conn.wbuf.get(conn.wpos..).filter(|r| !r.is_empty()) {
            match (&conn.stream).write(rest) {
                Ok(0) => {
                    return Err(TransportError::Reset {
                        during: "write request",
                    })
                }
                Ok(n) => conn.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(TransportError::from_io("write request", e)),
            }
        }
        conn.wbuf.clear();
        conn.wpos = 0;
        Ok(())
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
        let idle = !self.awaiting();
        let Some(conn) = self.conn.as_mut() else {
            return Err(TransportError::Reset {
                during: "write request",
            });
        };
        if idle {
            // The io_timeout clock starts with the first request due.
            conn.last_io = Instant::now();
        }
        let request = FetchRequest {
            id,
            mof,
            reducer,
            offset,
            len,
            flags: if bypass { FLAG_BYPASS_CACHE } else { 0 },
        };
        conn.wbuf.extend_from_slice(&request.encode_v3());
        self.outstanding.push_back(Outstanding {
            id,
            key,
            offset,
            len,
        });
        self.shared.fetch_stats.record_window_send();
        self.trace()
            .instant("sched.send", self.entity(), offset, len);
        let peer = self.entity();
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

    /// Take one response frame, as far as the socket allows, and then
    /// every frame already whole in the receive buffer — they cost no
    /// syscall — down to half the window: the next turn refills the
    /// freed slots with one write while the supplier serves the other
    /// half, and the other peers get their turns. Returns whether a
    /// frame landed.
    fn read_frames(&mut self) -> Result<bool> {
        let keep = self.shared.config.window.max(1) / 2;
        let mut landed = false;
        while self.wake_at.is_none() && (!landed || self.frame_buffered(keep)) {
            if !self.next_frame()? {
                break;
            }
            landed = true;
        }
        Ok(landed)
    }

    /// Is a whole response frame already in the receive buffer, with
    /// more than `keep` requests outstanding?
    fn frame_buffered(&self, keep: usize) -> bool {
        let whole = |c: &Conn| wire::response_frame_len(c.recv.buffered()).is_some();
        self.outstanding.len() > keep && self.conn.as_ref().is_some_and(whole)
    }

    /// Take the frame at the head of the stream as far as the bytes
    /// already here allow: `Ok(true)` once it is whole and applied,
    /// `Ok(false)` if the socket ran dry first or no response is due.
    fn next_frame(&mut self) -> Result<bool> {
        let read_err = |e| TransportError::from_io("read response", e);
        let due = self.awaiting();
        let Some(conn) = self.conn.as_mut().filter(|_| due) else {
            return Ok(false);
        };
        if conn.frame.is_none() {
            let Some(head) = conn.recv.head(&conn.stream).map_err(read_err)? else {
                return Ok(false);
            };
            let frame = self.begin(head)?;
            if let Some(conn) = self.conn.as_mut() {
                conn.frame = Some(frame);
            }
        }
        let verify = self.shared.config.checksum;
        let Some(Conn {
            stream,
            recv,
            frame: Some(frame),
            scratch,
            ..
        }) = self.conn.as_mut().filter(|_| self.wake_at.is_none())
        else {
            return Ok(false);
        };
        let target = frame
            .into
            .and_then(|(key, start)| op_mut(&mut self.active, key).map(|a| (&mut a.buf, start)));
        let (buf, start) = target.unwrap_or((scratch, 0));
        let verified = match recv.payload(stream, &frame.head, buf, start, verify) {
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
            read => read.map_err(read_err)?,
        };
        scratch.clear();
        let Some(Frame { head, exp, .. }) = self.conn.as_mut().and_then(|c| c.frame.take()) else {
            return Ok(false);
        };
        self.land(exp, head, verified);
        Ok(true)
    }

    /// Match a decoded head to the head of the FIFO window, and choose
    /// where its payload goes. The `ClientReadResponse` fault hook is
    /// consulted here, once per frame: a stall holds the payload back.
    fn begin(&mut self, head: ResponseHead) -> Result<Frame> {
        match faults::decide(&self.shared.config.faults, Hook::ClientReadResponse) {
            FaultAction::Reset => {
                return Err(TransportError::Reset {
                    during: "read response (injected)",
                })
            }
            FaultAction::Stall(d) => self.wake_at = Instant::now().checked_add(d),
            _ => {}
        }
        let Some(exp) = self.outstanding.pop_front() else {
            return Err(TransportError::Corrupt {
                detail: "response frame with no outstanding request".into(),
            });
        };
        self.shared.fetch_stats.record_window_recv();
        self.trace()
            .instant("sched.recv", self.entity(), head.id, head.len as u64);
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
        // an op already completed) is read and verified in the scratch
        // buffer and dropped.
        let into = match op_mut(&mut self.active, exp.key) {
            Some(a) if head.status == Status::OkCrc && exp.offset == a.committed => {
                let declared = head.declared_remaining(exp.offset);
                let extent = if a.op.limit == 0 {
                    declared
                } else {
                    declared.min(a.op.limit)
                };
                wire::reserve_tail(&mut a.buf, head.len, extent);
                Some((exp.key, a.buf.len()))
            }
            _ => None,
        };
        Ok(Frame { head, exp, into })
    }

    /// Apply a whole frame answering `exp`, whose payload `verified`.
    fn land(&mut self, exp: Outstanding, head: ResponseHead, verified: bool) {
        // Any well-formed, correctly-matched response is progress: the
        // connection works, so the failure budget resets.
        self.attempts = 0;
        let now = self.now();
        if self.breaker.on_success(now) == Transition::Closed {
            self.trace().instant("breaker.close", self.entity(), 0, 0);
        }
        match head.status {
            Status::OkCrc => {
                if !verified {
                    return self.on_bad_payload(exp);
                }
                if self.shared.config.checksum {
                    self.trace().instant(
                        "integrity.verify",
                        self.entity(),
                        exp.offset,
                        head.len as u64,
                    );
                }
                if let Some(a) = op_mut(&mut self.active, exp.key) {
                    a.expected = Some(head.seg_len);
                }
                self.apply_payload(exp, head.len, head.seg_len);
            }
            Status::Busy => self.on_busy(exp, head.retry_after_ms),
            Status::NotFound => {
                let what = self.describe(exp.key);
                self.complete(exp.key, Err(TransportError::NotFound { what }));
            }
            Status::BadRequest => {
                let detail = format!("supplier rejected fetch of {}", self.describe(exp.key));
                self.complete(exp.key, Err(TransportError::BadRequest { detail }));
            }
        }
    }
    /// A pipelined payload failed its CRC32C. If it targeted the
    /// committed offset of a live op, aim a targeted cache-bypass
    /// re-fetch there (bounded by the integrity budget); a stale
    /// speculative frame is discarded like any other.
    fn on_bad_payload(&mut self, exp: Outstanding) {
        let committed = op_mut(&mut self.active, exp.key).map(|a| a.committed);
        if committed != Some(exp.offset) {
            self.discard(exp.offset, 0);
        } else if !self.refetch(exp.key, exp.len) {
            let detail = format!(
                "pipelined chunk at offset {} failed CRC32C verification after targeted re-fetches",
                exp.offset
            );
            self.complete(exp.key, Err(TransportError::Corrupt { detail }));
        }
    }

    /// Spend one of op `key`'s targeted re-fetches: its next request, at
    /// its committed offset, asks the supplier to bypass its (possibly
    /// poisoned) cache. `false` once the budget is spent.
    fn refetch(&mut self, key: u64, b: u64) -> bool {
        let Some(a) = op_mut(&mut self.active, key).filter(|a| a.refetch_budget > 0) else {
            return false;
        };
        a.refetch_budget -= 1;
        a.bypass_next = true;
        a.spec = a.committed;
        let committed = a.committed;
        self.shared.fetch_stats.record_corrupt_refetch();
        self.trace()
            .instant("integrity.refetch", self.entity(), committed, b);
        true
    }

    /// Drop a response that continues no op: stale speculation.
    fn discard(&self, offset: u64, committed: u64) {
        self.shared.fetch_stats.record_spec_discard();
        self.trace()
            .instant("sched.spec_discard", self.entity(), offset, committed);
    }

    /// The supplier shed this request under admission control: honor
    /// the retry-after hint before injecting more requests, and re-aim
    /// the op so the denied chunk is re-requested.
    fn on_busy(&mut self, exp: Outstanding, retry_after_ms: u64) {
        self.shared.fetch_stats.record_busy_backoff();
        self.trace()
            .instant("sched.busy", self.entity(), exp.offset, retry_after_ms);
        if let Some(a) = op_mut(&mut self.active, exp.key) {
            a.spec = a.committed;
        }
        self.wake_at = Instant::now().checked_add(Duration::from_millis(retry_after_ms.min(1_000)));
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
    /// (`next_frame` put it there); if it did not, it is gone.
    fn apply_payload(&mut self, exp: Outstanding, len: usize, end: u64) {
        let Some(a) = op_mut(&mut self.active, exp.key) else {
            // The op already completed (or failed); this was a
            // speculative request past its end.
            return self.discard(exp.offset, 0);
        };
        let committed = a.committed;
        if exp.offset != committed {
            // Stale speculation: a short read moved the committed offset
            // below where this request was aimed.
            return self.discard(exp.offset, committed);
        }
        if len == 0 && committed < end {
            // Empty at exactly the committed offset while the declared
            // length says bytes are still owed: a "clean EOF" that is a
            // truncation lie landing exactly on a chunk boundary (a
            // levitated stream would otherwise terminate early and
            // silently lose records).
            if !self.refetch(exp.key, end) {
                let truncated = TransportError::Truncated {
                    got: committed,
                    expected: end,
                };
                self.complete(exp.key, Err(truncated));
            }
            return;
        }
        self.shared.fetch_stats.record_bytes_fetched(len as u64);
        a.committed = committed.saturating_add(len as u64);
        a.refetch_budget = self.shared.config.integrity_retries;
        if a.op.limit > 0 || a.committed >= end {
            // A single-exchange chunk's payload (possibly short or empty
            // at segment end) IS the result; a whole-segment op ends at
            // the declared length.
            let buf = std::mem::take(&mut a.buf);
            return self.complete(exp.key, Ok(buf));
        }
        if (len as u64) < exp.len {
            // Short read: outstanding speculation beyond this point is
            // aimed wrong; re-aim the next request at the new committed
            // offset and let the stale responses be discarded above.
            a.spec = a.committed;
        }
    }

    /// Retire one op from the active set and deliver its result. A
    /// failure on a peer that is unhealthy or breaker-open is the
    /// reactive failover instead: [`route`] re-aims the op at a replica,
    /// and it goes back through the mailbox to be queued there at its
    /// own offset.
    fn complete(&mut self, key: u64, result: Result<Vec<u8>>) {
        let at = self.active.iter().position(|a| a.key == key);
        let Some(mut a) = at.and_then(|at| self.active.remove(at)) else {
            return;
        };
        if result.is_err() && route(&self.shared, &mut a.op, self.breaker.is_open(self.now())) {
            return self.router.submit(vec![a.op]);
        }
        finish(a.op, result);
    }

    /// A connection-level failure: drain the window, rewind every active
    /// op to its committed offset (resume), and either back off for a
    /// retry or fail everything with exhausted context.
    fn on_failure(&mut self, e: TransportError) {
        record_failure(&self.shared.fetch_stats, &e);
        let now = self.now();
        if self.breaker.on_failure(now) == Transition::Opened {
            self.trace().instant(
                "breaker.open",
                self.entity(),
                u64::from(self.attempts + 1),
                0,
            );
        }
        self.conn = None;
        let drained = self.outstanding.len() as u64;
        self.outstanding.clear();
        self.shared.fetch_stats.record_window_drained(drained);
        for a in &mut self.active {
            // A payload cut off mid-frame is taken back out.
            a.buf.truncate((a.committed - a.op.offset) as usize);
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
            self.backoff = Some(self.trace().span_owned(
                "retry.backoff",
                self.entity(),
                u64::from(self.attempts),
                delay.as_nanos() as u64,
            ));
            self.wake_at = Instant::now().checked_add(delay);
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

    /// The loop is stopping: fail every op still here, and wait out a
    /// dial in progress.
    fn shut_down(&mut self) {
        for op in self.queued.drain(..) {
            self.shared.fetch_stats.record_op_dequeued();
            finish(op, Err(shutdown_error()));
        }
        self.fail_all_active(&shutdown_error());
        if let Some(dialer) = self.dialer.take() {
            let _ = dialer.join();
        }
    }
}

/// The active op with peer-local `key`: a scan of at most `window`
/// ops.
fn op_mut(active: &mut VecDeque<ActiveOp>, key: u64) -> Option<&mut ActiveOp> {
    active.iter_mut().find(|a| a.key == key)
}

/// Bounded model checks of the submit path into the client loop's
/// mailbox. Build and run with
/// `RUSTFLAGS="--cfg loom" cargo test -p jbs-transport --lib loom_`.
#[cfg(all(test, loom))]
mod loom_tests {
    use super::*;

    /// A push and then a two-item batch push racing the loop taking its
    /// mail and the shutdown close: in every interleaving each item
    /// surfaces exactly once — taken by the loop, drained by close, or
    /// refused back to the pusher — never twice, never lost, and a batch
    /// lands whole and in order. This is the invariant that makes "every
    /// accepted op completes exactly once" hold across shutdown.
    #[test]
    fn loom_push_races_close_exactly_once() {
        loom::model(|| {
            let q = Arc::new(Mailbox::new());
            let q2 = Arc::clone(&q);
            let h = loom::thread::spawn(move || {
                let mut refused: Vec<u32> = q2.push(7u32).err().into_iter().collect();
                refused.extend(q2.push_all(vec![8u32, 9]).err().unwrap_or_default());
                refused
            });
            let taken = q.drain();
            let drained = q.close();
            let refused = match h.join() {
                Ok(r) => r,
                Err(_) => panic!("pusher panicked"),
            };
            let parts = [&taken, &drained, &refused];
            let mut surfaced: Vec<u32> = parts.into_iter().flatten().copied().collect();
            surfaced.sort_unstable();
            assert_eq!(surfaced, [7, 8, 9], "every item must surface exactly once");
            for part in parts {
                match part.iter().position(|&x| x == 8) {
                    Some(i) => assert_eq!(part.get(i + 1), Some(&9), "batch split: {part:?}"),
                    None => assert!(!part.contains(&9), "batch split: {part:?}"),
                }
            }
            // After close the mailbox stays terminal.
            assert!(q.is_closed() && q.drain().is_empty());
            assert!(q.push(10u32).is_err());
            assert!(q.push_all(vec![11u32]).is_err());
        });
    }

    /// A submit races the loop taking its mail and admitting (un-counting)
    /// the op. In every interleaving the op is counted before the loop
    /// can take it, so the gauge never dips below zero on the way back
    /// to rest.
    #[test]
    fn loom_submit_counts_before_the_worker_can_admit() {
        loom::model(|| {
            let q = Arc::new(Mailbox::new());
            let stats = Arc::new(FetchStats::default());
            let (q2, s2) = (Arc::clone(&q), Arc::clone(&stats));
            let h = loom::thread::spawn(move || push_counted(&q2, &s2, vec![7u32]).is_ok());
            for _ in q.drain() {
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
    fn addr_seed_is_stable_and_distinguishes_peers() {
        let a: SocketAddr = "127.0.0.1:7000".parse().expect("addr");
        let b: SocketAddr = "127.0.0.1:7001".parse().expect("addr");
        assert_eq!(addr_seed(&a), addr_seed(&a));
        assert_ne!(addr_seed(&a), addr_seed(&b));
    }

    /// The client loop stepped by hand on the test's own thread, with
    /// one peer, so its segment buffers can be inspected between any two
    /// frames: whatever the last frame was — verified, corrupt, stale, or
    /// cut off mid-payload — each buffer must hold exactly its op's
    /// committed bytes.
    struct Rig {
        client_loop: ClientLoop,
        addr: SocketAddr,
        shared: Arc<ClientShared>,
        done_tx: mpsc::Sender<FetchDone>,
        done_rx: mpsc::Receiver<FetchDone>,
    }

    impl Rig {
        fn new(addr: SocketAddr, config: ClientConfig) -> Rig {
            let shared = Arc::new(ClientShared {
                fetch_stats: FetchStats::new(),
                config,
            });
            let inbox = Arc::new(Inbox {
                mail: Mailbox::new(),
                waker: Waker::new().expect("waker"),
            });
            let router = Arc::new(Router {
                shared: Arc::clone(&shared),
                cores: 1,
                loops: Mutex::new(Loops::default()),
            });
            let client_loop = ClientLoop::new(router, inbox);
            let (done_tx, done_rx) = mpsc::channel();
            Rig {
                client_loop,
                addr,
                shared,
                done_tx,
                done_rx,
            }
        }

        /// The rig's one peer, there once an op was dispatched to it.
        fn peer(&self) -> &Peer {
            self.client_loop.peers.get(&self.addr).expect("peer state")
        }

        /// Submit whole-segment fetches of `reducers` of MOF 0 from the
        /// rig's peer, all before its next step.
        fn queue(&mut self, reducers: std::ops::Range<u32>) {
            for reducer in reducers {
                let op = FetchOp {
                    token: u64::from(reducer),
                    seg: SegmentRef {
                        addr: self.addr,
                        mof: 0,
                        reducer,
                    },
                    offset: 0,
                    limit: 0,
                    done: self.done_tx.clone(),
                    tried: Vec::new(),
                };
                let inbox = &self.client_loop.inbox;
                let pushed = push_counted(&inbox.mail, &self.shared.fetch_stats, vec![Msg::Op(op)]);
                assert!(pushed.is_ok());
                inbox.waker.wake();
            }
        }

        /// Run the loop until the peer has taken at least one response
        /// off its window — landed, or drained by a failure — and holds
        /// no half-read payload, or until it has nothing left to do.
        fn step(&mut self) {
            let taken = |p: &Peer| p.next_id - p.outstanding.len() as u64;
            let peers = &self.client_loop.peers;
            let before = peers.get(&self.addr).map_or(0, taken);
            loop {
                assert!(self.client_loop.iterate(), "loop shut down mid-fetch");
                let Some(p) = self.client_loop.peers.get(&self.addr) else {
                    continue;
                };
                let between = p.conn.as_ref().is_none_or(|c| c.frame.is_none());
                let idle = p.queued.is_empty() && p.active.is_empty() && p.outstanding.is_empty();
                if between && (taken(p) > before || idle) {
                    return;
                }
            }
        }

        /// Step the loop until every queued op completed and the
        /// speculation left on the wire drained, checking the buffer
        /// invariant after every step. The results, by reducer.
        fn drain(&mut self) -> Vec<Result<Vec<u8>>> {
            let mut results = Vec::new();
            loop {
                self.step();
                let p = self.peer();
                for a in &p.active {
                    assert_eq!(
                        a.buf.len() as u64,
                        a.committed - a.op.offset,
                        "buffer holds exactly the committed bytes"
                    );
                    assert!(a.buf.capacity() <= 2 * wire::RESERVE_STEP);
                }
                results.extend(self.done_rx.try_iter().map(|d| (d.token, d.result)));
                if p.active.is_empty() && p.outstanding.is_empty() && p.queued.is_empty() {
                    break;
                }
            }
            results.sort_by_key(|(token, _)| *token);
            results.into_iter().map(|(_, r)| r).collect()
        }

        /// Fetch the whole of reducer 0 of MOF 0 from the rig's peer.
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
        rig.step();
        let fs = rig.shared.fetch_stats.snapshot();
        assert_eq!(fs.window_peak, 8, "{fs:?}");
        let half = rig.shared.config.window / 2;
        assert!(rig.peer().outstanding.len() >= half, "{fs:?}");
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
        rig.step();
        // The loop sends nothing until its next step, so the supplier
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
