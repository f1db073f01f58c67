//! The event-driven supplier serve loop: nonblocking sockets, a
//! `poll(2)` readiness set, and zero-copy vectored transmits straight
//! out of the DataCache slab. It is the supplier's only serve loop —
//! no kernel thread per connection, no memcpy per served MOF chunk:
//!
//! * **one reactor thread** (or a few — [`crate::server::ServerOptions::
//!   reactor_threads`]) owns every accepted connection as a small state
//!   machine: read-buffer framing, a per-request sequence number, and a
//!   FIFO of outgoing responses with a byte cursor for partial-write
//!   resumption. A connection refused admission lives here too, for at
//!   most [`UNADMITTED_DEADLINE`]: its first request is shed;
//! * **every request is a bounded range**: 1 to `buffer_bytes` bytes
//!   (longer is served short; `len == 0` is a `BadRequest`), so no
//!   request reads, copies or frames more than one transport buffer;
//! * **zero-copy serving**: a DataCache hit clones the staged range's
//!   refcounted [`Lease`] ([`crate::staging::StageCache::hit_lease`])
//!   and transmits `head + lease[window]` with a single vectored
//!   syscall — the payload bytes are never copied between the slab and
//!   the socket, and the lease pins the buffer for exactly as long as
//!   partial writes keep it in flight;
//! * **memory-tier hits inline**: a range the attached hybrid store
//!   holds wholly in its MEMORY tier is copied out under the store's
//!   lock ([`jbs_store_hybrid::HybridStore::read_memory_range`], no
//!   I/O) and framed here, like a DataCache hit — no worker, no
//!   completion, no wake;
//! * **no blocking in the loop**: every disk, index, or durable-tier
//!   (LOCALFILE/REMOTE) touch is shipped to the permit-bounded
//!   disk-worker pool through the grouped prefetch queue (Fig. 5
//!   discipline) as one of two [`JobKind`]s — `Stage` for a DataCache
//!   miss, `Read` for everything served without the DataCache — and
//!   the worker's one read path decides which tier answers. The
//!   finished frame comes back through a
//!   [`CompletionQueue`] plus a [`Waker`] byte. The reactor itself only
//!   ever does nonblocking socket I/O and short lock-only touches — a
//!   rule `cargo xtask analyze` enforces (`nonblocking_context`): no
//!   blocking primitive may be *reachable* from this file at all.
//!
//! Responses go out strictly in request order per connection (the wire
//! contract): completions arriving out of order — the disk workers
//! round-robin across MOF groups — park in a per-connection
//! `BTreeMap` until their predecessors are written.
//!
//! Fault injection has event-loop semantics: a `Stall` becomes a
//! transmit deadline (the loop never sleeps), `Reset` drops the
//! connection, `Truncate` halves the frame and closes after the flush,
//! `Corrupt` flips the length header — all decided once per response at
//! [`Hook::ServerWriteResponse`].

use crate::bufpool::Lease;
use crate::faults::{self, FaultAction, Hook};
use crate::poll::{sys_poll, PollFd, Waker, POLLIN, POLLOUT};
use crate::prefetch::{Reply, StageJob};
use crate::server::{release, Shared};
use crate::sync::{lock, Mutex};
use crate::wire::{
    self, FetchRequest, Status, WireVersion, REQUEST_LEN, REQUEST_LEN_V3, REQUEST_MAGIC,
    REQUEST_MAGIC_V3,
};
use jbs_obs::{Entity, OwnedSpan};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{IpAddr, TcpStream};
use std::ops::Range;
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cap on IoSlice entries per vectored write (2 per response). Linux's
/// `UIO_MAXIOV` is 1024; staying far below it keeps one syscall's work
/// bounded without a second code path.
const MAX_BATCH_RESPONSES: usize = 32;

/// Upper bound on buffered unparsed request bytes per connection; a
/// peer that streams garbage without ever framing a request is cut off
/// rather than ballooning the read buffer.
const MAX_RBUF: usize = 64 << 10;

/// How long a connection refused admission may stay open: enough for
/// its first request to arrive and be answered with pushback. One that
/// sends nothing is closed at this deadline.
const UNADMITTED_DEADLINE: Duration = Duration::from_millis(500);

/// Admission: a request that would push the disk workers' stage queue
/// to this depth is shed rather than queued behind a backlog the disk
/// cannot clear — pushback instead of an unbounded stall.
const PREFETCH_QUEUE_CAP: usize = 4096;

/// Retry-after hint, in milliseconds, carried in `Busy` pushback frames.
pub(crate) const BUSY_RETRY_HINT_MS: u64 = 25;

// ---------------------------------------------------------------------
// Outgoing responses
// ---------------------------------------------------------------------

/// One response staged for transmission: an encoded head and a payload
/// *window* over a refcounted lease. For DataCache hits the lease is a
/// clone of the staged range itself — transmitting never copies the
/// payload. `cursor` tracks bytes already written across partial
/// writes.
pub(crate) struct OutResp {
    status: Status,
    /// MOF/offset of the originating request, for trace entities.
    mof: u64,
    offset: u64,
    head: [u8; wire::RESPONSE_HEADER_LEN + wire::CRC_EXT_LEN],
    head_len: usize,
    payload: Lease,
    range: Range<usize>,
    cursor: usize,
    /// Whether the write-fault decision was drawn and the xmit span
    /// opened (once per response, at first transmit attempt).
    started: bool,
    /// Truncate fault: close the connection once this frame's
    /// (shortened) bytes are flushed.
    close_after: bool,
    span: Option<OwnedSpan>,
}

impl std::fmt::Debug for OutResp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OutResp")
            .field("status", &self.status)
            .field("mof", &self.mof)
            .field("offset", &self.offset)
            .field("len", &self.range.len())
            .field("cursor", &self.cursor)
            .finish()
    }
}

impl OutResp {
    fn total_len(&self) -> usize {
        self.head_len + self.range.len()
    }

    fn remaining(&self) -> usize {
        self.total_len().saturating_sub(self.cursor)
    }
}

/// Where a response's payload came from, which decides how the copy
/// meter counts it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Source {
    /// The attached hybrid store's tiers, which copy the range out into
    /// the response's own buffer: a hybrid hit, and copied bytes.
    Hybrid,
    /// The MOF, through the DataCache or a disk worker's own read: the
    /// lease is transmitted as is, so zero-copy bytes.
    Mof,
}

/// Build a served-bytes response in the request's dialect, counting its
/// payload by [`Source`] and applying the post-checksum payload faults:
/// the CRC is computed *before* a `CorruptPayload` flip (only end-to-end
/// verification can catch the damage), and `CleanEof` rewrites the
/// frame to a clean empty chunk.
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_ok(
    shared: &Shared,
    id: u64,
    version: WireVersion,
    seg_len: Option<u64>,
    source: Source,
    lease: Lease,
    range: Range<usize>,
    mof: u64,
    offset: u64,
) -> OutResp {
    let served = range.len() as u64;
    let meter = match source {
        Source::Hybrid => {
            shared.stats.hybrid_hits.fetch_add(1, Ordering::Relaxed);
            shared
                .options
                .trace
                .instant("hybrid.hit", Entity::mof(mof), offset, served);
            &shared.stats.copied_bytes
        }
        Source::Mof => &shared.stats.zerocopy_bytes,
    };
    meter.fetch_add(served, Ordering::Relaxed);
    let (status, mut crc_seg) = {
        let window = lease.as_slice().get(range.clone()).unwrap_or_default();
        match (version, seg_len) {
            (WireVersion::V2, _) | (WireVersion::V3, None) => (Status::Ok, None),
            (WireVersion::V3, Some(sl)) => {
                shared.options.trace.instant(
                    "integrity.seal",
                    Entity::mof(mof),
                    offset,
                    window.len() as u64,
                );
                (Status::OkCrc, Some((jbs_checksum::crc32c(window), sl)))
            }
        }
    };
    let mut lease = lease;
    let mut range = range;
    if !range.is_empty() {
        match faults::decide(&shared.options.faults, Hook::ServerPayload) {
            FaultAction::CorruptPayload => {
                // Copy-out so the shared staged bytes stay pristine;
                // the flip damages only this frame.
                let mut owned = lease
                    .as_slice()
                    .get(range.clone())
                    .unwrap_or_default()
                    .to_vec();
                if let Some(b) = owned.first_mut() {
                    *b ^= 0x01;
                }
                shared
                    .stats
                    .copied_bytes
                    .fetch_add(owned.len() as u64, Ordering::Relaxed);
                range = 0..owned.len();
                lease = Lease::detached(owned);
            }
            FaultAction::CleanEof => {
                // Pretend the segment cleanly ended before this chunk.
                if let Some((crc, _)) = crc_seg.as_mut() {
                    *crc = jbs_checksum::crc32c(&[]);
                }
                range = 0..0;
                lease = Lease::detached(Vec::new());
            }
            _ => {}
        }
    }
    let (head, head_len) = wire::encode_head_parts(status, id, range.len() as u64, crc_seg);
    OutResp {
        status,
        mof,
        offset,
        head,
        head_len,
        payload: lease,
        range,
        cursor: 0,
        started: false,
        close_after: false,
        span: None,
    }
}

/// An error response (no payload).
pub(crate) fn build_error(id: u64, status: Status, mof: u64, offset: u64) -> OutResp {
    let (head, head_len) = wire::encode_head_parts(status, id, 0, None);
    OutResp {
        status,
        mof,
        offset,
        head,
        head_len,
        payload: Lease::detached(Vec::new()),
        range: 0..0,
        cursor: 0,
        started: false,
        close_after: false,
        span: None,
    }
}

/// A `Busy` pushback frame (v3): the len field carries the retry hint.
fn build_busy(id: u64, retry_after_ms: u64, mof: u64, offset: u64) -> OutResp {
    let (head, head_len) =
        wire::encode_head_parts(Status::Busy, id, retry_after_ms.min(60_000), None);
    OutResp {
        status: Status::Busy,
        mof,
        offset,
        head,
        head_len,
        payload: Lease::detached(Vec::new()),
        range: 0..0,
        cursor: 0,
        started: false,
        close_after: false,
        span: None,
    }
}

// ---------------------------------------------------------------------
// Disk-thread completions
// ---------------------------------------------------------------------

/// A finished disk-thread job headed back to its reactor.
pub(crate) struct Completion {
    pub(crate) slot: usize,
    pub(crate) gen: u64,
    pub(crate) seq: u64,
    /// `(mof, reducer)` for Stage jobs: the reactor uses it to retire
    /// the connection's in-flight stage count and re-evaluate requests
    /// parked behind this staging (see [`Conn::parked`]).
    pub(crate) key: Option<(u64, u32)>,
    pub(crate) resp: OutResp,
}

/// The disk-thread → reactor handoff: a closable mailbox. `close`
/// drains and marks closed so a post-shutdown push is refused — the
/// rejected completion's lease drops on the pushing side and the buffer
/// is freed, never leaks (the `loom_` model below pins this down).
pub(crate) struct CompletionQueue {
    inner: Mutex<CqInner>,
}

struct CqInner {
    items: Vec<Completion>,
    closed: bool,
}

impl CompletionQueue {
    pub(crate) fn new() -> Self {
        CompletionQueue {
            inner: Mutex::new(CqInner {
                items: Vec::new(),
                closed: false,
            }),
        }
    }

    /// Deliver one completion. `Err` hands the completion back because
    /// the queue already closed; the caller must release its lease —
    /// returning the value (not a boxed copy) is the point, so the
    /// large-`Err` clippy lint is waived here.
    #[allow(clippy::result_large_err)]
    pub(crate) fn push(&self, c: Completion) -> Result<(), Completion> {
        let mut q = lock(&self.inner);
        if q.closed {
            return Err(c);
        }
        q.items.push(c);
        Ok(())
    }

    /// Take everything currently queued.
    pub(crate) fn drain(&self) -> Vec<Completion> {
        std::mem::take(&mut lock(&self.inner).items)
    }

    /// Drain and refuse all future pushes.
    pub(crate) fn close(&self) -> Vec<Completion> {
        let mut q = lock(&self.inner);
        q.closed = true;
        std::mem::take(&mut q.items)
    }
}

/// Everything the disk thread needs to finish a reactor-dispatched
/// request: what to do ([`JobKind`]), how to frame it (id + dialect),
/// and where to deliver the frame (queue, waker, generation-tagged
/// connection slot, in-order sequence number).
pub(crate) struct JobTicket {
    pub(crate) cq: Arc<CompletionQueue>,
    pub(crate) waker: Arc<Waker>,
    pub(crate) slot: usize,
    pub(crate) gen: u64,
    pub(crate) seq: u64,
    pub(crate) id: u64,
    pub(crate) version: WireVersion,
    pub(crate) kind: JobKind,
    /// Bytes to serve back: the request's range, already capped at
    /// `buffer_bytes` and never 0.
    pub(crate) want: u64,
    /// `(mof, reducer)` when `kind` is [`JobKind::Stage`]; carried back
    /// in the completion so the reactor can unpark requests waiting on
    /// this staging.
    pub(crate) stage_key: Option<(u64, u32)>,
}

/// What the disk thread does for a reactor job. Both kinds read through
/// the worker's one read path, which decides the tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JobKind {
    /// A DataCache miss: read one read-ahead batch, stage it when it
    /// came from the MOF, and serve the request's window from it.
    Stage,
    /// A read served without the DataCache: a hybrid range touching a
    /// durable tier, or a cache-bypass re-fetch.
    Read,
}

impl JobTicket {
    /// Deliver `resp` to the owning reactor and wake its poll loop. A
    /// closed queue (reactor shut down) just drops the frame — the
    /// payload lease is released on this thread.
    pub(crate) fn deliver(self, resp: OutResp) {
        let c = Completion {
            slot: self.slot,
            gen: self.gen,
            seq: self.seq,
            key: self.stage_key,
            resp,
        };
        if self.cq.push(c).is_ok() {
            self.waker.wake();
        }
    }
}

// ---------------------------------------------------------------------
// The reactor
// ---------------------------------------------------------------------

/// A connection handed over by the accept thread.
pub(crate) struct NewConn {
    pub(crate) stream: TcpStream,
    pub(crate) peer_ip: Option<IpAddr>,
    pub(crate) conn_no: u64,
    /// Holds an admission slot. An unadmitted connection is only ever
    /// answered with pushback, and takes or releases no slot.
    pub(crate) admitted: bool,
}

/// The accept thread's handle to one reactor: an inbox of accepted
/// sockets plus the waker that interrupts the poll loop, and the
/// completion queue the disk thread delivers into.
pub(crate) struct ReactorHandle {
    /// Reactor index, for trace labeling.
    pub(crate) idx: u64,
    pub(crate) waker: Arc<Waker>,
    inbox: Mutex<Vec<NewConn>>,
    pub(crate) completions: Arc<CompletionQueue>,
}

impl ReactorHandle {
    pub(crate) fn new(idx: u64) -> io::Result<Arc<Self>> {
        Ok(Arc::new(ReactorHandle {
            idx,
            waker: Arc::new(Waker::new()?),
            inbox: Mutex::new(Vec::new()),
            completions: Arc::new(CompletionQueue::new()),
        }))
    }

    /// Hand an accepted connection to this reactor (accept thread).
    pub(crate) fn submit(&self, conn: NewConn) {
        lock(&self.inbox).push(conn);
        self.waker.wake();
    }

    fn take_inbox(&self) -> Vec<NewConn> {
        std::mem::take(&mut lock(&self.inbox))
    }
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    peer_ip: Option<IpAddr>,
    conn_no: u64,
    gen: u64,
    /// Unparsed request bytes.
    rbuf: Vec<u8>,
    /// Next sequence number to assign to an accepted request.
    next_seq: u64,
    /// Next sequence number to move into the write queue.
    next_send: u64,
    /// Finished responses waiting for their predecessors (the disk
    /// thread completes out of order across MOF groups).
    pending: BTreeMap<u64, OutResp>,
    /// In-order responses being written.
    outq: VecDeque<OutResp>,
    /// Disk jobs dispatched, completion not yet delivered.
    inflight: u64,
    /// In-flight Stage jobs per `(mof, reducer)`. A request that misses
    /// while a stage for its key is already in flight parks instead of
    /// dispatching — the staging that is about to finish almost always
    /// covers it, and round-tripping it through the disk queue would
    /// serialize a cheap cache hit behind other groups' disk reads.
    stage_inflight: HashMap<(u64, u32), u32>,
    /// Requests parked behind an in-flight staging, with their assigned
    /// response sequence numbers. Re-evaluated (serve from cache, or
    /// dispatch if genuinely past the staged range) when a completion
    /// for their key arrives.
    parked: VecDeque<Parked>,
    /// Injected stall: no transmit until this deadline.
    stall_until: Option<Instant>,
    /// Refused admission: every request is shed, and the connection is
    /// closed at this deadline at the latest. `None` once admitted.
    unadmitted_until: Option<Instant>,
    /// Read half done (peer EOF, v2 pushback, or drain).
    eof: bool,
    /// A fault or protocol decision closed the write half; drop the
    /// connection once already-queued bytes are flushed.
    close_when_flushed: bool,
}

/// A request waiting for an in-flight staging of its key to finish.
struct Parked {
    req: FetchRequest,
    version: WireVersion,
    /// Sequence number reserved at parse time, so the response slots
    /// into the connection's in-order stream wherever it resolves.
    seq: u64,
}

enum ConnEvent {
    /// Keep serving.
    Continue,
    /// Close cleanly (no error counted): EOF, drain, injected fault.
    Close,
}

/// Run one reactor until the supplier stops. Owns its connections
/// exclusively; everything shared sits behind `Shared`'s own locks.
pub(crate) fn run(shared: &Arc<Shared>, handle: &Arc<ReactorHandle>) {
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut next_gen: u64 = 0;
    let mut scratch = vec![0u8; 64 << 10];
    let mut fds: Vec<PollFd> = Vec::new();
    let mut slots: Vec<usize> = Vec::new();
    while !shared.stop.load(Ordering::Acquire) {
        let draining = shared.draining.load(Ordering::Acquire);
        fds.clear();
        slots.clear();
        fds.push(PollFd::new(handle.waker.fd(), POLLIN));
        let now = Instant::now();
        // Bounded timeout so stop/drain flags are observed promptly
        // even with no traffic.
        let mut timeout_ms: i32 = 100;
        for (slot, c) in conns.iter_mut().enumerate() {
            let Some(conn) = c.as_mut() else { continue };
            if conn.stall_until.is_some_and(|t| t <= now) {
                conn.stall_until = None;
            }
            for t in conn.stall_until.iter().chain(&conn.unadmitted_until) {
                let ms = t.saturating_duration_since(now).as_millis() as i32;
                timeout_ms = timeout_ms.min(ms.max(1));
            }
            let mut interest = 0i16;
            if !conn.eof && !draining {
                interest |= POLLIN;
            }
            if conn.stall_until.is_none() && !conn.outq.is_empty() {
                interest |= POLLOUT;
            }
            if interest != 0 {
                fds.push(PollFd::new(conn.stream.as_raw_fd(), interest));
                slots.push(slot);
            }
        }
        if sys_poll(&mut fds, timeout_ms).is_err() {
            // poll(2) failing (EBADF after a lost socket, ENOMEM) is not
            // recoverable from inside the loop; drop everything.
            break;
        }
        if fds.first().is_some_and(|w| w.readable()) {
            handle.waker.drain();
            shared.stats.reactor_wakes.fetch_add(1, Ordering::Relaxed);
            shared
                .options
                .trace
                .instant("reactor.wake", Entity::node(handle.idx), 0, 0);
        }

        // Phase 1: adopt accepted connections.
        for nc in handle.take_inbox() {
            let ok = nc.stream.set_nonblocking(true).is_ok() && nc.stream.set_nodelay(true).is_ok();
            if !ok {
                if nc.admitted {
                    release(shared, nc.peer_ip);
                }
                continue;
            }
            next_gen += 1;
            let adopted = Some(Conn {
                stream: nc.stream,
                peer_ip: nc.peer_ip,
                conn_no: nc.conn_no,
                gen: next_gen,
                rbuf: Vec::new(),
                next_seq: 0,
                next_send: 0,
                pending: BTreeMap::new(),
                outq: VecDeque::new(),
                inflight: 0,
                stage_inflight: HashMap::new(),
                parked: VecDeque::new(),
                stall_until: None,
                unadmitted_until: (!nc.admitted).then(|| Instant::now() + UNADMITTED_DEADLINE),
                eof: false,
                close_when_flushed: false,
            });
            match conns.iter_mut().find(|c| c.is_none()) {
                Some(free) => *free = adopted,
                None => conns.push(adopted),
            }
        }

        // Phase 2: disk-thread completions → per-connection reorder
        // buffers. A stale generation means the slot was reused; the
        // orphaned response just drops (releasing its lease).
        for c in handle.completions.drain() {
            let Some(conn) = conns.get_mut(c.slot).and_then(Option::as_mut) else {
                continue;
            };
            if conn.gen != c.gen {
                continue;
            }
            conn.inflight = conn.inflight.saturating_sub(1);
            if let Some(k) = c.key {
                if let Some(n) = conn.stage_inflight.get_mut(&k) {
                    *n = n.saturating_sub(1);
                    if *n == 0 {
                        conn.stage_inflight.remove(&k);
                    }
                }
            }
            conn.pending.insert(c.seq, c.resp);
            promote(shared, conn);
            if let Some(k) = c.key {
                unpark(shared, handle, conn, c.slot, k);
            }
        }

        // Phase 3: socket readiness — reads first (may queue responses),
        // then transmit for every connection with queued output.
        for (i, fd) in fds.iter().enumerate().skip(1) {
            let Some(&slot) = slots.get(i - 1) else { break };
            if !fd.readable() {
                continue;
            }
            let Some(conn) = conns.get_mut(slot).and_then(Option::as_mut) else {
                continue;
            };
            match handle_read(shared, handle, conn, slot, &mut scratch) {
                Ok(ConnEvent::Continue) => {}
                Ok(ConnEvent::Close) => close_conn(shared, &mut conns, slot),
                Err(_) => {
                    shared.fetch_stats.record_reset();
                    close_conn(shared, &mut conns, slot);
                }
            }
        }
        for slot in 0..conns.len() {
            let Some(conn) = conns.get_mut(slot).and_then(Option::as_mut) else {
                continue;
            };
            if conn.outq.is_empty() || conn.stall_until.is_some() {
                continue;
            }
            match try_xmit(shared, conn) {
                Ok(ConnEvent::Continue) => {}
                Ok(ConnEvent::Close) => close_conn(shared, &mut conns, slot),
                Err(_) => {
                    shared.fetch_stats.record_reset();
                    close_conn(shared, &mut conns, slot);
                }
            }
        }

        // Phase 4: reap connections that have nothing left to say, and
        // unadmitted ones past their deadline as of this iteration.
        for slot in 0..conns.len() {
            let done = conns.get(slot).and_then(Option::as_ref).is_some_and(|c| {
                let idle = (c.eof || draining)
                    && c.outq.is_empty()
                    && c.pending.is_empty()
                    && c.inflight == 0
                    && c.parked.is_empty();
                idle || c.unadmitted_until.is_some_and(|t| t <= now)
            });
            if done {
                close_conn(shared, &mut conns, slot);
            }
        }
    }
    // Shutdown: refuse further completions (in-flight leases drop on
    // the disk worker) and release every admission slot.
    drop(handle.completions.close());
    for slot in 0..conns.len() {
        close_conn(shared, &mut conns, slot);
    }
}

fn close_conn(shared: &Shared, conns: &mut [Option<Conn>], slot: usize) {
    if let Some(conn) = conns.get_mut(slot).and_then(Option::take) {
        if conn.unadmitted_until.is_none() {
            release(shared, conn.peer_ip);
        }
        // Dropping the Conn drops queued leases and closes the socket.
    }
}

/// Move completed responses into the write queue in request order,
/// counting them served exactly when they become peer-visible work:
/// stats read after a completed exchange are never stale.
fn promote(shared: &Shared, conn: &mut Conn) {
    while let Some(resp) = conn.pending.remove(&conn.next_send) {
        conn.next_send += 1;
        if resp.status != Status::Busy {
            shared.stats.requests.fetch_add(1, Ordering::Relaxed);
            shared
                .stats
                .bytes
                .fetch_add(resp.range.len() as u64, Ordering::Relaxed);
        }
        conn.outq.push_back(resp);
    }
}

/// Drain the socket's read buffer and serve every complete request
/// frame found in it.
fn handle_read(
    shared: &Arc<Shared>,
    handle: &Arc<ReactorHandle>,
    conn: &mut Conn,
    slot: usize,
    scratch: &mut [u8],
) -> io::Result<ConnEvent> {
    loop {
        match (&conn.stream).read(scratch) {
            Ok(0) => {
                conn.eof = true;
                break;
            }
            Ok(n) => {
                shared.stats.read_syscalls.fetch_add(1, Ordering::Relaxed);
                conn.rbuf
                    .extend_from_slice(scratch.get(..n).unwrap_or_default());
                if conn.rbuf.len() > MAX_RBUF {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "unframed request flood",
                    ));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let mut consumed = 0usize;
    while !conn.eof || conn.rbuf.len() > consumed {
        let buf = conn.rbuf.get(consumed..).unwrap_or_default();
        if buf.len() < 4 {
            break;
        }
        let magic = buf
            .get(..4)
            .and_then(|b| b.try_into().ok())
            .map(u32::from_be_bytes)
            .unwrap_or(0);
        let total = match magic {
            REQUEST_MAGIC => REQUEST_LEN,
            REQUEST_MAGIC_V3 => REQUEST_LEN_V3,
            _ => return Err(io::Error::new(io::ErrorKind::InvalidData, "bad magic")),
        };
        if buf.len() < total {
            break;
        }
        let (req, version) = FetchRequest::decode(buf.get(..total).unwrap_or_default())?;
        consumed += total;
        match serve_request(shared, handle, conn, slot, req, version) {
            ConnEvent::Continue => {}
            ConnEvent::Close => {
                conn.rbuf.drain(..consumed);
                return Ok(ConnEvent::Continue); // flush outq, then reap via eof
            }
        }
    }
    conn.rbuf.drain(..consumed);
    if conn.eof
        && conn.outq.is_empty()
        && conn.pending.is_empty()
        && conn.inflight == 0
        && conn.parked.is_empty()
    {
        return Ok(ConnEvent::Close);
    }
    Ok(ConnEvent::Continue)
}

/// Serve one parsed request — the supplier's only request path: shed
/// it, refuse an empty range, answer inline from the hybrid store's
/// MEMORY tier or the DataCache (zero-copy) when possible, otherwise
/// ship a job to the disk thread. Never blocks, never touches a file.
fn serve_request(
    shared: &Arc<Shared>,
    handle: &Arc<ReactorHandle>,
    conn: &mut Conn,
    slot: usize,
    req: FetchRequest,
    version: WireVersion,
) -> ConnEvent {
    if shared.stop.load(Ordering::Acquire) {
        conn.eof = true;
        return ConnEvent::Close;
    }
    // Per-request shedding: a connection refused admission, an injected
    // busy storm, or a stage queue already past its bound (queueing more
    // would stall the peer behind a backlog the disk cannot clear).
    let unadmitted = conn.unadmitted_until.is_some();
    let shed = unadmitted
        || faults::decide(&shared.options.faults, Hook::ServerAdmission) == FaultAction::Busy
        || shared.prefetch.len() >= PREFETCH_QUEUE_CAP;
    if shed {
        shared.stats.busy_rejections.fetch_add(1, Ordering::Relaxed);
        shared.options.trace.instant(
            "server.busy",
            Entity::mof(req.mof),
            req.offset,
            BUSY_RETRY_HINT_MS,
        );
        if version == WireVersion::V3 {
            let busy = build_busy(req.id, BUSY_RETRY_HINT_MS, req.mof, req.offset);
            enqueue_local(shared, conn, busy);
        }
        if version == WireVersion::V2 || unadmitted {
            // v2 has no pushback frame, and an unadmitted connection
            // gets one answer: stop reading and close once earlier
            // responses flush.
            conn.eof = true;
            return ConnEvent::Close;
        }
        return ConnEvent::Continue;
    }

    // Every request is a range of 1 to `buffer_bytes` bytes, capped
    // here once; an empty one is malformed.
    if req.len == 0 {
        let resp = build_error(req.id, Status::BadRequest, req.mof, req.offset);
        enqueue_local(shared, conn, resp);
        return ConnEvent::Continue;
    }
    let req = FetchRequest {
        len: req.len.min(shared.options.buffer_bytes),
        ..req
    };
    let (key, want) = ((req.mof, req.reducer), req.len);

    // Memory tier first: a hybrid-held range that lies wholly in the
    // MEMORY tier is copied out under the store's lock and answered
    // here, like a DataCache hit. One that touches a LOCALFILE or
    // REMOTE extent is real file I/O, so it goes to a disk worker.
    if let Some(hybrid) = &shared.options.hybrid {
        if let Some((bytes, part_len)) =
            hybrid.read_memory_range(req.mof, req.reducer, req.offset, want)
        {
            let seg_len = (version == WireVersion::V3).then_some(part_len);
            let lease = shared.pool.lease(bytes);
            let range = 0..lease.len();
            let resp = build_ok(
                shared,
                req.id,
                version,
                seg_len,
                Source::Hybrid,
                lease,
                range,
                req.mof,
                req.offset,
            );
            enqueue_local(shared, conn, resp);
            return ConnEvent::Continue;
        }
        if hybrid.partition_len(req.mof, req.reducer).is_some() {
            return dispatch(shared, handle, conn, slot, &req, version, JobKind::Read);
        }
    }

    // Targeted cache-bypass re-fetch: invalidate, then read the store.
    if req.bypass_cache() {
        drop(shared.staged.invalidate(&key));
        shared.stats.bypass_reads.fetch_add(1, Ordering::Relaxed);
        shared.options.trace.instant(
            "integrity.bypass",
            Entity::mof(req.mof),
            req.offset,
            req.len,
        );
        return dispatch(shared, handle, conn, slot, &req, version, JobKind::Read);
    }

    if let Some(resp) = hit_resp(shared, req.id, version, key, req.offset, want) {
        enqueue_local(shared, conn, resp);
        return ConnEvent::Continue;
    }

    // A stage for this key is already in flight: park behind it instead
    // of queueing another disk job. The staging about to complete
    // almost always covers this request (bursts walk a segment in
    // order), and the disk queue's round-robin would otherwise
    // serialize this cheap cache hit behind other groups' reads.
    if conn.stage_inflight.get(&key).copied().unwrap_or(0) > 0 {
        let seq = conn.next_seq;
        conn.next_seq += 1;
        conn.parked.push_back(Parked { req, version, seq });
        return ConnEvent::Continue;
    }

    dispatch(shared, handle, conn, slot, &req, version, JobKind::Stage)
}

/// Serve `want` bytes at `offset` of `key` zero-copy from the DataCache:
/// the reactor's hit path and a disk worker's recheck of an overtaken
/// Stage job. A hit low in its staged range also queues the next
/// read-ahead batch (the pull half of Fig. 5 pipelining). A v3 frame is
/// sealed with the segment length the staged range carries. `None` is
/// a miss, which needs a disk worker.
pub(crate) fn hit_resp(
    shared: &Shared,
    id: u64,
    version: WireVersion,
    key: (u64, u32),
    offset: u64,
    want: u64,
) -> Option<OutResp> {
    let low_water = crate::server::batch_bytes(shared) / 2;
    let hit = shared.staged.hit_lease(&key, offset, want, low_water)?;
    let (mof, reducer) = key;
    shared.stats.datacache_hits.fetch_add(1, Ordering::Relaxed);
    shared
        .options
        .trace
        .instant("cache.hit", Entity::mof(mof), offset, want);
    if let Some(next) = hit.stage_next {
        crate::server::queue_run_ahead(shared, mof, reducer, next);
    }
    Some(build_ok(
        shared,
        id,
        version,
        (version == WireVersion::V3).then_some(hit.seg_len),
        Source::Mof,
        hit.lease,
        hit.range,
        mof,
        offset,
    ))
}

/// Re-evaluate requests parked behind a just-finished staging of `key`:
/// serve what the fresh range covers straight from the cache, and
/// dispatch the first one past it (later ones park again behind that
/// new stage). Responses land at the sequence numbers reserved when the
/// requests parked, so the in-order stream is unaffected.
fn unpark(
    shared: &Arc<Shared>,
    handle: &Arc<ReactorHandle>,
    conn: &mut Conn,
    slot: usize,
    key: (u64, u32),
) {
    if conn.parked.is_empty() {
        return;
    }
    let mut rest = VecDeque::with_capacity(conn.parked.len());
    while let Some(p) = conn.parked.pop_front() {
        if (p.req.mof, p.req.reducer) != key {
            rest.push_back(p);
            continue;
        }
        if let Some(resp) = hit_resp(shared, p.req.id, p.version, key, p.req.offset, p.req.len) {
            conn.pending.insert(p.seq, resp);
            promote(shared, conn);
        } else if conn.stage_inflight.get(&key).copied().unwrap_or(0) > 0 {
            rest.push_back(p);
        } else {
            dispatch_at(
                shared,
                handle,
                conn,
                slot,
                &p.req,
                p.version,
                JobKind::Stage,
                p.seq,
            );
        }
    }
    conn.parked = rest;
}

/// Queue a locally-built (inline) response at the next sequence number.
fn enqueue_local(shared: &Shared, conn: &mut Conn, resp: OutResp) {
    let seq = conn.next_seq;
    conn.next_seq += 1;
    conn.pending.insert(seq, resp);
    promote(shared, conn);
}

/// Ship a request to the disk thread through the grouped prefetch
/// queue. The job's completion comes back through the reactor's
/// completion queue under this request's sequence number.
fn dispatch(
    shared: &Arc<Shared>,
    handle: &Arc<ReactorHandle>,
    conn: &mut Conn,
    slot: usize,
    req: &FetchRequest,
    version: WireVersion,
    kind: JobKind,
) -> ConnEvent {
    let seq = conn.next_seq;
    conn.next_seq += 1;
    dispatch_at(shared, handle, conn, slot, req, version, kind, seq)
}

/// [`dispatch`] at a sequence number reserved earlier (parked requests
/// keep the seq they drew on arrival so the response stream stays in
/// request order).
#[allow(clippy::too_many_arguments)]
fn dispatch_at(
    shared: &Arc<Shared>,
    handle: &Arc<ReactorHandle>,
    conn: &mut Conn,
    slot: usize,
    req: &FetchRequest,
    version: WireVersion,
    kind: JobKind,
    seq: u64,
) -> ConnEvent {
    let stage_key = (kind == JobKind::Stage).then_some((req.mof, req.reducer));
    let ticket = JobTicket {
        cq: Arc::clone(&handle.completions),
        waker: Arc::clone(&handle.waker),
        slot,
        gen: conn.gen,
        seq,
        id: req.id,
        version,
        kind,
        want: req.len,
        stage_key,
    };
    let job = StageJob {
        mof: req.mof,
        reducer: req.reducer,
        offset: req.offset,
        reply: Reply::Reactor(ticket),
    };
    match shared.prefetch.push(job) {
        Ok(()) => {
            conn.inflight += 1;
            if let Some(k) = stage_key {
                *conn.stage_inflight.entry(k).or_insert(0) += 1;
            }
        }
        Err(_) => {
            // Queue closed: the supplier is shutting down.
            conn.pending.insert(
                seq,
                build_error(req.id, Status::BadRequest, req.mof, req.offset),
            );
            promote(shared, conn);
        }
    }
    ConnEvent::Continue
}

/// First transmit attempt for a response: draw the write-fault decision
/// once and open its `net.xmit` span (which then stays open across
/// every partial write until the last byte).
fn start_resp(shared: &Shared, conn: &mut Conn, at: usize) {
    let now = Instant::now();
    let Some(resp) = conn.outq.get_mut(at) else {
        return;
    };
    resp.started = true;
    resp.span = Some(shared.options.trace.span_owned(
        "net.xmit",
        Entity::mof(resp.mof),
        resp.offset,
        resp.range.len() as u64,
    ));
    if resp.status == Status::Busy {
        // Pushback frames are control traffic, written outside the
        // fault hook.
        return;
    }
    match faults::decide(&shared.options.faults, Hook::ServerWriteResponse) {
        FaultAction::Allow
        | FaultAction::RefuseConnect
        | FaultAction::Busy
        | FaultAction::CorruptPayload
        | FaultAction::CleanEof
        // Disk-shaped faults are meaningless on a network transmit.
        | FaultAction::ShortWrite
        | FaultAction::DiskError => {}
        FaultAction::Stall(d) => {
            // The loop never sleeps: a stall is a transmit deadline. The
            // span is already open, so the withheld time is charged to
            // net.xmit.
            conn.stall_until = Some(now + d);
        }
        FaultAction::Reset => {
            conn.close_when_flushed = true;
            conn.outq.clear();
            conn.pending.clear();
            conn.parked.clear();
            conn.eof = true;
        }
        FaultAction::Truncate => {
            // Keep the first half of the frame, then close after flush.
            let half = resp.total_len() / 2;
            if half <= resp.head_len {
                resp.head_len = half;
                resp.range = 0..0;
            } else {
                let keep = half - resp.head_len;
                resp.range = resp.range.start..resp.range.start + keep;
            }
            resp.close_after = true;
        }
        FaultAction::Corrupt => {
            // Flip a high byte of the length header (after status + id);
            // the client's MAX_PAYLOAD cap rejects the frame.
            if let Some(b) = resp.head.get_mut(1 + 8) {
                *b ^= 0xFF;
            }
        }
    }
}

/// Write as much queued output as the socket accepts: batched vectored
/// writes over up to [`MAX_BATCH_RESPONSES`] responses, partial-write
/// resumption via per-response cursors.
fn try_xmit(shared: &Shared, conn: &mut Conn) -> io::Result<ConnEvent> {
    loop {
        // Start queued responses until one stalls the connection.
        let mut ready = 0usize;
        let mut truncated = false;
        while ready < conn.outq.len().min(MAX_BATCH_RESPONSES) {
            if !conn.outq.get(ready).is_some_and(|r| r.started) {
                start_resp(shared, conn, ready);
                if conn.close_when_flushed && conn.outq.is_empty() {
                    // Injected reset: drop everything immediately.
                    return Ok(ConnEvent::Close);
                }
                if conn.stall_until.is_some() {
                    break;
                }
            }
            if conn.outq.get(ready).is_some_and(|r| r.close_after) {
                ready += 1;
                truncated = true;
                break;
            }
            ready += 1;
        }
        if ready == 0 {
            return Ok(ConnEvent::Continue);
        }
        if truncated {
            // Nothing beyond the truncated frame will ever be sent.
            conn.outq.truncate(ready);
            conn.pending.clear();
            conn.parked.clear();
            conn.eof = true;
        }
        let mut bufs: Vec<IoSlice<'_>> = Vec::with_capacity(ready * 2);
        for resp in conn.outq.iter().take(ready) {
            let head_from = resp.cursor.min(resp.head_len);
            let head = resp.head.get(head_from..resp.head_len).unwrap_or_default();
            if !head.is_empty() {
                bufs.push(IoSlice::new(head));
            }
            let pay_from = resp.range.start + resp.cursor.saturating_sub(resp.head_len);
            let payload = resp
                .payload
                .as_slice()
                .get(pay_from.min(resp.range.end)..resp.range.end)
                .unwrap_or_default();
            if !payload.is_empty() {
                bufs.push(IoSlice::new(payload));
            }
        }
        if bufs.is_empty() {
            // Possible for a truncated-to-empty frame; complete it.
            finish_front(conn);
            if conn.close_when_flushed {
                return Ok(ConnEvent::Close);
            }
            continue;
        }
        match (&conn.stream).write_vectored(&bufs) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "response frame write stalled",
                ))
            }
            Ok(mut n) => {
                shared.stats.write_syscalls.fetch_add(1, Ordering::Relaxed);
                while n > 0 {
                    let Some(front) = conn.outq.front_mut() else {
                        break;
                    };
                    let rem = front.remaining();
                    if n >= rem {
                        n -= rem;
                        finish_front(conn);
                        if conn.close_when_flushed {
                            return Ok(ConnEvent::Close);
                        }
                    } else {
                        front.cursor += n;
                        n = 0;
                    }
                }
                // Loop: more queued output may fit in the socket buffer.
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if let Some(front) = conn.outq.front() {
                    if front.cursor > 0 {
                        shared.stats.partial_writes.fetch_add(1, Ordering::Relaxed);
                        shared.options.trace.instant(
                            "xmit.partial",
                            Entity::conn(conn.conn_no),
                            front.cursor as u64,
                            front.remaining() as u64,
                        );
                    }
                }
                return Ok(ConnEvent::Continue);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
        if conn.outq.is_empty() {
            return Ok(ConnEvent::Continue);
        }
        if conn.stall_until.is_some() {
            return Ok(ConnEvent::Continue);
        }
    }
}

/// The front response is fully written: close its span, release its
/// lease, and apply close-after.
fn finish_front(conn: &mut Conn) {
    if let Some(mut resp) = conn.outq.pop_front() {
        if let Some(mut span) = resp.span.take() {
            span.set_b(resp.range.len() as u64);
            drop(span);
        }
        if resp.close_after {
            conn.close_when_flushed = true;
        }
        // Dropping `resp` drops the lease; the buffer is freed once no
        // other clone (the staged range) still pins it.
    }
}

#[cfg(all(test, loom))]
mod loom_tests {
    use super::*;
    use crate::bufpool::BufPool;

    fn completion(pool: &BufPool) -> Completion {
        let lease = pool.lease(vec![7u8; 8]);
        let range = 0..lease.len();
        let (head, head_len) = wire::encode_head_parts(Status::Ok, 1, 8, None);
        Completion {
            slot: 0,
            gen: 1,
            seq: 0,
            key: None,
            resp: OutResp {
                status: Status::Ok,
                mof: 0,
                offset: 0,
                head,
                head_len,
                payload: lease,
                range,
                cursor: 0,
                started: false,
                close_after: false,
                span: None,
            },
        }
    }

    /// The wake-while-closing race: the disk thread delivers a
    /// completion while the reactor shuts its queue down. In every
    /// interleaving the payload's lease is released — either the
    /// reactor drains the completion and drops it, or the push is
    /// refused and the disk worker's copy drops.
    #[test]
    fn loom_completion_delivery_races_queue_close_without_leaking() {
        loom::model(|| {
            let pool = BufPool::new();
            let cq = std::sync::Arc::new(CompletionQueue::new());
            let cq2 = std::sync::Arc::clone(&cq);
            let c = completion(&pool);
            let h = loom::thread::spawn(move || {
                if let Err(refused) = cq2.push(c) {
                    drop(refused); // reactor gone: release here
                }
            });
            let drained = cq.close();
            drop(drained); // reactor side: release anything delivered
            if h.join().is_err() {
                panic!("disk thread panicked");
            }
            assert_eq!(pool.stats().outstanding, 0, "no leaked lease");
            // A late push after close is always refused.
            assert!(cq.push(completion(&pool)).is_err());
        });
    }

    /// Completions for two requests race close: every delivered-or-
    /// refused lease is released.
    #[test]
    fn loom_two_deliveries_race_close() {
        loom::model(|| {
            let pool = BufPool::new();
            let cq = std::sync::Arc::new(CompletionQueue::new());
            let c1 = completion(&pool);
            let c2 = completion(&pool);
            let cq1 = std::sync::Arc::clone(&cq);
            let h = loom::thread::spawn(move || {
                drop(cq1.push(c1).err());
                drop(cq1.push(c2).err());
            });
            drop(cq.close());
            if h.join().is_err() {
                panic!("disk thread panicked");
            }
            drop(cq.drain()); // drain after close is empty but harmless
            assert_eq!(pool.stats().outstanding, 0, "both leases released");
        });
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn completion_queue_refuses_after_close() {
        let cq = CompletionQueue::new();
        let resp = build_error(1, Status::NotFound, 0, 0);
        assert!(cq
            .push(Completion {
                slot: 0,
                gen: 0,
                seq: 0,
                key: None,
                resp
            })
            .is_ok());
        let drained = cq.close();
        assert_eq!(drained.len(), 1);
        let resp = build_error(2, Status::NotFound, 0, 0);
        assert!(cq
            .push(Completion {
                slot: 0,
                gen: 0,
                seq: 1,
                key: None,
                resp
            })
            .is_err());
        assert!(cq.drain().is_empty());
    }

    #[test]
    fn out_resp_cursor_math() {
        let (head, head_len) = wire::encode_head_parts(Status::Ok, 9, 4, None);
        let mut resp = OutResp {
            status: Status::Ok,
            mof: 0,
            offset: 0,
            head,
            head_len,
            payload: Lease::detached(vec![1, 2, 3, 4]),
            range: 0..4,
            cursor: 0,
            started: false,
            close_after: false,
            span: None,
        };
        assert_eq!(resp.total_len(), head_len + 4);
        resp.cursor = head_len + 1;
        assert_eq!(resp.remaining(), 3);
        resp.cursor = resp.total_len();
        assert_eq!(resp.remaining(), 0);
    }
}
