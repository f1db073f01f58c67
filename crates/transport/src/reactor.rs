//! The event-driven supplier serve loop: nonblocking sockets, a
//! `poll(2)` readiness set, and zero-copy vectored transmits straight
//! out of the DataCache slab. It is the supplier's only serve loop —
//! no kernel thread per connection, no memcpy per served MOF chunk:
//!
//! * **one reactor thread** per supplier owns its sockets: the
//!   nonblocking listener sits in the same poll set as the connections
//!   and is accepted from there, and every accepted connection is a
//!   small state machine: read-buffer framing, one ordered queue of its
//!   requests, and a byte cursor on the front response for
//!   partial-write resumption. Admission counts are the reactor's own
//!   state. A connection refused admission lives here too, for at most
//!   [`UNADMITTED_DEADLINE`]: its first request is shed. Once the
//!   supplier drains, the reactor closes the listener, so later dials
//!   are refused;
//! * **every request is a bounded range**: 1 to `buffer_bytes` bytes
//!   (longer is served short; `len == 0` is a `BadRequest`), so no
//!   request reads, copies or frames more than one transport buffer;
//! * **zero-copy serving**: a DataCache hit clones the staged range's
//!   refcounted [`Lease`] ([`crate::staging::StageCache::hit_lease`])
//!   and transmits `head + lease[window]` with a single vectored
//!   syscall — the payload bytes are never copied between the slab and
//!   the socket, and the lease pins the buffer for exactly as long as
//!   partial writes keep it in flight;
//! * **memory-tier hits inline and zero-copy**: a range the attached
//!   hybrid store holds wholly in one MEMORY buffer is lent, not
//!   copied: the store hands out a refcounted pin on its buffer under
//!   its lock ([`jbs_store_hybrid::HybridStore::read_memory_range`],
//!   no I/O), and the reactor leases that pin
//!   ([`crate::bufpool::BufPool::lend`]) and frames it here, like a
//!   DataCache hit — no worker, no completion, no wake, no memcpy. A
//!   range the store declines (a durable byte, or a straddle of its
//!   sealed and active buffers mid-spill) goes to the disk workers'
//!   one read path;
//! * **no blocking in the loop**: every disk, index, or durable-tier
//!   (LOCALFILE/REMOTE) touch is shipped to the permit-bounded
//!   disk-worker pool through the grouped prefetch queue (Fig. 5
//!   discipline) as one of two [`JobKind`]s — `Stage` for a DataCache
//!   miss, `Read` for everything served without the DataCache — and
//!   the worker's one read path decides which tier answers. The
//!   finished frame comes back through a
//!   [`crate::sync::Mailbox`] plus a [`Waker`] byte. The reactor itself only
//!   ever does nonblocking socket I/O and short lock-only touches — a
//!   rule `cargo xtask analyze` enforces (`nonblocking_context`): no
//!   blocking primitive may be *reachable* from this file at all. Its
//!   one audited exemption is `accept` on the listener, which the
//!   supplier sets nonblocking before the loop starts.
//!
//! Responses go out strictly in request order per connection (the wire
//! contract). Each connection keeps every framed request that is not
//! yet fully written in one queue of [`Slot`]s, in arrival order: a
//! disk worker's completion — they arrive out of order, since the
//! workers round-robin across MOF groups — fills its request's slot,
//! and only the answered prefix of the queue is transmitted. A miss
//! behind an in-flight stage of its key waits in its slot for that
//! stage instead of reading the disk again.
//!
//! Fault injection has event-loop semantics: a `Stall` becomes a
//! transmit deadline (the loop never sleeps), `Reset` drops the
//! connection, `Truncate` halves the frame and closes after the flush,
//! `Corrupt` flips the length header — all decided once per response at
//! [`Hook::ServerWriteResponse`]. At [`Hook::ServerAccept`], decided
//! once per accepted socket, `RefuseConnect` and `Reset` drop it before
//! any exchange and a `Stall` withholds its responses until a deadline.

use crate::bufpool::Lease;
use crate::faults::{self, FaultAction, Hook};
use crate::poll::{sys_poll, PollFd, POLLIN, POLLOUT};
use crate::prefetch::{Reply, StageJob};
use crate::server::Shared;
use crate::wire::{self, FetchRequest, Status, REQUEST_LEN_V3};
use jbs_obs::{Entity, OwnedSpan};
use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{IpAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
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
    /// A MEMORY buffer the attached hybrid store lent: a hybrid hit,
    /// transmitted from the store's own bytes, so zero-copy bytes.
    HybridLent,
    /// The attached hybrid store's tiers read into a disk worker's
    /// buffer: a hybrid hit, and copied bytes.
    Hybrid,
    /// The MOF, through the DataCache or a disk worker's own read: the
    /// lease is transmitted as is, so zero-copy bytes.
    Mof,
}

/// Build a served-bytes `OkCrc` frame sealed with the segment's length
/// `seg_len`, counting its payload by [`Source`] and applying the
/// post-checksum payload faults: the CRC is computed *before* a
/// `CorruptPayload` flip (only end-to-end verification can catch the
/// damage), and `CleanEof` rewrites the frame to a clean empty chunk.
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_ok(
    shared: &Shared,
    id: u64,
    seg_len: u64,
    source: Source,
    lease: Lease,
    range: Range<usize>,
    mof: u64,
    offset: u64,
) -> OutResp {
    let served = range.len() as u64;
    if source != Source::Mof {
        shared.stats.hybrid_hits.fetch_add(1, Ordering::Relaxed);
        shared
            .options
            .trace
            .instant("hybrid.hit", Entity::mof(mof), offset, served);
    }
    let meter = match source {
        Source::Hybrid => &shared.stats.copied_bytes,
        Source::HybridLent | Source::Mof => &shared.stats.zerocopy_bytes,
    };
    meter.fetch_add(served, Ordering::Relaxed);
    let window = lease.as_slice().get(range.clone()).unwrap_or_default();
    shared.options.trace.instant(
        "integrity.seal",
        Entity::mof(mof),
        offset,
        window.len() as u64,
    );
    let mut crc = jbs_checksum::crc32c(window);
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
                crc = jbs_checksum::crc32c(&[]);
                range = 0..0;
                lease = Lease::detached(Vec::new());
            }
            _ => {}
        }
    }
    let (head, head_len) =
        wire::encode_head_parts(Status::OkCrc, id, range.len() as u64, Some((crc, seg_len)));
    OutResp {
        status: Status::OkCrc,
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

/// A `Busy` pushback frame: the len field carries the retry hint.
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

/// A finished disk-thread job headed back to its reactor: the frame
/// for request `seq` of the connection at index `slot`, if that index
/// still holds generation `gen`.
pub(crate) struct Completion {
    pub(crate) slot: usize,
    pub(crate) gen: u64,
    pub(crate) seq: u64,
    pub(crate) resp: OutResp,
}

/// Everything the disk thread needs to finish a reactor-dispatched
/// request: what to do ([`JobKind`]), the id to echo, and where in the reactor to deliver the frame (generation-tagged
/// connection index, and the request's sequence number on that
/// connection, which locates its [`Slot`] in the connection's queue).
pub(crate) struct JobTicket {
    pub(crate) slot: usize,
    pub(crate) gen: u64,
    pub(crate) seq: u64,
    pub(crate) id: u64,
    pub(crate) kind: JobKind,
    /// Bytes to serve back: the request's range, already capped at
    /// `buffer_bytes` and never 0.
    pub(crate) want: u64,
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
    /// Deliver `resp` to the reactor and wake its poll loop. A closed
    /// mailbox (reactor shut down) hands the frame back and it drops
    /// here: the payload lease is released on this thread, never
    /// leaked (the `loom_` models below pin this down).
    pub(crate) fn deliver(self, shared: &Shared, resp: OutResp) {
        let c = Completion {
            slot: self.slot,
            gen: self.gen,
            seq: self.seq,
            resp,
        };
        if shared.completions.push(c).is_ok() {
            shared.waker.wake();
        }
    }
}

// ---------------------------------------------------------------------
// The reactor
// ---------------------------------------------------------------------

/// Admission, owned by the reactor: connections holding a slot, in all
/// and per peer IP. [`Shared::active_conns`] mirrors the total for
/// `drain()` to wait on.
#[derive(Default)]
struct Admission {
    active: u64,
    per_peer: HashMap<IpAddr, u64>,
}

impl Admission {
    /// Reserve a slot (global and per-peer) or refuse. The slot is given
    /// back by [`Admission::release`] when the connection is reaped.
    fn admit(&mut self, shared: &Shared, peer: IpAddr) -> bool {
        let of_peer = self.per_peer.get(&peer).copied().unwrap_or(0);
        if self.active >= shared.options.max_connections
            || of_peer >= shared.options.max_inflight_per_peer
        {
            return false;
        }
        self.per_peer.insert(peer, of_peer + 1);
        self.active += 1;
        shared.active_conns.store(self.active, Ordering::Release);
        true
    }

    fn release(&mut self, shared: &Shared, peer: IpAddr) {
        if let Some(n) = self.per_peer.get_mut(&peer) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                self.per_peer.remove(&peer);
            }
        }
        self.active = self.active.saturating_sub(1);
        shared.active_conns.store(self.active, Ordering::Release);
    }
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    peer_ip: IpAddr,
    conn_no: u64,
    gen: u64,
    /// Unparsed request bytes.
    rbuf: Vec<u8>,
    /// Every framed request not yet fully written, in arrival order:
    /// the response stream, whose answered prefix is transmitted.
    slots: VecDeque<Slot>,
    /// Sequence number of the front of `slots`; a request's sequence
    /// number is `base` plus its position.
    base: u64,
    /// Injected stall (at accept or at a response write): no transmit
    /// until this deadline.
    stall_until: Option<Instant>,
    /// Refused admission: every request is shed, and the connection is
    /// closed at this deadline at the latest. `None` once admitted.
    unadmitted_until: Option<Instant>,
    /// Read half done (peer EOF, unadmitted pushback, or shutdown).
    eof: bool,
    /// A fault or protocol decision closed the write half; drop the
    /// connection once already-queued bytes are flushed.
    close_when_flushed: bool,
}

/// Where one framed request stands in its connection's response
/// stream.
enum Slot {
    /// Answered, inline or by a disk worker: transmitted once every
    /// slot ahead of it has been.
    Ready(OutResp),
    /// Queued to a disk worker, whose completion fills the slot.
    /// `stage` is the `(mof, reducer)` of a [`JobKind::Stage`] job.
    AtWorker { stage: Option<(u64, u32)> },
    /// A miss behind an in-flight stage of its key. The stage about to
    /// finish almost always covers it (bursts walk a segment in order),
    /// and a disk job of its own would serialize a cheap cache hit
    /// behind other groups' reads; it is re-evaluated when a stage of
    /// its key completes.
    Parked(FetchRequest),
}

impl Conn {
    /// The sequence number the next framed request takes.
    fn next_seq(&self) -> u64 {
        self.base + self.slots.len() as u64
    }

    /// Whether a stage of `key` is queued to a disk worker for this
    /// connection.
    fn stage_at_worker(&self, key: (u64, u32)) -> bool {
        self.slots
            .iter()
            .any(|s| matches!(s, Slot::AtWorker { stage: Some(k) } if *k == key))
    }

    /// Whether the front response may be written now.
    fn can_send(&self) -> bool {
        self.stall_until.is_none() && matches!(self.slots.front(), Some(Slot::Ready(_)))
    }
}

enum ConnEvent {
    /// Keep serving.
    Continue,
    /// Close cleanly (no error counted): EOF, drain, injected fault.
    Close,
}

/// Run the supplier's reactor until it stops. Owns the listener, every
/// connection and the admission counts; everything shared sits behind
/// `Shared`'s own locks.
pub(crate) fn run(shared: &Shared, listener: TcpListener) {
    let mut listener = Some(listener);
    let mut admission = Admission::default();
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut next_gen: u64 = 0;
    let mut scratch = vec![0u8; 64 << 10];
    let mut fds: Vec<PollFd> = Vec::new();
    let mut slots: Vec<usize> = Vec::new();
    while !shared.stop.load(Ordering::Acquire) {
        let draining = shared.draining.load(Ordering::Acquire);
        if draining {
            // Closing the listener refuses every later dial.
            listener = None;
        }
        fds.clear();
        slots.clear();
        fds.push(PollFd::new(shared.waker.fd(), POLLIN));
        if let Some(l) = &listener {
            fds.push(PollFd::new(l.as_raw_fd(), POLLIN));
        }
        let first_conn = fds.len();
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
            if conn.can_send() {
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
            shared.waker.drain();
            shared.stats.reactor_wakes.fetch_add(1, Ordering::Relaxed);
            shared
                .options
                .trace
                .instant("reactor.wake", Entity::node(0), 0, 0);
        }

        // Phase 1: accept every connection waiting on the listener.
        let ready = listener
            .as_ref()
            .filter(|_| fds.get(1).is_some_and(PollFd::readable));
        if let Some(l) = ready {
            while accept_one(shared, l, &mut admission, &mut conns, &mut next_gen) {}
        }

        // Phase 2: disk-thread completions fill their requests' slots.
        // A stale generation means the connection slot was reused, and
        // a sequence number outside the queue one a fault cut off; the
        // orphaned response just drops (releasing its lease).
        for c in shared.completions.drain() {
            let Some(conn) = conns.get_mut(c.slot).and_then(Option::as_mut) else {
                continue;
            };
            if conn.gen != c.gen {
                continue;
            }
            let at = c.seq.checked_sub(conn.base).map(|i| i as usize);
            let Some(waiting) = at.and_then(|i| conn.slots.get_mut(i)) else {
                continue;
            };
            let Slot::AtWorker { stage } = *waiting else {
                continue;
            };
            *waiting = Slot::Ready(c.resp);
            if let Some(key) = stage {
                unpark(shared, conn, c.slot, key);
            }
        }

        // Phase 3: socket readiness — reads first (may queue responses),
        // then transmit for every connection with queued output. A
        // socket or framing error closes the connection and is counted.
        for (fd, &slot) in fds.iter().skip(first_conn).zip(&slots) {
            if !fd.readable() {
                continue;
            }
            let Some(conn) = conns.get_mut(slot).and_then(Option::as_mut) else {
                continue;
            };
            if handle_read(shared, conn, slot, &mut scratch).is_err() {
                shared.stats.conn_errors.fetch_add(1, Ordering::Relaxed);
                close_conn(shared, &mut admission, &mut conns, slot);
            }
        }
        for slot in 0..conns.len() {
            let Some(conn) = conns.get_mut(slot).and_then(Option::as_mut) else {
                continue;
            };
            if !conn.can_send() {
                continue;
            }
            match try_xmit(shared, conn) {
                Ok(ConnEvent::Continue) => {}
                Ok(ConnEvent::Close) => close_conn(shared, &mut admission, &mut conns, slot),
                Err(_) => {
                    shared.stats.conn_errors.fetch_add(1, Ordering::Relaxed);
                    close_conn(shared, &mut admission, &mut conns, slot);
                }
            }
        }

        // Phase 4: reap connections that have nothing left to say, and
        // unadmitted ones past their deadline as of this iteration.
        for slot in 0..conns.len() {
            let done = conns.get(slot).and_then(Option::as_ref).is_some_and(|c| {
                let idle = (c.eof || draining) && c.slots.is_empty();
                idle || c.unadmitted_until.is_some_and(|t| t <= now)
            });
            if done {
                close_conn(shared, &mut admission, &mut conns, slot);
            }
        }
    }
    // Shutdown: refuse further completions (in-flight leases drop on
    // the disk worker) and release every admission slot. The listener
    // closes as it drops.
    drop(shared.completions.close());
    for slot in 0..conns.len() {
        close_conn(shared, &mut admission, &mut conns, slot);
    }
}

/// Accept one connection and give it a slot. In order: the accept-time
/// fault decision, admission, the `connections` count and
/// `server.accept` instant (admitted connections only), adoption. A
/// connection over an admission bound is adopted too: it holds no
/// admission slot, and its first request is shed. Returns `false` once
/// the backlog is empty (or `accept` failed; the next readiness report
/// retries).
fn accept_one(
    shared: &Shared,
    listener: &TcpListener,
    admission: &mut Admission,
    conns: &mut Vec<Option<Conn>>,
    next_gen: &mut u64,
) -> bool {
    let (stream, peer) = match listener.accept() {
        Ok(accepted) => accepted,
        Err(e) => return e.kind() == io::ErrorKind::Interrupted,
    };
    let now = Instant::now();
    let stall_until = match faults::decide(&shared.options.faults, Hook::ServerAccept) {
        // Drop the socket before any exchange; the client sees a
        // refused/reset connection.
        FaultAction::RefuseConnect | FaultAction::Reset => return true,
        // The loop never sleeps: the stall is a deadline before which
        // this connection transmits nothing.
        FaultAction::Stall(d) => Some(now + d),
        _ => None,
    };
    let peer_ip = peer.ip();
    let admitted = admission.admit(shared, peer_ip);
    let conn_no = shared
        .stats
        .connections
        .fetch_add(u64::from(admitted), Ordering::Relaxed);
    if admitted {
        shared
            .options
            .trace
            .instant("server.accept", Entity::conn(conn_no), 0, 0);
    }
    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
        if admitted {
            admission.release(shared, peer_ip);
        }
        return true;
    }
    *next_gen += 1;
    let adopted = Some(Conn {
        stream,
        peer_ip,
        conn_no,
        gen: *next_gen,
        rbuf: Vec::new(),
        slots: VecDeque::new(),
        base: 0,
        stall_until,
        unadmitted_until: (!admitted).then(|| now + UNADMITTED_DEADLINE),
        eof: false,
        close_when_flushed: false,
    });
    match conns.iter_mut().find(|c| c.is_none()) {
        Some(free) => *free = adopted,
        None => conns.push(adopted),
    }
    true
}

fn close_conn(shared: &Shared, admission: &mut Admission, conns: &mut [Option<Conn>], slot: usize) {
    if let Some(conn) = conns.get_mut(slot).and_then(Option::take) {
        if conn.unadmitted_until.is_none() {
            admission.release(shared, conn.peer_ip);
        }
        // Dropping the Conn drops queued leases and closes the socket.
    }
}

/// Drain the socket's read buffer and serve every complete request
/// frame found in it. A connection whose read half is done is reaped
/// once its queue empties.
fn handle_read(
    shared: &Shared,
    conn: &mut Conn,
    slot: usize,
    scratch: &mut [u8],
) -> io::Result<()> {
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
    // A bad magic fails as soon as its four bytes are in; a frame
    // still arriving waits for the next read.
    let mut consumed = 0usize;
    while !conn.eof || conn.rbuf.len() > consumed {
        let req = match FetchRequest::decode(conn.rbuf.get(consumed..).unwrap_or_default()) {
            Ok(req) => req,
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => break,
            Err(e) => return Err(e),
        };
        consumed += REQUEST_LEN_V3;
        if let ConnEvent::Close = serve_request(shared, conn, slot, req) {
            break;
        }
    }
    conn.rbuf.drain(..consumed);
    Ok(())
}

/// Serve one parsed request — the supplier's only request path: shed
/// it, or give it the next slot of its connection's queue. Never
/// blocks, never touches a file.
fn serve_request(shared: &Shared, conn: &mut Conn, slot: usize, req: FetchRequest) -> ConnEvent {
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
        let busy = build_busy(req.id, BUSY_RETRY_HINT_MS, req.mof, req.offset);
        conn.slots.push_back(Slot::Ready(busy));
        if unadmitted {
            // An unadmitted connection gets one answer: stop reading
            // and close once earlier responses flush.
            conn.eof = true;
            return ConnEvent::Close;
        }
        return ConnEvent::Continue;
    }
    let next = slot_for(shared, conn, slot, req);
    conn.slots.push_back(next);
    ConnEvent::Continue
}

/// The slot an admitted request takes: refuse an empty range, answer
/// inline from the hybrid store's MEMORY tier or the DataCache
/// (zero-copy) when possible, park behind an in-flight stage of its
/// key, otherwise ship a job to a disk worker.
fn slot_for(shared: &Shared, conn: &Conn, slot: usize, req: FetchRequest) -> Slot {
    // Every request is a range of 1 to `buffer_bytes` bytes, capped
    // here once; an empty one is malformed.
    if req.len == 0 {
        return Slot::Ready(build_error(req.id, Status::BadRequest, req.mof, req.offset));
    }
    let req = FetchRequest {
        len: req.len.min(shared.options.buffer_bytes),
        ..req
    };
    let (key, want) = ((req.mof, req.reducer), req.len);
    let to_worker = |kind| dispatch(shared, conn, slot, conn.next_seq(), &req, kind);

    // Memory tier first: a hybrid-held range that lies wholly in one
    // MEMORY buffer is lent by the store under its lock and answered
    // here from the store's own bytes, like a DataCache hit. Any other
    // range of a hybrid partition (a LOCALFILE or REMOTE byte, or a
    // straddle mid-spill) goes to a disk worker's read.
    if let Some(hybrid) = &shared.options.hybrid {
        if let Some(lent) = hybrid.read_memory_range(req.mof, req.reducer, req.offset, want) {
            let resp = build_ok(
                shared,
                req.id,
                lent.partition_len,
                Source::HybridLent,
                shared.pool.lend(lent.buf),
                lent.range,
                req.mof,
                req.offset,
            );
            return Slot::Ready(resp);
        }
        if hybrid.partition_len(req.mof, req.reducer).is_some() {
            return to_worker(JobKind::Read);
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
        return to_worker(JobKind::Read);
    }

    if let Some(resp) = hit_resp(shared, req.id, key, req.offset, want) {
        Slot::Ready(resp)
    } else if conn.stage_at_worker(key) {
        Slot::Parked(req)
    } else {
        to_worker(JobKind::Stage)
    }
}

/// Serve `want` bytes at `offset` of `key` zero-copy from the DataCache:
/// the reactor's hit path and a disk worker's recheck of an overtaken
/// Stage job. A hit low in its staged range also queues the next
/// read-ahead batch (the pull half of Fig. 5 pipelining). The frame is
/// sealed with the segment length the staged range carries. `None` is
/// a miss, which needs a disk worker.
pub(crate) fn hit_resp(
    shared: &Shared,
    id: u64,
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
        hit.seg_len,
        Source::Mof,
        hit.lease,
        hit.range,
        mof,
        offset,
    ))
}

/// Re-evaluate the requests parked behind a just-finished stage of
/// `key`, in order: serve what the fresh range covers from the cache,
/// leave one parked while another stage of `key` is at a worker, and
/// dispatch one past the range as a stage of its own (later ones then
/// wait for that). Each answer lands in the request's own slot, so the
/// response stream keeps request order.
fn unpark(shared: &Shared, conn: &mut Conn, slot: usize, key: (u64, u32)) {
    for at in 0..conn.slots.len() {
        let Some(&Slot::Parked(req)) = conn.slots.get(at) else {
            continue;
        };
        if (req.mof, req.reducer) != key {
            continue;
        }
        let next = if let Some(resp) = hit_resp(shared, req.id, key, req.offset, req.len) {
            Slot::Ready(resp)
        } else if conn.stage_at_worker(key) {
            continue;
        } else {
            let seq = conn.base + at as u64;
            dispatch(shared, conn, slot, seq, &req, JobKind::Stage)
        };
        if let Some(parked) = conn.slots.get_mut(at) {
            *parked = next;
        }
    }
}

/// Ship the request at `seq` to a disk worker through the grouped
/// prefetch queue; its completion comes back through the reactor's
/// completion queue. Returns the request's slot: at the worker, or
/// refused when the queue has closed.
fn dispatch(
    shared: &Shared,
    conn: &Conn,
    slot: usize,
    seq: u64,
    req: &FetchRequest,
    kind: JobKind,
) -> Slot {
    let ticket = JobTicket {
        slot,
        gen: conn.gen,
        seq,
        id: req.id,
        kind,
        want: req.len,
    };
    let job = StageJob {
        mof: req.mof,
        reducer: req.reducer,
        offset: req.offset,
        reply: Reply::Reactor(ticket),
    };
    match shared.prefetch.push(job) {
        Ok(()) => Slot::AtWorker {
            stage: (kind == JobKind::Stage).then_some((req.mof, req.reducer)),
        },
        // Queue closed: the supplier is shutting down.
        Err(_) => Slot::Ready(build_error(req.id, Status::BadRequest, req.mof, req.offset)),
    }
}

/// First transmit attempt for a response: count it served, draw the
/// write-fault decision once and open its `net.xmit` span (which then
/// stays open across every partial write until the last byte). It is
/// counted before any byte is written, so stats read after a completed
/// exchange are never stale.
fn start_resp(shared: &Shared, conn: &mut Conn, at: usize) {
    let now = Instant::now();
    let Some(Slot::Ready(resp)) = conn.slots.get_mut(at) else {
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
    shared.stats.requests.fetch_add(1, Ordering::Relaxed);
    shared
        .stats
        .bytes
        .fetch_add(resp.range.len() as u64, Ordering::Relaxed);
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
            conn.slots.clear();
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
        while ready < MAX_BATCH_RESPONSES {
            let Some(Slot::Ready(resp)) = conn.slots.get(ready) else {
                break;
            };
            if !resp.started {
                start_resp(shared, conn, ready);
                if conn.close_when_flushed && conn.slots.is_empty() {
                    // Injected reset: drop everything immediately.
                    return Ok(ConnEvent::Close);
                }
                if conn.stall_until.is_some() {
                    break;
                }
            }
            truncated = matches!(conn.slots.get(ready), Some(Slot::Ready(r)) if r.close_after);
            ready += 1;
            if truncated {
                break;
            }
        }
        if ready == 0 {
            return Ok(ConnEvent::Continue);
        }
        if truncated {
            // Nothing beyond the truncated frame will ever be sent.
            conn.slots.truncate(ready);
            conn.eof = true;
        }
        let mut bufs: Vec<IoSlice<'_>> = Vec::with_capacity(ready * 2);
        for slot in conn.slots.iter().take(ready) {
            let Slot::Ready(resp) = slot else {
                break;
            };
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
                    let Some(Slot::Ready(front)) = conn.slots.front_mut() else {
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
                if let Some(Slot::Ready(front)) = conn.slots.front() {
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
        if !conn.can_send() {
            return Ok(ConnEvent::Continue);
        }
    }
}

/// The front response is fully written: retire its slot, close its
/// span, release its lease, and apply close-after. Called only with a
/// `Ready` front.
fn finish_front(conn: &mut Conn) {
    let Some(front) = conn.slots.pop_front() else {
        return;
    };
    conn.base += 1;
    let Slot::Ready(mut resp) = front else {
        return;
    };
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

#[cfg(all(test, loom))]
mod loom_tests {
    use super::*;
    use crate::bufpool::BufPool;

    fn completion(pool: &BufPool) -> Completion {
        let lease = pool.lease(vec![7u8; 8]);
        let range = 0..lease.len();
        let crc = jbs_checksum::crc32c(lease.as_slice());
        let (head, head_len) = wire::encode_head_parts(Status::OkCrc, 1, 8, Some((crc, 8)));
        Completion {
            slot: 0,
            gen: 1,
            seq: 0,
            resp: OutResp {
                status: Status::OkCrc,
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
            let cq = std::sync::Arc::new(crate::sync::Mailbox::new());
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
            let cq = std::sync::Arc::new(crate::sync::Mailbox::new());
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
        let cq = crate::sync::Mailbox::new();
        let resp = build_error(1, Status::NotFound, 0, 0);
        assert!(cq
            .push(Completion {
                slot: 0,
                gen: 0,
                seq: 0,
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
                resp
            })
            .is_err());
        assert!(cq.drain().is_empty());
    }

    #[test]
    fn out_resp_cursor_math() {
        let crc = jbs_checksum::crc32c(&[1, 2, 3, 4]);
        let (head, head_len) = wire::encode_head_parts(Status::OkCrc, 9, 4, Some((crc, 4)));
        let mut resp = OutResp {
            status: Status::OkCrc,
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
