//! The NetMerger client: consolidated fetching plus network-levitated
//! merge, over real sockets.
//!
//! One client serves all reducers of a "node", and it has one fetch
//! path: every call (`fetch_all`, `fetch_segment`, `fetch_chunk`,
//! `levitated_merge`) hands ops to the background fetch scheduler
//! (`sched::FetchScheduler`): event loops — one per available core at
//! most, never more than suppliers — that own every supplier's single
//! connection (the paper's consolidation, Sec. III-C) and keep a
//! bounded window of requests in flight on each,
//! injected round-robin across segments, so the supplier's disk
//! prefetch for chunk `k+1` overlaps the network transmission of chunk
//! `k` end-to-end. Completions stream back over channels and are
//! consumed as they land. [`ClientConfig::window`] `= 1` is the Fig. 4
//! lockstep baseline — one request, wait, one response — as a
//! configuration of the same path, not a second one.
//!
//! Every fetch is covered by the recovery machinery: one
//! connect and progress deadline ([`ClientConfig::io_timeout`]), a
//! [`RetryPolicy`] with deterministic backoff jitter, re-dial of failed
//! connections, and — because retry operates
//! per chunk — **resume at the received offset**: a segment interrupted
//! at byte `o` continues from `o` on the fresh connection instead of
//! refetching `[0, o)`. With a [`crate::routes::RouteTable`], an op
//! whose supplier is unhealthy or breaker-open fails over to a replica;
//! the scheduler decides that for every op shape alike.
//! [`FetchStats`] counts all of it, including the pipeline gauges
//! (queue depth, window occupancy, speculation discards).

use crate::error::{Result, TransportError};
use crate::faults::FaultPlan;
use crate::retry::RetryPolicy;
use crate::sched::{FetchDone, FetchOp, FetchScheduler};
use crate::stats::{FetchStats, FetchStatsSnapshot};
use jbs_mapred::levitate::{RecordParser, RecordStream, StreamingMerge};
use jbs_mapred::merge::Record;
use std::collections::VecDeque;
use std::io;
use std::net::SocketAddr;
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// A fetch target: which segment on which supplier.
#[derive(Debug, Clone, Copy)]
pub struct SegmentRef {
    /// Supplier address.
    pub addr: SocketAddr,
    /// MOF id on that supplier.
    pub mof: u64,
    /// Reducer (partition) number.
    pub reducer: u32,
}

/// Client statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientStats {
    /// Connections established.
    pub connections_established: u64,
    /// Fetch ops admitted onto their supplier's already-open connection.
    pub connections_reused: u64,
    /// Payload bytes fetched.
    pub bytes_fetched: u64,
}

/// Tunables for the NetMerger client.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Transport buffer (chunk) size; the paper uses 128 KB.
    pub buffer_bytes: u64,
    /// Pipelining depth: requests kept in flight per supplier
    /// connection, and ops admitted concurrently per supplier.
    /// `1` is strict lockstep, the measurement baseline — not a second
    /// fetch path.
    pub window: usize,
    /// Retry budget and backoff shape for transient failures.
    pub retry: RetryPolicy,
    /// Deadline for establishing a connection, and for progress on it:
    /// a connection that receives no byte and takes no write for this
    /// long while a response is due has timed out.
    pub io_timeout: Duration,
    /// Optional fault-injection plan (tests only; `None` in production).
    pub faults: Option<Arc<FaultPlan>>,
    /// Structured tracing sink; [`jbs_obs::Trace::disabled`] (the
    /// default) is a single branch per instrumentation point.
    pub trace: jbs_obs::Trace,
    /// End-to-end integrity: verify every CRC32C-sealed chunk payload
    /// before the merge admits it. `false` skips only that comparison,
    /// to measure its cost: frames stay sealed, and the declared segment
    /// length still bounds and ends every fetch.
    pub checksum: bool,
    /// Integrity re-fetch budget: how many targeted cache-bypass
    /// re-fetches one chunk position may consume (CRC mismatches and
    /// short-EOF accounting violations) before the typed error
    /// surfaces.
    pub integrity_retries: u32,
    /// Per-peer circuit breaker: consecutive connection-level failures
    /// before the peer's breaker opens and new ops fail fast with
    /// [`TransportError::CircuitOpen`]. `0` disables the breaker
    /// entirely.
    pub breaker_threshold: u32,
    /// Base cooldown an open breaker waits before granting its single
    /// half-open probe; doubles on every failed probe (capped at 64x).
    pub breaker_cooldown: Duration,
    /// Replica routing pushed down by the control plane: MOF → replica
    /// addresses plus unhealthy marks. When set, fetch ops aimed at a
    /// breaker-open or unhealthy peer redirect to the next healthy
    /// replica (`failover.redirect` in the trace) instead of failing the
    /// job. `None` (the default) keeps static point-to-point addressing.
    pub routes: Option<Arc<crate::routes::RouteTable>>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            buffer_bytes: 128 << 10,
            window: 8,
            retry: RetryPolicy::default(),
            io_timeout: Duration::from_secs(5),
            faults: None,
            trace: jbs_obs::Trace::disabled(),
            checksum: true,
            integrity_retries: 2,
            breaker_threshold: 8,
            breaker_cooldown: Duration::from_millis(100),
            routes: None,
        }
    }
}

/// State shared between the client facade and the scheduler's event
/// loops.
pub(crate) struct ClientShared {
    pub(crate) fetch_stats: FetchStats,
    pub(crate) config: ClientConfig,
}

/// Round-robin the indices of `segs` across supplier addresses (in
/// order of first appearance): the paper's balanced injection. Ops
/// spread evenly into every peer queue from the start, so all supplier
/// pipelines spin up together instead of being loaded in input order.
fn balanced_order(segs: &[SegmentRef]) -> Vec<usize> {
    let mut groups: Vec<(SocketAddr, VecDeque<usize>)> = Vec::new();
    for (i, s) in segs.iter().enumerate() {
        match groups.iter_mut().find(|(a, _)| *a == s.addr) {
            Some((_, q)) => q.push_back(i),
            None => groups.push((s.addr, VecDeque::from([i]))),
        }
    }
    let mut order = Vec::with_capacity(segs.len());
    let mut more = true;
    while more {
        more = false;
        for (_, q) in &mut groups {
            if let Some(i) = q.pop_front() {
                order.push(i);
                more = true;
            }
        }
    }
    order
}

/// The NetMerger: a facade over the fetch scheduler, whose event loops
/// own a connection per supplier.
pub struct NetMergerClient {
    shared: Arc<ClientShared>,
    sched: FetchScheduler,
}

impl NetMergerClient {
    /// A client with the paper's defaults: 128 KB transport buffers.
    pub fn new() -> Self {
        Self::with_client_config(ClientConfig::default())
    }

    /// A client with full control of retry, timeouts, window, and faults.
    pub fn with_client_config(config: ClientConfig) -> Self {
        crate::poll::pin_malloc_thresholds();
        let shared = Arc::new(ClientShared {
            fetch_stats: FetchStats::new(),
            config: ClientConfig {
                buffer_bytes: config.buffer_bytes.max(1),
                window: config.window.max(1),
                ..config
            },
        });
        NetMergerClient {
            sched: FetchScheduler::new(Arc::clone(&shared)),
            shared,
        }
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> ClientStats {
        let s = self.fetch_stats();
        ClientStats {
            connections_established: s.connections_established,
            connections_reused: s.connections_reused,
            bytes_fetched: s.bytes_fetched,
        }
    }

    /// Recovery counters and pipeline gauges: retries, reconnects,
    /// timeouts, resumed bytes, queue depth, window occupancy.
    pub fn fetch_stats(&self) -> FetchStatsSnapshot {
        self.shared.fetch_stats.snapshot()
    }

    /// Fetch every segment of a reducer through the pipelined scheduler
    /// and return the raw segment byte vectors in input order.
    ///
    /// Ops inject round-robin across supplier addresses (balanced
    /// injection); the scheduler keeps up to
    /// [`ClientConfig::window`] requests on the wire per supplier, so supplier disk
    /// prefetch and network transmission overlap across the whole
    /// reducer. Failures carry [`TransportError::Segment`] context
    /// naming the exact (MOF, reducer, supplier) that failed; the
    /// lowest-input-index failure is returned.
    pub fn fetch_all(&self, segs: &[SegmentRef]) -> Result<Vec<Vec<u8>>> {
        let (tx, rx) = mpsc::channel();
        let ops = balanced_order(segs)
            .into_iter()
            .filter_map(|i| {
                segs.get(i).map(|&seg| FetchOp {
                    token: i as u64,
                    seg,
                    offset: 0,
                    limit: 0,
                    done: tx.clone(),
                    tried: Vec::new(),
                })
            })
            .collect();
        self.sched.submit(ops);
        drop(tx);
        let mut out: Vec<Option<Vec<u8>>> = segs.iter().map(|_| None).collect();
        let mut failures: Vec<(u64, TransportError)> = Vec::new();
        // Every submitted op sends exactly one completion; stop at the
        // last one rather than wait for the scheduler to drop their
        // senders, so a wave ends the moment its last segment lands.
        // (The senders are all gone if the client shuts down first.)
        for done in rx.iter().take(segs.len()) {
            match done.result {
                Ok(bytes) => {
                    if let Some(slot) = out.get_mut(done.token as usize) {
                        *slot = Some(bytes);
                    }
                }
                Err(e) => failures.push((done.token, e)),
            }
        }
        // One failure surfaces with its full segment context; several
        // aggregate into a partial-failure report naming every failed
        // segment instead of an opaque first-error.
        if failures.len() > 1 {
            failures.sort_by_key(|(t, _)| *t);
            return Err(TransportError::Partial {
                failures: failures.into_iter().map(|(_, e)| e).collect(),
            });
        }
        if let Some((_, e)) = failures.pop() {
            return Err(e);
        }
        out.into_iter()
            .map(|slot| slot.ok_or_else(vanished))
            .collect()
    }

    /// Fetch one whole segment: [`Self::fetch_all`] of just `seg`, so it
    /// gets the same pipelining, resume, integrity and failover, and the
    /// same [`TransportError::Segment`] context on failure. With
    /// [`ClientConfig::window`] `= 1` it is strict lockstep — one request
    /// on the wire at a time — the Fig. 4 baseline.
    pub fn fetch_segment(&self, seg: SegmentRef) -> Result<Vec<u8>> {
        self.fetch_all(&[seg])?.pop().ok_or_else(vanished)
    }

    /// Fetch one chunk of at most [`ClientConfig::buffer_bytes`] at
    /// `offset`: a single request/response exchange on the segment's
    /// supplier connection, retried on transient failure. An empty
    /// payload means `offset` is at or past the segment's end.
    pub fn fetch_chunk(&self, seg: SegmentRef, offset: u64) -> Result<Vec<u8>> {
        let (done, rx) = mpsc::channel();
        self.sched.submit(vec![FetchOp {
            token: 0,
            seg,
            offset,
            limit: self.shared.config.buffer_bytes,
            done,
            tried: Vec::new(),
        }]);
        rx.recv().map_err(|_| vanished())?.result
    }

    /// **The network-levitated merge over real sockets**: merge a
    /// reducer's segments while their bodies stay on the remote suppliers.
    /// Each segment holds its current transport buffer in memory and
    /// keeps the next one in flight through the pipelined scheduler
    /// (double buffering), so the merge consumes chunk `k` while chunk
    /// `k+1` streams in. Peak client memory stays O(segments × buffer),
    /// independent of segment sizes.
    ///
    /// A segment's chunks fail over like any other op, and a fetch
    /// failure surfaces typed, with the same [`TransportError::Segment`]
    /// context as [`Self::fetch_all`].
    pub fn levitated_merge(&self, segs: &[SegmentRef]) -> Result<Vec<Record>> {
        // Every segment's first chunk is in flight before the merge
        // primes, so priming waits out one round trip, not one per
        // segment.
        let streams: Vec<NetworkSegmentStream> = segs
            .iter()
            .map(|&seg| {
                let mut stream = NetworkSegmentStream::new(self, seg);
                stream.fetch.request();
                stream
            })
            .collect();
        StreamingMerge::new(streams)
            .with_trace(self.shared.config.trace.clone())
            .collect_all()
            .map_err(|e| TransportError::from_bridged("levitated merge", e))
    }
}

/// A submitted op whose completion never arrived (the scheduler is
/// gone).
fn vanished() -> TransportError {
    TransportError::Io {
        during: "fetch",
        source: io::Error::other("fetch op vanished without completing"),
    }
}

impl Default for NetMergerClient {
    fn default() -> Self {
        Self::new()
    }
}

/// One segment's levitation window: the current transport buffer, parsed
/// incrementally, with the next buffer already in flight through the
/// scheduler (double buffering) while this one is consumed.
pub struct NetworkSegmentStream<'a> {
    /// Owns the transport buffer being parsed.
    parser: RecordParser,
    fetch: ChunkFetch<'a>,
}

/// The fetch half of a [`NetworkSegmentStream`]: hands out the segment's
/// transport buffers in order.
struct ChunkFetch<'a> {
    client: &'a NetMergerClient,
    seg: SegmentRef,
    /// Absolute offset up to which bytes have been received.
    offset: u64,
    done_tx: mpsc::Sender<FetchDone>,
    done_rx: mpsc::Receiver<FetchDone>,
    /// Whether the chunk at `offset` is in flight.
    pending: bool,
}

impl<'a> NetworkSegmentStream<'a> {
    /// A lazily-fetched stream over `seg`.
    pub fn new(client: &'a NetMergerClient, seg: SegmentRef) -> Self {
        let (done_tx, done_rx) = mpsc::channel();
        NetworkSegmentStream {
            parser: RecordParser::new(),
            fetch: ChunkFetch {
                client,
                seg,
                offset: 0,
                done_tx,
                done_rx,
                pending: false,
            },
        }
    }

    /// Bytes received from this segment so far.
    pub fn offset(&self) -> u64 {
        self.fetch.offset
    }
}

impl ChunkFetch<'_> {
    /// Submit the chunk at `self.offset`; the stream has at most one in
    /// flight, so its token needs no numbering.
    fn request(&mut self) {
        self.client.sched.submit(vec![FetchOp {
            token: 0,
            seg: self.seg,
            offset: self.offset,
            limit: self.client.shared.config.buffer_bytes,
            done: self.done_tx.clone(),
            tried: Vec::new(),
        }]);
        self.pending = true;
    }

    /// The next chunk at `self.offset` (`None` at segment end), keeping
    /// one chunk speculatively in flight whenever the previous one came
    /// back full-sized.
    fn next_chunk(&mut self) -> io::Result<Option<Vec<u8>>> {
        if !self.pending {
            self.request();
        }
        let done = self.done_rx.recv().map_err(|_| {
            io::Error::new(io::ErrorKind::Interrupted, "fetch scheduler disconnected")
        })?;
        self.pending = false;
        let payload = done.result.map_err(io::Error::from)?;
        // The segment's next chunks go where this one came from: a
        // replica, once a failover has moved it there.
        self.seg.addr = done.addr;
        if payload.is_empty() {
            return Ok(None);
        }
        self.offset += payload.len() as u64;
        if payload.len() as u64 == self.client.shared.config.buffer_bytes {
            // Full chunk: speculate the next one so it rides the wire
            // while the merge consumes this one.
            self.request();
        }
        Ok(Some(payload))
    }
}

impl RecordStream for NetworkSegmentStream<'_> {
    fn next_record(&mut self) -> io::Result<Option<Record>> {
        let fetch = &mut self.fetch;
        self.parser.next_record(|| fetch.next_chunk())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::Hook;
    use crate::server::MofSupplierServer;
    use crate::store::MofStore;
    use jbs_mapred::merge::{is_sorted, merge_sorted_runs};
    use jbs_mapred::mof::SegmentReader;

    /// Wait for the scheduler's gauges to drain: completions hand off
    /// before the loop finishes reading trailing speculative responses, so
    /// gauge assertions poll briefly instead of racing the drain.
    fn quiesce(client: &NetMergerClient) -> FetchStatsSnapshot {
        for _ in 0..400 {
            let fs = client.fetch_stats();
            if fs.window_inflight == 0 && fs.queued_ops == 0 {
                return fs;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        client.fetch_stats()
    }

    fn server_with_records(n: usize, partitions: usize) -> MofSupplierServer {
        let mut store = MofStore::temp().unwrap();
        let records: Vec<Record> = (0..n)
            .map(|i| {
                (
                    format!("key-{:06}", (i * 7919) % n).into_bytes(),
                    vec![i as u8; 20],
                )
            })
            .collect();
        store
            .write_mof(0, records, partitions, |k| {
                k.iter().map(|&b| b as usize).sum::<usize>() % partitions
            })
            .unwrap();
        MofSupplierServer::start(store).unwrap()
    }

    #[test]
    fn fetch_segment_roundtrips_bytes() {
        let server = server_with_records(300, 2);
        let client = NetMergerClient::new();
        let seg = client
            .fetch_segment(SegmentRef {
                addr: server.addr(),
                mof: 0,
                reducer: 0,
            })
            .unwrap();
        assert!(!seg.is_empty());
        assert!(client.stats().bytes_fetched > 0);
        assert_eq!(client.stats().connections_established, 1);
        server.shutdown();
    }

    #[test]
    fn connection_reuse_across_fetches() {
        let server = server_with_records(100, 2);
        let client = NetMergerClient::new();
        for reducer in [0u32, 1, 0, 1] {
            client
                .fetch_segment(SegmentRef {
                    addr: server.addr(),
                    mof: 0,
                    reducer,
                })
                .unwrap();
        }
        let s = client.stats();
        assert_eq!(s.connections_established, 1, "one connection per supplier");
        // Reuse is counted per fetch op admitted onto the open
        // connection: every fetch after the first.
        assert!(s.connections_reused >= 3, "{}", s.connections_reused);
        server.shutdown();
    }

    #[test]
    fn merge_produces_sorted_output() {
        let servers: Vec<MofSupplierServer> = (0..3).map(|_| server_with_records(200, 1)).collect();
        let client = NetMergerClient::new();
        let segs: Vec<SegmentRef> = servers
            .iter()
            .map(|s| SegmentRef {
                addr: s.addr(),
                mof: 0,
                reducer: 0,
            })
            .collect();
        let merged = client.levitated_merge(&segs).unwrap();
        assert_eq!(merged.len(), 600);
        assert!(is_sorted(&merged));
        for s in servers {
            s.shutdown();
        }
    }

    #[test]
    fn pipelined_fetch_all_matches_serial() {
        let servers: Vec<MofSupplierServer> =
            (0..3).map(|_| server_with_records(1500, 2)).collect();
        let segs: Vec<SegmentRef> = servers
            .iter()
            .flat_map(|s| {
                (0..2u32).map(|reducer| SegmentRef {
                    addr: s.addr(),
                    mof: 0,
                    reducer,
                })
            })
            .collect();
        // Small buffers force many chunks per segment, so the window
        // actually pipelines.
        let client = NetMergerClient::with_client_config(ClientConfig {
            buffer_bytes: 4 << 10,
            window: 6,
            ..ClientConfig::default()
        });
        let lockstep = NetMergerClient::with_client_config(ClientConfig {
            buffer_bytes: 4 << 10,
            window: 1,
            ..ClientConfig::default()
        });
        let pipelined = client.fetch_all(&segs).unwrap();
        let serial = lockstep.fetch_all(&segs).unwrap();
        assert_eq!(pipelined, serial, "pipelining must not change bytes");

        let fs = quiesce(&client);
        assert!(fs.window_peak > 1, "requests never overlapped: {fs:?}");
        assert!(fs.queue_depth_peak >= 1, "{fs:?}");
        assert_eq!(fs.window_inflight, 0, "window must drain: {fs:?}");
        assert_eq!(fs.queued_ops, 0, "queues must drain: {fs:?}");
        assert_eq!(
            fs.spec_discards, 0,
            "never speculates past a declared end: {fs:?}"
        );
        for s in servers {
            s.shutdown();
        }
    }

    /// `window = 1` is the Fig. 4 baseline: one request on the wire at a
    /// time, each aimed at the committed offset, so nothing is ever
    /// speculated and discarded.
    #[test]
    fn window_one_is_lockstep() {
        let server = server_with_records(1500, 1);
        let client = NetMergerClient::with_client_config(ClientConfig {
            buffer_bytes: 4 << 10,
            window: 1,
            ..ClientConfig::default()
        });
        let seg = SegmentRef {
            addr: server.addr(),
            mof: 0,
            reducer: 0,
        };
        let bytes = client.fetch_segment(seg).unwrap();
        assert!(bytes.len() > 4 * (4 << 10), "many chunks: {}", bytes.len());
        let fs = quiesce(&client);
        assert_eq!(fs.window_peak, 1, "{fs:?}");
        assert_eq!(fs.spec_discards, 0, "{fs:?}");
        server.shutdown();
    }

    fn served(server: &MofSupplierServer) -> u64 {
        server.stats_snapshot().requests
    }

    /// In lockstep a fetch asks only for bytes it keeps: a segment
    /// shorter than one buffer is one request, a longer one of length L
    /// exactly `ceil(L / buffer_bytes)`, with no empty-frame probe.
    #[test]
    fn lockstep_v3_requests_only_bytes_it_keeps() {
        let server = server_with_records(1500, 1);
        let seg = SegmentRef {
            addr: server.addr(),
            mof: 0,
            reducer: 0,
        };
        let whole = NetMergerClient::with_client_config(ClientConfig {
            buffer_bytes: 1 << 20,
            window: 1,
            ..ClientConfig::default()
        });
        let bytes = whole.fetch_segment(seg).unwrap();
        assert!(bytes.len() < 1 << 20 && bytes.len() > 4 * (4 << 10));
        assert_eq!(served(&server), 1);
        let chunked = NetMergerClient::with_client_config(ClientConfig {
            buffer_bytes: 4 << 10,
            window: 1,
            ..ClientConfig::default()
        });
        assert_eq!(chunked.fetch_segment(seg).unwrap(), bytes);
        let chunks = bytes.len().div_ceil(4 << 10) as u64;
        assert_eq!(served(&server), 1 + chunks);
        server.shutdown();
    }

    /// A single-exchange chunk at the start, mid-segment, exactly at the
    /// end (empty) and past the end (empty), matching the whole segment.
    #[test]
    fn fetch_chunk_reads_one_buffer_at_any_offset() {
        let server = server_with_records(1500, 1);
        let client = NetMergerClient::with_client_config(ClientConfig {
            buffer_bytes: 4 << 10,
            ..ClientConfig::default()
        });
        let seg = SegmentRef {
            addr: server.addr(),
            mof: 0,
            reducer: 0,
        };
        let whole = client.fetch_segment(seg).unwrap();
        let end = whole.len() as u64;
        let mid = end / 2;
        assert!(mid > 4 << 10 && end - mid > 4 << 10, "{end}");
        assert_eq!(client.fetch_chunk(seg, 0).unwrap(), whole[..4 << 10]);
        assert_eq!(
            client.fetch_chunk(seg, mid).unwrap(),
            whole[mid as usize..mid as usize + (4 << 10)]
        );
        assert_eq!(
            client.fetch_chunk(seg, end - 100).unwrap(),
            whole[end as usize - 100..],
            "short at the segment's tail"
        );
        assert!(client.fetch_chunk(seg, end).unwrap().is_empty());
        assert!(client.fetch_chunk(seg, end + (1 << 20)).unwrap().is_empty());
        assert_eq!(client.stats().connections_established, 1);
        server.shutdown();
    }

    /// Regression: `submit` used to count an op *after* pushing it, so
    /// the fetch loop could take and un-count it first; the gauge
    /// wrapped below zero and the next `record_op_queued` overflowed —
    /// a debug-build panic inside `fetch_all`. The ordering itself is
    /// checked exhaustively by the loom model beside `push_counted` in
    /// `sched.rs`; this test drives the real loop. The race needs the
    /// loop contending for the mailbox while submits land, so: tiny
    /// chunks (a response, hence an `admit`, every few microseconds), a
    /// window wide enough that `admit` always takes more, and several
    /// threads submitting bursts while the loop serves the others'
    /// ops.
    #[test]
    fn queued_ops_gauge_survives_submit_racing_admit() {
        const SEGMENTS: u32 = 64;
        const SUBMITTERS: u64 = 4;
        let server = server_with_records(6400, SEGMENTS as usize);
        let segs: Vec<SegmentRef> = (0..SEGMENTS)
            .map(|reducer| SegmentRef {
                addr: server.addr(),
                mof: 0,
                reducer,
            })
            .collect();
        let client = NetMergerClient::with_client_config(ClientConfig {
            buffer_bytes: 256,
            window: SEGMENTS as usize,
            ..ClientConfig::default()
        });
        std::thread::scope(|s| {
            for _ in 0..SUBMITTERS {
                s.spawn(|| {
                    for _ in 0..50 {
                        client.fetch_all(&segs).unwrap();
                    }
                });
            }
        });
        let fs = quiesce(&client);
        assert_eq!(fs.queued_ops, 0, "queues must drain: {fs:?}");
        assert!(
            fs.queue_depth_peak <= SUBMITTERS * u64::from(SEGMENTS),
            "gauge wrapped below zero: {fs:?}"
        );
        server.shutdown();
    }

    #[test]
    fn fetch_all_error_names_the_failing_segment() {
        let server = server_with_records(100, 1);
        let client = NetMergerClient::new();
        let segs = [
            SegmentRef {
                addr: server.addr(),
                mof: 0,
                reducer: 0,
            },
            SegmentRef {
                addr: server.addr(),
                mof: 99,
                reducer: 5,
            },
        ];
        let err = client.fetch_all(&segs).unwrap_err();
        match &err {
            TransportError::Segment {
                mof,
                reducer,
                peer,
                source,
            } => {
                assert_eq!((*mof, *reducer), (99, 5));
                assert_eq!(peer, &server.addr().to_string());
                assert!(matches!(source.as_ref(), TransportError::NotFound { .. }));
            }
            other => panic!("expected segment context, got {other}"),
        }
        assert!(!err.is_retryable());
        server.shutdown();
    }

    #[test]
    fn balanced_order_round_robins_addresses() {
        let a: SocketAddr = "127.0.0.1:7000".parse().unwrap();
        let b: SocketAddr = "127.0.0.1:7001".parse().unwrap();
        let seg = |addr, mof| SegmentRef {
            addr,
            mof,
            reducer: 0,
        };
        // Input clusters by address; injection must interleave them.
        let segs = [seg(a, 0), seg(a, 1), seg(a, 2), seg(b, 3), seg(b, 4)];
        assert_eq!(balanced_order(&segs), vec![0, 3, 1, 4, 2]);
        assert_eq!(balanced_order(&[]), Vec::<usize>::new());
    }

    #[test]
    fn missing_segment_is_an_error() {
        let server = server_with_records(10, 1);
        let client = NetMergerClient::new();
        let err = client
            .fetch_segment(SegmentRef {
                addr: server.addr(),
                mof: 9,
                reducer: 0,
            })
            .unwrap_err();
        match &err {
            TransportError::Segment { source, .. } => {
                assert!(
                    matches!(source.as_ref(), TransportError::NotFound { .. }),
                    "{source}"
                );
            }
            other => panic!("expected segment context, got {other}"),
        }
        assert!(!err.is_retryable());
        server.shutdown();
    }

    #[test]
    fn dead_supplier_exhausts_retries_with_connect_errors() {
        // Bind then drop a listener so the port is closed but was
        // recently valid.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let client = NetMergerClient::with_client_config(ClientConfig {
            retry: RetryPolicy {
                max_retries: 2,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(2),
            },
            io_timeout: Duration::from_millis(200),
            ..ClientConfig::default()
        });
        let err = client
            .fetch_segment(SegmentRef {
                addr,
                mof: 0,
                reducer: 0,
            })
            .unwrap_err();
        match &err {
            TransportError::Segment { source, .. } => assert!(
                matches!(
                    source.as_ref(),
                    TransportError::RetriesExhausted { attempts: 3, .. }
                ),
                "{source}"
            ),
            other => panic!("expected segment context, got {other}"),
        }
        let fs = client.fetch_stats();
        assert_eq!(fs.retries, 2);
        assert_eq!(fs.exhausted, 1);
        assert!(fs.connect_failures >= 3);
    }

    #[test]
    fn dead_supplier_fails_pipelined_ops_with_context() {
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let client = NetMergerClient::with_client_config(ClientConfig {
            retry: RetryPolicy {
                max_retries: 2,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(2),
            },
            io_timeout: Duration::from_millis(200),
            ..ClientConfig::default()
        });
        let err = client
            .fetch_all(&[SegmentRef {
                addr,
                mof: 4,
                reducer: 2,
            }])
            .unwrap_err();
        match &err {
            TransportError::Segment { mof, source, .. } => {
                assert_eq!(*mof, 4);
                assert!(
                    matches!(
                        source.as_ref(),
                        TransportError::RetriesExhausted { attempts: 3, .. }
                    ),
                    "{source}"
                );
            }
            other => panic!("expected segment context, got {other}"),
        }
        let fs = client.fetch_stats();
        assert_eq!(fs.retries, 2, "{fs:?}");
        assert_eq!(fs.exhausted, 1, "{fs:?}");
    }

    #[test]
    fn injected_refusals_are_retried_transparently() {
        let server = server_with_records(200, 1);
        let plan = FaultPlan::builder(42)
            .force(
                Hook::ClientConnect,
                0,
                crate::faults::FaultKind::RefuseConnect,
            )
            .build();
        let client = NetMergerClient::with_client_config(ClientConfig {
            retry: RetryPolicy {
                max_retries: 3,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(2),
            },
            faults: Some(Arc::clone(&plan)),
            ..ClientConfig::default()
        });
        let seg = client
            .fetch_segment(SegmentRef {
                addr: server.addr(),
                mof: 0,
                reducer: 0,
            })
            .unwrap();
        assert!(!seg.is_empty());
        let fs = client.fetch_stats();
        assert!(fs.retries >= 1);
        assert!(fs.connect_failures >= 1);
        assert_eq!(plan.stats().refusals, 1);
        server.shutdown();
    }

    /// Priming a levitated merge must not serialize the segments' first
    /// round trips: with every MOF read held 50 ms on the supplier,
    /// each segment's offset-0 request is on the wire before the first
    /// response comes back.
    #[test]
    fn levitated_merge_requests_every_first_chunk_before_any_response() {
        let servers: Vec<MofSupplierServer> = (0..3)
            .map(|_| {
                let mut store = MofStore::temp().unwrap();
                let records = (0..50)
                    .map(|i| (format!("k{i:03}").into_bytes(), vec![i as u8; 16]))
                    .collect();
                store.write_mof(0, records, 1, |_| 0).unwrap();
                MofSupplierServer::start_with_options(
                    store,
                    crate::server::ServerOptions {
                        synthetic_disk_delay: Duration::from_millis(50),
                        ..Default::default()
                    },
                )
                .unwrap()
            })
            .collect();
        let segs: Vec<SegmentRef> = servers
            .iter()
            .map(|s| SegmentRef {
                addr: s.addr(),
                mof: 0,
                reducer: 0,
            })
            .collect();
        let trace = jbs_obs::Trace::recording(1 << 12);
        let client = NetMergerClient::with_client_config(ClientConfig {
            trace: trace.clone(),
            ..ClientConfig::default()
        });
        assert_eq!(client.levitated_merge(&segs).unwrap().len(), 150);
        let events = trace.query();
        let first_recv = events
            .named("sched.recv")
            .events()
            .iter()
            .map(|e| e.seq)
            .min()
            .unwrap();
        let sent_before: std::collections::BTreeSet<_> = events
            .named("sched.send")
            .events()
            .iter()
            .filter(|e| e.a == 0 && e.seq < first_recv)
            .map(|e| e.entity)
            .collect();
        assert_eq!(sent_before.len(), segs.len(), "{sent_before:?}");
        for s in servers {
            s.shutdown();
        }
    }

    #[test]
    fn levitated_merge_matches_materializing_merge() {
        let servers: Vec<MofSupplierServer> = (0..3).map(|_| server_with_records(400, 1)).collect();
        let segs: Vec<SegmentRef> = servers
            .iter()
            .map(|s| SegmentRef {
                addr: s.addr(),
                mof: 0,
                reducer: 0,
            })
            .collect();
        // Small buffers so segments need many on-demand refills.
        let client = NetMergerClient::with_client_config(ClientConfig {
            buffer_bytes: 2 << 10,
            ..ClientConfig::default()
        });
        let levitated = client.levitated_merge(&segs).unwrap();
        let runs: Vec<Vec<Record>> = client
            .fetch_all(&segs)
            .unwrap()
            .iter()
            .map(|seg| {
                SegmentReader::new(seg)
                    .map(|rec| {
                        let (k, v) = rec.unwrap();
                        (k.to_vec(), v.to_vec())
                    })
                    .collect()
            })
            .collect();
        assert_eq!(levitated, merge_sorted_runs(runs));
        assert!(is_sorted(&levitated));
        assert_eq!(levitated.len(), 1200);
        for s in servers {
            s.shutdown();
        }
    }

    /// Every op shape fails over through the one routing function:
    /// whole segments, single chunks and the levitated stream's chunks.
    /// The first op aimed at the dead primary fails over reactively,
    /// once its retries left the breaker open; each later op is re-aimed
    /// at submit, or reactively if the breaker has cooled. Either way
    /// each op fails over once, and a levitated stream only for its
    /// first chunk: its later chunks go straight to the replica.
    #[test]
    fn every_op_shape_fails_over_to_a_replica() {
        let replica = server_with_records(1500, 1);
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let routes = Arc::new(crate::routes::RouteTable::new());
        routes.set_replicas(0, vec![dead, replica.addr()]);
        let trace = jbs_obs::Trace::recording(1 << 14);
        let client = NetMergerClient::with_client_config(ClientConfig {
            buffer_bytes: 4 << 10,
            retry: RetryPolicy {
                max_retries: 2,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(2),
            },
            breaker_threshold: 1,
            breaker_cooldown: Duration::from_millis(10),
            routes: Some(routes),
            trace: trace.clone(),
            ..ClientConfig::default()
        });
        let seg = SegmentRef {
            addr: dead,
            mof: 0,
            reducer: 0,
        };
        let truth = NetMergerClient::new()
            .fetch_segment(SegmentRef {
                addr: replica.addr(),
                ..seg
            })
            .unwrap();
        assert!(truth.len() > 4 * (4 << 10), "many chunks: {}", truth.len());
        assert_eq!(client.fetch_segment(seg).unwrap(), truth);
        assert_eq!(client.fetch_stats().failovers, 1);
        assert_eq!(client.fetch_chunk(seg, 0).unwrap(), truth[..4 << 10]);
        assert_eq!(client.fetch_stats().failovers, 2);
        assert_eq!(client.levitated_merge(&[seg]).unwrap().len(), 1500);
        assert_eq!(client.fetch_stats().failovers, 3);
        assert_eq!(trace.query().count("failover.redirect"), 3);
        replica.shutdown();
    }

    #[test]
    fn levitated_stream_fetches_on_demand() {
        let server = server_with_records(2000, 1);
        let client = NetMergerClient::with_client_config(ClientConfig {
            buffer_bytes: 4 << 10,
            ..ClientConfig::default()
        });
        let seg = SegmentRef {
            addr: server.addr(),
            mof: 0,
            reducer: 0,
        };
        let mut stream = NetworkSegmentStream::new(&client, seg);
        // Pulling one record must receive only the first window (the
        // second is at most in flight), not the whole multi-chunk
        // segment.
        let first = stream.next_record().unwrap().unwrap();
        assert!(!first.0.is_empty());
        assert_eq!(stream.offset(), 4 << 10, "exactly one buffer received");
        server.shutdown();
    }

    /// A levitated merge fails with the same typed, segment-named error
    /// as `fetch_all`, not a stringified one.
    #[test]
    fn levitated_merge_error_names_the_failing_segment() {
        let server = server_with_records(100, 1);
        let client = NetMergerClient::new();
        let segs = [
            SegmentRef {
                addr: server.addr(),
                mof: 0,
                reducer: 0,
            },
            SegmentRef {
                addr: server.addr(),
                mof: 99,
                reducer: 5,
            },
        ];
        match client.levitated_merge(&segs).unwrap_err() {
            TransportError::Segment {
                mof,
                reducer,
                peer,
                source,
            } => {
                assert_eq!((mof, reducer), (99, 5));
                assert_eq!(peer, server.addr().to_string());
                assert!(
                    matches!(*source, TransportError::NotFound { .. }),
                    "{source}"
                );
            }
            other => panic!("expected segment context, got {other}"),
        }
        server.shutdown();
    }

    #[test]
    fn v3_client_verifies_every_chunk() {
        let server = server_with_records(1000, 1);
        let trace = jbs_obs::Trace::recording(1 << 14);
        let client = NetMergerClient::with_client_config(ClientConfig {
            buffer_bytes: 4 << 10,
            trace: trace.clone(),
            ..ClientConfig::default()
        });
        let seg = SegmentRef {
            addr: server.addr(),
            mof: 0,
            reducer: 0,
        };
        let bytes = client.fetch_segment(seg).unwrap();
        // Every received chunk passed verification before admission,
        // and the op ended at the declared length: no end frame, no
        // speculation past it.
        let chunks = bytes.len().div_ceil(4 << 10);
        let verifies = trace.query().count("integrity.verify");
        assert_eq!(
            verifies, chunks,
            "{verifies} verifications of {chunks} chunks"
        );
        assert_eq!(client.fetch_stats().corrupt_refetches, 0);
        server.shutdown();
    }

    /// `checksum: false` skips only the CRC comparison: the fetch reads
    /// the same sealed frames, verifies none of them, and still ends at
    /// the declared length with no end frame — so a boundary truncation
    /// lie is still seen, and surfaces as `Truncated` once the re-fetch
    /// budget is spent.
    #[test]
    fn checksum_off_client_turns_a_boundary_truncation_lie_into_truncated() {
        let mut store = MofStore::temp().unwrap();
        let records: Vec<Record> = (0..1000)
            .map(|i| (format!("key-{i:06}").into_bytes(), vec![i as u8; 20]))
            .collect();
        store.write_mof(0, records, 1, |_| 0).unwrap();
        let truth = store.read_segment_range(0, 0, 0, 0).unwrap().unwrap();
        let chunks = truth.len().div_ceil(4 << 10) as u64;
        assert!(chunks > 2, "several chunks: {chunks}");
        // One clean fetch, then the second chunk of the next comes back
        // empty.
        let plan = FaultPlan::builder(13)
            .force(
                Hook::ServerPayload,
                chunks + 1,
                crate::faults::FaultKind::CleanEof,
            )
            .build();
        let server = crate::server::MofSupplierServer::start_with_options(
            store,
            crate::server::ServerOptions {
                faults: Some(Arc::clone(&plan)),
                ..crate::server::ServerOptions::default()
            },
        )
        .unwrap();
        let trace = jbs_obs::Trace::recording(1 << 14);
        let client = NetMergerClient::with_client_config(ClientConfig {
            buffer_bytes: 4 << 10,
            window: 1,
            trace: trace.clone(),
            checksum: false,
            integrity_retries: 0,
            ..ClientConfig::default()
        });
        let seg = SegmentRef {
            addr: server.addr(),
            mof: 0,
            reducer: 0,
        };
        assert_eq!(client.fetch_segment(seg).unwrap(), truth);
        assert_eq!(served(&server), chunks, "no end frame");
        assert_eq!(trace.query().count("integrity.verify"), 0);
        let err = client.fetch_segment(seg).unwrap_err();
        match err {
            TransportError::Segment { source, .. } => match *source {
                TransportError::Truncated { got, expected } => {
                    assert_eq!((got, expected), (4 << 10, truth.len() as u64));
                }
                other => panic!("expected Truncated, got {other}"),
            },
            other => panic!("expected segment context, got {other}"),
        }
        assert_eq!(plan.stats().clean_eof_lies, 1);
        server.shutdown();
    }

    /// `checksum: false` reads the same bytes as a verifying client, and
    /// not one chunk is verified. (The name dates from when a
    /// checksum-off client fell back to the unsealed v2 frame; now it
    /// reads the same sealed frames and only skips the comparison.)
    #[test]
    fn checksum_disabled_stays_on_v2() {
        let server = server_with_records(1000, 1);
        let trace = jbs_obs::Trace::recording(1 << 14);
        let config = ClientConfig {
            buffer_bytes: 4 << 10,
            trace: trace.clone(),
            ..ClientConfig::default()
        };
        let unverified = NetMergerClient::with_client_config(ClientConfig {
            checksum: false,
            ..config.clone()
        });
        let seg = SegmentRef {
            addr: server.addr(),
            mof: 0,
            reducer: 0,
        };
        let bytes = unverified.fetch_segment(seg).unwrap();
        assert!(bytes.len() > 4 << 10, "several chunks: {}", bytes.len());
        assert_eq!(trace.query().count("integrity.verify"), 0);
        let verified = NetMergerClient::with_client_config(config);
        assert_eq!(bytes, verified.fetch_segment(seg).unwrap());
        assert!(trace.query().count("integrity.verify") > 0);
        server.shutdown();
    }

    /// Verification is configured, never inferred from failures: two
    /// resets before a fresh client's first response must not turn
    /// CRC32C off, or a corrupting supplier's flipped bytes reach the
    /// caller.
    #[test]
    fn early_resets_never_turn_checksums_off() {
        let server_plan = FaultPlan::builder(11)
            .corrupt_payload(Hook::ServerPayload, 0.05)
            .build();
        let mut store = MofStore::temp().unwrap();
        let records: Vec<Record> = (0..1500)
            .map(|i| (format!("key-{i:06}").into_bytes(), vec![i as u8; 20]))
            .collect();
        store.write_mof(0, records, 1, |_| 0).unwrap();
        let truth = store.read_segment_range(0, 0, 0, 0).unwrap().unwrap();
        let server = crate::server::MofSupplierServer::start_with_options(
            store,
            crate::server::ServerOptions {
                buffer_bytes: 4 << 10,
                faults: Some(Arc::clone(&server_plan)),
                ..crate::server::ServerOptions::default()
            },
        )
        .unwrap();
        let client_plan = FaultPlan::builder(12)
            .force(Hook::ClientReadResponse, 0, crate::faults::FaultKind::Reset)
            .force(Hook::ClientReadResponse, 1, crate::faults::FaultKind::Reset)
            .build();
        let client = NetMergerClient::with_client_config(ClientConfig {
            buffer_bytes: 4 << 10,
            retry: RetryPolicy {
                max_retries: 4,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(2),
            },
            faults: Some(Arc::clone(&client_plan)),
            ..ClientConfig::default()
        });
        let seg = SegmentRef {
            addr: server.addr(),
            mof: 0,
            reducer: 0,
        };
        for i in 0..20 {
            assert!(
                client.fetch_segment(seg).unwrap() == truth,
                "fetch {i} corrupted"
            );
        }
        assert_eq!(client_plan.stats().resets, 2);
        assert!(server_plan.stats().payload_corruptions > 0);
        assert!(client.fetch_stats().corrupt_refetches > 0);
        server.shutdown();
    }

    #[test]
    fn corrupted_payload_is_refetched_with_bypass() {
        let server_plan = FaultPlan::builder(8)
            .force(
                Hook::ServerPayload,
                0,
                crate::faults::FaultKind::CorruptPayload,
            )
            .build();
        let mut store = MofStore::temp().unwrap();
        let records: Vec<Record> = (0..1500)
            .map(|i| (format!("key-{i:06}").into_bytes(), vec![i as u8; 20]))
            .collect();
        store.write_mof(0, records, 1, |_| 0).unwrap();
        let server = crate::server::MofSupplierServer::start_with_options(
            store,
            crate::server::ServerOptions {
                buffer_bytes: 4 << 10,
                faults: Some(Arc::clone(&server_plan)),
                ..crate::server::ServerOptions::default()
            },
        )
        .unwrap();
        let client = NetMergerClient::with_client_config(ClientConfig {
            buffer_bytes: 4 << 10,
            ..ClientConfig::default()
        });
        let seg = SegmentRef {
            addr: server.addr(),
            mof: 0,
            reducer: 0,
        };
        let first = client.fetch_segment(seg).unwrap();
        let clean = client.fetch_segment(seg).unwrap();
        assert_eq!(first, clean, "corruption never reached the caller");
        let fs = client.fetch_stats();
        assert_eq!(fs.corrupt_refetches, 1, "{fs:?}");
        assert_eq!(server_plan.stats().payload_corruptions, 1);
        assert_eq!(
            server.stats_snapshot().bypass_reads,
            1,
            "the re-fetch carried the bypass flag"
        );
        server.shutdown();
    }

    #[test]
    fn busy_pushback_is_honored_not_fatal() {
        let plan = FaultPlan::builder(9)
            .force(Hook::ServerAdmission, 0, crate::faults::FaultKind::Busy)
            .build();
        let mut store = MofStore::temp().unwrap();
        let records: Vec<Record> = (0..200)
            .map(|i| (format!("k{i:04}").into_bytes(), vec![3; 16]))
            .collect();
        store.write_mof(0, records, 1, |_| 0).unwrap();
        let server = crate::server::MofSupplierServer::start_with_options(
            store,
            crate::server::ServerOptions {
                faults: Some(Arc::clone(&plan)),
                ..crate::server::ServerOptions::default()
            },
        )
        .unwrap();
        let client = NetMergerClient::new();
        let seg = SegmentRef {
            addr: server.addr(),
            mof: 0,
            reducer: 0,
        };
        let bytes = client.fetch_segment(seg).unwrap();
        assert!(!bytes.is_empty());
        let fs = client.fetch_stats();
        assert_eq!(fs.busy_backoffs, 1, "{fs:?}");
        assert_eq!(server.stats_snapshot().busy_rejections, 1);
        server.shutdown();
    }

    #[test]
    fn boundary_truncation_lie_recovers_via_refetch() {
        // One clean-EOF lie: the accounting notices the shortfall and a
        // bypass re-fetch makes the segment whole.
        let plan = FaultPlan::builder(10)
            .force(Hook::ServerPayload, 0, crate::faults::FaultKind::CleanEof)
            .build();
        let mut store = MofStore::temp().unwrap();
        let records: Vec<Record> = (0..800)
            .map(|i| (format!("k{i:05}").into_bytes(), vec![i as u8; 24]))
            .collect();
        store.write_mof(0, records, 1, |_| 0).unwrap();
        let server = crate::server::MofSupplierServer::start_with_options(
            store,
            crate::server::ServerOptions {
                buffer_bytes: 4 << 10,
                faults: Some(Arc::clone(&plan)),
                ..crate::server::ServerOptions::default()
            },
        )
        .unwrap();
        let client = NetMergerClient::with_client_config(ClientConfig {
            buffer_bytes: 4 << 10,
            ..ClientConfig::default()
        });
        let seg = SegmentRef {
            addr: server.addr(),
            mof: 0,
            reducer: 0,
        };
        let lied = client.fetch_segment(seg).unwrap();
        let clean = client.fetch_segment(seg).unwrap();
        assert_eq!(lied, clean, "the lie was detected and repaired");
        assert!(client.fetch_stats().corrupt_refetches >= 1);
        assert_eq!(plan.stats().clean_eof_lies, 1);
        server.shutdown();
    }

    #[test]
    fn persistent_truncation_surfaces_typed_error() {
        // The lie repeats past the integrity budget: the caller gets a
        // typed Truncated error, not a silently short segment: the
        // frame's declared segment length exposes the lie.
        let plan = FaultPlan::builder(11)
            .force(Hook::ServerPayload, 0, crate::faults::FaultKind::CleanEof)
            .force(Hook::ServerPayload, 1, crate::faults::FaultKind::CleanEof)
            .force(Hook::ServerPayload, 2, crate::faults::FaultKind::CleanEof)
            .build();
        let mut store = MofStore::temp().unwrap();
        let records: Vec<Record> = (0..200)
            .map(|i| (format!("k{i:04}").into_bytes(), vec![7; 16]))
            .collect();
        store.write_mof(0, records, 1, |_| 0).unwrap();
        let server = crate::server::MofSupplierServer::start_with_options(
            store,
            crate::server::ServerOptions {
                faults: Some(Arc::clone(&plan)),
                ..crate::server::ServerOptions::default()
            },
        )
        .unwrap();
        let client = NetMergerClient::new();
        let err = client
            .fetch_segment(SegmentRef {
                addr: server.addr(),
                mof: 0,
                reducer: 0,
            })
            .unwrap_err();
        match err {
            TransportError::Segment { source, .. } => match *source {
                TransportError::Truncated { got, expected } => {
                    assert_eq!(got, 0);
                    assert!(expected > 0);
                }
                other => panic!("expected Truncated, got {other}"),
            },
            other => panic!("expected segment context, got {other}"),
        }
        assert_eq!(client.fetch_stats().corrupt_refetches, 2, "budget spent");
        server.shutdown();
    }

    /// One loop serves every supplier, so a supplier that accepts a
    /// request and never answers must not hold up another: a wave from
    /// a healthy supplier lands while a chunk from the silent one is
    /// still pending, and that chunk then ends in a timeout.
    #[test]
    fn a_silent_supplier_does_not_hold_up_a_healthy_one() {
        let healthy = server_with_records(1500, 2);
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let silent = SegmentRef {
            addr: listener.local_addr().unwrap(),
            mof: 0,
            reducer: 0,
        };
        let (heard_tx, heard) = mpsc::channel();
        let (release, hold) = mpsc::channel::<()>();
        let supplier = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut request = [0u8; crate::wire::REQUEST_LEN_V3];
            io::Read::read_exact(&mut stream, &mut request).unwrap();
            heard_tx.send(()).unwrap();
            // Never answer, and keep the connection open meanwhile.
            let _ = hold.recv();
        });
        let io_timeout = Duration::from_millis(300);
        let client = NetMergerClient::with_client_config(ClientConfig {
            retry: RetryPolicy::none(),
            io_timeout,
            ..ClientConfig::default()
        });
        let segs: Vec<SegmentRef> = (0..2)
            .map(|reducer| SegmentRef {
                addr: healthy.addr(),
                mof: 0,
                reducer,
            })
            .collect();
        std::thread::scope(|s| {
            let pending = s.spawn(|| client.fetch_chunk(silent, 0));
            heard.recv().unwrap();
            let started = std::time::Instant::now();
            let wave = client.fetch_all(&segs).unwrap();
            let took = started.elapsed();
            assert!(wave.iter().all(|seg| !seg.is_empty()));
            assert!(took < io_timeout, "the healthy wave took {took:?}");
            assert!(!pending.is_finished(), "the silent chunk is still due");
            let err = pending.join().unwrap().unwrap_err();
            assert!(err.is_timeout(), "{err}");
        });
        assert_eq!(client.fetch_stats().timeouts, 1);
        drop(release);
        supplier.join().unwrap();
        healthy.shutdown();
    }

    #[test]
    fn two_failures_aggregate_into_partial_report() {
        let server = server_with_records(100, 1);
        let client = NetMergerClient::new();
        let segs = [
            SegmentRef {
                addr: server.addr(),
                mof: 0,
                reducer: 0,
            },
            SegmentRef {
                addr: server.addr(),
                mof: 98,
                reducer: 1,
            },
            SegmentRef {
                addr: server.addr(),
                mof: 99,
                reducer: 2,
            },
        ];
        let err = client.fetch_all(&segs).unwrap_err();
        match &err {
            TransportError::Partial { failures } => {
                assert_eq!(failures.len(), 2);
                for f in failures {
                    assert!(matches!(f, TransportError::Segment { .. }), "{f}");
                }
            }
            other => panic!("expected partial report, got {other}"),
        }
        server.shutdown();
    }
}
