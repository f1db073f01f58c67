//! # jbs-transport — a real TCP dataplane for JBS
//!
//! Everything else in this repository simulates time; this crate moves
//! *real bytes over real sockets* to demonstrate that the JBS components
//! are implementable exactly as designed:
//!
//! * [`wire`] — the JBS fetch protocol: fixed-size framed requests
//!   addressed by `(MOF, reducer, offset, len)` and framed data responses.
//! * [`store`] — an on-disk MOF store using the byte-real
//!   [`jbs_mapred::mof`] formats (data + index files).
//! * [`server`] — the MOFSupplier: one event-driven serve loop (a
//!   `poll(2)` reactor thread that accepts from its own poll set and
//!   owns every connection) with an in-memory IndexCache and a DataCache
//!   that serves segment ranges zero-copy from refcounted leases. A pool
//!   of **disk workers** stages read-ahead ranges from a queue grouped
//!   by MOF, ordered by offset, and served round-robin (Fig. 5), so disk
//!   reads overlap network transmission.
//! * [`client`] — the NetMerger: a client that consolidates fetches onto
//!   one connection per supplier, pulls segments from many suppliers
//!   concurrently, and k-way merges them into a reduce-ready sorted
//!   stream. Its background fetch scheduler — the one fetch path — keeps
//!   a bounded window of **pipelined requests** in flight per supplier
//!   connection, injected round-robin across segments, with completions
//!   handed back over channels — the other half of the read/transmit
//!   overlap.
//!
//! The integration tests under `tests/` run a full multi-"node" shuffle
//! over 127.0.0.1 and verify byte-exact results against a reference sort.
//!
//! A supplier can additionally carry a memory-tier hybrid store
//! ([`ServerOptions::hybrid`], from `jbs-store-hybrid`): partitions it
//! holds are answered from its MEMORY/LOCALFILE/REMOTE tiers before the
//! DataCache/disk path, and [`server::MofSupplierServer::drain`] doubles
//! as quick decommission by pushing its contents to the REMOTE tier.
//!
//! Real RDMA NICs are the one thing this reproduction cannot assume (see
//! DESIGN.md §2); RDMA is modelled where the paper's numbers come from,
//! in the simulator's `jbs_net::Protocol` table.
//!
//! ## Failure model
//!
//! The dataplane assumes connections can fail at any point — refused
//! dials, mid-stream resets, truncated or corrupted frames, and stalls
//! past a deadline. Recovery is layered:
//!
//! * [`error`] — the [`TransportError`] taxonomy; every variant is
//!   classified retryable or not.
//! * [`retry`] — [`retry::RetryPolicy`]: bounded retries with
//!   exponential backoff and seed-deterministic jitter.
//! * [`stats`] — [`stats::FetchStats`]: the client's retries,
//!   reconnects, timeouts and resumed bytes. The supplier counts the
//!   connections it closed on an error in
//!   [`SupplierStatsSnapshot::conn_errors`].
//! * [`faults`] — a seeded [`faults::FaultPlan`] that injects those
//!   same failures at named hooks, deterministically, for chaos tests
//!   (`tests/chaos_shuffle.rs`).
//!
//! On top sits the survivability layer (DESIGN.md §12): end-to-end
//! CRC32C integrity on every chunk with targeted cache-bypass
//! re-fetch on mismatch, supplier admission control replying typed
//! `Busy` pushback instead of stalling (plus graceful drain shutdown),
//! and a per-peer circuit breaker in the fetch scheduler that fails
//! fast on dead peers and probes them half-open on a backoff schedule.

mod breaker;
mod bufpool;
pub mod client;
pub mod error;
pub mod faults;
pub mod iosched;
mod poll;
mod prefetch;
mod reactor;
pub mod retry;
pub mod routes;
mod sched;
pub mod server;
mod staging;
pub mod stats;
pub mod store;
mod sync;
pub mod wire;

pub use bufpool::BufPoolStats;
pub use client::{ClientConfig, NetMergerClient};
pub use error::TransportError;
pub use faults::{FaultAction, FaultKind, FaultPlan, Hook};
pub use iosched::{IoClass, IoPermit, IoSchedStats, IoScheduler};
pub use retry::RetryPolicy;
pub use routes::RouteTable;
pub use server::{MofSupplierServer, ServerOptions, SupplierStatsSnapshot};
pub use stats::{FetchStats, FetchStatsSnapshot};
pub use store::MofStore;
pub use wire::{FetchRequest, FetchResponse};
