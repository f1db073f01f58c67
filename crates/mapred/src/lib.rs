//! # jbs-mapred — a miniature Hadoop MapReduce runtime model
//!
//! Everything JBS plugs into, built from scratch:
//!
//! * [`mof`] — the Map Output File and Index file **binary formats**
//!   (Hadoop's IFile/index pair, simplified but real: the loopback
//!   dataplane in `jbs-transport` serves genuine MOF bytes with them);
//! * [`merge`] — sorting and merging of key/value runs, the substrate
//!   under both Hadoop's sort/merge and JBS's merging (the merge itself
//!   is [`levitate`]'s);
//! * [`extsort`] — the MapTask's external sort/spill/merge pipeline as a
//!   real algorithm (bounded memory, spill files in the MOF record
//!   format);
//! * [`levitate`] — the network-levitated merge as a streaming algorithm:
//!   an incremental record parser plus a bounded-lookahead merge over
//!   lazily refilled record streams (used on real sockets by
//!   `jbs-transport`);
//! * [`cluster`] / [`job`] — the testbed and workload descriptions
//!   (23 nodes, 4 MapTask + 2 ReduceTask slots per slave, 256 MB HDFS
//!   blocks — Sec. V);
//! * [`sim`] — the discrete-event job simulator: map phase, a pluggable
//!   [`sim::ShuffleEngine`] (the paper's "plugin module" boundary,
//!   MAPREDUCE-4049), and the reduce phase, producing job execution times
//!   and per-node CPU timelines.
//!
//! The shuffle engines themselves — stock Hadoop's HttpServlet/MOFCopier
//! path and the JBS MOFSupplier/NetMerger path — live in `jbs-core` and
//! implement [`sim::ShuffleEngine`].

pub mod cluster;
pub mod extsort;
pub mod job;
pub mod levitate;
pub mod merge;
pub mod mof;
pub mod sim;

pub use cluster::ClusterConfig;
pub use job::JobSpec;
pub use mof::{IndexEntry, MofIndex, MofWriter, SegmentReader};
pub use sim::{JobResult, JobSimulator, ShuffleEngine, ShuffleOutcome, ShufflePlan};
