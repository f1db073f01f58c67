//! Set-up and tear-down of the fetch/merge workloads' suppliers, and
//! the counter snapshot every layer's public stats are read through.

use crate::data::{generate_mof, partition_of, Oracle, Shape};
use crate::spec::{Backing, Workload};
use jbs_obs::{Entity, Trace};
use jbs_store_hybrid::{HybridConfig, HybridStore};
use jbs_transport::client::SegmentRef;
use jbs_transport::{ClientConfig, MofStore, MofSupplierServer, NetMergerClient, ServerOptions};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Appends reach the hybrid store in transport-buffer-sized pieces.
pub const APPEND_CHUNK: usize = 128 << 10;
pub const MIB: f64 = (1u64 << 20) as f64;
pub const GIB: f64 = (1u64 << 30) as f64;

/// Size of the file at `path`, 0 if there is none.
pub fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Flush every file under `dir` to the device. Set-up ends with this, so
/// the kernel's write-back of freshly written MOF and spill files does
/// not run beside (and disturb) the timed passes.
pub fn sync_tree(dir: &Path) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            sync_tree(&path)?;
        } else {
            std::fs::File::open(&path)?.sync_all()?;
        }
    }
    Ok(())
}

/// A running set of suppliers plus the one client that loads them.
pub struct Cluster {
    pub servers: Vec<MofSupplierServer>,
    pub hybrids: Vec<Arc<HybridStore>>,
    pub client: NetMergerClient,
    /// One wave per reducer: that reducer's segment of every MOF.
    pub waves: Vec<Vec<SegmentRef>>,
    pub oracle: Oracle,
    pub pass_bytes: u64,
    pub pass_records: u64,
    dir: PathBuf,
}

impl Cluster {
    /// Generate `w`'s data, write the stores, flush them, start the
    /// suppliers and the client. Returns the cluster and the seconds all
    /// of that took (`setup_s`).
    pub fn build(
        w: &Workload,
        shape: Shape,
        seed: u64,
        trace: &Trace,
        dir: &Path,
    ) -> io::Result<(Cluster, f64)> {
        let start = Instant::now();
        let span = trace.span("bench.setup", Entity::NONE, seed, 0);
        let mut oracle = Oracle::default();
        let (mut servers, mut hybrids) = (Vec::new(), Vec::new());
        let (mut pass_bytes, mut pass_records) = (0u64, 0u64);
        for s in 0..shape.suppliers {
            let sdir = dir.join(format!("supplier-{s}"));
            let mut store = MofStore::at(&sdir.join("mofs"))?;
            let hybrid = match w.backing {
                Backing::Mof { .. } => None,
                Backing::HybridMem | Backing::HybridSpill => {
                    Some(HybridStore::new(HybridConfig {
                        memory_budget: match w.backing {
                            // 4x the framed bytes this supplier will hold,
                            // so the 0.5 watermark is never reached.
                            Backing::HybridMem => {
                                4 * shape.mofs_per_supplier * (shape.records_per_mof + 64) * 112
                            }
                            _ => 2 * APPEND_CHUNK,
                        },
                        data_dir: Some(sdir.join("hybrid")),
                        remote_dir: Some(sdir.join("remote")),
                        trace: trace.clone(),
                        ..HybridConfig::default()
                    })?)
                }
            };
            for i in 0..shape.mofs_per_supplier {
                let id = (s * shape.mofs_per_supplier + i) as u64;
                let mof = generate_mof(seed, id, shape.reducers, shape.records_per_mof);
                oracle.add_mof(&mof);
                pass_bytes += mof.expect.iter().map(|e| e.len).sum::<u64>();
                pass_records += mof.expect.iter().map(|e| e.records).sum::<u64>();
                match &hybrid {
                    None => {
                        let parts = shape.reducers;
                        store.write_mof(id, mof.records, parts, |k| partition_of(k, parts))?;
                    }
                    Some(h) => {
                        for (r, seg) in mof.segments.iter().enumerate() {
                            for chunk in seg.chunks(APPEND_CHUNK) {
                                h.append(id, r as u32, chunk)?;
                            }
                        }
                    }
                }
            }
            sync_tree(&sdir)?;
            let delay = match w.backing {
                Backing::Mof { delay } => delay,
                _ => std::time::Duration::ZERO,
            };
            servers.push(MofSupplierServer::start_with_options(
                store,
                ServerOptions {
                    synthetic_disk_delay: delay,
                    trace: trace.clone(),
                    hybrid: hybrid.clone(),
                    ..ServerOptions::default()
                },
            )?);
            hybrids.extend(hybrid);
        }
        let client = NetMergerClient::with_client_config(ClientConfig {
            trace: trace.clone(),
            ..ClientConfig::default()
        });
        let waves = (0..shape.reducers as u32)
            .map(|reducer| {
                servers
                    .iter()
                    .enumerate()
                    .flat_map(|(s, server)| {
                        (0..shape.mofs_per_supplier).map(move |i| SegmentRef {
                            addr: server.addr(),
                            mof: (s * shape.mofs_per_supplier + i) as u64,
                            reducer,
                        })
                    })
                    .collect()
            })
            .collect();
        drop(span);
        let cluster = Cluster {
            servers,
            hybrids,
            client,
            waves,
            oracle,
            pass_bytes,
            pass_records,
            dir: dir.to_path_buf(),
        };
        Ok((cluster, start.elapsed().as_secs_f64()))
    }

    pub fn pass_segments(&self) -> u64 {
        self.waves.iter().map(|w| w.len() as u64).sum()
    }

    pub fn counters(&self) -> Counters {
        Counters::collect(&self.servers, &self.hybrids, &self.client)
    }

    /// Stop every thread the cluster started and delete its files.
    pub fn teardown(self) {
        drop(self.client);
        for s in self.servers {
            s.shutdown();
        }
        for h in self.hybrids {
            h.close();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One of the layers' public counters, summed across suppliers, stores
/// and the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ctr {
    Requests,
    ServedBytes,
    DatacacheHits,
    SyncStages,
    PrefetchedBatches,
    /// A high-water mark, not a count: intervals combine by `max`.
    PrefetchQueuePeak,
    HybridHits,
    Syscalls,
    CopiedBytes,
    ZerocopyBytes,
    PartialWrites,
    BusyRejections,
    BufpoolHits,
    BufpoolMisses,
    ReactorWakes,
    ReadAcquires,
    ReadWaits,
    AppendAcquires,
    AppendWaits,
    MemoryHits,
    LocalHits,
    SpillTrips,
    Retries,
    Reconnects,
    Timeouts,
    CorruptRefetches,
    Failovers,
    ConnectionsEstablished,
}

const CTRS: usize = Ctr::ConnectionsEstablished as usize + 1;

/// A snapshot of every [`Ctr`], or the activity between two snapshots.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters([u64; CTRS]);

impl std::ops::Index<Ctr> for Counters {
    type Output = u64;
    fn index(&self, c: Ctr) -> &u64 {
        &self.0[c as usize]
    }
}

impl std::ops::IndexMut<Ctr> for Counters {
    fn index_mut(&mut self, c: Ctr) -> &mut u64 {
        &mut self.0[c as usize]
    }
}

impl Counters {
    pub fn collect(
        servers: &[MofSupplierServer],
        hybrids: &[Arc<HybridStore>],
        client: &NetMergerClient,
    ) -> Counters {
        let mut c = Counters::default();
        for s in servers {
            let st = s.stats_snapshot();
            c[Ctr::Requests] += st.requests;
            c[Ctr::ServedBytes] += st.bytes;
            c[Ctr::DatacacheHits] += st.datacache_hits;
            c[Ctr::SyncStages] += st.sync_stages;
            c[Ctr::PrefetchedBatches] += st.prefetched_batches;
            c[Ctr::PrefetchQueuePeak] = c[Ctr::PrefetchQueuePeak].max(st.prefetch_queue_peak);
            c[Ctr::HybridHits] += st.hybrid_hits;
            c[Ctr::Syscalls] += st.read_syscalls + st.write_syscalls;
            c[Ctr::CopiedBytes] += st.copied_bytes;
            c[Ctr::ZerocopyBytes] += st.zerocopy_bytes;
            c[Ctr::PartialWrites] += st.partial_writes;
            c[Ctr::BusyRejections] += st.busy_rejections;
            c[Ctr::BufpoolHits] += st.bufpool.hits;
            c[Ctr::BufpoolMisses] += st.bufpool.misses;
            c[Ctr::ReactorWakes] += st.reactor_wakes;
            c[Ctr::ReadAcquires] += st.iosched.read_acquires;
            c[Ctr::ReadWaits] += st.iosched.read_waits;
            c[Ctr::AppendAcquires] += st.iosched.append_acquires;
            c[Ctr::AppendWaits] += st.iosched.append_waits;
        }
        for h in hybrids {
            let st = h.stats();
            c[Ctr::MemoryHits] += st.memory_hits;
            c[Ctr::LocalHits] += st.local_hits;
            c[Ctr::SpillTrips] += st.spill_trips;
        }
        let f = client.fetch_stats();
        c[Ctr::Retries] = f.retries;
        c[Ctr::Reconnects] = f.reconnects;
        c[Ctr::Timeouts] = f.timeouts;
        c[Ctr::CorruptRefetches] = f.corrupt_refetches;
        c[Ctr::Failovers] = f.failovers;
        c[Ctr::ConnectionsEstablished] = client.stats().connections_established;
        c
    }

    /// Activity between the snapshot `before` and this one.
    pub fn since(&self, before: &Counters) -> Counters {
        let mut out = *self;
        for (o, b) in out.0.iter_mut().zip(before.0) {
            *o = o.saturating_sub(b);
        }
        out[Ctr::PrefetchQueuePeak] = self[Ctr::PrefetchQueuePeak];
        out
    }

    /// Activity of two disjoint intervals taken together.
    pub fn plus(&self, other: &Counters) -> Counters {
        let mut out = *self;
        for (o, x) in out.0.iter_mut().zip(other.0) {
            *o += x;
        }
        out[Ctr::PrefetchQueuePeak] =
            self[Ctr::PrefetchQueuePeak].max(other[Ctr::PrefetchQueuePeak]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intervals_subtract_and_add_but_peaks_take_the_max() {
        let mut a = Counters::default();
        let mut b = Counters::default();
        a[Ctr::Requests] = 10;
        a[Ctr::PrefetchQueuePeak] = 3;
        b[Ctr::Requests] = 25;
        b[Ctr::PrefetchQueuePeak] = 7;
        let d = b.since(&a);
        assert_eq!((d[Ctr::Requests], d[Ctr::PrefetchQueuePeak]), (15, 7));
        let s = d.plus(&a);
        assert_eq!((s[Ctr::Requests], s[Ctr::PrefetchQueuePeak]), (25, 7));
    }
}
