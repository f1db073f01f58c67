//! The JBS shuffle engine: NetMerger + MOFSupplier, JVM-bypassed.
//!
//! The engine drives one [`NetMerger`] and one [`MofSupplier`] per node
//! against the simulated cluster with a single global event queue. Each
//! event is a free transport buffer on some node's NetMerger; handling it
//! injects the next fetch chunk chosen by the round-robin scheduler, walks
//! the chunk through connection acquisition, request latency, supplier
//! staging (IndexCache + batched prefetch), transmit CPU, the wire, and
//! receive+merge CPU, then frees the buffer at completion. The number of
//! buffers per node — DataCache bytes over transport-buffer size — is the
//! pipelining window (Fig. 11).
//!
//! Everything runs on the native-C cost table ([`PathCosts::native_c`]):
//! no stream-read tax, no allocation, no GC, and only 3 threads per side.

pub mod netmerger;
pub mod supplier;

use crate::config::JbsConfig;
use jbs_des::{EventQueue, SimTime};
use jbs_jvm::PathCosts;
use jbs_mapred::sim::{ShuffleEngine, ShuffleOutcome, ShufflePlan, SimCluster};
use jbs_net::ConnectionManager;
use netmerger::{Group, NetMerger, NextAction, SegTask};
use supplier::MofSupplier;

/// CPU per byte of the network-levitated merge (priority-queue streaming
/// merge of incoming buffers).
const MERGE_CPU_PER_RECORD: f64 = 40e-9;

/// Latency of the final merge flush once a reducer's last chunk lands.
const FINAL_FLUSH: SimTime = SimTime::from_millis(10);

/// Background threads per node (3 NetMerger data threads + 3 MOFSupplier
/// threads, Sec. V-D).
const NATIVE_THREADS_PER_NODE: f64 = 6.0;

/// The JVM-Bypass Shuffling engine.
pub struct JbsShuffle {
    cfg: JbsConfig,
    label: String,
    /// Sim-time structured trace (disabled unless [`JbsShuffle::traced`]).
    trace: jbs_obs::Trace,
    /// Drives the trace's manual clock to each event's sim time, keeping
    /// recorded timestamps deterministic across runs.
    clock: Option<jbs_obs::ManualClock>,
}

impl Default for JbsShuffle {
    fn default() -> Self {
        Self::new()
    }
}

impl JbsShuffle {
    /// JBS with the paper's default configuration.
    pub fn new() -> Self {
        Self::with_config(JbsConfig::default())
    }

    /// JBS with an explicit configuration (buffer sweeps, ablations).
    pub fn with_config(cfg: JbsConfig) -> Self {
        cfg.validate().expect("invalid JBS config");
        JbsShuffle {
            cfg,
            label: "JBS".to_string(),
            trace: jbs_obs::Trace::disabled(),
            clock: None,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &JbsConfig {
        &self.cfg
    }

    /// Record up to `capacity` sim events against a [`jbs_obs::ManualClock`]
    /// set to each event's sim time — identical runs yield byte-identical
    /// traces (see the `traced_run_is_deterministic` test).
    pub fn traced(mut self, capacity: usize) -> Self {
        let clock = jbs_obs::ManualClock::new();
        self.trace = jbs_obs::Trace::recording_with(capacity, clock.clock());
        self.clock = Some(clock);
        self
    }

    /// The engine's trace handle (disabled unless [`JbsShuffle::traced`]).
    pub fn trace(&self) -> &jbs_obs::Trace {
        &self.trace
    }
}

impl ShuffleEngine for JbsShuffle {
    fn name(&self) -> &str {
        &self.label
    }

    fn run(&mut self, cluster: &mut SimCluster, plan: &ShufflePlan) -> ShuffleOutcome {
        let slaves = cluster.cfg.slaves;
        let reducers = plan.reducers.len();
        let costs = PathCosts::native_c();
        let record = plan.avg_record_bytes.max(1);

        // Absolute segment offsets inside each MOF (prefix sums).
        let seg_off: Vec<Vec<u64>> = plan
            .mofs
            .iter()
            .map(|m| {
                let mut acc = 0u64;
                m.seg_bytes
                    .iter()
                    .map(|&b| {
                        let o = acc;
                        acc += b;
                        o
                    })
                    .collect()
            })
            .collect();

        // Each client node learns of a committed MOF at its next
        // TaskCompletionEvents poll; the merge phase begins once the last
        // notification lands. Segment bodies levitate on remote disks until
        // then (SC'11 algorithm), modulo the eager staging budget.
        let mut mergers: Vec<NetMerger> = (0..slaves)
            .map(|client| {
                let mut hb_rng = cluster.rng.fork(0x3B5 + client as u64);
                let visible: Vec<SimTime> =
                    plan.mofs
                        .iter()
                        .map(|m| {
                            m.ready
                                + SimTime::from_nanos(hb_rng.uniform_u64(
                                    0,
                                    self.cfg.notification_latency.as_nanos().max(1),
                                ))
                        })
                        .collect();
                let barrier = visible.iter().copied().fold(SimTime::ZERO, SimTime::max);
                let groups: Vec<Group> = (0..slaves)
                    .map(|remote| {
                        let segs: Vec<SegTask> = plan
                            .mofs
                            .iter()
                            .filter(|m| m.node == remote)
                            .flat_map(|m| {
                                plan.reducers
                                    .iter()
                                    .filter(|r| r.node == client)
                                    .map(|r| SegTask {
                                        mof: m.mof_id,
                                        reducer: r.id,
                                        seg_off: seg_off[m.mof_id][r.id],
                                        bytes: m.seg_bytes[r.id],
                                        fetched: 0,
                                        ready: visible[m.mof_id],
                                        body_gate: barrier,
                                    })
                                    .collect::<Vec<_>>()
                            })
                            .collect();
                        NetMerger::group(remote, segs)
                    })
                    .collect();
                NetMerger::new(
                    client,
                    groups,
                    self.cfg.buffer_bytes,
                    self.cfg.round_robin_injection,
                )
                .with_prefetch_budget(self.cfg.prefetch_budget_per_reducer)
            })
            .collect();

        let mut suppliers: Vec<MofSupplier> =
            (0..slaves).map(|_| MofSupplier::new(reducers)).collect();
        let mut conns: Vec<ConnectionManager> = (0..slaves)
            .map(|_| {
                ConnectionManager::with_capacity(
                    cluster.cfg.protocol.params(),
                    self.cfg.max_connections,
                )
            })
            .collect();
        // Serialization point per server for the no-pipelining ablation.
        let mut server_free = vec![SimTime::ZERO; slaves];

        let mut last_done = vec![SimTime::ZERO; reducers];
        let mut bytes_fetched = 0u64;
        let mut first_activity = vec![SimTime::MAX; slaves];
        let mut last_activity = vec![SimTime::ZERO; slaves];

        // Each transport buffer is an event chain: `Inject` decides the
        // next chunk, pays the request trip and stages it on the supplier;
        // `Send` puts the staged chunk on the wire and hands it to the
        // merge. The split keeps NIC submissions in arrival-time order
        // (FIFO resources serve in submission order), which matters when
        // supplier staging times vary between cache hits and disk reads.
        enum Ev {
            /// A free transport buffer on `client`'s NetMerger.
            Inject { client: usize },
            /// A staged chunk leaving `remote` for `client`.
            Send {
                client: usize,
                remote: usize,
                reducer: usize,
                len: u64,
            },
        }
        let mut q: EventQueue<Ev> = EventQueue::new();
        for client in 0..slaves {
            for _ in 0..self.cfg.pool_buffers() {
                q.push(SimTime::ZERO, Ev::Inject { client });
            }
        }

        while let Some((t, ev)) = q.pop() {
            // Pin the trace clock to this event's sim time so every event
            // recorded while handling it carries a deterministic timestamp.
            if let Some(clock) = &self.clock {
                clock.set(t.as_nanos());
            }
            match ev {
                Ev::Inject { client } => match mergers[client].next_action(t) {
                    NextAction::Done => {} // buffer retires
                    NextAction::WaitUntil(w) => q.push(w, Ev::Inject { client }),
                    NextAction::Chunk {
                        group,
                        chunk_off,
                        len,
                    } => {
                        let remote = mergers[client].remote_of(group);
                        let (mof_id, reducer, seg_abs) = {
                            let head = mergers[client].head_of(group);
                            (head.mof, head.reducer, head.seg_off)
                        };
                        self.trace.instant(
                            "sim.inject",
                            jbs_obs::Entity::node(client as u64),
                            remote as u64,
                            len,
                        );
                        // Mark the range taken now so concurrent buffers
                        // pick disjoint chunks; completion time is recorded
                        // at Send.
                        mergers[client].complete_chunk(group, len);

                        // Connection (consolidated: one per pair, cached).
                        let acq = conns[client].acquire(t, client as u32, remote as u32);
                        if acq.established {
                            cluster.cpu[client].charge_thread(t, acq.cpu_each_side);
                            cluster.cpu[remote].charge_thread(t, acq.cpu_each_side);
                        }

                        // Fetch request to the supplier.
                        let req_cpu = costs.per_message_cpu;
                        cluster.cpu[client].charge_thread(acq.ready, req_cpu);
                        let mut t_req = acq.ready + req_cpu;
                        if client != remote {
                            t_req += cluster.fabric.control_one_way();
                        }

                        // Supplier stages the chunk (IndexCache + prefetch).
                        let staged = suppliers[remote].stage_chunk(
                            t_req,
                            &plan.mofs[mof_id],
                            reducer,
                            seg_abs,
                            chunk_off,
                            len,
                            &self.cfg,
                            &mut cluster.storage[remote],
                            &mut cluster.cpu[remote],
                        );

                        // Transmit-side CPU (native path; protocol copies
                        // are paid inside the fabric's copy engine).
                        let tx_cpu = costs.send_cpu(len) + cluster.fabric.params().tx_cpu(len);
                        let send_from = if self.cfg.pipelined_prefetch {
                            staged
                        } else {
                            // Ablation: the server thread serializes
                            // read+xmit (stock HttpServlet behaviour).
                            staged.max(server_free[remote])
                        };
                        cluster.cpu[remote].charge_thread(send_from, tx_cpu);
                        if !self.cfg.pipelined_prefetch {
                            // Approximation: hold the servlet until the
                            // staged chunk has also cleared the wire once.
                            server_free[remote] =
                                send_from + tx_cpu + cluster.fabric.params().wire_time(len);
                        }
                        first_activity[client] = first_activity[client].min(t);
                        first_activity[remote] = first_activity[remote].min(t_req);
                        q.push(
                            send_from + tx_cpu,
                            Ev::Send {
                                client,
                                remote,
                                reducer,
                                len,
                            },
                        );
                    }
                },
                Ev::Send {
                    client,
                    remote,
                    reducer,
                    len,
                } => {
                    self.trace.instant(
                        "sim.send",
                        jbs_obs::Entity::node(remote as u64),
                        client as u64,
                        len,
                    );
                    let timing = cluster.fabric.transfer(t, remote, client, len);

                    // Receive + levitated merge on the client.
                    let merge_cpu =
                        SimTime::from_secs_f64((len / record).max(1) as f64 * MERGE_CPU_PER_RECORD);
                    let rx_cpu = costs.recv_cpu(len) + timing.rx_cpu + merge_cpu;
                    cluster.cpu[client].charge_thread(timing.arrived, rx_cpu);
                    let done = timing.arrived + rx_cpu;

                    bytes_fetched += len;
                    last_activity[client] = last_activity[client].max(done);
                    last_activity[remote] = last_activity[remote].max(timing.tx_done);
                    last_done[reducer] = last_done[reducer].max(done);
                    q.push(done, Ev::Inject { client });
                }
            }
        }

        // Background thread overhead over each node's active shuffle window.
        for node in 0..slaves {
            if first_activity[node] < last_activity[node] {
                let span = last_activity[node] - first_activity[node];
                cluster.cpu[node].charge(
                    first_activity[node],
                    span,
                    NATIVE_THREADS_PER_NODE * costs.per_thread_overhead,
                );
            }
        }

        // A reducer is ready once its last chunk is merged; it cannot be
        // earlier than the last MOF commit (all maps feed all reducers).
        let commit_barrier = plan.last_mof_ready();
        let ready = (0..reducers)
            .map(|r| last_done[r].max(commit_barrier) + FINAL_FLUSH)
            .collect();
        let (established, evicted) = conns.iter().fold((0, 0), |(e, v), c| {
            (e + c.stats().established, v + c.stats().evicted)
        });

        ShuffleOutcome {
            ready,
            bytes_fetched,
            spilled_bytes: 0, // the network-levitated merge never spills
            connections_established: established,
            connections_evicted: evicted,
            engine: self.label.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jbs_mapred::{ClusterConfig, JobSimulator, JobSpec};
    use jbs_net::Protocol;

    fn run_gb(gb_x10: u64, protocol: Protocol) -> jbs_mapred::JobResult {
        let sim = JobSimulator::new(
            ClusterConfig::tiny(protocol),
            JobSpec::terasort(gb_x10 << 27), // gb_x10 * 128 MiB
        );
        sim.run(&mut JbsShuffle::new())
    }

    #[test]
    fn completes_and_moves_all_bytes() {
        let r = run_gb(8, Protocol::Rdma); // 1 GiB
        assert_eq!(r.engine, "JBS");
        let expect = 1u64 << 30;
        let diff = (r.bytes_shuffled as i64 - expect as i64).unsigned_abs();
        assert!(diff < 64, "shuffled {} vs {expect}", r.bytes_shuffled);
        assert_eq!(r.spilled_bytes, 0);
        assert!(r.job_time > r.map_phase_end);
    }

    #[test]
    fn consolidated_connections_per_node_pair() {
        let r = run_gb(8, Protocol::Rdma);
        // 4 nodes: at most 4x4 = 16 node pairs (including loopback).
        assert!(
            r.connections_established <= 16,
            "{}",
            r.connections_established
        );
        assert_eq!(r.connections_evicted, 0);
    }

    #[test]
    fn deterministic() {
        let a = run_gb(4, Protocol::IpoIb);
        let b = run_gb(4, Protocol::IpoIb);
        assert_eq!(a.job_time, b.job_time);
    }

    #[test]
    fn rdma_beats_ipoib() {
        let ipoib = run_gb(16, Protocol::IpoIb);
        let rdma = run_gb(16, Protocol::Rdma);
        assert!(
            rdma.job_time < ipoib.job_time,
            "RDMA {} vs IPoIB {}",
            rdma.job_time,
            ipoib.job_time
        );
    }

    fn shuffle_only(mut cfg: JbsConfig, protocol: Protocol) -> SimTime {
        use jbs_mapred::sim::SimCluster;
        cfg.notification_latency = SimTime::ZERO;
        let mut cluster = SimCluster::new(ClusterConfig::tiny(protocol), 1);
        let plan = ShufflePlan::synthetic(4, 4, 2, 4 << 20, 100);
        cluster.warm_mofs(&plan); // fresh MOFs sit in the page cache
        let mut engine = JbsShuffle::with_config(cfg);
        engine.run(&mut cluster, &plan).all_ready()
    }

    #[test]
    fn tiny_buffers_hurt() {
        // Fig. 11's left edge: 8 KB buffers pay far more per-message
        // overhead than the 128 KB default.
        let small = shuffle_only(JbsConfig::with_buffer(8 << 10), Protocol::Rdma);
        let default = shuffle_only(JbsConfig::default(), Protocol::Rdma);
        assert!(
            small.as_secs_f64() > default.as_secs_f64() * 1.3,
            "8KB {small} vs 128KB {default}"
        );
    }

    #[test]
    fn oversized_buffers_reduce_pipelining() {
        // Fig. 11's right edge: with the DataCache fixed, huge buffers
        // leave too few in flight.
        let default = shuffle_only(JbsConfig::default(), Protocol::Rdma);
        let huge = shuffle_only(JbsConfig::with_buffer(4 << 20), Protocol::Rdma);
        assert!(
            huge > default,
            "4MB buffers {huge} should be slower than 128KB {default}"
        );
    }

    #[test]
    fn ablations_do_not_help() {
        let sim = JobSimulator::new(
            ClusterConfig::tiny(Protocol::IpoIb),
            JobSpec::terasort(1 << 30),
        );
        let full = sim.run(&mut JbsShuffle::new());
        let no_prefetch = JbsConfig {
            pipelined_prefetch: false,
            ..JbsConfig::default()
        };
        let ablated = sim.run(&mut JbsShuffle::with_config(no_prefetch));
        assert!(
            ablated.shuffle_all_ready >= full.shuffle_all_ready,
            "no-prefetch {} vs full {}",
            ablated.shuffle_all_ready,
            full.shuffle_all_ready
        );
    }

    #[test]
    fn traced_run_is_deterministic() {
        use jbs_mapred::sim::SimCluster;
        let traced_jsonl = || {
            let mut cluster = SimCluster::new(ClusterConfig::tiny(Protocol::Rdma), 1);
            let plan = ShufflePlan::synthetic(4, 4, 2, 1 << 20, 100);
            cluster.warm_mofs(&plan);
            let mut engine = JbsShuffle::new().traced(1 << 16);
            engine.run(&mut cluster, &plan);
            (engine.trace().snapshot().len(), engine.trace().to_jsonl())
        };
        let (n, a) = traced_jsonl();
        let (_, b) = traced_jsonl();
        assert!(n > 0, "traced run recorded nothing");
        assert_eq!(a, b, "identical runs must yield byte-identical traces");
        // Every injected chunk eventually goes on the wire, byte for byte.
        let q =
            jbs_obs::TraceQuery::new(jbs_obs::jsonl::parse_jsonl(&a).expect("trace round-trips"));
        let injected: u64 = q.values_b("sim.inject").iter().sum();
        let sent: u64 = q.values_b("sim.send").iter().sum();
        assert_eq!(injected, sent);
        assert!(q.entities("sim.inject").len() >= 2, "multiple nodes traced");
    }

    #[test]
    fn untraced_engine_records_nothing() {
        let mut engine = JbsShuffle::new();
        assert!(!engine.trace().is_enabled());
        let mut cluster = jbs_mapred::sim::SimCluster::new(ClusterConfig::tiny(Protocol::Rdma), 1);
        let plan = ShufflePlan::synthetic(2, 2, 2, 1 << 20, 100);
        cluster.warm_mofs(&plan);
        engine.run(&mut cluster, &plan);
        assert!(engine.trace().snapshot().is_empty());
    }

    #[test]
    fn config_accessor() {
        let e = JbsShuffle::with_config(JbsConfig::with_buffer(64 << 10));
        assert_eq!(e.config().buffer_bytes, 64 << 10);
    }
}
