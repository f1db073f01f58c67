//! The wire: per-node NICs joined by a non-blocking switch.
//!
//! A transfer is timed in store-and-forward stages: the chunk serializes
//! out of the sender's transmit channel, crosses the switch with the
//! protocol's one-way latency, then serializes into the receiver's receive
//! channel. Each channel is a FIFO resource, so concurrent flows into the
//! same node queue up behind each other — the incast contention that makes
//! the N-to-1 fetch of Fig. 2c interesting.
//!
//! Because the two serializations pipeline *across* chunks, a window of at
//! least two in-flight chunks is needed to sustain full goodput on one
//! flow. The number of in-flight chunks is exactly what JBS's transport
//! buffer pool controls, which is how the Fig. 11 buffer-size sweep gets
//! its shape.

use crate::protocol::{Protocol, ProtocolParams};
use jbs_des::server::{FifoServer, MultiServer};
use jbs_des::SimTime;

/// Protocol-processing threads per node (softirq + data-thread copy
/// capacity). Memory copies for socket protocols *occupy* these channels,
/// so copy-heavy protocols throttle at high rates while the zero-copy
/// RDMA/RoCE paths bypass them entirely — the paper's stated reason RDMA
/// wins even when the wire isn't the bottleneck (Sec. V-B).
const COPY_ENGINE_CHANNELS: usize = 2;

/// A node's network interface: independent transmit and receive channels
/// (full duplex) plus the protocol-processing copy engine.
#[derive(Debug, Clone)]
pub struct Nic {
    /// Transmit-side serialization resource.
    pub tx: FifoServer,
    /// Receive-side serialization resource.
    pub rx: FifoServer,
    /// Kernel/user memory-copy capacity for socket protocols.
    pub copy_engine: MultiServer,
}

impl Default for Nic {
    fn default() -> Self {
        Nic {
            tx: FifoServer::new(),
            rx: FifoServer::new(),
            copy_engine: MultiServer::new(COPY_ENGINE_CHANNELS),
        }
    }
}

/// Timing of one chunk pushed through the fabric.
#[derive(Debug, Clone, Copy)]
pub struct ChunkTiming {
    /// When the sender's NIC began serializing the chunk.
    pub wire_start: SimTime,
    /// When the last byte left the sender.
    pub tx_done: SimTime,
    /// When the last byte was in the receiver's memory.
    pub arrived: SimTime,
    /// Transmit-side protocol CPU (copies + per-message) the caller must
    /// charge to the sending node.
    pub tx_cpu: SimTime,
    /// Receive-side protocol CPU the caller must charge to the receiving
    /// node.
    pub rx_cpu: SimTime,
}

/// All NICs of a cluster running one protocol.
pub struct Fabric {
    params: ProtocolParams,
    nics: Vec<Nic>,
    bytes_moved: u64,
    messages: u64,
    /// Shared switch-core capacity for oversubscribed fabrics (None =
    /// non-blocking, the paper's testbed).
    core: Option<FifoServer>,
    core_bytes_per_sec: f64,
}

impl Fabric {
    /// A fabric of `nodes` NICs speaking `protocol`, behind a non-blocking
    /// switch (the paper's 108-port QDR switch / ToR Ethernet).
    pub fn new(nodes: usize, protocol: Protocol) -> Self {
        Fabric {
            params: protocol.params(),
            nics: (0..nodes).map(|_| Nic::default()).collect(),
            bytes_moved: 0,
            messages: 0,
            core: None,
            core_bytes_per_sec: f64::INFINITY,
        }
    }

    /// A fabric whose switch core is oversubscribed by `factor`: the
    /// aggregate cross-node bandwidth is `nodes * goodput / factor`.
    /// Production datacenters of the paper's era commonly ran 4:1 or
    /// worse, which is why "the intermediate data shuffling … can consume
    /// more than 98% network bandwidth" (Sec. II, citing Camdoop \[6\]).
    /// `factor <= 1` degenerates to non-blocking.
    pub fn with_oversubscription(nodes: usize, protocol: Protocol, factor: f64) -> Self {
        let mut fabric = Self::new(nodes, protocol);
        if factor > 1.0 {
            fabric.core = Some(FifoServer::new());
            fabric.core_bytes_per_sec = nodes as f64 * fabric.params.goodput / factor;
        }
        fabric
    }

    /// The protocol parameters in force.
    pub fn params(&self) -> &ProtocolParams {
        &self.params
    }

    /// Number of nodes on the fabric.
    pub fn nodes(&self) -> usize {
        self.nics.len()
    }

    /// Move one chunk of `bytes` from `src` to `dst`, with the payload
    /// ready to send at `send_ready` (i.e. after any sender-side CPU).
    ///
    /// The caller charges `tx_cpu`/`rx_cpu` to its CPU meters; the fabric
    /// only accounts for wire occupancy and latency. Loopback (`src ==
    /// dst`) skips the wire entirely — Hadoop fetches node-local segments
    /// through the same code path.
    pub fn transfer(
        &mut self,
        send_ready: SimTime,
        src: usize,
        dst: usize,
        bytes: u64,
    ) -> ChunkTiming {
        self.bytes_moved += bytes;
        self.messages += 1;
        let tx_cpu = self.params.tx_cpu(bytes);
        let rx_cpu = self.params.rx_cpu(bytes);
        if src == dst {
            // Local fetch: a memory move, no wire. Charge a nominal memcpy
            // rate of 4 GB/s.
            let end = send_ready + SimTime::for_bytes(bytes, 4.0e9);
            return ChunkTiming {
                wire_start: send_ready,
                tx_done: end,
                arrived: end,
                tx_cpu,
                rx_cpu,
            };
        }
        // Transmit-side memory copies occupy the sender's copy engine
        // before the NIC can serialize (zero-copy protocols skip this).
        let tx_copy = self.params.copy_time(bytes, self.params.copies_tx);
        let ready = if tx_copy > SimTime::ZERO {
            self.nics[src].copy_engine.serve(send_ready, tx_copy).end
        } else {
            send_ready
        };
        let wire = self.params.wire_time(bytes) + self.params.per_message_wire;
        let tx = self.nics[src].tx.serve(ready, wire);
        // An oversubscribed switch core is a shared serialization stage
        // between the two NICs.
        let after_core = match &mut self.core {
            Some(core) => {
                core.serve(tx.end, SimTime::for_bytes(bytes, self.core_bytes_per_sec))
                    .end
            }
            None => tx.end,
        };
        let at_receiver = after_core + self.params.latency;
        let rx = self.nics[dst].rx.serve(at_receiver, wire);
        // Receive-side copies drain the NIC buffer into user space.
        let rx_copy = self.params.copy_time(bytes, self.params.copies_rx);
        let arrived = if rx_copy > SimTime::ZERO {
            self.nics[dst].copy_engine.serve(rx.end, rx_copy).end
        } else {
            rx.end
        };
        ChunkTiming {
            wire_start: tx.start,
            tx_done: tx.end,
            arrived,
            tx_cpu,
            rx_cpu,
        }
    }

    /// Round-trip time of a small control message (e.g. a fetch request
    /// header) between distinct nodes.
    pub fn control_rtt(&self) -> SimTime {
        self.params.latency.scaled(2.0)
    }

    /// One-way time of a small control message.
    pub fn control_one_way(&self) -> SimTime {
        self.params.latency
    }

    /// Total payload bytes moved.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    /// Total messages sent.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Busy time of a node's transmit channel.
    pub fn tx_busy(&self, node: usize) -> SimTime {
        self.nics[node].tx.busy_time()
    }

    /// Busy time of a node's receive channel.
    pub fn rx_busy(&self, node: usize) -> SimTime {
        self.nics[node].rx.busy_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1 << 20;

    #[test]
    fn single_chunk_pays_two_serializations_plus_latency() {
        let mut f = Fabric::new(2, Protocol::Tcp1GigE);
        let t = f.transfer(SimTime::ZERO, 0, 1, MB);
        let p = f.params().clone();
        let wire = p.wire_time(MB) + p.per_message_wire;
        let tx_copy = p.copy_time(MB, p.copies_tx);
        let rx_copy = p.copy_time(MB, p.copies_rx);
        let expect = tx_copy + wire + p.latency + wire + rx_copy;
        assert_eq!(t.arrived, expect);
        assert_eq!(t.tx_done, tx_copy + wire);
    }

    #[test]
    fn pipelined_chunks_sustain_goodput() {
        // With many chunks in flight, steady-state throughput approaches
        // the goodput: the N-th chunk arrives ~N wire-times after start.
        let mut f = Fabric::new(2, Protocol::Tcp10GigE);
        let n = 64u64;
        let mut last = SimTime::ZERO;
        for _ in 0..n {
            last = f.transfer(SimTime::ZERO, 0, 1, MB).arrived;
        }
        let achieved = (n * MB) as f64 / last.as_secs_f64();
        let goodput = f.params().goodput;
        // Slightly below wire rate: the copy engine costs a few percent on
        // copy-bearing protocols.
        assert!(
            achieved > goodput * 0.85,
            "achieved {achieved:.3e} vs goodput {goodput:.3e}"
        );
    }

    #[test]
    fn incast_queues_at_receiver() {
        // Many senders into one receiver: the receiver's rx channel is the
        // bottleneck, so completion scales with the number of senders.
        let mut f = Fabric::new(5, Protocol::Tcp10GigE);
        let mut last = SimTime::ZERO;
        for src in 1..5 {
            last = last.max(f.transfer(SimTime::ZERO, src, 0, 8 * MB).arrived);
        }
        let one_sender = {
            let mut g = Fabric::new(5, Protocol::Tcp10GigE);
            g.transfer(SimTime::ZERO, 1, 0, 8 * MB).arrived
        };
        // Store-and-forward pipelining absorbs part of the contention,
        // but the receiver must still be visibly the bottleneck.
        assert!(
            last.as_secs_f64() > one_sender.as_secs_f64() * 1.5,
            "incast {last} vs single {one_sender}"
        );
    }

    #[test]
    fn loopback_skips_the_wire() {
        let mut f = Fabric::new(2, Protocol::Tcp1GigE);
        let local = f.transfer(SimTime::ZERO, 0, 0, 8 * MB).arrived;
        let remote = {
            let mut g = Fabric::new(2, Protocol::Tcp1GigE);
            g.transfer(SimTime::ZERO, 0, 1, 8 * MB).arrived
        };
        assert!(local < remote);
        // Loopback must not consume NIC resources.
        assert_eq!(f.tx_busy(0), SimTime::ZERO);
        assert_eq!(f.rx_busy(0), SimTime::ZERO);
    }

    #[test]
    fn rdma_beats_ipoib_on_the_same_transfer() {
        let mut ib_tcp = Fabric::new(2, Protocol::IpoIb);
        let mut ib_rdma = Fabric::new(2, Protocol::Rdma);
        let a = ib_tcp.transfer(SimTime::ZERO, 0, 1, 64 * MB);
        let b = ib_rdma.transfer(SimTime::ZERO, 0, 1, 64 * MB);
        assert!(b.arrived < a.arrived);
        assert!(b.tx_cpu < a.tx_cpu);
        assert!(b.rx_cpu < a.rx_cpu);
    }

    #[test]
    fn oversubscribed_core_throttles_all_to_all() {
        // 4 senders to 4 distinct receivers: non-blocking completes in
        // ~one transfer time; a 4:1-oversubscribed core serializes most
        // of the aggregate through a quarter of the bandwidth.
        let run = |factor: f64| {
            let mut f = if factor > 1.0 {
                Fabric::with_oversubscription(8, Protocol::Tcp10GigE, factor)
            } else {
                Fabric::new(8, Protocol::Tcp10GigE)
            };
            let mut last = SimTime::ZERO;
            for i in 0..4 {
                for _ in 0..8 {
                    last = last.max(f.transfer(SimTime::ZERO, i, 4 + i, MB).arrived);
                }
            }
            last.as_secs_f64()
        };
        let flat = run(1.0);
        let oversub = run(8.0);
        assert!(
            oversub > flat * 2.0,
            "oversubscribed {oversub} vs non-blocking {flat}"
        );
    }

    #[test]
    fn mild_oversubscription_is_harmless_for_one_flow() {
        let mut f = Fabric::with_oversubscription(8, Protocol::Tcp10GigE, 2.0);
        let mut g = Fabric::new(8, Protocol::Tcp10GigE);
        let a = f.transfer(SimTime::ZERO, 0, 1, MB).arrived;
        let b = g.transfer(SimTime::ZERO, 0, 1, MB).arrived;
        // One flow uses 1/8 of the links; a 2:1 core (4 links' worth)
        // adds only its serialization latency.
        assert!(a.as_secs_f64() < b.as_secs_f64() * 1.5);
    }

    #[test]
    fn factor_of_one_is_non_blocking() {
        let mut f = Fabric::with_oversubscription(4, Protocol::Rdma, 1.0);
        let mut g = Fabric::new(4, Protocol::Rdma);
        assert_eq!(
            f.transfer(SimTime::ZERO, 0, 1, MB).arrived,
            g.transfer(SimTime::ZERO, 0, 1, MB).arrived
        );
    }

    #[test]
    fn accounting() {
        let mut f = Fabric::new(3, Protocol::Rdma);
        f.transfer(SimTime::ZERO, 0, 1, MB);
        f.transfer(SimTime::ZERO, 1, 2, MB);
        assert_eq!(f.bytes_moved(), 2 * MB);
        assert_eq!(f.messages(), 2);
        assert_eq!(f.nodes(), 3);
        assert!(f.tx_busy(0) > SimTime::ZERO);
        assert!(f.rx_busy(2) > SimTime::ZERO);
        assert_eq!(f.control_rtt(), f.control_one_way().scaled(2.0));
    }
}
