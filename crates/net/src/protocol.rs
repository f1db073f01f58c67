//! The protocol/network matrix of Table I.

use jbs_des::SimTime;

/// Physical network, as in the paper's two test clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Network {
    /// 1 Gigabit Ethernet.
    OneGigE,
    /// 10 Gigabit Ethernet.
    TenGigE,
    /// Mellanox ConnectX-2 QDR InfiniBand behind a 108-port QDR switch.
    InfiniBand,
}

impl Network {
    /// Display name used in figures.
    pub fn label(self) -> &'static str {
        match self {
            Network::OneGigE => "1GigE",
            Network::TenGigE => "10GigE",
            Network::InfiniBand => "InfiniBand",
        }
    }
}

/// Transport protocol, as activated in the paper's test cases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// TCP/IP on 1 Gigabit Ethernet.
    Tcp1GigE,
    /// TCP/IP on 10 Gigabit Ethernet.
    Tcp10GigE,
    /// IP-over-InfiniBand: TCP/IP semantics emulated on the HCA.
    IpoIb,
    /// Socket Direct Protocol: Java-visible stream sockets over RDMA.
    Sdp,
    /// RDMA over Converged Ethernet on the 10GigE fabric.
    RoCE,
    /// Native RDMA verbs on QDR InfiniBand (Reliable Connection service).
    Rdma,
}

impl Protocol {
    /// All protocols, in Table I order.
    pub fn all() -> [Protocol; 6] {
        [
            Protocol::Tcp1GigE,
            Protocol::Tcp10GigE,
            Protocol::IpoIb,
            Protocol::Sdp,
            Protocol::RoCE,
            Protocol::Rdma,
        ]
    }

    /// The physical network this protocol runs on.
    pub fn network(self) -> Network {
        match self {
            Protocol::Tcp1GigE => Network::OneGigE,
            Protocol::Tcp10GigE | Protocol::RoCE => Network::TenGigE,
            Protocol::IpoIb | Protocol::Sdp | Protocol::Rdma => Network::InfiniBand,
        }
    }

    /// Display name used in figures ("IPoIB", "RDMA", ...).
    pub fn label(self) -> &'static str {
        match self {
            Protocol::Tcp1GigE => "1GigE",
            Protocol::Tcp10GigE => "10GigE",
            Protocol::IpoIb => "IPoIB",
            Protocol::Sdp => "SDP",
            Protocol::RoCE => "RoCE",
            Protocol::Rdma => "RDMA",
        }
    }

    /// True for the RDMA-like protocols whose connection setup is the Fig. 6
    /// queue-pair handshake rather than a TCP three-way handshake.
    pub fn is_rdma_like(self) -> bool {
        matches!(self, Protocol::RoCE | Protocol::Rdma)
    }

    /// The calibrated parameter set for this protocol.
    pub fn params(self) -> ProtocolParams {
        match self {
            Protocol::Tcp1GigE => ProtocolParams {
                protocol: self,
                goodput: 117.0 * 1e6,
                latency: SimTime::from_micros(50),
                copies_tx: 2,
                copies_rx: 2,
                copy_cost_per_byte: 0.4e-9,
                per_message_cpu: SimTime::from_micros(8),
                per_message_wire: SimTime::from_micros(25),
                setup_rtts: 1.5,
                setup_cpu: SimTime::from_micros(15),
                teardown_cpu: SimTime::from_micros(10),
            },
            Protocol::Tcp10GigE => ProtocolParams {
                protocol: self,
                goodput: 1.16 * 1e9,
                latency: SimTime::from_micros(25),
                copies_tx: 2,
                copies_rx: 2,
                copy_cost_per_byte: 0.4e-9,
                per_message_cpu: SimTime::from_micros(8),
                per_message_wire: SimTime::from_micros(18),
                setup_rtts: 1.5,
                setup_cpu: SimTime::from_micros(15),
                teardown_cpu: SimTime::from_micros(10),
            },
            Protocol::IpoIb => ProtocolParams {
                protocol: self,
                goodput: 1.4 * 1e9,
                latency: SimTime::from_micros(20),
                copies_tx: 2,
                copies_rx: 2,
                copy_cost_per_byte: 0.4e-9,
                per_message_cpu: SimTime::from_micros(10),
                per_message_wire: SimTime::from_micros(20),
                setup_rtts: 1.5,
                setup_cpu: SimTime::from_micros(15),
                teardown_cpu: SimTime::from_micros(10),
            },
            Protocol::Sdp => ProtocolParams {
                protocol: self,
                goodput: 1.5 * 1e9,
                latency: SimTime::from_micros(15),
                copies_tx: 1,
                copies_rx: 1,
                copy_cost_per_byte: 0.4e-9,
                per_message_cpu: SimTime::from_micros(7),
                per_message_wire: SimTime::from_micros(12),
                setup_rtts: 1.5,
                setup_cpu: SimTime::from_micros(25),
                teardown_cpu: SimTime::from_micros(15),
            },
            Protocol::RoCE => ProtocolParams {
                protocol: self,
                goodput: 1.16 * 1e9,
                latency: SimTime::from_micros(6),
                copies_tx: 0,
                copies_rx: 0,
                copy_cost_per_byte: 0.0,
                per_message_cpu: SimTime::from_micros(2),
                per_message_wire: SimTime::from_micros(4),
                setup_rtts: 1.0,
                setup_cpu: SimTime::from_micros(120),
                teardown_cpu: SimTime::from_micros(40),
            },
            Protocol::Rdma => ProtocolParams {
                protocol: self,
                goodput: 3.2 * 1e9,
                latency: SimTime::from_micros(3),
                copies_tx: 0,
                copies_rx: 0,
                copy_cost_per_byte: 0.0,
                per_message_cpu: SimTime::from_micros(2),
                per_message_wire: SimTime::from_micros(3),
                setup_rtts: 1.0,
                setup_cpu: SimTime::from_micros(120),
                teardown_cpu: SimTime::from_micros(40),
            },
        }
    }
}

/// Calibrated characteristics of one transport protocol.
///
/// `goodput` is application-level throughput (wire rate minus framing and
/// protocol overhead). `copies_*` are the user↔kernel memory copies per
/// side: two for the socket paths, one for SDP (kernel bypass but
/// buffered), zero for RDMA/RoCE. Connection setup costs `setup_rtts`
/// round trips plus `setup_cpu` per side — the queue-pair allocation of
/// Fig. 6 makes RDMA setup CPU "relatively high" (Sec. IV-A), which is why
/// JBS caches connections.
#[derive(Debug, Clone)]
pub struct ProtocolParams {
    /// Which protocol these parameters describe.
    pub protocol: Protocol,
    /// Application-level throughput in bytes/second.
    pub goodput: f64,
    /// One-way wire latency.
    pub latency: SimTime,
    /// Memory copies on the transmit side.
    pub copies_tx: u32,
    /// Memory copies on the receive side.
    pub copies_rx: u32,
    /// CPU seconds per byte per copy.
    pub copy_cost_per_byte: f64,
    /// Fixed CPU per message (interrupt handling, protocol processing).
    pub per_message_cpu: SimTime,
    /// Fixed wire/NIC occupancy per message (DMA setup, doorbells,
    /// per-packet processing aggregated). This is what makes tiny
    /// transport buffers expensive in Fig. 11.
    pub per_message_wire: SimTime,
    /// Connection establishment cost in round trips.
    pub setup_rtts: f64,
    /// Per-side CPU to establish a connection (socket or QP allocation).
    pub setup_cpu: SimTime,
    /// Per-side CPU to tear a connection down.
    pub teardown_cpu: SimTime,
}

impl ProtocolParams {
    /// Wire occupancy for `bytes` (serialization time at goodput).
    pub fn wire_time(&self, bytes: u64) -> SimTime {
        SimTime::for_bytes(bytes, self.goodput)
    }

    /// Transmit-side protocol CPU for one message of `bytes`.
    pub fn tx_cpu(&self, bytes: u64) -> SimTime {
        self.per_message_cpu
            + SimTime::from_secs_f64(bytes as f64 * self.copies_tx as f64 * self.copy_cost_per_byte)
    }

    /// Receive-side protocol CPU for one message of `bytes`.
    pub fn rx_cpu(&self, bytes: u64) -> SimTime {
        self.per_message_cpu
            + SimTime::from_secs_f64(bytes as f64 * self.copies_rx as f64 * self.copy_cost_per_byte)
    }

    /// Time `copies` memory copies of `bytes` occupy a copy-engine channel.
    pub fn copy_time(&self, bytes: u64, copies: u32) -> SimTime {
        SimTime::from_secs_f64(bytes as f64 * copies as f64 * self.copy_cost_per_byte)
    }

    /// Elapsed time for connection establishment (handshake round trips).
    pub fn setup_elapsed(&self) -> SimTime {
        self.latency.scaled(2.0 * self.setup_rtts)
    }

    /// Is this a zero-copy protocol?
    pub fn zero_copy(&self) -> bool {
        self.copies_tx == 0 && self.copies_rx == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matrix() {
        assert_eq!(Protocol::Tcp1GigE.network(), Network::OneGigE);
        assert_eq!(Protocol::Tcp10GigE.network(), Network::TenGigE);
        assert_eq!(Protocol::RoCE.network(), Network::TenGigE);
        assert_eq!(Protocol::IpoIb.network(), Network::InfiniBand);
        assert_eq!(Protocol::Sdp.network(), Network::InfiniBand);
        assert_eq!(Protocol::Rdma.network(), Network::InfiniBand);
        assert_eq!(Protocol::all().len(), 6);
    }

    #[test]
    fn goodput_ordering_matches_hardware() {
        let g = |p: Protocol| p.params().goodput;
        assert!(g(Protocol::Tcp1GigE) < g(Protocol::Tcp10GigE));
        assert!(g(Protocol::Tcp10GigE) <= g(Protocol::IpoIb));
        assert!(g(Protocol::IpoIb) < g(Protocol::Rdma));
        // RoCE runs on the same 10GigE wire as TCP-10G.
        assert_eq!(g(Protocol::RoCE), g(Protocol::Tcp10GigE));
    }

    #[test]
    fn rdma_like_protocols_are_zero_copy() {
        for p in Protocol::all() {
            assert_eq!(p.is_rdma_like(), p.params().zero_copy(), "{p:?}");
        }
    }

    #[test]
    fn cpu_costs_favor_rdma() {
        let chunk = 128u64 << 10;
        let tcp = Protocol::IpoIb.params();
        let rdma = Protocol::Rdma.params();
        assert!(tcp.tx_cpu(chunk) > rdma.tx_cpu(chunk) * 3);
        assert!(tcp.rx_cpu(chunk) > rdma.rx_cpu(chunk) * 3);
    }

    #[test]
    fn sdp_halves_copies_vs_ipoib() {
        let sdp = Protocol::Sdp.params();
        let ipoib = Protocol::IpoIb.params();
        assert_eq!(sdp.copies_tx, 1);
        assert_eq!(ipoib.copies_tx, 2);
        assert!(sdp.tx_cpu(1 << 20) < ipoib.tx_cpu(1 << 20));
    }

    #[test]
    fn wire_time_scales_linearly() {
        let p = Protocol::Tcp1GigE.params();
        let one = p.wire_time(1 << 20);
        let two = p.wire_time(2 << 20);
        assert!((two.as_secs_f64() / one.as_secs_f64() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn rdma_setup_cpu_is_relatively_high() {
        // Sec. IV-A: "the cost of setting up RDMA connection is relatively
        // high" — the motivation for the 512-entry connection cache.
        assert!(Protocol::Rdma.params().setup_cpu > Protocol::Tcp10GigE.params().setup_cpu * 4);
    }

    #[test]
    fn labels() {
        assert_eq!(Protocol::IpoIb.label(), "IPoIB");
        assert_eq!(Network::InfiniBand.label(), "InfiniBand");
        assert_eq!(Protocol::Rdma.label(), "RDMA");
    }
}
