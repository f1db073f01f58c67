//! The test-case matrix of Table I: engine × protocol × network.

use crate::baseline::HadoopShuffle;
use crate::config::JbsConfig;
use crate::jbs::JbsShuffle;
use jbs_mapred::sim::ShuffleEngine;
use jbs_net::Protocol;

/// One test case: which shuffle engine on which protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Hadoop on 1GigE (TCP/IP).
    HadoopOn1GigE,
    /// Hadoop on 10GigE (TCP/IP).
    HadoopOn10GigE,
    /// Hadoop on IPoIB (InfiniBand).
    HadoopOnIpoIb,
    /// Hadoop on SDP (InfiniBand).
    HadoopOnSdp,
    /// JBS on 1GigE (TCP/IP).
    JbsOn1GigE,
    /// JBS on 10GigE (TCP/IP).
    JbsOn10GigE,
    /// JBS on IPoIB (InfiniBand).
    JbsOnIpoIb,
    /// JBS on RoCE (10GigE).
    JbsOnRoce,
    /// JBS on RDMA (InfiniBand).
    JbsOnRdma,
}

impl EngineKind {
    /// The rows of Table I, in paper order (the paper's table omits
    /// "JBS on 1GigE", which appears only in Fig. 7b; [`EngineKind::all`]
    /// includes it).
    pub fn table1() -> [EngineKind; 8] {
        [
            EngineKind::HadoopOn1GigE,
            EngineKind::HadoopOn10GigE,
            EngineKind::HadoopOnIpoIb,
            EngineKind::HadoopOnSdp,
            EngineKind::JbsOn10GigE,
            EngineKind::JbsOnIpoIb,
            EngineKind::JbsOnRoce,
            EngineKind::JbsOnRdma,
        ]
    }

    /// Every test case, including JBS on 1GigE.
    pub fn all() -> [EngineKind; 9] {
        [
            EngineKind::HadoopOn1GigE,
            EngineKind::HadoopOn10GigE,
            EngineKind::HadoopOnIpoIb,
            EngineKind::HadoopOnSdp,
            EngineKind::JbsOn1GigE,
            EngineKind::JbsOn10GigE,
            EngineKind::JbsOnIpoIb,
            EngineKind::JbsOnRoce,
            EngineKind::JbsOnRdma,
        ]
    }

    /// The transport protocol this case runs on.
    pub fn protocol(self) -> Protocol {
        match self {
            EngineKind::HadoopOn1GigE | EngineKind::JbsOn1GigE => Protocol::Tcp1GigE,
            EngineKind::HadoopOn10GigE | EngineKind::JbsOn10GigE => Protocol::Tcp10GigE,
            EngineKind::HadoopOnIpoIb | EngineKind::JbsOnIpoIb => Protocol::IpoIb,
            EngineKind::HadoopOnSdp => Protocol::Sdp,
            EngineKind::JbsOnRoce => Protocol::RoCE,
            EngineKind::JbsOnRdma => Protocol::Rdma,
        }
    }

    /// True for the JVM-bypassed cases.
    pub fn is_jbs(self) -> bool {
        matches!(
            self,
            EngineKind::JbsOn1GigE
                | EngineKind::JbsOn10GigE
                | EngineKind::JbsOnIpoIb
                | EngineKind::JbsOnRoce
                | EngineKind::JbsOnRdma
        )
    }

    /// The paper's test-case name, e.g. "Hadoop on IPoIB".
    pub fn label(self) -> String {
        let engine = if self.is_jbs() { "JBS" } else { "Hadoop" };
        format!("{} on {}", engine, self.protocol().label())
    }

    /// Build the shuffle engine for this case with default settings.
    pub fn build(self) -> Box<dyn ShuffleEngine> {
        if self.is_jbs() {
            Box::new(JbsShuffle::new())
        } else {
            Box::new(HadoopShuffle::new())
        }
    }

    /// Build the JBS cases with an explicit JBS configuration (buffer
    /// sweeps, ablations); baseline cases ignore the config.
    pub fn build_with(self, cfg: JbsConfig) -> Box<dyn ShuffleEngine> {
        if self.is_jbs() {
            Box::new(JbsShuffle::with_config(cfg))
        } else {
            Box::new(HadoopShuffle::new())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jbs_net::Network;

    #[test]
    fn table1_has_the_papers_rows() {
        let labels: Vec<String> = EngineKind::table1().iter().map(|k| k.label()).collect();
        assert_eq!(
            labels,
            vec![
                "Hadoop on 1GigE",
                "Hadoop on 10GigE",
                "Hadoop on IPoIB",
                "Hadoop on SDP",
                "JBS on 10GigE",
                "JBS on IPoIB",
                "JBS on RoCE",
                "JBS on RDMA",
            ]
        );
    }

    #[test]
    fn networks_match_table1() {
        assert_eq!(
            EngineKind::HadoopOnSdp.protocol().network(),
            Network::InfiniBand
        );
        assert_eq!(EngineKind::JbsOnRoce.protocol().network(), Network::TenGigE);
        assert_eq!(
            EngineKind::JbsOnRdma.protocol().network(),
            Network::InfiniBand
        );
        assert_eq!(
            EngineKind::HadoopOn1GigE.protocol().network(),
            Network::OneGigE
        );
    }

    #[test]
    fn build_produces_matching_engines() {
        assert_eq!(EngineKind::JbsOnRdma.build().name(), "JBS");
        assert_eq!(EngineKind::HadoopOnIpoIb.build().name(), "Hadoop");
        let cfg = JbsConfig::with_buffer(64 << 10);
        assert_eq!(EngineKind::JbsOnIpoIb.build_with(cfg.clone()).name(), "JBS");
        assert_eq!(EngineKind::HadoopOnSdp.build_with(cfg).name(), "Hadoop");
    }

    #[test]
    fn jbs_flag() {
        for k in EngineKind::all() {
            assert_eq!(k.is_jbs(), k.label().starts_with("JBS"), "{k:?}");
        }
    }
}
