//! Ablations of JBS's design choices (DESIGN.md §6).
//!
//! Each ablation disables one mechanism and measures the shuffle-only
//! completion time on the paper testbed with warm MOFs (A1–A3, A5) or the
//! full job (A1 also end-to-end), plus a connection-cache capacity sweep
//! (A4). These are not paper figures; they quantify how much each design
//! decision of Sec. III/IV contributes.

use jbs_core::{JbsConfig, JbsShuffle};
use jbs_des::SimTime;
use jbs_mapred::sim::{ShuffleEngine, SimCluster};
use jbs_mapred::{ClusterConfig, ShufflePlan};
use jbs_net::{ConnectionManager, Protocol};

/// Shuffle-only completion time for a JBS config on a synthetic all-ready
/// plan (22 nodes, 4 MOFs/node, 2 reducers/node, 4 MB segments, warm).
fn shuffle_secs(mut cfg: JbsConfig, protocol: Protocol) -> f64 {
    cfg.notification_latency = SimTime::ZERO; // direct fetch, no polling
    let cluster_cfg = ClusterConfig::paper_testbed(protocol);
    let mut cluster = SimCluster::new(cluster_cfg, 42);
    let plan = ShufflePlan::synthetic(22, 4, 2, 4 << 20, 100);
    cluster.warm_mofs(&plan);
    let mut engine = JbsShuffle::with_config(cfg);
    engine.run(&mut cluster, &plan).all_ready().as_secs_f64()
}

/// Same plan but cold MOFs (disk-bound): this is where grouping and
/// prefetching earn their keep.
fn shuffle_secs_cold(mut cfg: JbsConfig, protocol: Protocol) -> f64 {
    cfg.notification_latency = SimTime::ZERO; // direct fetch, no polling
    let cluster_cfg = ClusterConfig::paper_testbed(protocol);
    let mut cluster = SimCluster::new(cluster_cfg, 42);
    let plan = ShufflePlan::synthetic(22, 4, 2, 4 << 20, 100);
    let mut engine = JbsShuffle::with_config(cfg);
    engine.run(&mut cluster, &plan).all_ready().as_secs_f64()
}

fn pct(base: f64, ablated: f64) -> f64 {
    (ablated - base) / base * 100.0
}

fn main() {
    let proto = Protocol::Rdma;
    let base_warm = shuffle_secs(JbsConfig::default(), proto);
    let base_cold = shuffle_secs_cold(JbsConfig::default(), proto);
    println!("JBS design ablations (22 slaves, shuffle-only, RDMA)");
    println!("baseline: warm {base_warm:.2}s, cold {base_cold:.2}s\n");

    // A1: pipelined prefetching off (Fig. 4-style serialized servlet).
    let a1 = JbsConfig {
        pipelined_prefetch: false,
        ..JbsConfig::default()
    };
    let a1_cold = shuffle_secs_cold(a1.clone(), proto);
    let a1_warm = shuffle_secs(a1, proto);
    println!(
        "A1 pipelined prefetch OFF: cold {a1_cold:.2}s ({:+.1}%), warm {a1_warm:.2}s ({:+.1}%)",
        pct(base_cold, a1_cold),
        pct(base_warm, a1_warm)
    );

    // A2: request grouping by MOF off (per-chunk disk reads, no batching).
    let a2 = JbsConfig {
        group_by_mof: false,
        ..JbsConfig::default()
    };
    let a2_cold = shuffle_secs_cold(a2, proto);
    println!(
        "A2 MOF grouping/batching OFF: cold {a2_cold:.2}s ({:+.1}%)",
        pct(base_cold, a2_cold)
    );

    // A3: consolidation — emulate per-copier connections by shrinking the
    // connection cache below the node-pair count, forcing constant
    // re-establishment (the resource cost the paper's consolidation saves).
    let a3 = JbsConfig {
        max_connections: 4,
        ..JbsConfig::default()
    };
    let a3_warm = shuffle_secs(a3, proto);
    println!(
        "A3 consolidation OFF (4-connection cache): warm {a3_warm:.2}s ({:+.1}%)",
        pct(base_warm, a3_warm)
    );

    // A4: connection-cache capacity sweep (counts, not time): how many
    // establishments a 22-node all-to-all shuffle needs at each cap.
    println!("\nA4 connection cache capacity sweep (establishments / evictions):");
    for cap in [1usize, 8, 64, 462, 512, 1024] {
        let mut cm = ConnectionManager::with_capacity(proto.params(), cap);
        // One acquire per (client, remote, round) over 3 rounds of
        // round-robin fetching.
        for round in 0..3 {
            for client in 0..22u32 {
                for remote in 0..22u32 {
                    let t =
                        SimTime::from_millis((round * 484 + (client * 22 + remote) as u64) * 10);
                    cm.acquire(t, client, remote);
                }
            }
        }
        let s = cm.stats();
        println!(
            "  cap {cap:>5}: established {:>5}, reused {:>5}, evicted {:>5}",
            s.established, s.reused, s.evicted
        );
    }

    // A5: round-robin injection off (FIFO across groups): measure per-
    // reducer completion-time spread as the fairness metric.
    let spread = |rr: bool| {
        let cfg = JbsConfig {
            round_robin_injection: rr,
            notification_latency: SimTime::ZERO,
            ..JbsConfig::default()
        };
        let cluster_cfg = ClusterConfig::paper_testbed(proto);
        let mut cluster = SimCluster::new(cluster_cfg, 42);
        let plan = ShufflePlan::synthetic(22, 4, 2, 4 << 20, 100);
        cluster.warm_mofs(&plan);
        let out = JbsShuffle::with_config(cfg).run(&mut cluster, &plan);
        let min = out.ready.iter().min().copied().unwrap_or(SimTime::ZERO);
        let max = out.ready.iter().max().copied().unwrap_or(SimTime::ZERO);
        (max.saturating_sub(min)).as_secs_f64()
    };
    let fair = spread(true);
    let unfair = spread(false);
    println!(
        "\nA5 injection fairness: reducer completion spread RR {fair:.3}s vs FIFO {unfair:.3}s ({:+.1}%)",
        pct(fair.max(1e-9), unfair)
    );
}
