//! Parameterized single-experiment runner: pick the engine/protocol, the
//! workload, the size and the cluster, get one measured job.
//!
//! ```sh
//! run_sim [--case <case>] [--bench <name>] [--gb <n>] [--slaves <n>]
//!         [--buffer-kb <n>] [--seed <n>] [--timeline]
//!
//! cases:  hadoop-1g hadoop-10g hadoop-ipoib hadoop-sdp
//!         jbs-1g jbs-10g jbs-ipoib jbs-roce jbs-rdma
//! benches: terasort selfjoin invertedindex sequencecount adjacencylist
//!          wordcount grep
//! ```

use jbs_core::{EngineKind, JbsConfig};
use jbs_mapred::{ClusterConfig, JobSimulator};
use jbs_workloads::Benchmark;

fn parse_case(s: &str) -> Option<EngineKind> {
    Some(match s {
        "hadoop-1g" => EngineKind::HadoopOn1GigE,
        "hadoop-10g" => EngineKind::HadoopOn10GigE,
        "hadoop-ipoib" => EngineKind::HadoopOnIpoIb,
        "hadoop-sdp" => EngineKind::HadoopOnSdp,
        "jbs-1g" => EngineKind::JbsOn1GigE,
        "jbs-10g" => EngineKind::JbsOn10GigE,
        "jbs-ipoib" => EngineKind::JbsOnIpoIb,
        "jbs-roce" => EngineKind::JbsOnRoce,
        "jbs-rdma" => EngineKind::JbsOnRdma,
        _ => return None,
    })
}

fn parse_bench(s: &str) -> Option<Benchmark> {
    Some(match s {
        "terasort" => Benchmark::Terasort,
        "selfjoin" => Benchmark::SelfJoin,
        "invertedindex" => Benchmark::InvertedIndex,
        "sequencecount" => Benchmark::SequenceCount,
        "adjacencylist" => Benchmark::AdjacencyList,
        "wordcount" => Benchmark::WordCount,
        "grep" => Benchmark::Grep,
        _ => return None,
    })
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value.parse().unwrap_or_else(|_| {
        eprintln!("{flag}: {value:?} is not a valid number");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut case = EngineKind::JbsOnRdma;
    let mut bench = Benchmark::Terasort;
    let mut gb = 64u64;
    let mut slaves = 22usize;
    let mut buffer_kb = 128u64;
    let mut seed = 42u64;
    let mut timeline = false;

    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut take = |what: &str| -> String {
            i += 1;
            args.get(i)
                .unwrap_or_else(|| {
                    eprintln!("{flag} needs a {what}");
                    std::process::exit(2);
                })
                .clone()
        };
        match flag {
            "--case" => {
                let v = take("case name");
                case = parse_case(&v).unwrap_or_else(|| {
                    eprintln!("unknown case {v:?}");
                    std::process::exit(2);
                });
            }
            "--bench" => {
                let v = take("benchmark name");
                bench = parse_bench(&v).unwrap_or_else(|| {
                    eprintln!("unknown benchmark {v:?}");
                    std::process::exit(2);
                });
            }
            "--gb" => gb = parse_num(flag, &take("number")),
            "--slaves" => slaves = parse_num(flag, &take("number")),
            "--buffer-kb" => buffer_kb = parse_num(flag, &take("number")),
            "--seed" => seed = parse_num(flag, &take("number")),
            "--timeline" => timeline = true,
            other => {
                eprintln!("unknown flag {other:?}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let cfg = ClusterConfig::paper_testbed_scaled(case.protocol(), slaves);
    let sim = JobSimulator::with_seed(cfg, bench.spec(gb << 30), seed);
    let mut engine = case.build_with(JbsConfig::with_buffer(buffer_kb << 10));
    let r = sim.run(engine.as_mut());

    println!(
        "{} / {} {gb} GB / {slaves} slaves / seed {seed}",
        case.label(),
        bench.label()
    );
    println!("  job execution time : {:>9.1} s", r.job_time.as_secs_f64());
    println!(
        "  map phase end      : {:>9.1} s",
        r.map_phase_end.as_secs_f64()
    );
    println!(
        "  shuffle all ready  : {:>9.1} s",
        r.shuffle_all_ready.as_secs_f64()
    );
    println!("  mean CPU util      : {:>9.1} %", r.mean_cpu_utilization());
    println!(
        "  bytes shuffled     : {:>9.2} GB",
        r.bytes_shuffled as f64 / (1u64 << 30) as f64
    );
    println!(
        "  reduce-side spills : {:>9.2} GB",
        r.spilled_bytes as f64 / (1u64 << 30) as f64
    );
    println!("  connections        : {:>9}", r.connections_established);
    println!(
        "  disk: busy {:.0}s, {} seeks, {:.1} GB read, {:.1} GB written",
        r.disk_busy.as_secs_f64(),
        r.disk_seeks,
        r.disk_bytes_read as f64 / (1u64 << 30) as f64,
        r.disk_bytes_written as f64 / (1u64 << 30) as f64,
    );
    if timeline {
        println!("\n  CPU utilization timeline (5 s sar bins, cluster average):");
        for (t, u) in r.cpu_timeline() {
            let bar = "#".repeat((u / 2.0) as usize);
            println!("  {:>6.0}s {:>5.1}% {}", t.as_secs_f64(), u, bar);
        }
    }
}
