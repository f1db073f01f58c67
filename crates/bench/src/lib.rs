//! # jbs-bench — the experiment harness
//!
//! One binary per table/figure of the paper (see `DESIGN.md` §5 for the
//! index and `EXPERIMENTS.md` for results):
//!
//! | binary   | exhibit | content |
//! |----------|---------|---------|
//! | `table1` | Table I | test case ↔ protocol ↔ network matrix |
//! | `fig2a`  | Fig. 2a | MOF read time: Java stream vs native read vs mmap |
//! | `fig2b`  | Fig. 2b | 1 servlet → 1 copier segment shuffle time |
//! | `fig2c`  | Fig. 2c | N nodes → 1 ReduceTask shuffle time |
//! | `fig7`   | Fig. 7  | Terasort vs input size, InfiniBand + Ethernet |
//! | `fig8`   | Fig. 8  | JBS protocol comparison vs input size |
//! | `fig9`   | Fig. 9  | strong/weak scaling, both fabrics |
//! | `fig10`  | Fig. 10 | CPU utilization timelines (sar, 5 s bins) |
//! | `fig11`  | Fig. 11 | transport buffer size sweep |
//! | `fig12`  | Fig. 12 | Tarazu suite + WordCount/Grep |
//! | `ablations` | §6 of DESIGN.md | prefetch/grouping/consolidation/fairness |
//!
//! Every binary prints a self-describing table to stdout. The repo
//! benchmark (`--bin benchmark`, see `BENCHMARK.json`) measures the real
//! dataplane end to end and layer by layer.

pub mod runner;

pub use runner::{run_case, run_case_with, Row};
