//! Fig. 2(a): average MOF read time vs. number of concurrent HttpServlets,
//! for Java stream reads, native `read(2)` and native `mmap(2)`.
//!
//! Reproduces the paper's microbenchmark: N concurrent servlets each read
//! one cold 1 GB MOF from a node with two SATA disks. The Java stream path
//! serializes small reads with heavy per-byte CPU, so it is ~3× slower than
//! native C; concurrency adds seek storms for everyone.

use jbs_bench::runner::{print_table, Row};
use jbs_des::SimTime;
use jbs_disk::{DiskParams, FileId, NodeStorage};
use jbs_jvm::ReadMode;

const MOF_BYTES: u64 = 1 << 30;

/// Simulate `n` concurrent servlets reading one MOF each in `mode`,
/// returning the mean per-MOF read time in milliseconds.
fn mof_read_time_ms(n: usize, mode: ReadMode) -> f64 {
    let mut storage = NodeStorage::new(2, DiskParams::sata_500gb(), 6 << 30);
    // Per-servlet stream state: (file, offset, cursor).
    let mut streams: Vec<(FileId, u64, SimTime)> = (0..n)
        .map(|i| (FileId(i as u64), 0, SimTime::ZERO))
        .collect();
    let unit = mode.io_unit();
    let cpu_per_byte = mode.cpu_per_byte();
    let mut total = SimTime::ZERO;
    let mut remaining = n;
    // Advance the earliest-cursor stream one unit at a time, exactly like
    // concurrent servlet threads interleaving on the shared disks.
    while remaining > 0 {
        let (idx, _) = streams
            .iter()
            .enumerate()
            .filter(|(_, (_, off, _))| *off < MOF_BYTES)
            .min_by_key(|(_, (_, _, cur))| *cur)
            .expect("a stream remains");
        let (file, off, cur) = streams[idx];
        let len = unit.min(MOF_BYTES - off);
        let io = storage.read(cur, file, off, len);
        // Serialized read -> stream CPU (Fig. 4: no prefetch, no overlap).
        let cpu = mode.call_overhead() + SimTime::from_secs_f64(len as f64 * cpu_per_byte);
        let done = io.completed + cpu;
        streams[idx] = (file, off + len, done);
        if off + len >= MOF_BYTES {
            total += done;
            remaining -= 1;
        }
    }
    total.as_millis_f64() / n as f64
}

fn main() {
    let modes = [
        ReadMode::JavaStream,
        ReadMode::NativeRead,
        ReadMode::NativeMmap,
    ];
    let series: Vec<String> = modes.iter().map(|m| m.label().to_string()).collect();
    let mut rows = Vec::new();
    for n in [1usize, 2, 4, 8, 16] {
        let cells: Vec<f64> = modes.iter().map(|&m| mof_read_time_ms(n, m)).collect();
        rows.push(Row {
            key: n.to_string(),
            cells,
        });
    }
    print_table(
        "Fig. 2(a): Average MOF Read Time (ms) vs concurrent HttpServlets (1 GB MOF each)",
        "servlets",
        &series,
        &rows,
    );
    // Headline check: the paper reports Java ~3.1x native on average.
    let avg_ratio: f64 =
        rows.iter().map(|r| r.cells[0] / r.cells[1]).sum::<f64>() / rows.len() as f64;
    println!("\nJava/native-read mean ratio: {avg_ratio:.2}x (paper: 3.1x)");
}
