//! Fig. 2(b): time to shuffle one segment between one HttpServlet and one
//! MOFCopier, for Java vs native C on 1GigE vs InfiniBand (IPoIB).
//!
//! The segment is warm in the server's page cache (it was just written by
//! a MapTask). The Java path serializes stream-read CPU with the wire per
//! chunk; the native path keeps a pipeline of chunks in flight. On 1GigE
//! the slow wire hides the JVM; on InfiniBand it does not (Sec. II-B).

use jbs_bench::runner::{print_table, Row};
use jbs_des::SimTime;
use jbs_disk::{DiskParams, FileId, NodeStorage};
use jbs_jvm::PathCosts;
use jbs_net::{Fabric, Protocol};

/// One-servlet-to-one-copier transfer of `bytes`, returning milliseconds.
///
/// Java (Fig. 4): the servlet reads the whole segment through the stream,
/// *then* transmits it; the copier drains arrivals at the JVM receive rate.
/// Native C: read, transmit and receive are pipelined chunk by chunk.
fn shuffle_ms(bytes: u64, protocol: Protocol, costs: &PathCosts) -> f64 {
    let mut storage = NodeStorage::new(2, DiskParams::sata_500gb(), 6 << 30);
    let file = FileId(1);
    storage.write(SimTime::ZERO, file, 0, bytes); // warm MOF
    let mut fabric = Fabric::new(2, protocol);
    let mode = costs.read_mode;
    let unit = mode.io_unit();
    let serialized = costs.is_managed();

    // Read phase (chunked disk + stream CPU, serial within the stream).
    let mut read_done = SimTime::ZERO;
    let mut off = 0u64;
    while off < bytes {
        let len = unit.min(bytes - off);
        let io = storage.read(read_done, file, off, len);
        let read_cpu =
            mode.call_overhead() + SimTime::from_secs_f64(len as f64 * mode.cpu_per_byte());
        read_done = io.completed + read_cpu;
        off += len;
    }

    // Transmit phase: sends paced by the socket drain; receiver processes
    // arrivals serially at its stream rate.
    let mut tx_free = if serialized { read_done } else { SimTime::ZERO };
    let mut recv_cursor = SimTime::ZERO;
    off = 0;
    while off < bytes {
        let len = unit.min(bytes - off);
        let send_at = tx_free + costs.send_cpu(len);
        let timing = fabric.transfer(send_at, 0, 1, len);
        tx_free = timing.tx_done;
        recv_cursor = timing.arrived.max(recv_cursor) + costs.recv_cpu(len);
        off += len;
    }
    // The pipelined native path overlaps read and xmit; end-to-end time is
    // whichever frontier finishes last.
    recv_cursor.max(read_done).as_millis_f64()
}

fn main() {
    let cases: [(&str, Protocol, PathCosts); 4] = [
        ("Java (1GigE)", Protocol::Tcp1GigE, PathCosts::java()),
        (
            "Native C (1GigE)",
            Protocol::Tcp1GigE,
            PathCosts::native_c(),
        ),
        ("Java (InfiniBand)", Protocol::IpoIb, PathCosts::java()),
        (
            "Native C (InfiniBand)",
            Protocol::IpoIb,
            PathCosts::native_c(),
        ),
    ];
    let series: Vec<String> = cases.iter().map(|(n, _, _)| n.to_string()).collect();
    let mut rows = Vec::new();
    let mut mb = 1u64;
    while mb <= 256 {
        let cells: Vec<f64> = cases
            .iter()
            .map(|(_, p, c)| shuffle_ms(mb << 20, *p, c))
            .collect();
        rows.push(Row {
            key: format!("{mb} MB"),
            cells,
        });
        mb *= 2;
    }
    print_table(
        "Fig. 2(b): Segment Shuffle Time (ms), one HttpServlet to one MOFCopier",
        "segment size",
        &series,
        &rows,
    );
    let last = rows.last().expect("rows");
    println!(
        "\nAt 256 MB: Java/native on InfiniBand = {:.2}x (paper: up to 3.4x); on 1GigE = {:.2}x (hidden)",
        last.cells[2] / last.cells[3],
        last.cells[0] / last.cells[1],
    );
}
