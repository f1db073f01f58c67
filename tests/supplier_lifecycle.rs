//! Leak oracle for the lifecycles of the supplier and the client. While
//! more suppliers serve than there are cores (up to five), the process
//! runs exactly their reactors and one disk worker per Read permit each
//! beyond what it ran before, plus one client thread per core: the
//! client's event loops, which between them serve every supplier. After
//! the client is dropped and the suppliers `shutdown()`, and again after
//! they `drain()`, every thread either side started has exited and every
//! fd it opened — the listeners, the wakers' socket pairs, the
//! connections and MOF files — is closed.
//!
//! The counts are process-wide (`/proc/self/task`, `/proc/self/fd`), so
//! this file holds exactly one test: no other test's threads or
//! sockets share the process.
#![cfg(target_os = "linux")]

use jbs::mapred::merge::Record;
use jbs::transport::client::SegmentRef;
use jbs::transport::{IoScheduler, MofStore, MofSupplierServer, NetMergerClient};
use std::time::{Duration, Instant};

fn entries(dir: &str) -> usize {
    std::fs::read_dir(dir).expect("procfs").count()
}

fn threads() -> usize {
    entries("/proc/self/task")
}

fn fds() -> usize {
    entries("/proc/self/fd")
}

/// What `probe` reads once it reads `want`, or after one second: an
/// exited thread's task entry may outlive its join by a moment.
fn settled(want: usize, probe: fn() -> usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(1);
    loop {
        let got = probe();
        if got == want || Instant::now() >= deadline {
            return got;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn a_stopped_supplier_leaves_no_thread_or_fd_behind() {
    let dir = std::env::temp_dir().join(format!("jbs-lifecycle-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let records: Vec<Record> = (0..500)
        .map(|i| (format!("k{i:05}").into_bytes(), vec![i as u8; 64]))
        .collect();
    let truth = {
        let mut store = MofStore::at(&dir).expect("store");
        store.write_mof(0, records, 1, |_| 0).expect("write mof");
        store
            .read_segment_range(0, 0, 0, 0)
            .expect("read")
            .expect("segment")
    };
    let (threads0, fds0) = (threads(), fds());
    let per_supplier = 1 + IoScheduler::DEFAULT_READ_PERMITS;
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let suppliers = cores.min(4) + 1;
    let loops = cores.min(suppliers);
    for drain in [false, true] {
        let how = if drain { "drain()" } else { "shutdown()" };
        let servers: Vec<MofSupplierServer> = (0..suppliers)
            .map(|_| MofSupplierServer::start(MofStore::at(&dir).expect("store")).expect("start"))
            .collect();
        let serving = threads0 + suppliers * per_supplier;
        assert_eq!(
            threads(),
            serving,
            "a reactor and one worker per permit each"
        );
        let client = NetMergerClient::new();
        let segs: Vec<SegmentRef> = servers
            .iter()
            .map(|server| SegmentRef {
                addr: server.addr(),
                mof: 0,
                reducer: 0,
            })
            .collect();
        let fetched = client.fetch_all(&segs).expect("fetch");
        assert!(fetched.iter().all(|seg| *seg == truth));
        assert_eq!(
            settled(serving + loops, threads),
            serving + loops,
            "plus one client thread per core, for {suppliers} suppliers"
        );
        drop(client);
        for server in servers {
            if drain {
                assert!(server.drain(Duration::from_secs(5)), "drain converged");
            } else {
                server.shutdown();
            }
        }
        assert_eq!(settled(threads0, threads), threads0, "threads after {how}");
        assert_eq!(settled(fds0, fds), fds0, "open fds after {how}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
