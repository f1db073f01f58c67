//! The mechanical disk: one arm, seek/rotational positioning costs, and a
//! sequential transfer rate.
//!
//! The model intentionally stays at the level that shapes the paper's
//! results: a request contiguous with the previous one on the same file pays
//! only transfer time; any discontinuity pays an average seek plus half a
//! rotation. The arm is a FIFO resource, so interleaved request streams from
//! concurrent HttpServlets destroy sequentiality exactly as they do on real
//! hardware (Fig. 2a, Fig. 4 vs. Fig. 5).

use jbs_des::server::{FifoServer, Grant};
use jbs_des::SimTime;

/// Mechanical characteristics of one drive.
#[derive(Debug, Clone)]
pub struct DiskParams {
    /// Sequential read bandwidth in bytes/second.
    pub seq_read_bw: f64,
    /// Sequential write bandwidth in bytes/second.
    pub seq_write_bw: f64,
    /// Average seek time.
    pub avg_seek: SimTime,
    /// Average rotational delay (half a revolution).
    pub avg_rotational: SimTime,
    /// Fixed per-request controller/command overhead.
    pub per_request_overhead: SimTime,
}

impl DiskParams {
    /// A circa-2012 7200 rpm 500 GB SATA drive, as in the paper's testbed:
    /// ~110 MB/s outer-zone sequential reads, 8.5 ms average seek, 4.16 ms
    /// average rotational delay.
    pub fn sata_500gb() -> Self {
        DiskParams {
            seq_read_bw: 110.0 * 1e6,
            seq_write_bw: 100.0 * 1e6,
            avg_seek: SimTime::from_micros(8_500),
            avg_rotational: SimTime::from_micros(4_160),
            per_request_overhead: SimTime::from_micros(100),
        }
    }

    /// Positioning cost paid on any non-contiguous access.
    pub fn positioning(&self) -> SimTime {
        self.avg_seek + self.avg_rotational
    }

    /// Pure transfer time for `bytes` at the sequential read rate.
    pub fn read_transfer(&self, bytes: u64) -> SimTime {
        SimTime::for_bytes(bytes, self.seq_read_bw)
    }

    /// Pure transfer time for `bytes` at the sequential write rate.
    pub fn write_transfer(&self, bytes: u64) -> SimTime {
        SimTime::for_bytes(bytes, self.seq_write_bw)
    }
}

/// Result of an I/O submission.
#[derive(Debug, Clone, Copy)]
pub struct IoGrant {
    /// When the device started working on the request.
    pub start: SimTime,
    /// When the data was on (or off) the platter.
    pub end: SimTime,
    /// Whether the request paid a positioning (seek + rotation) penalty.
    pub seeked: bool,
}

/// Identifies the head position after the last completed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HeadPos {
    file: u64,
    /// Byte offset just past the last transfer.
    end_offset: u64,
}

/// One drive: a FIFO arm plus head-position tracking.
#[derive(Debug, Clone)]
pub struct Disk {
    params: DiskParams,
    arm: FifoServer,
    head: Option<HeadPos>,
    seeks: u64,
    sequential: u64,
    bytes_read: u64,
    bytes_written: u64,
}

impl Disk {
    /// A new idle drive.
    pub fn new(params: DiskParams) -> Self {
        Disk {
            params,
            arm: FifoServer::new(),
            head: None,
            seeks: 0,
            sequential: 0,
            bytes_read: 0,
            bytes_written: 0,
        }
    }

    fn access(&mut self, now: SimTime, file: u64, offset: u64, bytes: u64, write: bool) -> IoGrant {
        let contiguous = self.head
            == Some(HeadPos {
                file,
                end_offset: offset,
            });
        let positioning = if contiguous {
            SimTime::ZERO
        } else {
            self.params.positioning()
        };
        let transfer = if write {
            self.params.write_transfer(bytes)
        } else {
            self.params.read_transfer(bytes)
        };
        let service = self.params.per_request_overhead + positioning + transfer;
        let Grant { start, end } = self.arm.serve(now, service);
        self.head = Some(HeadPos {
            file,
            end_offset: offset + bytes,
        });
        if contiguous {
            self.sequential += 1;
        } else {
            self.seeks += 1;
        }
        if write {
            self.bytes_written += bytes;
        } else {
            self.bytes_read += bytes;
        }
        IoGrant {
            start,
            end,
            seeked: !contiguous,
        }
    }

    /// Read `bytes` from `file` at `offset`, submitted at `now`.
    pub fn read(&mut self, now: SimTime, file: u64, offset: u64, bytes: u64) -> IoGrant {
        self.access(now, file, offset, bytes, false)
    }

    /// Write `bytes` to `file` at `offset`, submitted at `now`.
    pub fn write(&mut self, now: SimTime, file: u64, offset: u64, bytes: u64) -> IoGrant {
        self.access(now, file, offset, bytes, true)
    }

    /// When the arm frees up for a new request.
    pub fn next_free(&self) -> SimTime {
        self.arm.next_free()
    }

    /// Total time the arm has been busy.
    pub fn busy_time(&self) -> SimTime {
        self.arm.busy_time()
    }

    /// Requests that paid a positioning penalty.
    pub fn seeks(&self) -> u64 {
        self.seeks
    }

    /// Requests that were contiguous with their predecessor.
    pub fn sequential_requests(&self) -> u64 {
        self.sequential
    }

    /// Total bytes read from the platter.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Total bytes written to the platter.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// The drive's parameters.
    pub fn params(&self) -> &DiskParams {
        &self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> Disk {
        Disk::new(DiskParams::sata_500gb())
    }

    #[test]
    fn first_access_seeks() {
        let mut d = disk();
        let g = d.read(SimTime::ZERO, 1, 0, 1 << 20);
        assert!(g.seeked);
        assert_eq!(d.seeks(), 1);
        // 1 MiB at 110 MB/s ~ 9.53 ms plus ~12.76 ms positioning/overhead.
        let secs = g.end.as_secs_f64();
        assert!(secs > 0.020 && secs < 0.025, "took {secs}");
    }

    #[test]
    fn contiguous_read_skips_positioning() {
        let mut d = disk();
        let a = d.read(SimTime::ZERO, 1, 0, 1 << 20);
        let b = d.read(a.end, 1, 1 << 20, 1 << 20);
        assert!(!b.seeked);
        assert_eq!(d.sequential_requests(), 1);
        let dur = (b.end - b.start).as_secs_f64();
        // Just overhead + transfer: ~9.6 ms.
        assert!(dur < 0.011, "contiguous read took {dur}");
    }

    #[test]
    fn switching_files_seeks() {
        let mut d = disk();
        let a = d.read(SimTime::ZERO, 1, 0, 4096);
        let b = d.read(a.end, 2, 0, 4096);
        assert!(b.seeked);
        let c = d.read(b.end, 1, 4096, 4096);
        assert!(c.seeked, "head moved to file 2, returning must seek");
    }

    #[test]
    fn arm_is_fifo() {
        let mut d = disk();
        let a = d.read(SimTime::ZERO, 1, 0, 100 << 20);
        let b = d.read(SimTime::from_millis(1), 2, 0, 4096);
        assert_eq!(b.start, a.end);
    }

    #[test]
    fn interleaving_destroys_sequentiality() {
        // Two files read alternately: every request seeks. Same pattern
        // read one-file-at-a-time: only two seeks. This asymmetry is the
        // mechanism behind MOFSupplier's request grouping.
        let mut inter = disk();
        let mut t = SimTime::ZERO;
        for i in 0..16u64 {
            let file = 1 + (i % 2);
            let off = (i / 2) * 4096;
            t = inter.read(t, file, off, 4096).end;
        }
        let mut grouped = disk();
        let mut t2 = SimTime::ZERO;
        for file in 1..=2u64 {
            for j in 0..8u64 {
                t2 = grouped.read(t2, file, j * 4096, 4096).end;
            }
        }
        assert_eq!(inter.seeks(), 16);
        assert_eq!(grouped.seeks(), 2);
        assert!(t2 < t, "grouped {t2} should beat interleaved {t}");
    }

    #[test]
    fn write_accounting() {
        let mut d = disk();
        d.write(SimTime::ZERO, 9, 0, 1 << 20);
        assert_eq!(d.bytes_written(), 1 << 20);
        assert_eq!(d.bytes_read(), 0);
        assert!(d.busy_time() > SimTime::ZERO);
    }

    #[test]
    fn write_then_contiguous_read_is_sequential() {
        let mut d = disk();
        let w = d.write(SimTime::ZERO, 9, 0, 4096);
        let r = d.read(w.end, 9, 4096, 4096);
        assert!(!r.seeked);
    }
}
