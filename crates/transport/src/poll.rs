//! Readiness polling over raw fds — the thin unsafe shim under both
//! event loops: the supplier's reactor and the client's fetch
//! scheduler.
//!
//! The no-deps policy rules out `mio` and the `libc` crate, but std on
//! unix already links the platform libc, so the one syscall the event
//! loops need is a single hand-declared `extern "C"` away: `poll(2)`.
//! It is chosen over `epoll` deliberately — both fd sets are small (the
//! supplier's admitted connections are capped by admission control; the
//! client's set is one socket per supplier) and rebuilt each iteration
//! anyway, so the O(n) scan poll performs is the same scan each loop
//! does to find its state machines, without epoll's three extra
//! syscalls of registration bookkeeping or its Linux-only surface.
//!
//! This is one of the two modules allowed to contain `unsafe` (the
//! `cargo xtask analyze` hygiene fence holds the list; the other is
//! the checksum crate's `hw.rs`), and
//! it keeps the surface minimal: one `#[repr(C)]` struct matching the
//! kernel ABI, one EINTR-retrying safe wrapper, and a [`Waker`] built
//! on an ordinary nonblocking `UnixStream` pair so cross-thread wakes
//! need no unsafe at all.
//!
//! Being the crate's libc shim, it also holds the one other
//! hand-declared call the dataplane makes: glibc's `mallopt(3)`, behind
//! [`pin_malloc_thresholds`].

#![allow(unsafe_code)]

use std::io::{self, Read, Write};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;

/// Readiness flags, matching `<poll.h>` on every platform std supports
/// (the values are identical across Linux, the BSDs, and macOS).
pub(crate) const POLLIN: i16 = 0x001;
pub(crate) const POLLOUT: i16 = 0x004;
pub(crate) const POLLERR: i16 = 0x008;
pub(crate) const POLLHUP: i16 = 0x010;
pub(crate) const POLLNVAL: i16 = 0x020;

/// One fd's interest + readiness, layout-compatible with the kernel's
/// `struct pollfd` (three naturally-aligned fields, no padding).
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollFd {
    pub(crate) fd: i32,
    pub(crate) events: i16,
    pub(crate) revents: i16,
}

impl PollFd {
    pub(crate) fn new(fd: RawFd, events: i16) -> Self {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    pub(crate) fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLHUP | POLLERR | POLLNVAL) != 0
    }

    pub(crate) fn writable(&self) -> bool {
        self.revents & (POLLOUT | POLLHUP | POLLERR | POLLNVAL) != 0
    }
}

extern "C" {
    /// `int poll(struct pollfd *fds, nfds_t nfds, int timeout);`
    /// `nfds_t` is `unsigned long` on the platforms std supports.
    fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: std::ffi::c_int)
        -> std::ffi::c_int;
}

/// Block until at least one fd in `fds` is ready or `timeout_ms`
/// elapses (`-1` blocks indefinitely, `0` polls). Returns the number
/// of entries with nonzero `revents`; retries transparently on EINTR.
pub(crate) fn sys_poll(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    loop {
        // SAFETY: `fds` is a live, exclusively-borrowed slice of
        // `#[repr(C)]` structs layout-identical to `struct pollfd`;
        // the kernel reads `fds.len()` entries and writes only the
        // `revents` field of each. The pointer outlives the call and
        // no Rust alias exists while the syscall runs.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as std::ffi::c_ulong, timeout_ms) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// `<malloc.h>` parameter numbers of glibc's `mallopt(3)`.
#[cfg(all(target_os = "linux", target_env = "gnu", not(miri)))]
const M_TRIM_THRESHOLD: std::ffi::c_int = -1;
#[cfg(all(target_os = "linux", target_env = "gnu", not(miri)))]
const M_MMAP_THRESHOLD: std::ffi::c_int = -3;

#[cfg(all(target_os = "linux", target_env = "gnu", not(miri)))]
extern "C" {
    /// `int mallopt(int param, int value);`
    fn mallopt(param: std::ffi::c_int, value: std::ffi::c_int) -> std::ffi::c_int;
}

/// Blocks of this size and more are private mappings that go back to
/// the kernel when dropped; smaller ones recycle through the heap. It
/// is the largest value glibc documents for 64-bit targets
/// (`DEFAULT_MMAP_THRESHOLD_MAX`, half a thread arena's 64 MiB heap);
/// releases that enforce that limit refuse anything above it.
#[cfg(all(target_os = "linux", target_env = "gnu", not(miri)))]
const MMAP_THRESHOLD: std::ffi::c_int = 32 << 20;
/// Free heap top above this is returned to the kernel: more than a
/// thread arena's 64 MiB heap can hold, so in effect never.
#[cfg(all(target_os = "linux", target_env = "gnu", not(miri)))]
const TRIM_THRESHOLD: std::ffi::c_int = 256 << 20;

/// Make what the allocator does with a dataplane buffer depend on the
/// buffer's size alone. Called by the constructors of the client and
/// the supplier; acts once per process, and only on glibc. Returns
/// whether the allocator accepted both values (always `true` where
/// there is nothing to set).
///
/// The dataplane cycles buffers of 128 KiB (a chunk) to several MiB (a
/// fetched segment: reserved by the client loop, dropped by the caller
/// a wave later) at more than a GiB/s. glibc serves a block above its
/// mmap threshold with a private `mmap` and gives a heap's free top
/// back to the kernel above its trim threshold, and by default both
/// thresholds *float*: each follows the largest mmapped block the
/// process has freed so far. Whether a wave's segment buffers were
/// carved from still-mapped heap or had to be page-faulted in again
/// therefore depended on what the process happened to free earlier —
/// 14 to 32 thousand faults per 132 MiB pass, constant within one
/// client/supplier set-up and different in the next — and once CRC32C
/// ran at memory speed that alone moved a memory-tier fetch between
/// 1.2 and 2.2 GiB/s (on a lazily backed VM a fault on returned memory
/// is a trip to the hypervisor). Setting either threshold switches the
/// floating off. With these two values every dataplane buffer under
/// 32 MiB — chunks, read-ahead ranges and whole-segment buffers alike
/// — is carved from a heap that is never trimmed, so the next wave's
/// segment buffers reuse pages the last wave already faulted in, and
/// the process's history no longer enters into it.
pub(crate) fn pin_malloc_thresholds() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu", not(miri)))]
    {
        static ACCEPTED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *ACCEPTED.get_or_init(|| {
            // SAFETY: `mallopt` takes two plain integers and only sets
            // fields of the allocator's parameter block under its own
            // lock; it may be called at any time from any thread. A
            // refused value returns 0 and changes nothing, which leaves
            // the default policy — less steady, never incorrect.
            let (mmap, trim) = unsafe {
                (
                    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD),
                    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD),
                )
            };
            mmap != 0 && trim != 0
        })
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu", not(miri))))]
    true
}

/// Cross-thread wakeup for a poll loop: a nonblocking socketpair whose
/// read end sits in the poll set. [`Waker::wake`] writes one byte (a
/// full pipe means a wake is already pending — dropped by design), and
/// the loop [`Waker::drain`]s after each readiness report so one byte
/// never wakes it twice.
pub(crate) struct Waker {
    tx: UnixStream,
    rx: UnixStream,
}

impl Waker {
    pub(crate) fn new() -> io::Result<Waker> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Waker { tx, rx })
    }

    /// The fd to register with `POLLIN` interest.
    pub(crate) fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Make the owning poll loop's next (or current) `sys_poll` return.
    /// Infallible by contract: a WouldBlock here means the buffer is
    /// full of earlier wake bytes, so the loop is already waking.
    pub(crate) fn wake(&self) {
        let _ = (&self.tx).write(&[1]);
    }

    /// Consume all pending wake bytes. Called by the loop after
    /// readiness; nonblocking, so it returns as soon as the buffer is
    /// empty — and a short read already emptied it.
    pub(crate) fn drain(&self) {
        let mut sink = [0u8; 64];
        loop {
            match (&self.rx).read(&mut sink) {
                Ok(n) if n == sink.len() => continue,
                // Short (or peer closed): nothing more to drain.
                Ok(_) => return,
                Err(_) => return, // WouldBlock (or EINTR): drained enough
            }
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn poll_reports_readable_after_write() {
        let (a, b) = UnixStream::pair().expect("socketpair");
        let mut fds = [PollFd::new(b.as_raw_fd(), POLLIN)];
        // Nothing written yet: a zero-timeout poll reports nothing.
        let n = sys_poll(&mut fds, 0).expect("poll");
        assert_eq!(n, 0);
        assert!(!fds[0].readable());
        (&a).write_all(&[7]).expect("write");
        let n = sys_poll(&mut fds, 1000).expect("poll");
        assert_eq!(n, 1);
        assert!(fds[0].readable());
        assert!(!fds[0].writable() || fds[0].revents & POLLOUT != 0);
    }

    #[test]
    fn poll_reports_writable_socket() {
        let (a, _b) = UnixStream::pair().expect("socketpair");
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLOUT)];
        let n = sys_poll(&mut fds, 1000).expect("poll");
        assert_eq!(n, 1);
        assert!(fds[0].writable());
    }

    #[test]
    fn poll_reports_hup_on_peer_close() {
        let (a, b) = UnixStream::pair().expect("socketpair");
        drop(a);
        let mut fds = [PollFd::new(b.as_raw_fd(), POLLIN)];
        let n = sys_poll(&mut fds, 1000).expect("poll");
        assert_eq!(n, 1);
        // Closed peer surfaces as HUP and/or IN (EOF readable); either
        // way the reactor's `readable()` predicate fires.
        assert!(fds[0].readable());
    }

    #[test]
    fn waker_wakes_and_drains() {
        let w = Waker::new().expect("waker");
        let mut fds = [PollFd::new(w.fd(), POLLIN)];
        assert_eq!(sys_poll(&mut fds, 0).expect("poll"), 0);
        w.wake();
        w.wake(); // coalesces: both bytes drain in one pass
        assert_eq!(sys_poll(&mut fds, 1000).expect("poll"), 1);
        assert!(fds[0].readable());
        w.drain();
        fds[0].revents = 0;
        assert_eq!(
            sys_poll(&mut fds, 0).expect("poll"),
            0,
            "drained waker is quiet"
        );
    }

    /// Minor faults taken so far by the calling thread.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    fn thread_minor_faults() -> u64 {
        let stat = std::fs::read_to_string("/proc/thread-self/stat").expect("thread stat");
        let (_, rest) = stat.rsplit_once(')').expect("comm field");
        rest.split_ascii_whitespace()
            .nth(7)
            .and_then(|f| f.parse().ok())
            .expect("minflt field")
    }

    #[test]
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    fn what_a_freed_block_costs_next_time_depends_on_its_size_alone() {
        /// Allocate `len` bytes, write every page, free; the faults taken.
        fn touch(len: usize) -> u64 {
            let before = thread_minor_faults();
            let mut buf: Vec<u8> = Vec::with_capacity(len);
            buf.resize(len, 1);
            std::hint::black_box(&buf);
            drop(buf);
            thread_minor_faults() - before
        }
        pin_malloc_thresholds();
        pin_malloc_thresholds(); // once per process; later calls are free
        let (segment, huge) = (8 << 20, 64 << 20);
        // Under the threshold: mapped by the first use (or before it),
        // still mapped at the second. glibc's floating default would
        // `mmap` and unmap a block this size until something larger
        // had been freed: one fault per 4 KiB page, 2048 of them.
        touch(segment);
        let again = touch(segment);
        assert!(
            again < 64,
            "a freed 8 MiB block took {again} page faults to use again"
        );
        // At or over it: a fresh mapping every time, whatever was freed
        // before.
        touch(huge);
        let again = touch(huge);
        assert!(
            again >= (huge / 4096) as u64,
            "a freed 64 MiB block took only {again} page faults to use again"
        );
    }

    /// A glibc that enforces the documented maximum refuses a larger
    /// mmap threshold by returning 0 and changing nothing, which would
    /// silently leave the floating policy in place; both values must
    /// have been taken.
    #[test]
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    fn the_allocator_accepts_both_thresholds() {
        assert!(pin_malloc_thresholds(), "mallopt refused a threshold");
    }

    #[test]
    fn waker_wake_from_other_thread() {
        let w = std::sync::Arc::new(Waker::new().expect("waker"));
        let w2 = std::sync::Arc::clone(&w);
        let h = std::thread::spawn(move || w2.wake());
        let mut fds = [PollFd::new(w.fd(), POLLIN)];
        let n = sys_poll(&mut fds, 5000).expect("poll");
        assert_eq!(n, 1);
        h.join().expect("waker thread panicked");
    }
}
