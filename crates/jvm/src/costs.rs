//! Per-path CPU cost tables for the managed (JVM) and native runtimes.
//!
//! Every constant here is a calibration point tied to a measurement the
//! paper reports; the benches in `jbs-bench` regenerate the corresponding
//! figures, and `EXPERIMENTS.md` records how close the shapes land.

use jbs_des::SimTime;

/// Which runtime a data path executes in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Runtime {
    /// Hadoop's stock Java path (HttpServlet / MOFCopier inside the JVM).
    Java,
    /// JBS's native C path (MOFSupplier / NetMerger outside the JVM).
    NativeC,
}

impl Runtime {
    /// Human-readable label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            Runtime::Java => "Java",
            Runtime::NativeC => "Native C",
        }
    }
}

/// How a server-side process reads MOF data off disk (Fig. 2a's three
/// curves).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReadMode {
    /// `java.io.FileInputStream` — the stock HttpServlet path.
    JavaStream,
    /// Native `read(2)` into a reusable buffer — JBS's MOFSupplier path.
    NativeRead,
    /// Native `mmap(2)` — zero user-space copies.
    NativeMmap,
}

impl ReadMode {
    /// CPU seconds charged per byte moved through this read path.
    ///
    /// The Java stream path copies through `InputStream` buffers and churns
    /// objects, capping at ~400 MB/s; native `read` runs at ~1.25 GB/s and
    /// `mmap` at ~2.5 GB/s. Together with the per-path I/O unit (small Java
    /// stream reads seek far more under concurrency), this lands Fig. 2a's
    /// ~3.1× Java-vs-native-read gap.
    pub fn cpu_per_byte(self) -> f64 {
        match self {
            ReadMode::JavaStream => 1.0 / (400.0 * 1e6),
            ReadMode::NativeRead => 1.0 / (1.25 * 1e9),
            ReadMode::NativeMmap => 1.0 / (2.5 * 1e9),
        }
    }

    /// Fixed CPU overhead per I/O call (syscall + stream bookkeeping).
    pub fn call_overhead(self) -> SimTime {
        match self {
            ReadMode::JavaStream => SimTime::from_micros(20),
            ReadMode::NativeRead => SimTime::from_micros(4),
            ReadMode::NativeMmap => SimTime::from_micros(2),
        }
    }

    /// Granularity at which the path issues disk requests. Larger units
    /// survive concurrent interleaving better (fewer seeks per byte).
    pub fn io_unit(self) -> u64 {
        match self {
            ReadMode::JavaStream => 128 << 10,
            ReadMode::NativeRead => 1 << 20,
            ReadMode::NativeMmap => 4 << 20,
        }
    }

    /// Heap bytes allocated per byte read (drives GC pressure). The managed
    /// stream materialises buffers and objects per chunk; native paths
    /// allocate nothing per byte.
    pub fn alloc_per_byte(self) -> f64 {
        match self {
            ReadMode::JavaStream => 1.67,
            ReadMode::NativeRead | ReadMode::NativeMmap => 0.0,
        }
    }

    /// Label used in figure output.
    pub fn label(self) -> &'static str {
        match self {
            ReadMode::JavaStream => "Java (stream read)",
            ReadMode::NativeRead => "Native C (read)",
            ReadMode::NativeMmap => "Native C (mmap)",
        }
    }
}

/// CPU cost table for a shuffle endpoint (server or client side).
///
/// `jbs-net` charges protocol copy costs separately; these are the costs of
/// the *runtime* on top of the protocol: stream wrappers, servlet
/// dispatching, object management.
#[derive(Debug, Clone)]
pub struct PathCosts {
    /// Which runtime this is.
    pub runtime: Runtime,
    /// How the server side reads MOF bytes off disk.
    pub read_mode: ReadMode,
    /// Extra CPU seconds per byte on the network *send* path
    /// (on top of protocol copy costs).
    pub net_send_cpu_per_byte: f64,
    /// Extra CPU seconds per byte on the network *receive* path.
    pub net_recv_cpu_per_byte: f64,
    /// Fixed CPU per network message (request parsing, servlet dispatch).
    pub per_message_cpu: SimTime,
    /// Heap bytes allocated per byte shuffled (JVM object inflation;
    /// 0 for native).
    pub alloc_per_byte: f64,
    /// Threads dedicated to shuffling per ReduceTask (paper: >8 JVM threads
    /// vs. 3 native threads).
    pub shuffle_threads_per_reducetask: u32,
    /// Baseline CPU fraction (of one core) each shuffle thread burns on
    /// scheduling/synchronization while active.
    pub per_thread_overhead: f64,
}

impl PathCosts {
    /// The stock Hadoop JVM path. Calibrated so a single-stream shuffle
    /// saturates at ≈400 MB/s of CPU-bound throughput — hidden behind a
    /// 117 MB/s 1GigE wire, but a 3.4× wall on InfiniBand (Fig. 2b).
    pub fn java() -> Self {
        PathCosts {
            runtime: Runtime::Java,
            read_mode: ReadMode::JavaStream,
            net_send_cpu_per_byte: 1.25e-9, // ~800 MB/s send-side ceiling
            net_recv_cpu_per_byte: 1.25e-9, // ~800 MB/s recv-side ceiling
            per_message_cpu: SimTime::from_micros(30),
            alloc_per_byte: 1.67,
            shuffle_threads_per_reducetask: 8,
            per_thread_overhead: 0.02,
        }
    }

    /// JBS's native C path.
    pub fn native_c() -> Self {
        PathCosts {
            runtime: Runtime::NativeC,
            read_mode: ReadMode::NativeRead,
            net_send_cpu_per_byte: 0.10e-9,
            net_recv_cpu_per_byte: 0.10e-9,
            per_message_cpu: SimTime::from_micros(3),
            alloc_per_byte: 0.0,
            shuffle_threads_per_reducetask: 3,
            per_thread_overhead: 0.005,
        }
    }

    /// CPU time to push `bytes` through the send path (excluding protocol
    /// copies, which depend on the transport).
    pub fn send_cpu(&self, bytes: u64) -> SimTime {
        self.per_message_cpu + SimTime::from_secs_f64(bytes as f64 * self.net_send_cpu_per_byte)
    }

    /// CPU time to absorb `bytes` on the receive path.
    pub fn recv_cpu(&self, bytes: u64) -> SimTime {
        self.per_message_cpu + SimTime::from_secs_f64(bytes as f64 * self.net_recv_cpu_per_byte)
    }

    /// Heap allocation caused by shuffling `bytes` (0 for native paths).
    pub fn alloc_bytes(&self, bytes: u64) -> u64 {
        (bytes as f64 * self.alloc_per_byte) as u64
    }

    /// True when this path runs inside the JVM.
    pub fn is_managed(&self) -> bool {
        self.runtime == Runtime::Java
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn java_stream_read_is_about_3x_native() {
        // Fig. 2a's gap comes from two effects. Sequential (1 servlet):
        // serial disk + CPU makes Java modestly slower. Under concurrency,
        // every I/O unit pays a seek, and Java's small stream reads pay ~8x
        // more seeks per byte. Averaged as the paper does, Java lands near
        // 3.1x native read.
        let seek = 12.76e-3; // avg seek + rotational delay, seconds
        let disk_bw = 110.0 * 1e6;
        let seq = |m: ReadMode| {
            1.0 / disk_bw + m.cpu_per_byte() + m.call_overhead().as_secs_f64() / m.io_unit() as f64
        };
        let contended = |m: ReadMode| seq(m) + seek / m.io_unit() as f64;
        let seq_ratio = seq(ReadMode::JavaStream) / seq(ReadMode::NativeRead);
        let hot_ratio = contended(ReadMode::JavaStream) / contended(ReadMode::NativeRead);
        let avg = (2.0 * seq_ratio + 3.0 * hot_ratio) / 5.0; // 1,2 seq; 4,8,16 contended
        assert!(
            (1.05..=1.6).contains(&seq_ratio),
            "sequential ratio {seq_ratio}"
        );
        assert!(
            (2.5..=5.5).contains(&hot_ratio),
            "contended ratio {hot_ratio}"
        );
        assert!((2.4..=4.0).contains(&avg), "average ratio {avg}");
        assert!(seq(ReadMode::NativeMmap) < seq(ReadMode::NativeRead));
    }

    #[test]
    fn java_net_path_caps_below_ipoib_but_above_1gige() {
        // The JVM CPU ceiling must sit between the 1GigE wire (117 MB/s,
        // where it is hidden) and IPoIB (1.4 GB/s, where it hurts ~3x).
        let j = PathCosts::java();
        let per_byte = j.net_send_cpu_per_byte + j.net_recv_cpu_per_byte;
        let ceiling = 1.0 / per_byte;
        assert!(ceiling > 150.0 * 1e6, "ceiling {ceiling} too low");
        assert!(ceiling < 700.0 * 1e6, "ceiling {ceiling} too high");
    }

    #[test]
    fn native_costs_are_far_below_java() {
        let j = PathCosts::java();
        let n = PathCosts::native_c();
        assert!(j.send_cpu(1 << 20) > n.send_cpu(1 << 20) * 5);
        assert!(j.recv_cpu(1 << 20) > n.recv_cpu(1 << 20) * 5);
        assert_eq!(n.alloc_bytes(1000), 0);
        assert_eq!(j.alloc_bytes(1000), 1670);
    }

    #[test]
    fn thread_counts_match_paper() {
        assert_eq!(PathCosts::java().shuffle_threads_per_reducetask, 8);
        assert_eq!(PathCosts::native_c().shuffle_threads_per_reducetask, 3);
    }

    #[test]
    fn labels_and_flags() {
        assert_eq!(Runtime::Java.label(), "Java");
        assert_eq!(Runtime::NativeC.label(), "Native C");
        assert!(PathCosts::java().is_managed());
        assert!(!PathCosts::native_c().is_managed());
        assert_eq!(ReadMode::JavaStream.label(), "Java (stream read)");
    }

    #[test]
    fn io_units_ordered_by_sophistication() {
        assert!(ReadMode::JavaStream.io_unit() < ReadMode::NativeRead.io_unit());
        assert!(ReadMode::NativeRead.io_unit() < ReadMode::NativeMmap.io_unit());
    }
}
