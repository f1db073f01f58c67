//! CRC32C (Castagnoli) for end-to-end shuffle integrity.
//!
//! The JBS dataplane moves intermediate data outside the JVM's safety
//! net, so the wire frame carries a checksum computed at the supplier
//! the moment a chunk leaves `disk.read`/the DataCache and verified by
//! the NetMerger before the chunk is admitted to the merge; the hybrid
//! store seals its spill extents and manifest records the same way.
//! CRC32C is the iSCSI/ext4 polynomial (`0x1EDC6F41`), the one CPUs
//! carry an instruction for.
//!
//! There is one implementation choice and the caller never makes it:
//! every call asks the CPU what it can do (a cached feature test) and
//! runs the hardware kernel in `hw.rs` — x86_64 `crc32q` in three
//! interleaved streams recombined by `pclmulqdq`, aarch64 `crc32cx` —
//! or, where the CPU has no such instruction, the portable slice-by-8
//! table loop below. The table loop is also the oracle the tests hold
//! the hardware kernel to, length by length. No feature, environment
//! variable or argument selects between them, and both produce the
//! same bits, so the wire and disk formats do not depend on the host.
//! The benchmark measures the result as `checksum.crc32c_gib_s` and
//! `checksum.overhead_frac`.
//!
//! Two entry points: one-shot [`crc32c`] for a contiguous chunk, and the
//! streaming [`Crc32c`] hasher for callers that see the payload in
//! pieces.

mod hw;

/// The reflected CRC32C (Castagnoli) polynomial.
const POLY: u32 = 0x82F6_3B78;

/// Slice-by-8 lookup tables, built at compile time. `TABLES[0]` is the
/// classic byte-at-a-time table; `TABLES[k][b]` is the CRC contribution
/// of byte `b` seen `k` positions before the end of an 8-byte block.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

/// The portable slice-by-8 loop over the raw (un-inverted) register:
/// the fallback where the CPU has no CRC32C instruction, and the oracle
/// the hardware kernel is tested against.
fn update_portable(state: u32, bytes: &[u8]) -> u32 {
    let mut crc = state;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        // chunks_exact(8) guarantees the slice converts; the state
        // folds into the low half of the block, the high half is
        // independent of the running CRC.
        let block = u64::from_le_bytes(match chunk.try_into() {
            Ok(b) => b,
            Err(_) => unreachable!(),
        });
        let lo = (block as u32) ^ crc;
        let hi = (block >> 32) as u32;
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        let idx = ((crc ^ b as u32) & 0xFF) as usize;
        // Each table has exactly 256 entries and idx is masked.
        crc = TABLES[0][idx] ^ (crc >> 8);
    }
    crc
}

/// CRC32C of `bytes` in one shot.
pub fn crc32c(bytes: &[u8]) -> u32 {
    let mut h = Crc32c::new();
    h.update(bytes);
    h.finish()
}

/// Streaming CRC32C hasher.
///
/// ```
/// use jbs_checksum::{crc32c, Crc32c};
/// let mut h = Crc32c::new();
/// h.update(b"123");
/// h.update(b"456789");
/// assert_eq!(h.finish(), crc32c(b"123456789"));
/// ```
#[derive(Debug, Clone)]
pub struct Crc32c {
    state: u32,
}

impl Crc32c {
    /// A fresh hasher.
    pub fn new() -> Self {
        Crc32c { state: !0 }
    }

    /// Feed `bytes` into the running checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        self.state = match hw::update(self.state, bytes) {
            Some(state) => state,
            None => update_portable(self.state, bytes),
        };
    }

    /// The checksum of everything fed so far. Non-consuming: more
    /// `update` calls may follow and `finish` may be called again.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32c {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One-shot CRC by the portable loop only.
    fn portable(bytes: &[u8]) -> u32 {
        !update_portable(!0, bytes)
    }

    /// One-shot CRC by the hardware kernel only; `None` on a CPU
    /// without one (the differential tests then have nothing to say).
    fn hardware(bytes: &[u8]) -> Option<u32> {
        hw::update(!0, bytes).map(|state| !state)
    }

    /// Both implementations where both exist, so every known-answer
    /// test below holds each path to the published value.
    fn both(bytes: &[u8]) -> Vec<u32> {
        let mut out = vec![portable(bytes), crc32c(bytes)];
        out.extend(hardware(bytes));
        out
    }

    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    /// The canonical CRC32C check value (RFC 3720 / iSCSI test vector).
    #[test]
    fn rfc3720_check_value() {
        for crc in both(b"123456789") {
            assert_eq!(crc, 0xE306_9283);
        }
    }

    /// Known vectors from the iSCSI specification appendix (RFC 3720
    /// B.4), on each path.
    #[test]
    fn iscsi_vectors() {
        let ascending: Vec<u8> = (0u8..32).collect();
        let descending: Vec<u8> = (0u8..32).rev().collect();
        let read10: [u8; 48] = [
            0x01, 0xC0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x14,
            0x00, 0x00, 0x00, 0x18, 0x28, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        ];
        for (bytes, want) in [
            (&[0u8; 32][..], 0x8A91_36AA),
            (&[0xFFu8; 32][..], 0x62A8_AB43),
            (&ascending[..], 0x46DD_794E),
            (&descending[..], 0x113F_DB5C),
            (&read10[..], 0xD996_3A56),
        ] {
            for crc in both(bytes) {
                assert_eq!(crc, want);
            }
        }
    }

    #[test]
    fn empty_input() {
        for crc in both(b"") {
            assert_eq!(crc, 0);
        }
    }

    /// The slice-by-8 oracle itself agrees with the byte-at-a-time table
    /// on every length around the 8-byte block boundaries.
    #[test]
    fn slice_by_8_matches_bytewise() {
        let bytewise = |bytes: &[u8]| -> u32 {
            let mut crc = !0u32;
            for &b in bytes {
                crc = TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
            }
            !crc
        };
        let data: Vec<u8> = (0..257u32).map(|i| (i * 131 % 251) as u8).collect();
        for len in 0..data.len() {
            assert_eq!(portable(&data[..len]), bytewise(&data[..len]), "len {len}");
        }
    }

    /// The dispatched path against the oracle for every length that can
    /// enter, leave or straddle a 3 × 256 B or 3 × 8 KiB interleaved
    /// block, at every start misalignment. Slow unoptimised: CI runs it
    /// with `--release`.
    #[test]
    fn dispatched_matches_oracle_at_every_length_and_misalignment() {
        const MAX: usize = 3 * 8192 + 64;
        let data = noise(MAX + 8);
        for start in 0..8 {
            for len in 0..=MAX {
                let bytes = &data[start..start + len];
                assert_eq!(crc32c(bytes), portable(bytes), "start {start} len {len}");
            }
        }
    }

    /// Two back-to-back long blocks, a run of short ones and a tail: the
    /// chunk shape the dataplane actually seals (128 KiB and ragged).
    #[test]
    fn dispatched_matches_oracle_on_chunk_sized_inputs() {
        let data = noise((128 << 10) + 777);
        for len in [48 << 10, (48 << 10) + 1, 128 << 10, data.len()] {
            assert_eq!(crc32c(&data[..len]), portable(&data[..len]), "len {len}");
        }
    }

    /// Streaming across arbitrary split points equals the one-shot CRC,
    /// including splits that leave the fast path mid-word and splits on
    /// either side of every interleaved-block boundary.
    #[test]
    fn streaming_matches_one_shot() {
        let data = noise(2 * 3 * 8192 + 3 * 256 + 100);
        let whole = portable(&data);
        let mut splits = vec![0, 1, 3, 7, 8, 9, 15, 512, 1021, 1023, 1024, data.len()];
        for boundary in [256, 512, 768, 2 * 768, 8192, 2 * 8192, 3 * 8192, 6 * 8192] {
            splits.extend([boundary - 1, boundary, boundary + 1, boundary + 8]);
        }
        for &split in &splits {
            let mut h = Crc32c::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), whole, "split at {split}");
        }
        // Three-way: a block-straddling middle piece between two ragged ends.
        for (a, b) in [(5, 3 * 8192 + 5), (767, 769), (8191, 3 * 8192 + 1)] {
            let mut h = Crc32c::new();
            h.update(&data[..a]);
            h.update(&data[a..b]);
            h.update(&data[b..]);
            assert_eq!(h.finish(), whole, "splits at {a}, {b}");
        }
    }

    /// Every single-bit flip changes the checksum (the property the
    /// integrity layer rests on for the corruption faults we inject).
    #[test]
    fn single_bit_flips_always_detected() {
        let data: Vec<u8> = (0..64u8).collect();
        let clean = crc32c(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32c(&flipped), clean, "flip {byte}.{bit} undetected");
            }
        }
    }

    /// The same property inside an interleaved block, where a flip in
    /// any of the three streams must survive the recombination.
    #[test]
    fn flips_in_every_stream_of_a_block_are_detected() {
        let mut data = noise(3 * 8192);
        let clean = crc32c(&data);
        for at in [
            0,
            8191,
            8192,
            2 * 8192 - 1,
            2 * 8192,
            3 * 8192 - 9,
            3 * 8192 - 1,
        ] {
            data[at] ^= 0x10;
            assert_ne!(crc32c(&data), clean, "flip at {at} undetected");
            data[at] ^= 0x10;
        }
    }

    #[test]
    fn finish_is_idempotent() {
        let mut h = Crc32c::new();
        h.update(b"abc");
        let a = h.finish();
        assert_eq!(a, h.finish());
        h.update(b"def");
        assert_eq!(h.finish(), crc32c(b"abcdef"));
    }
}
