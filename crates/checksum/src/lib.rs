//! Software CRC32C (Castagnoli) for end-to-end shuffle integrity.
//!
//! The JBS dataplane moves intermediate data outside the JVM's safety
//! net, so the wire frame carries a checksum computed at the supplier
//! the moment a chunk leaves `disk.read`/the DataCache and verified by
//! the NetMerger before the chunk is admitted to the merge. CRC32C is
//! the iSCSI/ext4 polynomial (`0x1EDC6F41`); this is a slice-by-8 table
//! implementation — dependency-free, no SIMD, eight bytes per table
//! round — fast enough that the pipelined shuffle keeps its speedup
//! (the benchmark measures it as `checksum.overhead_frac`).
//!
//! Two entry points: one-shot [`crc32c`] for a contiguous chunk, and the
//! streaming [`Crc32c`] hasher for callers that see the payload in
//! pieces.

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
        let mut crc = self.state;
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
        self.state = crc;
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

    /// The canonical CRC32C check value (RFC 3720 / iSCSI test vector).
    #[test]
    fn rfc3720_check_value() {
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
    }

    /// Known vectors from the iSCSI specification appendix.
    #[test]
    fn iscsi_vectors() {
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
        let ascending: Vec<u8> = (0u8..32).collect();
        assert_eq!(crc32c(&ascending), 0x46DD_794E);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32c(b""), 0);
    }

    /// The slice-by-8 fast path agrees with the byte-at-a-time table on
    /// every length around the 8-byte block boundaries.
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
            assert_eq!(crc32c(&data[..len]), bytewise(&data[..len]), "len {len}");
        }
    }

    /// Streaming across arbitrary split points equals the one-shot CRC,
    /// including splits that leave the fast path mid-block.
    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0..1024u32).map(|i| (i * 31 % 251) as u8).collect();
        let whole = crc32c(&data);
        for split in [0, 1, 3, 7, 8, 9, 15, 512, 1021, 1023, 1024] {
            let mut h = Crc32c::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), whole, "split at {split}");
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
