//! CRC32C by the CPU's own instruction, chosen by run-time detection.
//!
//! This is the repository's second audited `unsafe` site (the first is
//! the reactor's `poll(2)` FFI; `cargo xtask analyze` fences both): one
//! call into a `#[target_feature]` function, made only after
//! [`update`] has seen the CPU report every feature that function is
//! compiled with. Everything else here is safe code — the payload is
//! read through `chunks_exact(8)`, never through a pointer.
//!
//! * **x86_64** (SSE4.2 + PCLMULQDQ): `crc32q` retires one 8-byte word
//!   per cycle but has a three-cycle latency, so a single dependent
//!   chain runs at a third of the unit's rate. The kernel therefore
//!   cuts the input into blocks of three equal streams, runs three
//!   independent chains side by side, and recombines them: the first
//!   two CRCs are multiplied (carry-less, `pclmulqdq`) by the constant
//!   `x^(8·gap − 33) mod P` that advances a CRC over the `gap` bytes
//!   that follow its stream, and both products are folded into the last
//!   word of the third chain. Blocks are 3 × 8 KiB, then 3 × 256 B,
//!   then a single chain over what is left.
//! * **aarch64** (`crc`): a single `crc32cx` chain.
//! * anything else, or a CPU without the features: `None`, and the
//!   caller falls back to the portable slice-by-8 loop.

#![allow(unsafe_code)]

/// `state` (the raw, un-inverted CRC register) advanced over `bytes` by
/// the hardware kernel, or `None` when this CPU has no CRC32C
/// instruction and the caller must use the portable loop.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
pub(crate) fn update(state: u32, bytes: &[u8]) -> Option<u32> {
    if !arch::detected() {
        return None;
    }
    // SAFETY: `arch::kernel` is an otherwise safe function whose only
    // requirement is that the CPU implements the features named in its
    // `#[target_feature]` attribute. `arch::detected()` tests exactly
    // that list at run time and has just returned true.
    Some(unsafe { arch::kernel(state, bytes) })
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
pub(crate) fn update(_state: u32, _bytes: &[u8]) -> Option<u32> {
    None
}

/// One little-endian word of an exact 8-byte chunk.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
fn le64(chunk: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(chunk);
    u64::from_le_bytes(word)
}

#[cfg(target_arch = "x86_64")]
mod arch {
    use super::le64;
    use crate::POLY;
    use std::arch::x86_64::{
        _mm_clmulepi64_si128, _mm_crc32_u64, _mm_crc32_u8, _mm_cvtsi128_si64, _mm_cvtsi64_si128,
    };

    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("sse4.2") && is_x86_feature_detected!("pclmulqdq")
    }

    /// `a · b mod P` on bit-reflected polynomials (bit 31 is `x^0`).
    const fn mul_mod(a: u32, b: u32) -> u32 {
        let mut product = 0;
        let mut a = a;
        let mut bit = 0x8000_0000u32;
        while bit != 0 {
            if b & bit != 0 {
                product ^= a;
            }
            // a · x: one step of the reflected shift register.
            a = if a & 1 != 0 { (a >> 1) ^ POLY } else { a >> 1 };
            bit >>= 1;
        }
        product
    }

    /// `x^n mod P`, bit-reflected, by square-and-multiply.
    const fn x_pow(mut n: usize) -> u32 {
        let mut result = 0x8000_0000u32; // x^0
        let mut base = 0x4000_0000u32; // x^1
        while n != 0 {
            if n & 1 != 0 {
                result = mul_mod(result, base);
            }
            base = mul_mod(base, base);
            n >>= 1;
        }
        result
    }

    /// One interleave geometry: three streams of `stream` bytes and the
    /// two constants that carry the first and second stream's CRC to
    /// the end of the block.
    struct Fold {
        stream: usize,
        /// `x^(8·2·stream − 33)`: over the two streams after the first.
        over_two: u64,
        /// `x^(8·stream − 33)`: over the one stream after the second.
        over_one: u64,
    }

    impl Fold {
        /// The `− 33`: `crc32q(0, v)` computes `v · x^32`, and the
        /// 63-bit carry-less product of two reflected 32-bit values
        /// sits one bit low in a reflected 64-bit word, a further `x^1`.
        const fn new(stream: usize) -> Fold {
            Fold {
                stream,
                over_two: x_pow(16 * stream - 33) as u64,
                over_one: x_pow(8 * stream - 33) as u64,
            }
        }
    }

    const LONG: Fold = Fold::new(8192);
    const SHORT: Fold = Fold::new(256);

    #[target_feature(enable = "sse4.2,pclmulqdq")]
    pub(super) fn kernel(state: u32, bytes: &[u8]) -> u32 {
        let mut crc = u64::from(state);
        let mut rest = bytes;
        for fold in [&LONG, &SHORT] {
            while let Some((block, after)) = rest.split_at_checked(3 * fold.stream) {
                crc = fold3(crc, block, fold);
                rest = after;
            }
        }
        let mut words = rest.chunks_exact(8);
        for word in &mut words {
            crc = _mm_crc32_u64(crc, le64(word));
        }
        // crc32q zero-extends its 32-bit result.
        let mut crc = crc as u32;
        for &byte in words.remainder() {
            crc = _mm_crc32_u8(crc, byte);
        }
        crc
    }

    /// One block of exactly `3 · fold.stream` bytes.
    #[target_feature(enable = "sse4.2,pclmulqdq")]
    fn fold3(crc: u64, block: &[u8], fold: &Fold) -> u64 {
        let (a, rest) = block.split_at(fold.stream);
        let (b, c) = rest.split_at(fold.stream);
        // Each stream's last word is handled apart: the first two
        // finish their chains, the third absorbs the recombination.
        let (a, a_last) = a.split_at(fold.stream - 8);
        let (b, b_last) = b.split_at(fold.stream - 8);
        let (c, c_last) = c.split_at(fold.stream - 8);
        let (mut crc_a, mut crc_b, mut crc_c) = (crc, 0, 0);
        let streams = a
            .chunks_exact(8)
            .zip(b.chunks_exact(8))
            .zip(c.chunks_exact(8));
        for ((word_a, word_b), word_c) in streams {
            crc_a = _mm_crc32_u64(crc_a, le64(word_a));
            crc_b = _mm_crc32_u64(crc_b, le64(word_b));
            crc_c = _mm_crc32_u64(crc_c, le64(word_c));
        }
        crc_a = _mm_crc32_u64(crc_a, le64(a_last));
        crc_b = _mm_crc32_u64(crc_b, le64(b_last));
        let carried = clmul(crc_a, fold.over_two) ^ clmul(crc_b, fold.over_one);
        _mm_crc32_u64(crc_c, le64(c_last) ^ carried)
    }

    /// Carry-less product of two values below 2^32 (so it fits 63 bits).
    #[target_feature(enable = "sse4.2,pclmulqdq")]
    fn clmul(a: u64, b: u64) -> u64 {
        let product =
            _mm_clmulepi64_si128::<0>(_mm_cvtsi64_si128(a as i64), _mm_cvtsi64_si128(b as i64));
        _mm_cvtsi128_si64(product) as u64
    }
}

#[cfg(target_arch = "aarch64")]
mod arch {
    use super::le64;
    use std::arch::aarch64::{__crc32cb, __crc32cd};

    pub(super) fn detected() -> bool {
        std::arch::is_aarch64_feature_detected!("crc")
    }

    #[target_feature(enable = "crc")]
    pub(super) fn kernel(state: u32, bytes: &[u8]) -> u32 {
        let mut crc = state;
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            crc = __crc32cd(crc, le64(word));
        }
        for &byte in words.remainder() {
            crc = __crc32cb(crc, byte);
        }
        crc
    }
}
