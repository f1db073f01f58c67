//! Offline stand-in for the `rand` crate.
//!
//! This container builds with no access to crates.io, so the workspace
//! vendors the *API subset* it actually uses: `RngCore`, `SeedableRng`,
//! `Rng::{gen_range, gen_bool}` over integer and float ranges, and
//! `rngs::StdRng`. The generator is xoshiro256++ seeded through
//! splitmix64 — deterministic for a given seed, which is all the
//! simulator's `DetRng`-style reproducibility needs. It is **not** a
//! cryptographic RNG and does not match upstream `StdRng`'s stream.

use std::ops::Range;

/// Core random-number generation, as in `rand_core`.
pub trait RngCore {
    /// Next 32 uniform bits.
    fn next_u32(&mut self) -> u32;
    /// Next 64 uniform bits.
    fn next_u64(&mut self) -> u64;
    /// Fill `dest` with uniform bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]);
}

/// Seedable construction, as in `rand_core`.
pub trait SeedableRng: Sized {
    /// Build a generator from a 64-bit seed. Equal seeds give equal
    /// streams.
    fn seed_from_u64(seed: u64) -> Self;
}

/// A type a `Range` of which can be sampled uniformly.
pub trait SampleUniform: Sized {
    /// Uniform draw from `[lo, hi)`. Panics when the range is empty,
    /// matching upstream.
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "cannot sample empty range");
                let span = (hi as u128).wrapping_sub(lo as u128) as u128;
                // Lemire's multiply-shift: unbiased enough for simulation.
                let draw = ((rng.next_u64() as u128 * span) >> 64) as $t;
                lo + draw
            }
        }
    )*};
}

impl_sample_uniform_int!(u8, u16, u32, u64, usize);

macro_rules! impl_sample_uniform_signed {
    ($($t:ty => $u:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "cannot sample empty range");
                let span = (hi as i128 - lo as i128) as u128;
                let draw = ((rng.next_u64() as u128 * span) >> 64) as i128;
                (lo as i128 + draw) as $t
            }
        }
    )*};
}

impl_sample_uniform_signed!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);

impl SampleUniform for f64 {
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
        assert!(lo < hi, "cannot sample empty range");
        // 53 uniform mantissa bits in [0, 1).
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        lo + (hi - lo) * unit
    }
}

impl SampleUniform for f32 {
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
        f64::sample_range(rng, lo as f64, hi as f64) as f32
    }
}

/// Convenience sampling over [`RngCore`], as in upstream `rand::Rng`.
pub trait Rng: RngCore {
    /// Uniform draw from a half-open range.
    fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T {
        T::sample_range(self, range.start, range.end)
    }

    /// Bernoulli trial with success probability `p` (must be in `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p={p} out of range");
        ((self.next_u64() >> 11) as f64) < p * (1u64 << 53) as f64
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Generator implementations.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++ — small, fast, and statistically solid for
    /// simulation workloads. Stream differs from upstream `StdRng`.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            StdRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0]
                .wrapping_add(s[3])
                .rotate_left(23)
                .wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            let mut chunks = dest.chunks_exact_mut(8);
            for chunk in &mut chunks {
                chunk.copy_from_slice(&self.next_u64().to_le_bytes());
            }
            let rest = chunks.into_remainder();
            if !rest.is_empty() {
                let bytes = self.next_u64().to_le_bytes();
                rest.copy_from_slice(&bytes[..rest.len()]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(10);
        assert_ne!(StdRng::seed_from_u64(9).next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = r.gen_range(3u64..17);
            assert!((3..17).contains(&v));
            let f = r.gen_range(-2.0f64..2.0);
            assert!((-2.0..2.0).contains(&f));
            let i = r.gen_range(-5i64..5);
            assert!((-5..5).contains(&i));
        }
    }

    #[test]
    fn gen_bool_extremes_and_rough_rate() {
        let mut r = StdRng::seed_from_u64(2);
        assert!(!r.gen_bool(0.0));
        assert!(r.gen_bool(1.0));
        let hits = (0..10_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "hits={hits}");
    }

    #[test]
    fn fill_bytes_covers_tail() {
        let mut r = StdRng::seed_from_u64(3);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn uniform_mean_is_centered() {
        let mut r = StdRng::seed_from_u64(4);
        let n = 50_000;
        let mean = (0..n).map(|_| r.gen_range(0.0f64..1.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }
}
