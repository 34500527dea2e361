//! Offline stand-in for the [`rand`](https://crates.io/crates/rand) crate.
//!
//! The simulation workspace builds in environments with no network access
//! and no vendored registry, so every dependency must live in-tree. This
//! crate reimplements exactly the surface the simulator uses —
//! [`Rng::random`], [`Rng::random_range`], [`SeedableRng::seed_from_u64`]
//! and [`rngs::StdRng`] — with the same module layout and method names as
//! rand 0.9, so the simulator sources are byte-for-byte compatible with
//! the real crate should it ever become available again.
//!
//! The generator behind [`rngs::StdRng`] is xoshiro256++ seeded through
//! SplitMix64: not the ChaCha12 stream of upstream `StdRng`, but a
//! high-quality, fast, deterministic generator — all the simulator needs
//! (reproducibility is *per build*, which is also all upstream promises
//! across versions).
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::{Rng, SeedableRng};
//!
//! let mut a = StdRng::seed_from_u64(42);
//! let mut b = StdRng::seed_from_u64(42);
//! assert_eq!(a.random::<f64>(), b.random::<f64>());
//! assert!(a.random_range(0u32..10) < 10);
//! ```

#![warn(missing_docs)]

/// Types that can be drawn uniformly from a generator's raw 64-bit
/// stream (the subset of rand's `StandardUniform` the simulator uses).
pub trait Standard: Sized {
    /// Draw one value from `rng`.
    fn draw<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    #[inline]
    fn draw<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        // 53 uniform mantissa bits in [0, 1), as in upstream rand.
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    #[inline]
    fn draw<R: Rng + ?Sized>(rng: &mut R) -> f32 {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl Standard for u64 {
    #[inline]
    fn draw<R: Rng + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Standard for u32 {
    #[inline]
    fn draw<R: Rng + ?Sized>(rng: &mut R) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for bool {
    #[inline]
    fn draw<R: Rng + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Integer types [`Rng::random_range`] can sample over a `Range`.
pub trait UniformInt: Copy {
    /// Sample uniformly from `[lo, hi)`; panics if the range is empty.
    fn sample_range<R: Rng + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl UniformInt for $t {
            #[inline]
            fn sample_range<R: Rng + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                assert!(lo < hi, "cannot sample empty range");
                let span = (hi as u64).wrapping_sub(lo as u64);
                // Lemire multiply-shift mapping of the raw stream onto
                // [0, span). The modulo-free bias is < 2^-64 per draw —
                // irrelevant for simulation workloads.
                let v = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                lo.wrapping_add(v as $t)
            }
        }
    )*};
}

impl_uniform_int!(u8, u16, u32, u64, usize, i32, i64);

impl UniformInt for f64 {
    #[inline]
    fn sample_range<R: Rng + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
        assert!(lo < hi, "cannot sample empty range");
        lo + (hi - lo) * f64::draw(rng)
    }
}

/// The generator trait: a raw 64-bit stream plus the derived uniform
/// sampling helpers the simulator calls.
pub trait Rng {
    /// The next raw 64 bits of the stream.
    fn next_u64(&mut self) -> u64;

    /// A uniform draw of `T` (for `f64`: uniform in `[0, 1)`).
    #[inline]
    fn random<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    /// A uniform draw from the half-open range `lo..hi`.
    #[inline]
    fn random_range<T: UniformInt>(&mut self, range: core::ops::Range<T>) -> T {
        T::sample_range(range.start, range.end, self)
    }

    /// A biased coin: true with probability `p`.
    #[inline]
    fn random_bool(&mut self, p: f64) -> bool {
        f64::draw(self) < p
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Construction of a generator from seed material.
pub trait SeedableRng: Sized {
    /// Build a generator whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Concrete generators (mirrors the upstream module layout).
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// The workspace's standard deterministic generator: xoshiro256++
    /// (Blackman & Vigna), seeded via SplitMix64.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    #[inline]
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
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

    impl Rng for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let [s0, s1, s2, s3] = self.s;
            let out = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
            let t = s1 << 17;
            let mut s = [s0, s1, s2, s3];
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            self.s = s;
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(123);
        let mut b = StdRng::seed_from_u64(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(124);
        assert_ne!(StdRng::seed_from_u64(123).next_u64(), c.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x: f64 = r.random();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn range_bounds_respected() {
        let mut r = StdRng::seed_from_u64(9);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let v = r.random_range(3u32..13);
            assert!((3..13).contains(&v));
            seen[(v - 3) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values of a small range hit");
    }

    #[test]
    fn mean_of_unit_draws_is_centered() {
        let mut r = StdRng::seed_from_u64(42);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| r.random::<f64>()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} far from 0.5");
    }

    #[test]
    fn works_through_unsized_refs() {
        fn draw<R: Rng + ?Sized>(r: &mut R) -> f64 {
            r.random()
        }
        let mut r = StdRng::seed_from_u64(1);
        let _ = draw(&mut r);
    }
}
