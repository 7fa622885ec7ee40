//! Offline shim for `rand` 0.8: the subset this workspace uses.
//!
//! Provides [`rngs::SmallRng`] (xoshiro256++ seeded via SplitMix64),
//! [`SeedableRng::seed_from_u64`], and the [`Rng`] extension trait with
//! `gen`, `gen_range` (half-open and inclusive ranges over the common
//! integer and float types) and `gen_bool`. The stream is deterministic
//! per seed but intentionally *not* identical to upstream rand.

use std::ops::{Range, RangeInclusive};

/// Core entropy source.
pub trait RngCore {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 uniformly random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fill `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

/// Construction from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// Deterministically derive a full-state generator from `state`.
    fn seed_from_u64(state: u64) -> Self;
}

/// Types samplable uniformly over their whole domain (`Rng::gen`).
pub trait Standard: Sized {
    /// Draw one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for u128 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits -> uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Types uniformly samplable within explicit bounds. The single blanket
/// [`SampleRange`] impl below unifies `T` with the range's element type
/// during inference (matching upstream rand), so `gen_range(18..95)`
/// infers `i32` via integer-literal fallback.
pub trait SampleUniform: Sized {
    /// Draw from `[lo, hi)` when `inclusive` is false, `[lo, hi]` when
    /// true. Callers guarantee the range is non-empty.
    fn sample_between<R: RngCore + ?Sized>(
        lo: Self,
        hi: Self,
        inclusive: bool,
        rng: &mut R,
    ) -> Self;
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_between<R: RngCore + ?Sized>(lo: $t, hi: $t, inclusive: bool, rng: &mut R) -> $t {
                let span = (hi as i128 - lo as i128) as u128 + inclusive as u128;
                let offset = (rng.next_u64() as u128) % span;
                (lo as i128 + offset as i128) as $t
            }
        }
    )*};
}
impl_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_uniform_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_between<R: RngCore + ?Sized>(lo: $t, hi: $t, _inclusive: bool, rng: &mut R) -> $t {
                let unit: $t = Standard::sample(rng);
                lo + (hi - lo) * unit
            }
        }
    )*};
}
impl_uniform_float!(f32, f64);

/// Range arguments accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draw one value from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform + PartialOrd> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "gen_range: empty range");
        T::sample_between(self.start, self.end, false, rng)
    }
}

impl<T: SampleUniform + PartialOrd + Copy> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "gen_range: empty range");
        T::sample_between(lo, hi, true, rng)
    }
}

/// Convenience extension methods over any [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform sample over the full domain of `T`.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Uniform sample within `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    /// Bernoulli draw with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Small, fast generator: xoshiro256++ with SplitMix64 seeding.
    #[derive(Debug, Clone)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    /// Alias: this shim backs the "standard" generator with the same
    /// engine (upstream uses ChaCha12; only determinism-per-seed matters
    /// here).
    pub type StdRng = SmallRng;

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            SmallRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        let mut c = SmallRng::seed_from_u64(8);
        let xs: Vec<u64> = (0..16).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.gen()).collect();
        let zs: Vec<u64> = (0..16).map(|_| c.gen()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn unit_floats_in_range() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            let y: f32 = rng.gen();
            assert!((0.0..1.0).contains(&y));
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..10_000 {
            let i = rng.gen_range(15..25);
            assert!((15..25).contains(&i));
            let u: usize = rng.gen_range(0..4);
            assert!(u < 4);
            let f = rng.gen_range(-2.5..7.5);
            assert!((-2.5..7.5).contains(&f));
            let k = rng.gen_range(3u32..=5);
            assert!((3..=5).contains(&k));
            let n: i64 = rng.gen_range(-10i64..10);
            assert!((-10..10).contains(&n));
        }
    }

    #[test]
    fn gen_range_hits_extremes() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut seen = [false; 4];
        for _ in 0..1000 {
            seen[rng.gen_range(0usize..4)] = true;
        }
        assert!(seen.iter().all(|&b| b));
        let mut hit_hi = false;
        for _ in 0..1000 {
            if rng.gen_range(0u32..=1) == 1 {
                hit_hi = true;
            }
        }
        assert!(hit_hi);
    }

    #[test]
    fn mean_is_roughly_centered() {
        let mut rng = SmallRng::seed_from_u64(4);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.gen::<f64>()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn gen_bool_probability() {
        let mut rng = SmallRng::seed_from_u64(5);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((20_000..30_000).contains(&hits), "{hits}");
    }
}
