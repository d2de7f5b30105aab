//! Offline shim for the `rand` trait subset used in this repository.
//!
//! Provides `RngCore`, `Rng` (with `gen_range`/`gen_bool`), and
//! `SeedableRng` (with rand_core's splitmix64-based `seed_from_u64`
//! seed-expansion, so seeded streams stay stable and well-mixed). Generators
//! live in their own crates (see the `rand_chacha` shim).

#![forbid(unsafe_code)]

use std::ops::Range;

/// Low-level uniform bit source.
pub trait RngCore {
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fill `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

/// Types uniformly sampleable from a half-open range.
pub trait SampleUniform: Copy {
    /// Sample uniformly from `[low, high)`. Panics if the range is empty.
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
}

macro_rules! impl_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                assert!(low < high, "cannot sample empty range");
                let span = (high as u128).wrapping_sub(low as u128) as u64;
                // Multiply-shift bounded sampling (Lemire); the tiny bias for
                // astronomically large spans is irrelevant for scheduling.
                let hi = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                (low as u128).wrapping_add(hi as u128) as $t
            }
        }
    )*};
}

impl_sample_uniform!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Convenience sampling methods over any [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform sample from a half-open `low..high` range.
    fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T {
        T::sample_range(self, range.start, range.end)
    }

    /// Bernoulli sample: true with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        // 53 uniform mantissa bits, same construction as rand's.
        let unit = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < p
    }
}

impl<T: RngCore + ?Sized> Rng for T {}

/// Deterministically seedable generators.
pub trait SeedableRng: Sized {
    /// Raw seed material (a fixed-size byte array in practice).
    type Seed: Sized + Default + AsMut<[u8]>;

    /// Construct from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Expand a `u64` into a full seed via splitmix64 (rand_core's scheme).
    fn seed_from_u64(state: u64) -> Self {
        let mut state = state;
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(8) {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let bytes = z.to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// Re-exports matching rand's module layout.
pub mod rngs {}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter(u64);

    impl RngCore for Counter {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }
        fn next_u64(&mut self) -> u64 {
            // A weak LCG is plenty for testing the trait plumbing.
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1);
            self.0
        }
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = Counter(7);
        for _ in 0..1000 {
            let v = rng.gen_range(3usize..10);
            assert!((3..10).contains(&v));
        }
        for _ in 0..1000 {
            let v = rng.gen_range(-5i64..5);
            assert!((-5..5).contains(&v));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = Counter(1);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    fn fill_bytes_covers_tail() {
        let mut rng = Counter(3);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
