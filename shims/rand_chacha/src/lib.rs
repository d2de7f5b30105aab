//! Offline shim for `rand_chacha`: a real ChaCha keystream generator (8 and
//! 20 round variants) implementing the `rand` shim's `RngCore` +
//! `SeedableRng`. Streams are deterministic functions of the seed, which is
//! all the scheduler needs; they are not bit-compatible with upstream
//! `rand_chacha` (nothing in this repository depends on the exact stream).

#![forbid(unsafe_code)]

use rand::{RngCore, SeedableRng};

const CHACHA_CONST: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

#[inline]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

fn chacha_block(key: &[u32; 8], counter: u64, rounds: u32, out: &mut [u32; 16]) {
    let mut state = [0u32; 16];
    state[..4].copy_from_slice(&CHACHA_CONST);
    state[4..12].copy_from_slice(key);
    state[12] = counter as u32;
    state[13] = (counter >> 32) as u32;
    state[14] = 0;
    state[15] = 0;
    let initial = state;
    for _ in 0..rounds / 2 {
        // Column round.
        quarter_round(&mut state, 0, 4, 8, 12);
        quarter_round(&mut state, 1, 5, 9, 13);
        quarter_round(&mut state, 2, 6, 10, 14);
        quarter_round(&mut state, 3, 7, 11, 15);
        // Diagonal round.
        quarter_round(&mut state, 0, 5, 10, 15);
        quarter_round(&mut state, 1, 6, 11, 12);
        quarter_round(&mut state, 2, 7, 8, 13);
        quarter_round(&mut state, 3, 4, 9, 14);
    }
    for (o, (s, i)) in out.iter_mut().zip(state.iter().zip(initial.iter())) {
        *o = s.wrapping_add(*i);
    }
}

macro_rules! chacha_rng {
    ($name:ident, $rounds:expr, $doc:literal) => {
        #[doc = $doc]
        #[derive(Clone, Debug)]
        pub struct $name {
            key: [u32; 8],
            counter: u64,
            buffer: [u32; 16],
            /// Next unconsumed word in `buffer`; 16 means "refill".
            index: usize,
        }

        impl $name {
            fn refill(&mut self) {
                chacha_block(&self.key, self.counter, $rounds, &mut self.buffer);
                self.counter = self.counter.wrapping_add(1);
                self.index = 0;
            }
        }

        impl SeedableRng for $name {
            type Seed = [u8; 32];

            fn from_seed(seed: [u8; 32]) -> Self {
                let mut key = [0u32; 8];
                for (k, chunk) in key.iter_mut().zip(seed.chunks_exact(4)) {
                    *k = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
                }
                $name {
                    key,
                    counter: 0,
                    buffer: [0; 16],
                    index: 16,
                }
            }
        }

        impl RngCore for $name {
            fn next_u32(&mut self) -> u32 {
                if self.index >= 16 {
                    self.refill();
                }
                let word = self.buffer[self.index];
                self.index += 1;
                word
            }

            fn next_u64(&mut self) -> u64 {
                let lo = self.next_u32() as u64;
                let hi = self.next_u32() as u64;
                (hi << 32) | lo
            }
        }
    };
}

chacha_rng!(
    ChaCha8Rng,
    8,
    "ChaCha with 8 rounds (the scheduler's default)."
);
chacha_rng!(ChaCha12Rng, 12, "ChaCha with 12 rounds.");
chacha_rng!(ChaCha20Rng, 20, "ChaCha with 20 rounds.");

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_seed_same_stream() {
        let mut a = ChaCha8Rng::seed_from_u64(42);
        let mut b = ChaCha8Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = ChaCha8Rng::seed_from_u64(1);
        let mut b = ChaCha8Rng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams should be effectively independent");
    }

    #[test]
    fn gen_range_is_roughly_uniform() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut counts = [0usize; 4];
        for _ in 0..4000 {
            counts[rng.gen_range(0usize..4)] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "skewed bucket: {counts:?}");
        }
    }

    #[test]
    fn clone_preserves_position() {
        let mut a = ChaCha8Rng::seed_from_u64(9);
        a.next_u64();
        let mut b = a.clone();
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
