//! A fast, deterministic, non-cryptographic hasher for the detector's
//! internal maps.
//!
//! The detection hot path performs several hash-map operations per event
//! (segment state, per-location history, lockset disjointness memo). The
//! standard library's default SipHash is DoS-resistant but costs more than
//! the FastTrack epoch comparison it guards, so the hot maps use this
//! multiply-rotate hash (the well-known "Fx" scheme) instead. The keys are
//! internal dense ids and enum tags derived from the trace — never
//! attacker-chosen strings — so hash-flooding resistance buys nothing
//! here. Determinism across runs is a feature: detector behavior never
//! depends on a per-process random hash seed.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `BuildHasher` for [`FxHasher`] (zero-sized, deterministic).
pub(crate) type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-rotate hasher: each input word is rotated into the state and
/// multiplied by a large odd constant. Not cryptographic, not
/// flood-resistant — strictly for internal keys.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.add(v as u64);
        self.add((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn write_i8(&mut self, v: i8) {
        self.add(v as u8 as u64);
    }

    #[inline]
    fn write_i16(&mut self, v: i16) {
        self.add(v as u16 as u64);
    }

    #[inline]
    fn write_i32(&mut self, v: i32) {
        self.add(v as u32 as u64);
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.add(v as u64);
    }

    #[inline]
    fn write_isize(&mut self, v: isize) {
        self.add(v as u64);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn equal_keys_hash_equal_and_maps_work() {
        let mut m: FxHashMap<(Option<u64>, u32), u64> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert((Some(i), i as u32), i * 3);
        }
        m.insert((None, 7), 99);
        for i in 0..1000u64 {
            assert_eq!(m.get(&(Some(i), i as u32)), Some(&(i * 3)));
        }
        assert_eq!(m.get(&(None, 7)), Some(&99));
        assert_eq!(m.len(), 1001);
    }

    #[test]
    fn hash_is_deterministic() {
        let hash = |bytes: &[u8]| {
            let mut h = FxHasher::default();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(hash(b"abcdefghij"), hash(b"abcdefghij"));
        assert_ne!(hash(b"abcdefghij"), hash(b"abcdefghik"));
        assert_ne!(hash(b"abcdefghij"), hash(b"abcdefgh"));
    }

    #[test]
    fn sets_deduplicate() {
        let mut s: FxHashSet<u32> = FxHashSet::default();
        assert!(s.insert(1));
        assert!(!s.insert(1));
        assert!(s.insert(2));
        assert_eq!(s.len(), 2);
    }
}
