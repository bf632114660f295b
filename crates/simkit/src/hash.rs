//! A fast, deterministic hasher for hot-path maps.
//!
//! The standard library's default hasher (SipHash-1-3) is keyed and
//! DoS-resistant, which simulation-internal maps keyed by small integers
//! (peer addresses, event sequence numbers, query ids) do not need. This
//! module provides a hand-rolled multiply-xor hasher in the style of
//! rustc's FxHash: one wrapping multiply per word, no per-process random
//! state, no external dependency — consistent with the offline build.
//!
//! Determinism note: `HashMap` iteration order still depends on
//! insertion history even with a fixed hasher, so the simulators keep
//! the existing rule that nothing observable may iterate a hash map.
//! Switching a map from SipHash to Fx therefore cannot perturb reports;
//! it only removes hashing overhead from lookups.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Golden-ratio multiplier (2^64 / φ), the same constant rustc's FxHash
/// uses to spread consecutive small integers across the hash space.
const SEED: u64 = 0x9e37_79b9_7f4a_7c15;
const ROTATE: u32 = 5;

/// A multiply-xor hasher: `hash = (hash.rot(5) ^ word) * SEED` per word.
///
/// Not DoS-resistant — only for simulation-internal keys that an
/// adversary cannot choose.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Word-at-a-time over the slice; the tail is zero-padded. Hot
        // keys are integers and never take this path, but `&str`/byte
        // keys must still hash correctly.
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(buf) ^ (rest.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher`]; stateless, so identical across runs
/// and processes.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// An empty [`FxHashMap`] with room for `cap` entries.
#[must_use]
pub fn map_with_capacity<K, V>(cap: usize) -> FxHashMap<K, V> {
    FxHashMap::with_capacity_and_hasher(cap, FxBuildHasher::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn integers_hash_consistently_and_distinctly() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_ne!(hash_of(&42u64), hash_of(&43u64));
        // Consecutive small keys must not collide into nearby buckets
        // trivially: check a spread of low bits.
        let mut low_bits: Vec<u64> = (0u64..64).map(|i| hash_of(&i) & 0xff).collect();
        low_bits.sort_unstable();
        low_bits.dedup();
        assert!(low_bits.len() > 32, "low bits collapse: {}", low_bits.len());
    }

    #[test]
    fn byte_slices_of_different_lengths_differ() {
        let a = hash_of(&b"abcdefgh".as_slice());
        let b = hash_of(&b"abcdefg".as_slice());
        let c = hash_of(&b"abcdefgh\0".as_slice());
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn maps_behave_like_std_maps() {
        let mut m: FxHashMap<u64, &str> = map_with_capacity(16);
        assert!(m.capacity() >= 16);
        m.insert(1, "one");
        m.insert(2, "two");
        assert_eq!(m.get(&1), Some(&"one"));
        assert_eq!(m.remove(&2), Some("two"));
        assert!(m.remove(&2).is_none());

        let mut s: FxHashSet<u64> = FxHashSet::default();
        assert!(s.insert(7));
        assert!(!s.insert(7));
        assert!(s.contains(&7));
    }

    #[test]
    fn hashing_is_process_independent() {
        // No random state anywhere: the hash of a known key is a fixed
        // function of the algorithm. Pin one value so an accidental
        // change to the constants is caught.
        let h = hash_of(&0u64);
        assert_eq!(h, 0, "hash of 0 via one multiply of 0 stays 0");
        assert_eq!(hash_of(&1u64), SEED);
    }
}
