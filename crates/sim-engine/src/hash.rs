//! A cheap hasher for the simulators' per-request maps.
//!
//! The device-level hot path keys maps by command ids, sectors and
//! logical page numbers — small integers the simulator generates
//! itself — and touches them ~20 times per request. std's default
//! SipHash costs tens of cycles per key and buys DoS resistance no
//! simulation input needs; [`FxHasher`] costs a rotate, a xor and a
//! multiply. Iteration order of an [`FxHashMap`] is fixed rather than
//! per-process random, so it can only remove nondeterminism.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Fx-style word hasher (the multiply-rotate scheme rustc uses).
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

const K: u64 = 0x517c_c1b7_2722_0a95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`]; build one with `FxHashMap::default()`.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn map_behaves_like_a_map() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for k in 0..10_000u64 {
            m.insert(k * 8, k);
        }
        assert_eq!(m.len(), 10_000);
        assert_eq!(m.get(&800), Some(&100));
        assert_eq!(m.remove(&8), Some(1));
        assert!(!m.contains_key(&8));
    }

    #[test]
    fn hashes_are_deterministic_and_spread() {
        let b = FxBuildHasher::default();
        assert_eq!(b.hash_one(42u64), b.hash_one(42u64));
        // Consecutive keys land in distinct low bits (bucket index) and
        // differ in the top bits (hashbrown's control byte).
        let hs: Vec<u64> = (0..64u64).map(|k| b.hash_one(k)).collect();
        let low: std::collections::HashSet<u64> = hs.iter().map(|h| h & 63).collect();
        assert_eq!(low.len(), 64);
        let top: std::collections::HashSet<u64> = hs.iter().map(|h| h >> 57).collect();
        assert!(top.len() > 32, "top 7 bits poorly spread: {}", top.len());
    }

    #[test]
    fn byte_writes_cover_partial_words() {
        let b = FxBuildHasher::default();
        assert_ne!(b.hash_one("abc"), b.hash_one("abd"));
        assert_ne!(b.hash_one([1u8; 9]), b.hash_one([1u8; 8]));
    }
}
