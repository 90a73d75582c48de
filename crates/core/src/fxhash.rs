//! A fast, deterministic, non-cryptographic hasher for the engine's
//! internal hot-path maps (descriptor interning, hash joins).
//!
//! `std`'s default `SipHash13` is DoS-resistant but costs an order of
//! magnitude more than multiply-rotate hashing on the small fixed-size keys
//! these maps use (interned term lists, join-key value slices). The engine's
//! maps are process-internal and never keyed by attacker-controlled input
//! across a trust boundary, so we trade the flooding resistance for raw
//! speed, using the multiply-rotate-xor scheme popularized by the Firefox
//! and rustc "FxHash" (one multiply per 8-byte word, no finalizer).
//!
//! The registry-offline build environment is also why this is hand-rolled
//! here rather than a dependency.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from the FxHash scheme: a 64-bit constant derived from π,
/// chosen so that multiplication mixes low-entropy integer keys well.
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The hasher state. One `rotate ^ word` then multiply per 8-byte word.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = fx_step(self.hash, word);
    }
}

/// One FxHash step: `word` folded into `hash`, exactly as [`FxHasher`] folds
/// each word it is written. A value a sweep builds by folding words into `0`
/// is the hash an [`FxHasher`] fed the same words finishes with — how
/// [`crate::columnar::ColView::hash_into`] hashes a whole column at a time.
#[inline]
pub fn fx_step(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(5) ^ word).wrapping_mul(K)
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
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
    fn write_i64(&mut self, v: i64) {
        self.add(v as u64);
    }
}

/// `BuildHasher` for [`FxHasher`] (deterministic: no per-map seed).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn deterministic_and_discriminating() {
        let b = FxBuildHasher::default();
        let h = |v: &[u8]| b.hash_one(v);
        assert_eq!(h(b"hello"), h(b"hello"));
        assert_ne!(h(b"hello"), h(b"hellp"));
        assert_ne!(h(b""), h(b"\0"));
    }

    #[test]
    fn usable_as_map() {
        let mut m: FxHashMap<Vec<u32>, usize> = FxHashMap::default();
        m.insert(vec![1, 2, 3], 1);
        m.insert(vec![1, 2], 2);
        assert_eq!(m.get([1u32, 2, 3].as_slice()), Some(&1));
        assert_eq!(m.len(), 2);
    }
}
