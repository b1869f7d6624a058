//! Fixed-key hashing for the simulator's hot lookup maps.
//!
//! `std`'s default `RandomState` runs SipHash-1-3 under a per-process
//! random key: robust against adversarial keys, but it costs tens of
//! nanoseconds per lookup and makes every map's iteration order differ
//! from run to run. The simulator's keys (queue ids, command ids, device
//! blocks, PASIDs, page numbers) are produced by the simulation itself,
//! so neither property buys anything on its data path. [`FixedHasher`]
//! is a multiply-rotate word hasher (the Fx scheme) with a fixed seed:
//! a couple of cycles per word, and the same hash for the same key in
//! every run.
//!
//! A fixed key does not make iteration order meaningful — it still
//! follows bucket layout, which depends on capacity and insertion
//! history — so code that folds a map into a fingerprint or a deadline
//! must still sort first (lint rule R5 flags it either way).

use std::hash::{BuildHasherDefault, Hasher};

/// The fixed seed: an odd multiplier with well-mixed bits.
const SEED: u64 = 0xf135_7aea_2e62_a9c5;

/// Multiply-rotate hasher over machine words, seeded with a constant.
#[derive(Debug, Clone, Copy, Default)]
pub struct FixedHasher {
    hash: u64,
}

impl FixedHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FixedHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    /// The product's high bits mix every input bit; the rotate moves
    /// them down to where `HashMap` takes its bucket index.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// `BuildHasher` for [`FixedHasher`]: `HashMap<K, V, FixedState>`.
/// Spell the map type out in full (not behind an alias) so lint rule
/// R5 still sees an unordered collection.
pub type FixedState = BuildHasherDefault<FixedHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FixedState::default().hash_one(v)
    }

    #[test]
    fn same_key_same_hash_across_builders() {
        assert_eq!(hash_of(&(7u32, 42u64)), hash_of(&(7u32, 42u64)));
        // Pinned: the hash must not depend on the process.
        assert_eq!(hash_of(&1u64), 0xf135_7aea_2e62_a9c5u64.rotate_left(26));
    }

    #[test]
    fn dense_keys_spread_over_buckets() {
        // Sequential block numbers must not collapse onto a few buckets
        // of a 1024-bucket table (low 10 bits of the hash).
        let mut buckets = vec![0u32; 1024];
        for k in 0..4096u64 {
            buckets[(hash_of(&k) & 1023) as usize] += 1;
        }
        assert!(buckets.iter().all(|&n| n <= 16), "{buckets:?}");
    }

    #[test]
    fn byte_writes_cover_the_tail() {
        assert_ne!(hash_of(&"abcdefgh1"), hash_of(&"abcdefgh2"));
        assert_ne!(
            hash_of(&[1u8, 2, 3].as_slice()),
            hash_of(&[1u8, 2, 4].as_slice())
        );
    }

    #[test]
    fn works_as_a_map_hasher() {
        let mut m: HashMap<u64, u64, FixedState> = HashMap::default();
        for k in 0..1000 {
            m.insert(k * 4096, k);
        }
        assert!((0..1000).all(|k| m[&(k * 4096)] == k));
    }
}
