//! [`IdMap`]: a `HashMap` keyed by ids the program hands out itself —
//! peer ids, query ids, packed link ids.
//!
//! The standard library's SipHash guards against keys an outsider picks
//! to force collisions. Ids this program generates are dense counters
//! nobody else chooses, so that guard only costs time: on the
//! simulator's per-hop path a SipHash probe is several times the cost of
//! the lookup it serves. [`IdHasher`] is one multiply per word instead
//! (the Fx scheme), which spreads sequential ids over both the bucket
//! index (low bits) and the control byte (top bits) of the table.
//!
//! **Only for ids the program generates.** Never key an `IdMap` by data
//! from outside the process (keys of stored items, anything read from a
//! file or a peer): a multiplicative hash is trivial to collide on
//! purpose. Maps keyed by [`Key`](sw_keyspace::Key) keep the default
//! hasher.
//!
//! Iteration order differs from a `HashMap` with the default hasher,
//! which is randomised per process anyway; code whose output must be
//! deterministic never depends on the iteration order of either.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` with the [`IdHasher`]; build it with `IdMap::default()`.
/// See the module docs for when it may be used.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Odd multiplier of the Fx hash (the fractional bits of the golden
/// ratio, rounded to odd).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiplicative hasher for program-generated integer ids (see the
/// module docs).
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher {
    hash: u64,
}

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        for &b in chunks.remainder() {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn behaves_as_a_map() {
        let mut m: IdMap<u64, u32> = IdMap::default();
        for i in 0..10_000u64 {
            m.insert(i << 32 | (i * 7 % 101), i as u32);
        }
        assert_eq!(m.len(), 10_000);
        for i in 0..10_000u64 {
            assert_eq!(m.get(&(i << 32 | (i * 7 % 101))), Some(&(i as u32)));
        }
        assert!(m.remove(&5).is_none());
    }

    #[test]
    fn sequential_ids_spread_over_buckets_and_control_bytes() {
        let build = BuildHasherDefault::<IdHasher>::default();
        let hashes: Vec<u64> = (0..1024u32).map(|i| build.hash_one(i)).collect();
        // Low 10 bits (the bucket index of a 1024-slot table) are a
        // bijection of the id: an odd multiplier permutes them.
        let mut low: Vec<u64> = hashes.iter().map(|h| h & 1023).collect();
        low.sort_unstable();
        low.dedup();
        assert_eq!(low.len(), 1024);
        // Top 7 bits (the control byte) take many values, not a few.
        let mut top: Vec<u64> = hashes.iter().map(|h| h >> 57).collect();
        top.sort_unstable();
        top.dedup();
        assert!(top.len() > 100, "{} distinct control bytes", top.len());
    }
}
