//! A small, fast, unkeyed hasher for maps keyed by the program's own ids.
//!
//! This is the multiply-rotate hash rustc uses for its interners (the
//! "Fx" hash): one rotate, one xor and one multiply per word, with no
//! per-map random key. It is much cheaper than std's SipHash on
//! the small fixed-size keys the engine looks up on every fact — node ids
//! ([`crate::GObj`], [`crate::GRel`]) and matrix index pairs.
//!
//! It offers no protection against keys crafted to collide, so it is only
//! for keys the program assigns itself (dense ids and pairs of them),
//! never for keys a client chooses. Maps keyed by client-chosen strings —
//! the `rename` map of [`crate::IntegrationOptions`], and by-name lookups
//! such as `sit-matcher`'s synonym groups — keep std's keyed
//! `RandomState`.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` with the [`FxHasher`].
pub(crate) type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` with the [`FxHasher`].
pub(crate) type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// The multiply-rotate word hasher (see the module docs).
#[derive(Clone, Copy, Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

/// An odd constant with well-spread bits (from rustc's `FxHasher`).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        for &b in chunks.remainder() {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
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

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(t: &T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(t)
    }

    #[test]
    fn equal_keys_hash_equal_and_neighbours_differ() {
        assert_eq!(hash(&(3u32, 7u32)), hash(&(3u32, 7u32)));
        assert_ne!(hash(&(3u32, 7u32)), hash(&(7u32, 3u32)));
        assert_ne!(hash(&1u32), hash(&2u32));
        assert_ne!(hash(&"ab"), hash(&"ba"));
    }

    #[test]
    fn maps_work_over_many_small_keys() {
        let mut m: FxHashMap<(u32, u32), u32> = FxHashMap::default();
        for i in 0..64u32 {
            for j in 0..64u32 {
                m.insert((i, j), i * 64 + j);
            }
        }
        assert_eq!(m.len(), 64 * 64);
        assert_eq!(m[&(5, 9)], 5 * 64 + 9);
        let s: FxHashSet<u32> = (0..100).collect();
        assert!(s.contains(&99) && !s.contains(&100));
    }
}
