//! Maps and sets keyed by a query id, with one keyed hasher.
//!
//! Every `u64`-keyed map of the serving path — the incremental model's
//! `by_id`, the service's `by_query`, the event mirror's queue, blocked and
//! retired tables — is an [`IdMap`] or an [`IdSet`]. std's `HashMap` hashes
//! an id with SipHash-1-3, which costs more than the probe it feeds (DESIGN.md
//! §12). [`IdHasher`] hashes it with one folded multiply: the high half XOR
//! the low half of the 128-bit product `(id ^ key) × M`, `M` odd.
//!
//! The hash stays keyed. The event mirror must assume a hostile feed, and
//! with a fixed multiplier a feed of chosen ids could pile into one bucket;
//! with a secret 64-bit key per map it cannot compute which ids collide.
//! [`IdState::default`] draws that key from [`RandomState`], so map
//! iteration order is random per map and per process, as under std's
//! default hasher: nothing may depend on it, and the checkpoint that
//! encodes a map (the service's) sorts its keys first.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

/// An odd 64-bit multiplier with well-spread bits (wyhash's first prime).
const M: u64 = 0xa076_1d64_78bd_642f;

/// A map from a query id to `V`.
pub type IdMap<V> = HashMap<u64, V, IdState>;

/// A set of query ids.
pub type IdSet = HashSet<u64, IdState>;

/// The high half XOR the low half of the 128-bit product `a × b`.
#[inline]
fn fold_mul(a: u64, b: u64) -> u64 {
    let p = (a as u128) * (b as u128);
    (p >> 64) as u64 ^ p as u64
}

/// The [`BuildHasher`] of [`IdMap`] and [`IdSet`]: one 64-bit key, drawn
/// per map by [`IdState::default`].
#[derive(Clone, Copy, Debug)]
pub struct IdState {
    key: u64,
}

impl Default for IdState {
    /// A fresh key: each `RandomState::new()` in a thread takes new SipHash
    /// keys, and one of its hashes is the key.
    fn default() -> Self {
        IdState {
            key: RandomState::new().hash_one(0u64),
        }
    }
}

impl BuildHasher for IdState {
    type Hasher = IdHasher;

    #[inline]
    fn build_hasher(&self) -> IdHasher {
        IdHasher { hash: self.key }
    }
}

/// Hashes one id as `fold_mul(id ^ key, M)`. Anything else that is written
/// — a second id, or bytes, folded in 8-byte little-endian chunks with the
/// last one zero-padded — chains through the same step, so every key type
/// hashes, and none panics.
#[derive(Clone, Copy, Debug)]
pub struct IdHasher {
    hash: u64,
}

impl Hasher for IdHasher {
    #[inline]
    fn write_u64(&mut self, id: u64) {
        self.hash = fold_mul(self.hash ^ id, M);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash(state: &IdState, id: u64) -> u64 {
        state.hash_one(id)
    }

    /// The largest number of `ids` that share one of 2^16 buckets, by the
    /// low 16 bits as std's table picks a bucket.
    fn max_load(state: &IdState, ids: impl Iterator<Item = u64>) -> u32 {
        let mut load = vec![0u32; 1 << 16];
        for id in ids {
            load[(hash(state, id) & 0xffff) as usize] += 1;
        }
        load.into_iter().max().unwrap()
    }

    /// 2^16 ids of each family into 2^16 buckets. Uniformly random hashes
    /// give a maximum load of about 8; the bound allows twice that, and
    /// holds for fixed keys (0 included) and fresh ones alike.
    #[test]
    fn structured_id_families_spread_over_the_buckets() {
        const BOUND: u32 = 16;
        let n = 1u64 << 16;
        type Family = (&'static str, fn(u64) -> u64);
        let families: [Family; 4] = [
            ("sequential", |k| k),
            ("k << 32", |k| k << 32),
            ("k << 48 | 7", |k| k << 48 | 7),
            ("below u64::MAX", |k| u64::MAX - k),
        ];
        let mut states: Vec<IdState> = [0, 1, M, u64::MAX]
            .into_iter()
            .map(|key| IdState { key })
            .collect();
        states.extend((0..4).map(|_| IdState::default()));
        for state in &states {
            for (name, family) in families {
                let load = max_load(state, (0..n).map(family));
                assert!(
                    load <= BOUND,
                    "{name} under {state:?}: {load} ids in one bucket"
                );
            }
        }
    }

    #[test]
    fn two_states_hash_almost_every_id_differently() {
        let (a, b) = (IdState::default(), IdState::default());
        assert_ne!(a.key, b.key);
        let same = (0..10_000u64)
            .filter(|&id| hash(&a, id) == hash(&b, id))
            .count();
        assert!(
            same <= 100,
            "{same} of 10 000 ids hash alike under two keys"
        );
    }

    #[test]
    fn a_map_works_with_any_key_and_bytes_never_panic() {
        let state = IdState::default();
        let mut lens = std::collections::BTreeSet::new();
        for len in 0..40 {
            let bytes: Vec<u8> = (0..len as u8).map(|b| b.wrapping_mul(37)).collect();
            let mut h = state.build_hasher();
            h.write(&bytes);
            lens.insert(h.finish());
            // Through `Hash`, as a map with another key type would.
            state.hash_one((bytes.as_slice(), "id", 7u8, len as u128));
        }
        assert_eq!(lens.len(), 40, "byte strings of different lengths collided");
        let mut m: IdMap<u64> = IdMap::default();
        for id in (0..1000u64).map(|k| k << 40 | 3) {
            m.insert(id, id ^ 1);
        }
        assert!((0..1000u64).map(|k| k << 40 | 3).all(|id| m[&id] == id ^ 1));
        let set: IdSet = m.keys().copied().collect();
        assert_eq!(set.len(), 1000);
    }
}
