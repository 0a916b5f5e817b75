//! A deterministic, allocation-free hasher for the engine's multisets
//! (delta and tagged relations) and for the join indexes.
//!
//! `std`'s default `RandomState`/SipHash is keyed per process to resist
//! hash-flooding from adversarial inputs. The differential engine's
//! intermediates are rebuilt per transaction and sit squarely on the
//! maintenance hot path; there the fixed-key multiply-rotate scheme below
//! (the well-known "Fx" hash used by rustc) is several times cheaper per
//! small key and, having no random seed, makes hash iteration order a pure
//! function of insertion order — one less source of cross-run
//! nondeterminism for the simulator to chase. Join-index buckets are not
//! transient: they persist across transactions and are keyed by the join
//! columns' values, which are fed from the network. So this hasher is not
//! flood-resistant where it matters most; that is a known trade-off (see
//! ROADMAP's hasher lead). [`crate::relation::Relation`]'s row table and
//! [`crate::database::Database`] stay on SipHash.
//!
//! [`FxHasher::finish`] rotates the product before returning it. A
//! multiply only carries low bits upward, so the raw product's low bits
//! depend only on the key's low bits, and the hash table picks a bucket
//! from those low bits: keys that share their low bits (multiples of
//! 65 536, say) would all land in one probe chain. The rotation brings the
//! well-mixed high bits down, as rustc-hash 2 does.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from the FxHash scheme (a 64-bit cousin of the golden
/// ratio); spreads low-entropy integer keys across the high bits.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The hasher state: one 64-bit word folded per write.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.fold(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.fold(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.fold(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.fold(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.fold(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.fold(v as u64);
        self.fold((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.fold(v as u64);
    }

    #[inline]
    fn write_i8(&mut self, v: i8) {
        self.fold(v as u8 as u64);
    }

    #[inline]
    fn write_i16(&mut self, v: i16) {
        self.fold(v as u16 as u64);
    }

    #[inline]
    fn write_i32(&mut self, v: i32) {
        self.fold(v as u32 as u64);
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.fold(v as u64);
    }

    #[inline]
    fn write_isize(&mut self, v: isize) {
        self.fold(v as u64);
    }
}

/// `BuildHasher` producing [`FxHasher`]s (no per-map random state).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed by the deterministic Fx scheme.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_builders() {
        let t = crate::tuple::Tuple::from([1i64, -7, 300]);
        assert_eq!(hash_of(&t), hash_of(&t.clone()));
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
    }

    #[test]
    fn distinguishes_nearby_keys() {
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
        assert_ne!(
            hash_of(&crate::tuple::Tuple::from([1, 2])),
            hash_of(&crate::tuple::Tuple::from([2, 1]))
        );
    }

    /// Join keys that differ only above bit 16 must still spread over the
    /// low bits a hash table picks its bucket from.
    #[test]
    fn strided_keys_spread_over_low_bit_buckets() {
        use crate::value::Value;
        let buckets: std::collections::HashSet<u64> = (0..1024i64)
            .map(|i| hash_of(&vec![Value::Int(i << 16)]) & 1023)
            .collect();
        assert!(buckets.len() >= 512, "{} of 1024 buckets", buckets.len());
    }

    #[test]
    fn unaligned_byte_tails_fold_in() {
        let mut a = FxHasher::default();
        a.write(b"abcdefghij"); // 8-byte chunk + 2-byte tail
        let mut b = FxHasher::default();
        b.write(b"abcdefghik");
        assert_ne!(a.finish(), b.finish());
    }
}
