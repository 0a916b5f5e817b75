//! Join-key hash indexes over counted relations.
//!
//! The §5.3 differential join terms substitute a tiny change set for one
//! operand and the *unchanged* old relation for the others. Without
//! indexes every term hash-builds the unchanged side from scratch, so the
//! differential advantage erodes as the change set grows. A [`JoinIndex`]
//! keeps a persistent hash table from a join-key column set to the tuples
//! (and §5.2 multiplicity counters) carrying that key, maintained
//! incrementally by [`crate::relation::Relation`] on every insert/remove;
//! the engine probes it with the accumulated prefix instead of rebuilding.
//!
//! A posting holds the relation's own [`Tuple`], which shares its values
//! (see [`crate::tuple`]): the index adds a pointer and a counter per row,
//! not a second copy of the row. Maintenance gathers the key of the tuple
//! being inserted or removed into a reused buffer and looks its bucket up
//! by that borrowed slice; an owned key is made only when a new bucket is
//! created.
//!
//! Invariants:
//!
//! * `positions` is sorted, deduplicated, non-empty, and every position is
//!   within the owning relation's scheme arity (validated at creation by
//!   `Relation::create_index`).
//! * For every tuple `t` with relation count `c > 0`, the bucket for
//!   `t`'s key holds the posting `(t, c)`; no other postings exist, and
//!   empty buckets are erased. `verify` checks this from first principles.

use crate::fxhash::FxHashMap;

use crate::error::{RelError, Result};
use crate::tuple::Tuple;
use crate::value::Value;

/// Rough per-`Value` footprint of a bucket's owned key (enum payload plus
/// hash-map overhead amortized per stored value).
const VALUE_BYTES: u64 = 32;
/// Rough fixed bucket overhead (hash-map slot + `Vec` headers).
const BUCKET_BYTES: u64 = 48;
/// Rough posting cost: a `Tuple` pointer (16 bytes) and a `u64` counter
/// in an inner hash-map slot, plus that table's control byte and slack.
/// The row the pointer leads to is the relation's and is not charged.
const POSTING_BYTES: u64 = 32;

/// A hash index on one relation, keyed by a sorted set of column
/// positions. Postings mirror the relation's multiplicity counters.
#[derive(Debug, Clone)]
pub struct JoinIndex {
    positions: Vec<usize>,
    buckets: FxHashMap<Vec<Value>, FxHashMap<Tuple, u64>>,
    entries: usize,
    /// The key of the tuple being inserted or removed, gathered here so
    /// the bucket lookup borrows it instead of allocating one per call.
    key: Vec<Value>,
}

impl JoinIndex {
    /// An empty index over the given key positions. The caller
    /// (`Relation::create_index`) has already sorted, deduplicated and
    /// range-checked them.
    pub(crate) fn new(positions: Vec<usize>) -> Self {
        JoinIndex {
            positions,
            buckets: FxHashMap::default(),
            entries: 0,
            key: Vec::new(),
        }
    }

    /// The key column positions, sorted ascending.
    pub fn positions(&self) -> &[usize] {
        &self.positions
    }

    /// True when this index's key is exactly `key` (compared as a set;
    /// `key` must already be sorted and deduplicated).
    pub fn covers(&self, key: &[usize]) -> bool {
        self.positions == key
    }

    /// Number of distinct key values present.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Number of postings (distinct tuples) across all buckets.
    pub fn entry_count(&self) -> usize {
        self.entries
    }

    /// Gather `tuple`'s key values into the reused `key` buffer.
    fn load_key(&mut self, tuple: &Tuple) {
        self.key.clear();
        self.key
            .extend(self.positions.iter().map(|&p| tuple.at(p).clone()));
    }

    /// Record `count` additional occurrences of `tuple`. The relation has
    /// already checked its own counter with `checked_add`, and postings
    /// mirror relation counters exactly, so the overflow branch here is
    /// unreachable in practice — it is still reported rather than wrapped.
    pub(crate) fn insert(&mut self, tuple: &Tuple, count: u64) -> Result<()> {
        if count == 0 {
            return Ok(());
        }
        self.load_key(tuple);
        match self.buckets.get_mut(self.key.as_slice()) {
            Some(bucket) => match bucket.get_mut(tuple) {
                Some(c) => {
                    *c = c.checked_add(count).ok_or_else(|| {
                        RelError::CounterOverflow(format!("index posting for {tuple} exceeds u64"))
                    })?;
                }
                None => {
                    bucket.insert(tuple.clone(), count);
                    self.entries += 1;
                }
            },
            None => {
                let mut bucket = FxHashMap::default();
                bucket.insert(tuple.clone(), count);
                self.buckets.insert(self.key.clone(), bucket);
                self.entries += 1;
            }
        }
        Ok(())
    }

    /// Remove `count` occurrences of `tuple`; erases the posting at zero
    /// and the bucket when it empties. Errors indicate the index fell out
    /// of sync with its relation (an internal invariant breach).
    pub(crate) fn remove(&mut self, tuple: &Tuple, count: u64) -> Result<()> {
        if count == 0 {
            return Ok(());
        }
        self.load_key(tuple);
        let Some(bucket) = self.buckets.get_mut(self.key.as_slice()) else {
            return Err(RelError::NegativeCount(format!(
                "index has no bucket for tuple {tuple}"
            )));
        };
        let Some(c) = bucket.get_mut(tuple) else {
            return Err(RelError::NegativeCount(format!(
                "index has no posting for tuple {tuple}"
            )));
        };
        if *c < count {
            return Err(RelError::NegativeCount(format!(
                "index removes {count} of tuple {tuple} with posting {c}"
            )));
        }
        *c -= count;
        if *c == 0 {
            bucket.remove(tuple);
            self.entries -= 1;
            if bucket.is_empty() {
                self.buckets.remove(self.key.as_slice());
            }
        }
        Ok(())
    }

    /// Iterate the `(tuple, count)` postings matching a key value. The
    /// key's values must be ordered by this index's (sorted) positions.
    pub fn probe<'a>(&'a self, key: &[Value]) -> impl Iterator<Item = (&'a Tuple, u64)> + 'a {
        self.buckets
            .get(key)
            .into_iter()
            .flat_map(|b| b.iter().map(|(t, &c)| (t, c)))
    }

    /// Estimated resident bytes, O(1): each bucket owns a copy of its key
    /// values, and each posting is a pointer to the relation's shared row
    /// plus a counter, so a posting's price does not grow with the arity.
    pub fn memory_bytes_estimate(&self) -> u64 {
        let key_len = self.positions.len() as u64;
        let buckets = self.buckets.len() as u64;
        let entries = self.entries as u64;
        buckets * (key_len * VALUE_BYTES + BUCKET_BYTES) + entries * POSTING_BYTES
    }

    /// Check this index against the relation's `(tuple, count)` pairs by
    /// rebuilding from scratch; returns a description of the first
    /// divergence. Used by the sim oracle.
    pub fn verify<'a>(
        &self,
        tuples: impl Iterator<Item = (&'a Tuple, u64)>,
    ) -> std::result::Result<(), String> {
        let mut rebuilt = JoinIndex::new(self.positions.clone());
        let mut expected_entries = 0usize;
        for (t, c) in tuples {
            rebuilt
                .insert(t, c)
                .map_err(|e| format!("rebuild failed: {e}"))?;
            expected_entries += 1;
        }
        if self.entries != expected_entries {
            return Err(format!(
                "index on {:?} has {} postings, relation has {} distinct tuples",
                self.positions, self.entries, expected_entries
            ));
        }
        if self.buckets != rebuilt.buckets {
            return Err(format!(
                "index on {:?} diverges from a from-scratch rebuild",
                self.positions
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Relation;
    use crate::schema::Schema;

    fn ab() -> Schema {
        Schema::new(["A", "B"]).unwrap()
    }

    fn probe_counts(ix: &JoinIndex, key: &[Value]) -> Vec<(Tuple, u64)> {
        let mut v: Vec<(Tuple, u64)> = ix.probe(key).map(|(t, c)| (t.clone(), c)).collect();
        v.sort();
        v
    }

    #[test]
    fn maintains_postings_through_insert_and_remove() {
        let mut ix = JoinIndex::new(vec![1]);
        let t = Tuple::from([1, 2]);
        ix.insert(&t, 2).unwrap();
        ix.insert(&Tuple::from([7, 2]), 1).unwrap();
        ix.insert(&Tuple::from([1, 3]), 1).unwrap();
        assert_eq!(ix.bucket_count(), 2);
        assert_eq!(ix.entry_count(), 3);
        assert_eq!(
            probe_counts(&ix, &[Value::from(2)]),
            vec![(Tuple::from([1, 2]), 2), (Tuple::from([7, 2]), 1)]
        );
        ix.remove(&t, 1).unwrap();
        assert_eq!(probe_counts(&ix, &[Value::from(2)]).len(), 2);
        ix.remove(&t, 1).unwrap();
        assert_eq!(
            probe_counts(&ix, &[Value::from(2)]),
            vec![(Tuple::from([7, 2]), 1)]
        );
        ix.remove(&Tuple::from([7, 2]), 1).unwrap();
        assert_eq!(ix.bucket_count(), 1, "empty bucket erased");
        assert_eq!(ix.entry_count(), 1);
    }

    #[test]
    fn remove_rejects_out_of_sync_calls() {
        let mut ix = JoinIndex::new(vec![0]);
        let t = Tuple::from([1, 2]);
        assert!(ix.remove(&t, 1).is_err());
        ix.insert(&t, 1).unwrap();
        assert!(ix.remove(&t, 2).is_err());
        assert!(ix.remove(&Tuple::from([1, 9]), 1).is_err());
    }

    #[test]
    fn insert_posting_overflow_is_reported() {
        let mut ix = JoinIndex::new(vec![0]);
        let t = Tuple::from([1, 2]);
        ix.insert(&t, u64::MAX).unwrap();
        assert!(matches!(
            ix.insert(&t, 1).unwrap_err(),
            RelError::CounterOverflow(_)
        ));
    }

    #[test]
    fn covers_compares_position_sets() {
        let ix = JoinIndex::new(vec![0, 2]);
        assert!(ix.covers(&[0, 2]));
        assert!(!ix.covers(&[0]));
        assert!(!ix.covers(&[0, 1]));
    }

    #[test]
    fn verify_detects_divergence() {
        let rel = Relation::from_rows(ab(), [[1, 2], [3, 2], [5, 6]]).unwrap();
        let mut ix = JoinIndex::new(vec![1]);
        for (t, c) in rel.iter() {
            ix.insert(t, c).unwrap();
        }
        assert!(ix.verify(rel.iter()).is_ok());
        ix.insert(&Tuple::from([9, 9]), 1).unwrap();
        assert!(ix.verify(rel.iter()).is_err());
    }

    #[test]
    fn memory_estimate_tracks_growth() {
        let mut ix = JoinIndex::new(vec![0]);
        let empty = ix.memory_bytes_estimate();
        ix.insert(&Tuple::from([1, 2]), 1).unwrap();
        let one = ix.memory_bytes_estimate();
        assert!(one > empty);
        ix.insert(&Tuple::from([1, 3]), 1).unwrap();
        let posting = ix.memory_bytes_estimate() - one;
        assert!(posting > 0, "a second posting in the same bucket costs");
        // The same key and posting shape over rows eight values wide: a
        // posting points at the row, so its price does not grow with arity.
        let mut wide = JoinIndex::new(vec![0]);
        wide.insert(&Tuple::from([1, 2, 0, 0, 0, 0, 0, 0]), 1)
            .unwrap();
        assert_eq!(wide.memory_bytes_estimate(), one);
        wide.insert(&Tuple::from([1, 3, 0, 0, 0, 0, 0, 0]), 1)
            .unwrap();
        assert_eq!(wide.memory_bytes_estimate() - one, posting);
    }
}
