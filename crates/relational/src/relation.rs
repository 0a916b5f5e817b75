//! Counted multiset relations.
//!
//! §5.2 of the paper extends every relation and view with a hidden
//! multiplicity-counter attribute `N` so that projection distributes over
//! difference. We adopt that counted-multiset semantics pervasively: a
//! [`Relation`] maps each distinct tuple to a strictly positive count. For
//! base relations every count is 1 (the paper: "this attribute need not be
//! explicitly stored since its value in every tuple is always one"); views
//! accumulate genuine counts through the redefined π and ⋈.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;

use crate::delta::DeltaRelation;
use crate::error::{RelError, Result};
use crate::index::JoinIndex;
use crate::schema::Schema;
use crate::tuple::Tuple;

/// A relation: a scheme plus a counted multiset of tuples, optionally
/// carrying join-key hash indexes maintained through every mutation.
#[derive(Debug, Clone)]
pub struct Relation {
    schema: Schema,
    tuples: HashMap<Tuple, u64>,
    indexes: Vec<JoinIndex>,
}

impl Relation {
    /// An empty relation over a scheme.
    pub fn empty(schema: Schema) -> Self {
        Relation {
            schema,
            tuples: HashMap::new(),
            indexes: Vec::new(),
        }
    }

    /// An empty relation over a scheme with room for `capacity` distinct
    /// tuples before its table grows.
    pub fn with_capacity(schema: Schema, capacity: usize) -> Self {
        Relation {
            schema,
            tuples: HashMap::with_capacity(capacity),
            indexes: Vec::new(),
        }
    }

    /// Make room for at least `additional` more distinct tuples, so a bulk
    /// insert does not rehash the table as it grows.
    pub fn reserve(&mut self, additional: usize) {
        self.tuples.reserve(additional);
    }

    /// Build a relation from set-style rows (each with count 1).
    ///
    /// Duplicate rows accumulate counts, matching multiset semantics.
    pub fn from_rows<I, T>(schema: Schema, rows: I) -> Result<Self>
    where
        I: IntoIterator<Item = T>,
        T: Into<Tuple>,
    {
        let mut rel = Relation::empty(schema);
        for row in rows {
            rel.insert(row.into(), 1)?;
        }
        Ok(rel)
    }

    /// The relation's scheme.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of *distinct* tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True when the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Sum of multiplicity counters (the multiset cardinality). Exact:
    /// each counter may reach `u64::MAX`, so the sum is taken in `u128`.
    pub fn total_count(&self) -> u128 {
        self.tuples.values().map(|&c| u128::from(c)).sum()
    }

    /// Multiplicity of a tuple (0 when absent).
    pub fn count(&self, tuple: &Tuple) -> u64 {
        self.tuples.get(tuple).copied().unwrap_or(0)
    }

    /// True when the tuple occurs at least once.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.tuples.contains_key(tuple)
    }

    /// Add `count` occurrences of a tuple (arity-checked). Errors with
    /// [`RelError::CounterOverflow`] if the §5.2 multiplicity counter
    /// would exceed `u64` — wrapping silently would corrupt every
    /// downstream count, so the insert is refused and nothing changes.
    pub fn insert(&mut self, tuple: Tuple, count: u64) -> Result<()> {
        tuple.check_arity(&self.schema)?;
        if count == 0 {
            return Ok(());
        }
        if self.indexes.is_empty() {
            match self.tuples.entry(tuple) {
                Entry::Occupied(mut e) => {
                    let updated = e.get().checked_add(count).ok_or_else(|| {
                        RelError::CounterOverflow(format!(
                            "inserting {count} of tuple {} with count {} exceeds u64",
                            e.key(),
                            e.get()
                        ))
                    })?;
                    *e.get_mut() = updated;
                }
                Entry::Vacant(e) => {
                    e.insert(count);
                }
            }
            return Ok(());
        }
        // Indexed path: verify the counter fits *before* touching any
        // index so a refused insert leaves everything consistent.
        let current = self.tuples.get(&tuple).copied().unwrap_or(0);
        let updated = current.checked_add(count).ok_or_else(|| {
            RelError::CounterOverflow(format!(
                "inserting {count} of tuple {tuple} with count {current} exceeds u64"
            ))
        })?;
        for ix in &mut self.indexes {
            ix.insert(&tuple, count)?;
        }
        self.tuples.insert(tuple, updated);
        Ok(())
    }

    /// Remove `count` occurrences; the tuple disappears when its counter
    /// reaches zero (§5.2 alternative 1). Errors if the counter would go
    /// negative.
    pub fn remove(&mut self, tuple: &Tuple, count: u64) -> Result<()> {
        let Some(current) = self.tuples.get_mut(tuple) else {
            return Err(RelError::NegativeCount(format!(
                "removing {count} of absent tuple {tuple}"
            )));
        };
        if *current < count {
            return Err(RelError::NegativeCount(format!(
                "removing {count} of tuple {tuple} with count {current}"
            )));
        }
        *current -= count;
        if *current == 0 {
            self.tuples.remove(tuple);
        }
        for ix in &mut self.indexes {
            ix.remove(tuple, count)?;
        }
        Ok(())
    }

    /// Iterate over `(tuple, count)` pairs in hash order.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, u64)> {
        self.tuples.iter().map(|(t, &c)| (t, c))
    }

    /// `(tuple, count)` pairs sorted by tuple, for deterministic output.
    pub fn sorted(&self) -> Vec<(Tuple, u64)> {
        let mut v: Vec<(Tuple, u64)> = self.tuples.iter().map(|(t, &c)| (t.clone(), c)).collect();
        v.sort();
        v
    }

    /// Apply a signed delta: positive counts are inserted, negative counts
    /// removed. Errors (leaving the relation partially updated is avoided by
    /// pre-checking) if any counter would go negative.
    pub fn apply_delta(&mut self, delta: &DeltaRelation) -> Result<()> {
        // Pre-check so a failed apply leaves the relation untouched.
        self.check_delta(delta)?;
        for (tuple, count) in delta.iter() {
            if count > 0 {
                self.insert(tuple.clone(), count as u64)?;
            } else if count < 0 {
                self.remove(tuple, count.unsigned_abs())?;
            }
        }
        Ok(())
    }

    /// Check that [`Relation::apply_delta`] would accept `delta`: same
    /// scheme, and no counter driven below zero.
    pub fn check_delta(&self, delta: &DeltaRelation) -> Result<()> {
        self.schema.require_same(delta.schema())?;
        for (tuple, count) in delta.iter() {
            if count < 0 {
                let need = count.unsigned_abs();
                let have = self.count(tuple);
                if have < need {
                    return Err(RelError::NegativeCount(format!(
                        "delta removes {need} of tuple {tuple} with count {have}"
                    )));
                }
            }
        }
        Ok(())
    }

    /// The relation as a signed delta (every tuple positive). Used to seed
    /// inclusion-exclusion pipelines.
    pub fn to_delta(&self) -> DeltaRelation {
        let mut d = DeltaRelation::empty(self.schema.clone());
        for (t, c) in self.iter() {
            d.add(t.clone(), c as i64);
        }
        d
    }

    /// Multiset equality: same scheme, same tuples, same counters.
    /// Indexes are derived state and never participate in equality.
    pub fn same_contents(&self, other: &Relation) -> bool {
        self.schema.same_as(&other.schema) && self.tuples == other.tuples
    }

    /// Create a hash index on the given key column positions, built from
    /// the current contents and maintained through every later mutation.
    /// Returns `false` (without rebuilding) when an index with the same
    /// key already exists. The key is treated as a set: positions are
    /// sorted and deduplicated, and must be non-empty and within the
    /// scheme's arity.
    pub fn create_index(&mut self, positions: &[usize]) -> Result<bool> {
        let mut key: Vec<usize> = positions.to_vec();
        key.sort_unstable();
        key.dedup();
        if key.is_empty() {
            return Err(RelError::InvalidIndexKey(
                "index key must name at least one column".to_owned(),
            ));
        }
        if let Some(&max) = key.last() {
            if max >= self.schema.arity() {
                return Err(RelError::InvalidIndexKey(format!(
                    "position {max} outside scheme {} (arity {})",
                    self.schema,
                    self.schema.arity()
                )));
            }
        }
        if self.indexes.iter().any(|ix| ix.covers(&key)) {
            return Ok(false);
        }
        let mut ix = JoinIndex::new(key);
        for (t, c) in self.tuples.iter() {
            ix.insert(t, *c)?;
        }
        self.indexes.push(ix);
        Ok(true)
    }

    /// The index whose key is exactly `key_positions` (as a set), if one
    /// exists.
    pub fn index_covering(&self, key_positions: &[usize]) -> Option<&JoinIndex> {
        let mut key: Vec<usize> = key_positions.to_vec();
        key.sort_unstable();
        key.dedup();
        self.indexes.iter().find(|ix| ix.covers(&key))
    }

    /// Number of indexes maintained on this relation.
    pub fn index_count(&self) -> usize {
        self.indexes.len()
    }

    /// The maintained indexes (sim-oracle and introspection use).
    pub fn indexes(&self) -> &[JoinIndex] {
        &self.indexes
    }

    /// Estimated resident bytes across all indexes.
    pub fn index_memory_bytes(&self) -> u64 {
        self.indexes
            .iter()
            .map(JoinIndex::memory_bytes_estimate)
            .sum()
    }

    /// Check every index against a from-scratch rebuild of the current
    /// contents; returns the first divergence. Used by the sim oracle.
    pub fn verify_indexes(&self) -> std::result::Result<(), String> {
        for ix in &self.indexes {
            ix.verify(self.iter())?;
        }
        Ok(())
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.same_contents(other)
    }
}

impl Eq for Relation {}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} [{} tuples]", self.schema, self.total_count())?;
        for (t, c) in self.sorted() {
            if c == 1 {
                writeln!(f, "  {t}")?;
            } else {
                writeln!(f, "  {t} x{c}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ab() -> Schema {
        Schema::new(["A", "B"]).unwrap()
    }

    #[test]
    fn from_rows_accumulates_duplicates() {
        let r = Relation::from_rows(ab(), [[1, 2], [1, 2], [3, 4]]).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.total_count(), 3);
        assert_eq!(r.count(&Tuple::from([1, 2])), 2);
        assert_eq!(r.count(&Tuple::from([3, 4])), 1);
        assert_eq!(r.count(&Tuple::from([9, 9])), 0);
    }

    #[test]
    fn insert_checks_arity() {
        let mut r = Relation::empty(ab());
        assert!(r.insert(Tuple::from([1]), 1).is_err());
        assert!(r.insert(Tuple::from([1, 2]), 0).is_ok());
        assert!(r.is_empty(), "count-0 insert is a no-op");
    }

    #[test]
    fn remove_decrements_and_erases_at_zero() {
        let mut r = Relation::from_rows(ab(), [[1, 2], [1, 2]]).unwrap();
        r.remove(&Tuple::from([1, 2]), 1).unwrap();
        assert_eq!(r.count(&Tuple::from([1, 2])), 1);
        r.remove(&Tuple::from([1, 2]), 1).unwrap();
        assert!(!r.contains(&Tuple::from([1, 2])));
        assert!(r.remove(&Tuple::from([1, 2]), 1).is_err());
    }

    #[test]
    fn remove_rejects_negative_counter() {
        let mut r = Relation::from_rows(ab(), [[1, 2]]).unwrap();
        assert!(matches!(
            r.remove(&Tuple::from([1, 2]), 2).unwrap_err(),
            RelError::NegativeCount(_)
        ));
    }

    #[test]
    fn apply_delta_roundtrip() {
        let mut r = Relation::from_rows(ab(), [[1, 2], [3, 4]]).unwrap();
        let mut d = DeltaRelation::empty(ab());
        d.add(Tuple::from([5, 6]), 2);
        d.add(Tuple::from([1, 2]), -1);
        r.apply_delta(&d).unwrap();
        assert_eq!(r.count(&Tuple::from([5, 6])), 2);
        assert!(!r.contains(&Tuple::from([1, 2])));
        assert_eq!(r.count(&Tuple::from([3, 4])), 1);
    }

    #[test]
    fn apply_delta_failure_leaves_relation_untouched() {
        let mut r = Relation::from_rows(ab(), [[1, 2]]).unwrap();
        let mut d = DeltaRelation::empty(ab());
        d.add(Tuple::from([7, 8]), 1);
        d.add(Tuple::from([3, 4]), -1); // not present: must fail
        let before = r.clone();
        assert!(r.apply_delta(&d).is_err());
        assert_eq!(r, before);
    }

    #[test]
    fn equality_is_count_sensitive() {
        let a = Relation::from_rows(ab(), [[1, 2], [1, 2]]).unwrap();
        let b = Relation::from_rows(ab(), [[1, 2]]).unwrap();
        assert_ne!(a, b);
        let c = Relation::from_rows(ab(), [[1, 2], [1, 2]]).unwrap();
        assert_eq!(a, c);
    }

    #[test]
    fn insert_refuses_counter_overflow_at_u64_max() {
        // Regression: `insert` used an unchecked `+=`, panicking in debug
        // and wrapping in release once a counter reached u64::MAX.
        let mut r = Relation::empty(ab());
        let t = Tuple::from([1, 2]);
        r.insert(t.clone(), u64::MAX).unwrap();
        assert_eq!(r.count(&t), u64::MAX);
        assert!(matches!(
            r.insert(t.clone(), 1).unwrap_err(),
            RelError::CounterOverflow(_)
        ));
        assert_eq!(r.count(&t), u64::MAX, "refused insert changes nothing");
        // The indexed maintenance path must refuse identically.
        let mut r = Relation::empty(ab());
        r.create_index(&[0]).unwrap();
        r.insert(t.clone(), u64::MAX).unwrap();
        assert!(matches!(
            r.insert(t.clone(), 1).unwrap_err(),
            RelError::CounterOverflow(_)
        ));
        assert_eq!(r.count(&t), u64::MAX);
        r.verify_indexes().unwrap();
    }

    #[test]
    fn total_count_is_exact_past_u64_max() {
        // Regression: `total_count` summed the counters in `u64`, so a
        // counter at u64::MAX plus one more tuple panicked in debug and
        // wrapped to 0 in release — and `Display` printed "[0 tuples]".
        let mut r = Relation::empty(Schema::new(["A"]).unwrap());
        r.insert(Tuple::from([1]), u64::MAX).unwrap();
        r.insert(Tuple::from([2]), 1).unwrap();
        assert_eq!(r.total_count(), u128::from(u64::MAX) + 1);
        let shown = r.to_string();
        assert!(
            shown.starts_with("{A} [18446744073709551616 tuples]"),
            "{shown}"
        );
        assert!(shown.contains(&format!("(1) x{}", u64::MAX)), "{shown}");
    }

    #[test]
    fn indexes_follow_every_mutation() {
        let mut r = Relation::from_rows(ab(), [[1, 2], [3, 2], [5, 6]]).unwrap();
        assert!(r.create_index(&[1]).unwrap());
        assert!(!r.create_index(&[1]).unwrap(), "same key: not rebuilt");
        let ix = r.index_covering(&[1]).unwrap();
        assert_eq!(ix.entry_count(), 3);
        assert_eq!(ix.probe(&[2.into()]).count(), 2);
        r.insert(Tuple::from([7, 2]), 1).unwrap();
        r.remove(&Tuple::from([1, 2]), 1).unwrap();
        let ix = r.index_covering(&[1]).unwrap();
        assert_eq!(ix.probe(&[2.into()]).count(), 2);
        r.verify_indexes().unwrap();
        let mut d = DeltaRelation::empty(ab());
        d.add(Tuple::from([9, 6]), 1);
        d.add(Tuple::from([5, 6]), -1);
        r.apply_delta(&d).unwrap();
        r.verify_indexes().unwrap();
        assert_eq!(
            r.index_covering(&[1]).unwrap().probe(&[6.into()]).count(),
            1
        );
        // Clones carry their indexes.
        let c = r.clone();
        assert_eq!(c.index_count(), 1);
        c.verify_indexes().unwrap();
        assert!(r.index_memory_bytes() > 0);
    }

    #[test]
    fn create_index_validates_key() {
        let mut r = Relation::empty(ab());
        assert!(matches!(
            r.create_index(&[]).unwrap_err(),
            RelError::InvalidIndexKey(_)
        ));
        assert!(matches!(
            r.create_index(&[2]).unwrap_err(),
            RelError::InvalidIndexKey(_)
        ));
        // Key treated as a set: {1, 0, 1} == {0, 1}.
        assert!(r.create_index(&[1, 0, 1]).unwrap());
        assert!(!r.create_index(&[0, 1]).unwrap());
        assert!(r.index_covering(&[1, 0]).is_some());
    }

    #[test]
    fn equality_ignores_indexes() {
        let plain = Relation::from_rows(ab(), [[1, 2]]).unwrap();
        let mut indexed = Relation::from_rows(ab(), [[1, 2]]).unwrap();
        indexed.create_index(&[0]).unwrap();
        assert_eq!(plain, indexed);
    }

    #[test]
    fn sorted_is_deterministic() {
        let r = Relation::from_rows(ab(), [[3, 4], [1, 2], [2, 9]]).unwrap();
        let order: Vec<Tuple> = r.sorted().into_iter().map(|(t, _)| t).collect();
        assert_eq!(
            order,
            vec![
                Tuple::from([1, 2]),
                Tuple::from([2, 9]),
                Tuple::from([3, 4])
            ]
        );
    }
}
