//! Signed deltas over relations.
//!
//! A [`DeltaRelation`] maps tuples to *signed* multiplicities: positive for
//! insertions, negative for deletions. It is the arithmetic closure of the
//! paper's tagged tuples — a tuple tagged `insert` carries `+count`, a tuple
//! tagged `delete` carries `−count`, and a tuple tagged `ignore` has
//! cancelled to zero. Because join is bilinear and σ/π are linear over
//! signed multisets, the distributive identities of §5.3–§5.4 hold exactly,
//! which is what compiling a tree view into a signed sum of SPJ terms
//! ([`crate::expr::Expr::signed_terms`]) exploits. The SPJ engine (Algorithm 5.1) works over
//! [`crate::tagged::TaggedRelation`] instead and emits its view transaction
//! as a `DeltaRelation`.

use crate::fxhash::FxHashMap;
use std::fmt;

use crate::error::Result;
use crate::schema::Schema;
use crate::tuple::Tuple;

/// Unsigned counted tuples, as returned by [`DeltaRelation::split`].
pub type CountedTuples = Vec<(Tuple, u64)>;

/// A signed counted multiset of tuples over a scheme.
///
/// Entries with count zero are removed eagerly, so `is_empty()` means "no
/// net change".
#[derive(Debug, Clone)]
pub struct DeltaRelation {
    schema: Schema,
    tuples: FxHashMap<Tuple, i64>,
}

impl DeltaRelation {
    /// An empty (no-op) delta over a scheme.
    pub fn empty(schema: Schema) -> Self {
        DeltaRelation {
            schema,
            tuples: FxHashMap::default(),
        }
    }

    /// Build a delta from explicit insert and delete row sets.
    pub fn from_changes<I, D, T, U>(schema: Schema, inserts: I, deletes: D) -> Result<Self>
    where
        I: IntoIterator<Item = T>,
        D: IntoIterator<Item = U>,
        T: Into<Tuple>,
        U: Into<Tuple>,
    {
        let mut delta = DeltaRelation::empty(schema);
        for t in inserts {
            let t = t.into();
            t.check_arity(&delta.schema)?;
            delta.add(t, 1);
        }
        for t in deletes {
            let t = t.into();
            t.check_arity(&delta.schema)?;
            delta.add(t, -1);
        }
        Ok(delta)
    }

    /// The delta's scheme.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of distinct tuples with a non-zero net count.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True when the delta is a net no-op.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Net signed count of a tuple (0 when absent).
    pub fn count(&self, tuple: &Tuple) -> i64 {
        self.tuples.get(tuple).copied().unwrap_or(0)
    }

    /// Add a signed contribution for a tuple; zero entries are dropped.
    pub fn add(&mut self, tuple: Tuple, count: i64) {
        if count == 0 {
            return;
        }
        use std::collections::hash_map::Entry;
        match self.tuples.entry(tuple) {
            Entry::Occupied(mut e) => {
                let v = e.get_mut();
                *v += count;
                if *v == 0 {
                    e.remove();
                }
            }
            Entry::Vacant(e) => {
                e.insert(count);
            }
        }
    }

    /// Merge another delta into this one (`self += other`).
    pub fn merge(&mut self, other: &DeltaRelation) -> Result<()> {
        self.schema.require_same(&other.schema)?;
        for (t, c) in other.iter() {
            self.add(t.clone(), c);
        }
        Ok(())
    }

    /// Iterate over `(tuple, signed count)` pairs in hash order.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, i64)> {
        self.tuples.iter().map(|(t, &c)| (t, c))
    }

    /// `(tuple, signed count)` pairs sorted by tuple for deterministic
    /// output.
    pub fn sorted(&self) -> Vec<(Tuple, i64)> {
        let mut v: Vec<(Tuple, i64)> = self.tuples.iter().map(|(t, &c)| (t.clone(), c)).collect();
        v.sort();
        v
    }

    /// Split into (insertions, deletions) as unsigned counted sets — the
    /// shape of the view transaction emitted by Algorithm 5.1 step 3.
    pub fn split(&self) -> (CountedTuples, CountedTuples) {
        let mut ins = Vec::new();
        let mut del = Vec::new();
        for (t, c) in self.sorted() {
            if c > 0 {
                ins.push((t, c as u64));
            } else {
                del.push((t, c.unsigned_abs()));
            }
        }
        (ins, del)
    }

    /// Total number of tuple occurrences touched, `Σ |count|`.
    pub fn magnitude(&self) -> u64 {
        self.tuples.values().map(|c| c.unsigned_abs()).sum()
    }

    /// Negate every count (turn an "old→new" delta into "new→old").
    pub fn negated(&self) -> DeltaRelation {
        DeltaRelation {
            schema: self.schema.clone(),
            tuples: self.tuples.iter().map(|(t, &c)| (t.clone(), -c)).collect(),
        }
    }
}

impl PartialEq for DeltaRelation {
    fn eq(&self, other: &Self) -> bool {
        self.schema.same_as(&other.schema) && self.tuples == other.tuples
    }
}

impl Eq for DeltaRelation {}

impl fmt::Display for DeltaRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Δ{} [{} changes]", self.schema, self.magnitude())?;
        for (t, c) in self.sorted() {
            writeln!(
                f,
                "  {} {t} x{}",
                if c > 0 { '+' } else { '-' },
                c.unsigned_abs()
            )?;
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
    fn add_cancels_to_zero() {
        let mut d = DeltaRelation::empty(ab());
        d.add(Tuple::from([1, 2]), 3);
        d.add(Tuple::from([1, 2]), -3);
        assert!(d.is_empty());
        assert_eq!(d.count(&Tuple::from([1, 2])), 0);
    }

    #[test]
    fn from_changes_nets_out() {
        // Insert-then-delete of the same tuple nets to nothing (§3).
        let d = DeltaRelation::from_changes(ab(), [[1, 2], [5, 6]], [[1, 2]]).unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(d.count(&Tuple::from([5, 6])), 1);
    }

    #[test]
    fn split_partitions_by_sign() {
        let mut d = DeltaRelation::empty(ab());
        d.add(Tuple::from([1, 1]), 2);
        d.add(Tuple::from([2, 2]), -1);
        let (ins, del) = d.split();
        assert_eq!(ins, vec![(Tuple::from([1, 1]), 2)]);
        assert_eq!(del, vec![(Tuple::from([2, 2]), 1)]);
        assert_eq!(d.magnitude(), 3);
    }

    #[test]
    fn merge_sums_counts() {
        let mut a = DeltaRelation::empty(ab());
        a.add(Tuple::from([1, 1]), 1);
        let mut b = DeltaRelation::empty(ab());
        b.add(Tuple::from([1, 1]), -1);
        b.add(Tuple::from([2, 2]), 4);
        a.merge(&b).unwrap();
        assert_eq!(a.count(&Tuple::from([1, 1])), 0);
        assert_eq!(a.count(&Tuple::from([2, 2])), 4);
    }

    #[test]
    fn merge_requires_same_scheme() {
        let mut a = DeltaRelation::empty(ab());
        let b = DeltaRelation::empty(Schema::new(["X"]).unwrap());
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn negated_flips_signs() {
        let mut d = DeltaRelation::empty(ab());
        d.add(Tuple::from([1, 1]), 2);
        d.add(Tuple::from([2, 2]), -3);
        let n = d.negated();
        assert_eq!(n.count(&Tuple::from([1, 1])), -2);
        assert_eq!(n.count(&Tuple::from([2, 2])), 3);
    }

    #[test]
    fn arity_checked_in_from_changes() {
        assert!(DeltaRelation::from_changes(ab(), [[1]], Vec::<[i32; 2]>::new()).is_err());
    }
}
