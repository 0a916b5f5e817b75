//! Tagged tuples and the tag algebra of §5.3.
//!
//! "From now on, all tuples are assumed to be tagged in such a way that it
//! is possible to identify inserted, deleted, and old tuples." The paper
//! gives a combination table for the tag of a tuple produced by joining two
//! tagged tuples; `insert ⋈ delete` yields *ignore* — such tuples "do not
//! emerge from the join". Select and project preserve the operand's tag.
//!
//! Tag semantics (with `i_r ∩ r = ∅` and `d_r ⊆ r`, §3):
//! * `Old` — the tuple is in both the old and the new state,
//! * `Delete` — in the old state only,
//! * `Insert` — in the new state only.
//!
//! Under that reading the paper's table is exactly the rule "a joined tuple
//! exists in a state iff all its constituents do": any `Insert` ⇒ absent
//! from the old state; any `Delete` ⇒ absent from the new state; one of
//! each ⇒ absent from both ⇒ ignore.

use crate::fxhash::FxHashMap;
use std::fmt;

use crate::delta::DeltaRelation;
use crate::error::{RelError, Result};
use crate::relation::Relation;
use crate::schema::Schema;
use crate::tuple::Tuple;

/// The provenance tag attached to every tuple flowing through the
/// differential pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Tag {
    /// Present in both old and new database states.
    Old,
    /// Newly inserted: present in the new state only.
    Insert,
    /// Deleted: present in the old state only.
    Delete,
}

impl Tag {
    /// The paper's tag-combination table for join (symmetric).
    /// `None` encodes *ignore*.
    ///
    /// ```text
    ///   r1      r2      r1 ⋈ r2
    ///   insert  insert  insert
    ///   insert  delete  ignore
    ///   insert  old     insert
    ///   delete  insert  ignore
    ///   delete  delete  delete
    ///   delete  old     delete
    ///   old     insert  insert
    ///   old     delete  delete
    ///   old     old     old
    /// ```
    pub fn combine(self, other: Tag) -> Option<Tag> {
        match (self, other) {
            (Tag::Old, Tag::Old) => Some(Tag::Old),
            (Tag::Insert, Tag::Delete) | (Tag::Delete, Tag::Insert) => None,
            (Tag::Insert, _) | (_, Tag::Insert) => Some(Tag::Insert),
            (Tag::Delete, _) | (_, Tag::Delete) => Some(Tag::Delete),
        }
    }

    /// Tag of a tuple produced by a unary select or project (§5.3: "the tag
    /// value of the tuples resulting from a select or project operation" is
    /// the operand's tag).
    pub fn through_unary(self) -> Tag {
        self
    }

    /// Signed-count reading of the tag: `Insert → +1`, `Delete → −1`,
    /// `Old → 0` (an old tuple contributes no net change).
    pub fn sign(self) -> i64 {
        match self {
            Tag::Old => 0,
            Tag::Insert => 1,
            Tag::Delete => -1,
        }
    }

    /// `c` copies of a tuple carrying this tag as a signed delta count
    /// (`sign() · c`), or [`RelError::CounterOverflow`] when an insert or
    /// delete count exceeds `i64::MAX` — an unchecked `c as i64` would wrap
    /// to the opposite sign. `Old` is always 0.
    pub fn delta_count(self, c: u64) -> Result<i64> {
        if self == Tag::Old {
            return Ok(0);
        }
        let c = i64::try_from(c)
            .map_err(|_| RelError::CounterOverflow(format!("counter {c} exceeds i64")))?;
        Ok(self.sign() * c)
    }
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Tag::Old => "old",
            Tag::Insert => "insert",
            Tag::Delete => "delete",
        })
    }
}

/// A counted multiset of tagged tuples over a scheme.
#[derive(Debug, Clone)]
pub struct TaggedRelation {
    schema: Schema,
    tuples: FxHashMap<(Tuple, Tag), u64>,
}

impl TaggedRelation {
    /// An empty tagged relation.
    pub fn empty(schema: Schema) -> Self {
        TaggedRelation {
            schema,
            tuples: FxHashMap::default(),
        }
    }

    /// Tag every tuple of a plain relation uniformly.
    pub fn from_relation(rel: &Relation, tag: Tag) -> Self {
        let mut out = TaggedRelation::empty(rel.schema().clone());
        for (t, c) in rel.iter() {
            out.add(t.clone(), tag, c);
        }
        out
    }

    /// Build the tagged *changed portion* of a base relation from its net
    /// insert/delete sets: inserts tagged [`Tag::Insert`], deletes tagged
    /// [`Tag::Delete`]. This is the operand substituted for `B_i = 1` rows
    /// of the truth table (Algorithm 5.1 step 2).
    pub fn from_changes(inserts: &Relation, deletes: &Relation) -> Result<Self> {
        inserts.schema().require_same(deletes.schema())?;
        let mut out = TaggedRelation::empty(inserts.schema().clone());
        for (t, c) in inserts.iter() {
            out.add(t.clone(), Tag::Insert, c);
        }
        for (t, c) in deletes.iter() {
            out.add(t.clone(), Tag::Delete, c);
        }
        Ok(out)
    }

    /// The scheme.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of distinct `(tuple, tag)` entries.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True when no tuples are present.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Count of a `(tuple, tag)` pair.
    pub fn count(&self, tuple: &Tuple, tag: Tag) -> u64 {
        self.tuples.get(&(tuple.clone(), tag)).copied().unwrap_or(0)
    }

    /// Add occurrences of a tagged tuple.
    pub fn add(&mut self, tuple: Tuple, tag: Tag, count: u64) {
        if count > 0 {
            *self.tuples.entry((tuple, tag)).or_insert(0) += count;
        }
    }

    /// Merge another tagged relation into this one.
    pub fn merge(&mut self, other: &TaggedRelation) -> Result<()> {
        self.schema.require_same(&other.schema)?;
        for ((t, tag), c) in &other.tuples {
            self.add(t.clone(), *tag, *c);
        }
        Ok(())
    }

    /// Iterate over `(tuple, tag, count)` triples in hash order.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, Tag, u64)> {
        self.tuples.iter().map(|((t, tag), &c)| (t, *tag, c))
    }

    /// Sorted triples for deterministic output.
    pub fn sorted(&self) -> Vec<(Tuple, Tag, u64)> {
        let mut v: Vec<(Tuple, Tag, u64)> = self
            .tuples
            .iter()
            .map(|((t, tag), &c)| (t.clone(), *tag, c))
            .collect();
        v.sort();
        v
    }

    /// Tag-algebra outcome tally: distinct entries carrying each tag, as
    /// `(inserts, deletes, olds)`. The `old` component counts context
    /// tuples that survived the joins but cancel out of the final delta
    /// (`Tag::sign() == 0`) — the observability layer reports it as
    /// `diff.tag_olds` so the cost of carrying context through §5.3 rows
    /// is visible.
    pub fn tag_counts(&self) -> (u64, u64, u64) {
        let mut inserts = 0;
        let mut deletes = 0;
        let mut olds = 0;
        for (_, tag, _) in self.iter() {
            match tag {
                Tag::Insert => inserts += 1,
                Tag::Delete => deletes += 1,
                Tag::Old => olds += 1,
            }
        }
        (inserts, deletes, olds)
    }

    /// Collapse to a signed delta: `Insert → +count`, `Delete → −count`,
    /// `Old → 0`. This is the view transaction of Algorithm 5.1 step 3
    /// ("insert all tuples tagged insert, delete all tuples tagged delete").
    /// Errors with [`RelError::CounterOverflow`] on a count the signed
    /// delta cannot hold (see [`Tag::delta_count`]).
    pub fn to_delta(&self) -> Result<DeltaRelation> {
        let mut d = DeltaRelation::empty(self.schema.clone());
        for (t, tag, c) in self.iter() {
            d.add(t.clone(), tag.delta_count(c)?);
        }
        Ok(d)
    }

    /// [`TaggedRelation::to_delta`] by value: consumes the relation so the
    /// tuples move into the delta instead of being cloned. Semantically
    /// identical to `to_delta`; the differential engine uses it on its
    /// final accumulator, where the tagged form is no longer needed.
    pub fn into_delta(self) -> Result<DeltaRelation> {
        let mut d = DeltaRelation::empty(self.schema.clone());
        for ((t, tag), c) in self.tuples {
            d.add(t, tag.delta_count(c)?);
        }
        Ok(d)
    }
}

impl PartialEq for TaggedRelation {
    fn eq(&self, other: &Self) -> bool {
        self.schema.same_as(&other.schema) && self.tuples == other.tuples
    }
}

impl Eq for TaggedRelation {}

impl fmt::Display for TaggedRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} [tagged]", self.schema)?;
        for (t, tag, c) in self.sorted() {
            writeln!(f, "  {t} [{tag}] x{c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combination_table_matches_paper() {
        use Tag::*;
        // The nine rows of the §5.3 table.
        assert_eq!(Insert.combine(Insert), Some(Insert));
        assert_eq!(Insert.combine(Delete), None);
        assert_eq!(Insert.combine(Old), Some(Insert));
        assert_eq!(Delete.combine(Insert), None);
        assert_eq!(Delete.combine(Delete), Some(Delete));
        assert_eq!(Delete.combine(Old), Some(Delete));
        assert_eq!(Old.combine(Insert), Some(Insert));
        assert_eq!(Old.combine(Delete), Some(Delete));
        assert_eq!(Old.combine(Old), Some(Old));
    }

    #[test]
    fn combine_is_symmetric() {
        use Tag::*;
        for a in [Old, Insert, Delete] {
            for b in [Old, Insert, Delete] {
                assert_eq!(a.combine(b), b.combine(a));
            }
        }
    }

    #[test]
    fn unary_preserves_tag() {
        for t in [Tag::Old, Tag::Insert, Tag::Delete] {
            assert_eq!(t.through_unary(), t);
        }
    }

    #[test]
    fn signs() {
        assert_eq!(Tag::Old.sign(), 0);
        assert_eq!(Tag::Insert.sign(), 1);
        assert_eq!(Tag::Delete.sign(), -1);
    }

    fn ab() -> Schema {
        Schema::new(["A", "B"]).unwrap()
    }

    #[test]
    fn from_changes_tags_correctly() {
        let ins = Relation::from_rows(ab(), [[1, 2]]).unwrap();
        let del = Relation::from_rows(ab(), [[3, 4]]).unwrap();
        let tr = TaggedRelation::from_changes(&ins, &del).unwrap();
        assert_eq!(tr.count(&Tuple::from([1, 2]), Tag::Insert), 1);
        assert_eq!(tr.count(&Tuple::from([3, 4]), Tag::Delete), 1);
        assert_eq!(tr.count(&Tuple::from([1, 2]), Tag::Old), 0);
    }

    #[test]
    fn to_delta_signs_by_tag() {
        let mut tr = TaggedRelation::empty(ab());
        tr.add(Tuple::from([1, 1]), Tag::Insert, 2);
        tr.add(Tuple::from([2, 2]), Tag::Delete, 1);
        tr.add(Tuple::from([3, 3]), Tag::Old, 5);
        let d = tr.to_delta().unwrap();
        assert_eq!(d.count(&Tuple::from([1, 1])), 2);
        assert_eq!(d.count(&Tuple::from([2, 2])), -1);
        assert_eq!(d.count(&Tuple::from([3, 3])), 0);
    }

    #[test]
    fn same_tuple_different_tags_coexist() {
        let mut tr = TaggedRelation::empty(ab());
        tr.add(Tuple::from([1, 1]), Tag::Insert, 1);
        tr.add(Tuple::from([1, 1]), Tag::Delete, 1);
        assert_eq!(tr.len(), 2);
        // Net delta cancels.
        assert!(tr.to_delta().unwrap().is_empty());
    }

    #[test]
    fn delta_conversion_rejects_counts_beyond_i64() {
        // `u64::MAX as i64` is -1: unchecked, an insert of u64::MAX copies
        // would read as one delete.
        for tag in [Tag::Insert, Tag::Delete] {
            let mut tr = TaggedRelation::empty(ab());
            tr.add(Tuple::from([1, 1]), tag, u64::MAX);
            assert!(matches!(tr.to_delta(), Err(RelError::CounterOverflow(_))));
            assert!(matches!(tr.into_delta(), Err(RelError::CounterOverflow(_))));
        }
        // i64::MAX itself still fits, in both directions.
        assert_eq!(Tag::Delete.delta_count(i64::MAX as u64).unwrap(), -i64::MAX);
        // Old tuples contribute nothing, however many copies there are.
        let mut tr = TaggedRelation::empty(ab());
        tr.add(Tuple::from([1, 1]), Tag::Old, u64::MAX);
        assert!(tr.into_delta().unwrap().is_empty());
    }

    #[test]
    fn merge_accumulates() {
        let mut a = TaggedRelation::empty(ab());
        a.add(Tuple::from([1, 1]), Tag::Insert, 1);
        let mut b = TaggedRelation::empty(ab());
        b.add(Tuple::from([1, 1]), Tag::Insert, 2);
        a.merge(&b).unwrap();
        assert_eq!(a.count(&Tuple::from([1, 1]), Tag::Insert), 3);
    }
}
