//! An in-memory database of named base relations.
//!
//! Base relations are sets (every multiplicity counter is 1 — §5.2: "for
//! base relations this attribute need not be explicitly stored since its
//! value in every tuple is always one"); the database enforces that by
//! validating §3's disjointness conditions when a [`Transaction`] is
//! applied: inserted tuples must be absent, deleted tuples present.
//! Application is atomic — either the whole transaction validates and
//! applies, or nothing changes.

use std::collections::BTreeMap;
use std::fmt;

use crate::attribute::AttrName;
use crate::error::{RelError, Result};
use crate::relation::Relation;
use crate::schema::Schema;
use crate::transaction::Transaction;
use crate::tuple::Tuple;

/// A database instance: a set of named base relations.
#[derive(Debug, Clone, Default)]
pub struct Database {
    relations: BTreeMap<String, Relation>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Create an empty base relation.
    pub fn create(&mut self, name: impl Into<String>, schema: Schema) -> Result<()> {
        let name = name.into();
        if self.relations.contains_key(&name) {
            return Err(RelError::DuplicateRelation(name));
        }
        self.relations.insert(name, Relation::empty(schema));
        Ok(())
    }

    /// Install a fully-built relation under `name`, preserving its
    /// multiplicity counters exactly. This is the recovery path used by the
    /// storage layer when a decoded snapshot is reassembled; unlike
    /// [`Database::load`] it does not force set semantics, so the caller is
    /// trusted to hand over a relation that satisfied the database's
    /// invariants when it was persisted.
    pub fn adopt(&mut self, name: impl Into<String>, relation: Relation) -> Result<()> {
        let name = name.into();
        if self.relations.contains_key(&name) {
            return Err(RelError::DuplicateRelation(name));
        }
        self.relations.insert(name, relation);
        Ok(())
    }

    /// Bulk-load rows into a base relation (each row must be new — base
    /// relations are sets).
    pub fn load<T: Into<Tuple>>(
        &mut self,
        name: &str,
        rows: impl IntoIterator<Item = T>,
    ) -> Result<()> {
        let rel = self.relation_mut(name)?;
        for row in rows {
            let t = row.into();
            if rel.contains(&t) {
                return Err(RelError::InsertExists(format!("{t} already in {name}")));
            }
            rel.insert(t, 1)?;
        }
        Ok(())
    }

    /// Look up a base relation.
    pub fn relation(&self, name: &str) -> Result<&Relation> {
        self.relations
            .get(name)
            .ok_or_else(|| RelError::UnknownRelation(name.to_owned()))
    }

    fn relation_mut(&mut self, name: &str) -> Result<&mut Relation> {
        self.relations
            .get_mut(name)
            .ok_or_else(|| RelError::UnknownRelation(name.to_owned()))
    }

    /// Scheme of a base relation.
    pub fn schema(&self, name: &str) -> Result<&Schema> {
        Ok(self.relation(name)?.schema())
    }

    /// True when the relation exists.
    pub fn contains_relation(&self, name: &str) -> bool {
        self.relations.contains_key(name)
    }

    /// Names of all base relations, sorted.
    pub fn relation_names(&self) -> impl Iterator<Item = &str> {
        self.relations.keys().map(String::as_str)
    }

    /// Validate a transaction against the current state: for every touched
    /// relation the tuples of `i_r` must be absent and those of `d_r`
    /// present, and arities must match (§3 disjointness of `r`, `i_r`,
    /// `d_r`).
    pub fn validate(&self, txn: &Transaction) -> Result<()> {
        for name in txn.touched() {
            let rel = self.relation(name)?;
            for t in txn.inserted(name) {
                t.check_arity(rel.schema())?;
                if rel.contains(t) {
                    return Err(RelError::InsertExists(format!("{t} already in {name}")));
                }
            }
            for t in txn.deleted(name) {
                t.check_arity(rel.schema())?;
                if !rel.contains(t) {
                    return Err(RelError::DeleteMissing(format!("{t} not in {name}")));
                }
            }
        }
        Ok(())
    }

    /// Apply a transaction atomically: validate everything first, then
    /// mutate (`τ(r) = r ∪ i_r − d_r` for every touched relation). Each
    /// relation's table is reserved for its net inserts before they go in.
    pub fn apply(&mut self, txn: &Transaction) -> Result<()> {
        self.validate(txn)?;
        for name in txn.touched() {
            let rel = self
                .relations
                .get_mut(name)
                .expect("validated relation exists");
            rel.reserve(txn.inserted(name).count());
            for t in txn.inserted(name) {
                rel.insert(t.clone(), 1)?;
            }
            for t in txn.deleted(name) {
                rel.remove(t, 1)?;
            }
        }
        Ok(())
    }

    /// Total number of tuples across all base relations (exact, like
    /// [`Relation::total_count`]).
    pub fn total_tuples(&self) -> u128 {
        self.relations.values().map(Relation::total_count).sum()
    }

    /// Ensure a join-key hash index exists on `name` over the named
    /// attributes (treated as a set). Returns `true` when a new index was
    /// built, `false` when an equivalent one already existed.
    pub fn ensure_index(&mut self, name: &str, attrs: &[AttrName]) -> Result<bool> {
        let rel = self.relation_mut(name)?;
        let positions: Vec<usize> = attrs
            .iter()
            .map(|a| rel.schema().require(a))
            .collect::<Result<_>>()?;
        rel.create_index(&positions)
    }
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, rel) in &self.relations {
            writeln!(f, "{name} = {rel}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        let mut db = Database::new();
        db.create("R", Schema::new(["A", "B"]).unwrap()).unwrap();
        db.load("R", [[1, 2], [5, 10]]).unwrap();
        db
    }

    #[test]
    fn create_and_load() {
        let d = db();
        assert!(d.contains_relation("R"));
        assert_eq!(d.relation("R").unwrap().total_count(), 2);
        assert!(d.relation("Z").is_err());
    }

    #[test]
    fn create_duplicate_fails() {
        let mut d = db();
        assert!(matches!(
            d.create("R", Schema::new(["X"]).unwrap()).unwrap_err(),
            RelError::DuplicateRelation(_)
        ));
    }

    #[test]
    fn load_rejects_duplicates() {
        let mut d = db();
        assert!(d.load("R", [[1, 2]]).is_err());
    }

    #[test]
    fn apply_transaction() {
        let mut d = db();
        let mut t = Transaction::new();
        t.insert("R", [9, 9]).unwrap();
        t.delete("R", [1, 2]).unwrap();
        d.apply(&t).unwrap();
        let r = d.relation("R").unwrap();
        assert!(r.contains(&Tuple::from([9, 9])));
        assert!(!r.contains(&Tuple::from([1, 2])));
        assert_eq!(r.total_count(), 2);
    }

    #[test]
    fn apply_validates_disjointness_atomically() {
        let mut d = db();
        let mut t = Transaction::new();
        t.insert("R", [9, 9]).unwrap();
        t.insert("R", [1, 2]).unwrap(); // already present → must fail
        let before = d.relation("R").unwrap().clone();
        assert!(matches!(
            d.apply(&t).unwrap_err(),
            RelError::InsertExists(_)
        ));
        assert_eq!(d.relation("R").unwrap(), &before, "atomic: nothing applied");
    }

    #[test]
    fn apply_rejects_missing_delete() {
        let mut d = db();
        let mut t = Transaction::new();
        t.delete("R", [7, 7]).unwrap();
        assert!(matches!(
            d.apply(&t).unwrap_err(),
            RelError::DeleteMissing(_)
        ));
    }

    #[test]
    fn apply_rejects_bad_arity() {
        let mut d = db();
        let mut t = Transaction::new();
        t.insert("R", [1]).unwrap();
        assert!(matches!(
            d.apply(&t).unwrap_err(),
            RelError::ArityMismatch { .. }
        ));
    }

    #[test]
    fn ensure_index_builds_once_and_apply_maintains() {
        let mut d = db();
        assert!(d.ensure_index("R", &["B".into()]).unwrap());
        assert!(!d.ensure_index("R", &["B".into()]).unwrap());
        assert!(d.ensure_index("Z", &["B".into()]).is_err());
        assert!(d.ensure_index("R", &["Z".into()]).is_err());
        let mut t = Transaction::new();
        t.insert("R", [9, 9]).unwrap();
        t.delete("R", [1, 2]).unwrap();
        d.apply(&t).unwrap();
        let r = d.relation("R").unwrap();
        assert_eq!(r.index_count(), 1);
        r.verify_indexes().unwrap();
    }

    #[test]
    fn multi_relation_transaction() {
        let mut d = db();
        d.create("S", Schema::new(["C"]).unwrap()).unwrap();
        let mut t = Transaction::new();
        t.insert("R", [7, 7]).unwrap();
        t.insert("S", [3]).unwrap();
        d.apply(&t).unwrap();
        assert_eq!(d.total_tuples(), 4);
    }
}
