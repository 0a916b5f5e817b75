//! Transactions (§3).
//!
//! A transaction is an indivisible sequence of insert/delete operations
//! against base relations, possibly touching several relations. Its *net
//! effect* on a relation `r` is a pair of disjoint sets `i_r`, `d_r` with
//! `τ(r) = r ∪ i_r − d_r` and `r`, `i_r`, `d_r` mutually disjoint. The
//! paper stresses that only net changes are represented: "if a tuple not in
//! the relation is inserted and then deleted within a transaction, it is
//! not represented at all in this set of changes" — the builder below
//! cancels such pairs as operations are recorded.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

use crate::delta::DeltaRelation;
use crate::error::{RelError, Result};
use crate::relation::Relation;
use crate::schema::Schema;
use crate::tuple::Tuple;

/// Net per-tuple state while recording a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Net {
    Inserted,
    Deleted,
}

/// A transaction under construction / ready to apply: per-relation net
/// insert and delete sets.
#[derive(Debug, Clone, Default)]
pub struct Transaction {
    // BTreeMap so touched-relation order is deterministic.
    changes: BTreeMap<String, HashMap<Tuple, Net>>,
}

impl Transaction {
    /// An empty transaction.
    pub fn new() -> Self {
        Transaction::default()
    }

    /// Record `insert(R, t)`. Cancels a pending delete of the same tuple;
    /// errors on a duplicate pending insert.
    pub fn insert(&mut self, relation: impl AsRef<str>, tuple: impl Into<Tuple>) -> Result<()> {
        let relation = relation.as_ref();
        Self::record(
            self.net_mut(relation),
            relation,
            tuple.into(),
            Net::Inserted,
        )
    }

    /// Record `delete(R, t)`. Cancels a pending insert of the same tuple;
    /// errors on a duplicate pending delete.
    pub fn delete(&mut self, relation: impl AsRef<str>, tuple: impl Into<Tuple>) -> Result<()> {
        let relation = relation.as_ref();
        Self::record(self.net_mut(relation), relation, tuple.into(), Net::Deleted)
    }

    /// Convenience: record many inserts, reserving room for them first.
    pub fn insert_all<T: Into<Tuple>>(
        &mut self,
        relation: &str,
        tuples: impl IntoIterator<Item = T>,
    ) -> Result<()> {
        let tuples = tuples.into_iter();
        let net = self.net_mut(relation);
        net.reserve(tuples.size_hint().0);
        for t in tuples {
            Self::record(net, relation, t.into(), Net::Inserted)?;
        }
        Ok(())
    }

    /// Convenience: record many deletes, reserving room for them first.
    pub fn delete_all<T: Into<Tuple>>(
        &mut self,
        relation: &str,
        tuples: impl IntoIterator<Item = T>,
    ) -> Result<()> {
        let tuples = tuples.into_iter();
        let net = self.net_mut(relation);
        net.reserve(tuples.size_hint().0);
        for t in tuples {
            Self::record(net, relation, t.into(), Net::Deleted)?;
        }
        Ok(())
    }

    /// The net changes of one relation; its name is copied only the first
    /// time the relation is touched.
    fn net_mut(&mut self, relation: &str) -> &mut HashMap<Tuple, Net> {
        if !self.changes.contains_key(relation) {
            self.changes.insert(relation.to_owned(), HashMap::new());
        }
        self.changes
            .get_mut(relation)
            .expect("entry inserted above")
    }

    /// Record one operation in a relation's net changes, hashing the
    /// tuple once: the opposite pending operation cancels (§3: "not
    /// represented at all"), a repeat of the same operation is an error.
    fn record(net: &mut HashMap<Tuple, Net>, relation: &str, tuple: Tuple, op: Net) -> Result<()> {
        match net.entry(tuple) {
            Entry::Vacant(e) => {
                e.insert(op);
                Ok(())
            }
            Entry::Occupied(e) if *e.get() != op => {
                e.remove();
                Ok(())
            }
            Entry::Occupied(e) => Err(match op {
                Net::Inserted => RelError::InsertExists(format!(
                    "{} inserted twice into {relation} in one transaction",
                    e.key()
                )),
                Net::Deleted => RelError::DeleteMissing(format!(
                    "{} deleted twice from {relation} in one transaction",
                    e.key()
                )),
            }),
        }
    }

    /// True when the transaction has no net effect at all.
    pub fn is_empty(&self) -> bool {
        self.changes.values().all(HashMap::is_empty)
    }

    /// Names of relations with a non-empty net change, in sorted order.
    pub fn touched(&self) -> Vec<&str> {
        self.changes
            .iter()
            .filter(|(_, m)| !m.is_empty())
            .map(|(n, _)| n.as_str())
            .collect()
    }

    /// Number of net tuple changes (inserts plus deletes) to one relation;
    /// non-zero exactly for the relations [`Transaction::touched`] lists.
    pub fn changes_to(&self, relation: &str) -> usize {
        self.changes.get(relation).map_or(0, HashMap::len)
    }

    /// Net inserted tuples for a relation (`i_r`).
    pub fn inserted(&self, relation: &str) -> impl Iterator<Item = &Tuple> {
        self.changes
            .get(relation)
            .into_iter()
            .flat_map(|m| m.iter())
            .filter(|(_, n)| **n == Net::Inserted)
            .map(|(t, _)| t)
    }

    /// Net deleted tuples for a relation (`d_r`).
    pub fn deleted(&self, relation: &str) -> impl Iterator<Item = &Tuple> {
        self.changes
            .get(relation)
            .into_iter()
            .flat_map(|m| m.iter())
            .filter(|(_, n)| **n == Net::Deleted)
            .map(|(t, _)| t)
    }

    /// `i_r` as a counted relation under the given scheme.
    pub fn insert_set(&self, relation: &str, schema: &Schema) -> Result<Relation> {
        let mut rel = Relation::empty(schema.clone());
        for t in self.inserted(relation) {
            rel.insert(t.clone(), 1)?;
        }
        Ok(rel)
    }

    /// `d_r` as a counted relation under the given scheme.
    pub fn delete_set(&self, relation: &str, schema: &Schema) -> Result<Relation> {
        let mut rel = Relation::empty(schema.clone());
        for t in self.deleted(relation) {
            rel.insert(t.clone(), 1)?;
        }
        Ok(rel)
    }

    /// The net change as a signed delta (`+1` per insert, `−1` per delete).
    pub fn delta(&self, relation: &str, schema: &Schema) -> Result<DeltaRelation> {
        let mut d = DeltaRelation::empty(schema.clone());
        for t in self.inserted(relation) {
            t.check_arity(schema)?;
            d.add(t.clone(), 1);
        }
        for t in self.deleted(relation) {
            t.check_arity(schema)?;
            d.add(t.clone(), -1);
        }
        Ok(d)
    }

    /// Total number of net tuple changes across all relations.
    pub fn size(&self) -> usize {
        self.changes.values().map(HashMap::len).sum()
    }
}

/// Equality on *net effect*: relations whose changes cancelled out inside
/// one transaction (insert then delete of the same tuple) leave an empty
/// per-relation entry behind, which must not distinguish two transactions.
impl PartialEq for Transaction {
    fn eq(&self, other: &Self) -> bool {
        fn nonempty(t: &Transaction) -> Vec<(&String, &HashMap<Tuple, Net>)> {
            t.changes.iter().filter(|(_, m)| !m.is_empty()).collect()
        }
        nonempty(self) == nonempty(other)
    }
}

impl Eq for Transaction {}

impl fmt::Display for Transaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "transaction [{} net changes]", self.size())?;
        for (rel, m) in &self.changes {
            let mut entries: Vec<(&Tuple, Net)> = m.iter().map(|(t, &n)| (t, n)).collect();
            entries.sort();
            for (t, n) in entries {
                match n {
                    Net::Inserted => writeln!(f, "  insert({rel}, {t})")?,
                    Net::Deleted => writeln!(f, "  delete({rel}, {t})")?,
                }
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
    fn insert_then_delete_cancels() {
        let mut t = Transaction::new();
        t.insert("R", [1, 2]).unwrap();
        t.delete("R", [1, 2]).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.touched(), Vec::<&str>::new());
    }

    #[test]
    fn delete_then_insert_cancels() {
        let mut t = Transaction::new();
        t.delete("R", [1, 2]).unwrap();
        t.insert("R", [1, 2]).unwrap();
        assert!(t.is_empty());
    }

    #[test]
    fn duplicate_ops_error() {
        let mut t = Transaction::new();
        t.insert("R", [1, 2]).unwrap();
        assert!(t.insert("R", [1, 2]).is_err());
        let mut t = Transaction::new();
        t.delete("R", [1, 2]).unwrap();
        assert!(t.delete("R", [1, 2]).is_err());
    }

    #[test]
    fn net_sets_partition() {
        let mut t = Transaction::new();
        t.insert("R", [1, 1]).unwrap();
        t.delete("R", [2, 2]).unwrap();
        t.insert("S", [3, 3]).unwrap();
        assert_eq!(t.touched(), vec!["R", "S"]);
        let i: Vec<&Tuple> = t.inserted("R").collect();
        assert_eq!(i, vec![&Tuple::from([1, 1])]);
        let d: Vec<&Tuple> = t.deleted("R").collect();
        assert_eq!(d, vec![&Tuple::from([2, 2])]);
        assert_eq!(t.size(), 3);
    }

    #[test]
    fn delta_signs() {
        let mut t = Transaction::new();
        t.insert("R", [1, 1]).unwrap();
        t.delete("R", [2, 2]).unwrap();
        let d = t.delta("R", &ab()).unwrap();
        assert_eq!(d.count(&Tuple::from([1, 1])), 1);
        assert_eq!(d.count(&Tuple::from([2, 2])), -1);
    }

    #[test]
    fn sets_as_relations() {
        let mut t = Transaction::new();
        t.insert_all("R", [[1, 1], [2, 2]]).unwrap();
        t.delete("R", [3, 3]).unwrap();
        let i = t.insert_set("R", &ab()).unwrap();
        assert_eq!(i.total_count(), 2);
        let d = t.delete_set("R", &ab()).unwrap();
        assert_eq!(d.total_count(), 1);
    }

    #[test]
    fn untouched_relation_has_empty_sets() {
        let t = Transaction::new();
        assert_eq!(t.inserted("R").count(), 0);
        assert!(t.delta("R", &ab()).unwrap().is_empty());
    }
}
