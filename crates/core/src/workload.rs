//! Synthetic workload generation for experiments and examples.
//!
//! The paper evaluates nothing empirically — its examples are integer toy
//! relations. This module scales those up: uniform integer relations,
//! chain-join schemas (`R₀(A0,A1) ⋈ R₁(A1,A2) ⋈ …`), and transactions
//! with controlled insert/delete mix, all deterministically seeded so
//! every experiment in `EXPERIMENTS.md` is reproducible.

use rand::rngs::StdRng;
use rand::seq::IteratorRandom;
use rand::{Rng, SeedableRng};

use ivm_relational::database::Database;
use ivm_relational::schema::Schema;
use ivm_relational::transaction::Transaction;
use ivm_relational::tuple::Tuple;
use ivm_relational::value::Value;

use crate::error::Result;

/// A seeded workload generator.
pub struct Workload {
    rng: StdRng,
    /// Attribute values are drawn uniformly from `[0, domain)`.
    pub domain: i64,
}

impl Workload {
    /// Create a generator with a fixed seed and value domain.
    pub fn new(seed: u64, domain: i64) -> Self {
        assert!(domain > 0, "domain must be positive");
        Workload {
            rng: StdRng::seed_from_u64(seed),
            domain,
        }
    }

    /// One random tuple of the given arity.
    pub fn random_tuple(&mut self, arity: usize) -> Tuple {
        Tuple::from(
            (0..arity)
                .map(|_| Value::Int(self.rng.gen_range(0..self.domain)))
                .collect::<Vec<_>>(),
        )
    }

    /// A skewed value in `[0, domain)`: log-uniform, so small values are
    /// drawn far more often than large ones — a cheap stand-in for the
    /// Zipf-like key popularity of real workloads (hot join keys inflate
    /// differential fanout, which the crossover experiments care about).
    pub fn skewed_value(&mut self) -> i64 {
        let u: f64 = self.rng.gen();
        let x = ((self.domain as f64) + 1.0).powf(u) - 1.0;
        (x as i64).clamp(0, self.domain - 1)
    }

    /// One random tuple with log-uniform-skewed attribute values.
    pub fn skewed_tuple(&mut self, arity: usize) -> Tuple {
        Tuple::from(
            (0..arity)
                .map(|_| Value::Int(self.skewed_value()))
                .collect::<Vec<_>>(),
        )
    }

    /// Populate a relation with `n` distinct random rows.
    ///
    /// Panics if the domain is too small to find `n` distinct rows in a
    /// reasonable number of attempts.
    pub fn populate(&mut self, db: &mut Database, relation: &str, n: usize) -> Result<()> {
        let arity = db.schema(relation)?.arity();
        let mut attempts = 0usize;
        let mut loaded = 0usize;
        while loaded < n {
            let t = self.random_tuple(arity);
            if !db.relation(relation)?.contains(&t) {
                db.load(relation, [t])?;
                loaded += 1;
            }
            attempts += 1;
            assert!(
                attempts < 100 * n + 1000,
                "domain too small to generate {n} distinct rows"
            );
        }
        Ok(())
    }

    /// Build a chain-join database: relations `R0(A0,A1)`, `R1(A1,A2)`, …,
    /// each with `size` rows. Shared attributes make consecutive relations
    /// naturally joinable.
    pub fn chain_database(&mut self, p: usize, size: usize) -> Result<Database> {
        let mut db = Database::new();
        for i in 0..p {
            let name = format!("R{i}");
            let schema = Schema::new([format!("A{i}"), format!("A{}", i + 1)])?;
            db.create(name.clone(), schema)?;
            self.populate(&mut db, &name, size)?;
        }
        Ok(db)
    }

    /// Names of a chain database's relations.
    pub fn chain_names(p: usize) -> Vec<String> {
        (0..p).map(|i| format!("R{i}")).collect()
    }

    /// A transaction inserting `n_insert` fresh random tuples into and
    /// deleting `n_delete` existing tuples from `relation`.
    pub fn transaction(
        &mut self,
        db: &Database,
        relation: &str,
        n_insert: usize,
        n_delete: usize,
    ) -> Result<Transaction> {
        let rel = db.relation(relation)?;
        let arity = rel.schema().arity();
        let mut txn = Transaction::new();
        // Deletions: sample distinct existing tuples in sorted order, so
        // one seed deletes the same rows in every process (a relation's
        // hash order is seeded per map).
        let victims: Vec<Tuple> = rel
            .sorted()
            .into_iter()
            .map(|(t, _)| t)
            .choose_multiple(&mut self.rng, n_delete);
        for t in victims {
            txn.delete(relation, t)?;
        }
        // Insertions: fresh tuples not present and not already inserted.
        let mut inserted = 0usize;
        let mut attempts = 0usize;
        while inserted < n_insert {
            let t = self.random_tuple(arity);
            if !rel.contains(&t) && txn.insert(relation, t.clone()).is_ok() {
                inserted += 1;
            }
            attempts += 1;
            assert!(
                attempts < 100 * n_insert + 1000,
                "domain too small to generate {n_insert} fresh rows"
            );
        }
        Ok(txn)
    }

    /// A transaction touching several relations at once.
    pub fn multi_transaction(
        &mut self,
        db: &Database,
        specs: &[(&str, usize, usize)],
    ) -> Result<Transaction> {
        let mut txn = Transaction::new();
        for &(relation, n_insert, n_delete) in specs {
            let single = self.transaction(db, relation, n_insert, n_delete)?;
            for t in single.inserted(relation) {
                txn.insert(relation, t.clone())?;
            }
            for t in single.deleted(relation) {
                txn.delete(relation, t.clone())?;
            }
        }
        Ok(txn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn populate_distinct_rows() {
        let mut w = Workload::new(42, 1000);
        let mut db = Database::new();
        db.create("R", Schema::new(["A", "B"]).unwrap()).unwrap();
        w.populate(&mut db, "R", 100).unwrap();
        let r = db.relation("R").unwrap();
        assert_eq!(r.len(), 100);
        assert_eq!(r.total_count(), 100);
    }

    #[test]
    fn deterministic_given_seed() {
        let gen = |seed| {
            let mut w = Workload::new(seed, 100);
            let mut db = Database::new();
            db.create("R", Schema::new(["A"]).unwrap()).unwrap();
            w.populate(&mut db, "R", 10).unwrap();
            db.relation("R").unwrap().sorted()
        };
        assert_eq!(gen(7), gen(7));
        assert_ne!(gen(7), gen(8));
    }

    #[test]
    fn chain_database_shapes() {
        let mut w = Workload::new(1, 50);
        let db = w.chain_database(3, 20).unwrap();
        assert_eq!(
            db.relation_names().collect::<Vec<_>>(),
            vec!["R0", "R1", "R2"]
        );
        assert_eq!(
            db.schema("R1").unwrap().attrs(),
            &["A1".into(), "A2".into()]
        );
        assert_eq!(db.relation("R2").unwrap().len(), 20);
    }

    #[test]
    fn skewed_values_are_skewed_and_in_range() {
        let mut w = Workload::new(9, 1000);
        let mut small = 0;
        let n = 5_000;
        for _ in 0..n {
            let v = w.skewed_value();
            assert!((0..1000).contains(&v));
            if v < 100 {
                small += 1;
            }
        }
        // Log-uniform: P(v < 100) = ln(101)/ln(1001) ≈ 0.67 — far above
        // the uniform 10%.
        assert!(
            small > n / 2,
            "expected heavy skew, got {small}/{n} below 100"
        );
        let t = w.skewed_tuple(3);
        assert_eq!(t.arity(), 3);
    }

    #[test]
    fn transaction_valid_against_db() {
        let mut w = Workload::new(3, 200);
        let mut db = Database::new();
        db.create("R", Schema::new(["A", "B"]).unwrap()).unwrap();
        w.populate(&mut db, "R", 50).unwrap();
        let txn = w.transaction(&db, "R", 5, 5).unwrap();
        assert_eq!(txn.inserted("R").count(), 5);
        assert_eq!(txn.deleted("R").count(), 5);
        // Applies cleanly: inserts fresh, deletes existing.
        let mut db2 = db.clone();
        db2.apply(&txn).unwrap();
        assert_eq!(db2.relation("R").unwrap().len(), 50);
    }

    #[test]
    fn transaction_is_deterministic_given_seed() {
        // Two databases built apart from one seed hold the same rows in
        // different hash orders; the same rows must be deleted from both.
        let deleted = || {
            let mut w = Workload::new(11, 1000);
            let mut db = Database::new();
            db.create("R", Schema::new(["A", "B"]).unwrap()).unwrap();
            w.populate(&mut db, "R", 200).unwrap();
            let txn = w.transaction(&db, "R", 5, 20).unwrap();
            let mut rows: Vec<Tuple> = txn.deleted("R").cloned().collect();
            rows.sort();
            rows
        };
        let first = deleted();
        assert_eq!(first.len(), 20);
        assert_eq!(first, deleted());
    }

    #[test]
    fn multi_transaction_spans_relations() {
        let mut w = Workload::new(4, 500);
        let db = w.chain_database(2, 30).unwrap();
        let txn = w
            .multi_transaction(&db, &[("R0", 2, 1), ("R1", 0, 3)])
            .unwrap();
        assert_eq!(txn.touched(), vec!["R0", "R1"]);
        let mut db2 = db.clone();
        db2.apply(&txn).unwrap();
    }
}
