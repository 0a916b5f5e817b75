//! Integrity assertions via empty views — the Hammer & Sarin application.
//!
//! §2 reviews \[HS78\]: every integrity assertion has an *error predicate*
//! (its logical complement); "if the error-predicate is true for some
//! instance of the database, then the instance violates the assertion".
//! The conclusion of the paper notes that its irrelevant-update detection
//! "can be used in those contexts as well" — this module does exactly
//! that:
//!
//! * an assertion is registered as an SPJ *error view* that must stay
//!   **empty**;
//! * when a transaction arrives, each assertion's §4 relevance filter
//!   first decides — from the tuple values alone, independent of the
//!   database state — whether the transaction could possibly introduce an
//!   error tuple (the analogue of Hammer–Sarin's compile-time candidate
//!   tests);
//! * only for the surviving updates is the error view evaluated
//!   differentially; any *inserted* error tuple is a violation (deletions
//!   from the error view are repairs and always admissible).
//!
//! Checking happens **before** the transaction is applied, so a caller can
//! reject violating transactions outright ([`IntegrityMonitor::check`])
//! or use the guard wrapper [`IntegrityMonitor::apply_checked`].
//!
//! ```
//! use ivm::integrity::IntegrityMonitor;
//! use ivm::prelude::*;
//!
//! let mut db = Database::new();
//! db.create("emp", Schema::new(["ID", "SALARY"]).unwrap()).unwrap();
//!
//! let mut monitor = IntegrityMonitor::new();
//! // Assertion: no salary above 100 000 (the error view must stay empty).
//! monitor.assert_empty(
//!     "salary_cap",
//!     SpjExpr::new(["emp"], Atom::gt_const("SALARY", 100_000).into(), None),
//!     &db,
//! ).unwrap();
//!
//! let mut ok = Transaction::new();
//! ok.insert("emp", [1, 50_000]).unwrap();
//! assert!(monitor.apply_checked(&mut db, &ok).unwrap().is_ok());
//!
//! let mut bad = Transaction::new();
//! bad.insert("emp", [2, 200_000]).unwrap();
//! let rejected = monitor.apply_checked(&mut db, &bad).unwrap();
//! assert_eq!(rejected.unwrap_err()[0].assertion, "salary_cap");
//! assert_eq!(db.relation("emp").unwrap().total_count(), 1);
//! ```

use std::collections::HashMap;

use ivm_relational::database::Database;
use ivm_relational::expr::SpjExpr;
use ivm_relational::transaction::Transaction;
use ivm_relational::tuple::Tuple;

use crate::differential::{differential_delta, DiffOptions};
use crate::error::{IvmError, Result};
use crate::relevance::RelevanceFilter;

/// A violation introduced by a candidate transaction.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Name of the violated assertion.
    pub assertion: String,
    /// Error-view tuples the transaction would introduce (with
    /// multiplicities).
    pub witnesses: Vec<(Tuple, u64)>,
}

struct PreparedAssertion {
    name: String,
    error_view: SpjExpr,
    /// Lazily built relevance filters per updated relation.
    filters: HashMap<String, RelevanceFilter>,
}

/// Statistics over the monitor's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntegrityStats {
    /// Transactions checked.
    pub checked: usize,
    /// Per-assertion checks skipped because the relevance filter proved
    /// the transaction harmless.
    pub skipped_by_filter: usize,
    /// Differential evaluations performed.
    pub evaluated: usize,
    /// Violations found.
    pub violations: usize,
}

/// A set of integrity assertions checked against candidate transactions.
pub struct IntegrityMonitor {
    assertions: Vec<PreparedAssertion>,
    stats: IntegrityStats,
}

impl IntegrityMonitor {
    /// An empty monitor.
    pub fn new() -> Self {
        IntegrityMonitor {
            assertions: Vec::new(),
            stats: IntegrityStats::default(),
        }
    }

    /// Register an assertion: `error_view` must be empty in every
    /// consistent state. Errors if the view is non-empty *now* (the
    /// current state already violates the assertion) or is malformed.
    pub fn assert_empty(
        &mut self,
        name: impl Into<String>,
        error_view: SpjExpr,
        db: &Database,
    ) -> Result<()> {
        let name = name.into();
        error_view.validate(db)?;
        let current = error_view.eval(db)?;
        if !current.is_empty() {
            return Err(IvmError::UnsupportedView(format!(
                "assertion {name} already violated by the current state ({} error tuples)",
                current.total_count()
            )));
        }
        self.assertions.push(PreparedAssertion {
            name,
            error_view,
            filters: HashMap::new(),
        });
        Ok(())
    }

    /// Names of registered assertions.
    pub fn assertion_names(&self) -> impl Iterator<Item = &str> {
        self.assertions.iter().map(|a| a.name.as_str())
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> IntegrityStats {
        self.stats
    }

    /// Check a candidate transaction against the pre-transaction database:
    /// returns every violation it would introduce (empty ⇒ admissible).
    pub fn check(&mut self, db: &Database, txn: &Transaction) -> Result<Vec<Violation>> {
        self.stats.checked += 1;
        let mut violations = Vec::new();
        for assertion in &mut self.assertions {
            // Stage 1: relevance filtering (state-independent).
            let mut filtered = Transaction::new();
            let mut any_relevant = false;
            for relation in txn.touched() {
                if assertion.error_view.position_of(relation).is_none() {
                    continue;
                }
                if !assertion.filters.contains_key(relation) {
                    let f = RelevanceFilter::new(&assertion.error_view, db, relation)?;
                    assertion.filters.insert(relation.to_owned(), f);
                }
                let f = &assertion.filters[relation];
                for t in txn.inserted(relation) {
                    if f.is_relevant(t)? {
                        filtered.insert(relation, t.clone())?;
                        any_relevant = true;
                    }
                }
                for t in txn.deleted(relation) {
                    if f.is_relevant(t)? {
                        filtered.delete(relation, t.clone())?;
                        any_relevant = true;
                    }
                }
            }
            if !any_relevant {
                self.stats.skipped_by_filter += 1;
                continue;
            }
            // Stage 2: differential evaluation of the error view. Since
            // the view is empty, any positive delta tuple is a new error.
            self.stats.evaluated += 1;
            let result = differential_delta(
                &assertion.error_view,
                db,
                &filtered,
                &DiffOptions::default(),
            )?;
            let (introduced, _removed) = result.delta.split();
            if !introduced.is_empty() {
                self.stats.violations += 1;
                violations.push(Violation {
                    assertion: assertion.name.clone(),
                    witnesses: introduced,
                });
            }
        }
        Ok(violations)
    }

    /// Apply the transaction only if it introduces no violation; otherwise
    /// leave the database untouched and return the violations.
    pub fn apply_checked(
        &mut self,
        db: &mut Database,
        txn: &Transaction,
    ) -> Result<std::result::Result<(), Vec<Violation>>> {
        db.validate(txn)?;
        let violations = self.check(db, txn)?;
        if violations.is_empty() {
            db.apply_validated(txn)?;
            Ok(Ok(()))
        } else {
            Ok(Err(violations))
        }
    }
}

impl Default for IntegrityMonitor {
    fn default() -> Self {
        IntegrityMonitor::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivm_relational::predicate::{Atom, CompOp};
    use ivm_relational::schema::Schema;

    /// employees(EMP, DEPT, SALARY), depts(DEPT, CAP): two assertions —
    /// no salary above 100 000, and no employee in a department with
    /// CAP < 1 (referentially-flavoured cross-relation check).
    fn setup() -> (Database, IntegrityMonitor) {
        let mut db = Database::new();
        db.create("employees", Schema::new(["EMP", "DEPT", "SALARY"]).unwrap())
            .unwrap();
        db.create("depts", Schema::new(["DEPT", "CAP"]).unwrap())
            .unwrap();
        db.load("employees", [[1, 10, 50_000], [2, 20, 80_000]])
            .unwrap();
        db.load("depts", [[10, 5], [20, 3]]).unwrap();

        let mut m = IntegrityMonitor::new();
        m.assert_empty(
            "salary_cap",
            SpjExpr::new(
                ["employees"],
                Atom::gt_const("SALARY", 100_000).into(),
                None,
            ),
            &db,
        )
        .unwrap();
        m.assert_empty(
            "dept_capacity",
            SpjExpr::new(
                ["employees", "depts"],
                Atom::cmp_const("CAP", CompOp::Lt, 1).into(),
                None,
            ),
            &db,
        )
        .unwrap();
        (db, m)
    }

    #[test]
    fn admissible_transaction_passes() {
        let (db, mut m) = setup();
        let mut txn = Transaction::new();
        txn.insert("employees", [3, 10, 60_000]).unwrap();
        assert!(m.check(&db, &txn).unwrap().is_empty());
    }

    #[test]
    fn violating_insert_is_caught_with_witness() {
        let (db, mut m) = setup();
        let mut txn = Transaction::new();
        txn.insert("employees", [3, 10, 200_000]).unwrap();
        let v = m.check(&db, &txn).unwrap();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].assertion, "salary_cap");
        assert_eq!(v[0].witnesses, vec![(Tuple::from([3, 10, 200_000]), 1)]);
    }

    #[test]
    fn harmless_updates_skip_evaluation_entirely() {
        let (db, mut m) = setup();
        let mut txn = Transaction::new();
        txn.insert("employees", [3, 10, 99_000]).unwrap();
        m.check(&db, &txn).unwrap();
        let s = m.stats();
        // salary_cap: 99 000 ≤ 100 000 is provably harmless → skipped.
        // dept_capacity: the condition is on CAP, so employee inserts are
        // potentially relevant → evaluated.
        assert_eq!(s.skipped_by_filter, 1);
        assert_eq!(s.evaluated, 1);
        assert_eq!(s.violations, 0);
    }

    #[test]
    fn cross_relation_violation_via_dept_change() {
        let (db, mut m) = setup();
        // Shrinking a department's capacity to 0 while employees remain.
        let mut txn = Transaction::new();
        txn.delete("depts", [10, 5]).unwrap();
        txn.insert("depts", [10, 0]).unwrap();
        let v = m.check(&db, &txn).unwrap();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].assertion, "dept_capacity");
    }

    #[test]
    fn apply_checked_guards_the_database() {
        let (mut db, mut m) = setup();
        let before = db.relation("employees").unwrap().clone();

        let mut bad = Transaction::new();
        bad.insert("employees", [3, 10, 200_000]).unwrap();
        let outcome = m.apply_checked(&mut db, &bad).unwrap();
        assert!(outcome.is_err());
        assert_eq!(
            db.relation("employees").unwrap(),
            &before,
            "rejected txn not applied"
        );

        let mut good = Transaction::new();
        good.insert("employees", [3, 10, 70_000]).unwrap();
        assert!(m.apply_checked(&mut db, &good).unwrap().is_ok());
        assert!(db
            .relation("employees")
            .unwrap()
            .contains(&Tuple::from([3, 10, 70_000])));
    }

    #[test]
    fn registering_an_already_violated_assertion_fails() {
        let (db, mut m) = setup();
        let err = m.assert_empty(
            "impossible",
            SpjExpr::new(["employees"], Atom::gt_const("SALARY", 60_000).into(), None),
            &db,
        );
        assert!(matches!(err.unwrap_err(), IvmError::UnsupportedView(_)));
    }

    #[test]
    fn repairing_deletions_are_admissible() {
        let (mut db, mut m) = setup();
        // Force the DB toward the boundary: a 100k salary is fine.
        let mut txn = Transaction::new();
        txn.insert("employees", [5, 10, 100_000]).unwrap();
        assert!(m.apply_checked(&mut db, &txn).unwrap().is_ok());
        // Deleting employees can never violate either assertion.
        let mut del = Transaction::new();
        del.delete("employees", [5, 10, 100_000]).unwrap();
        assert!(m.check(&db, &del).unwrap().is_empty());
    }

    #[test]
    fn multi_assertion_reporting() {
        let (db, mut m) = setup();
        // One transaction violating both assertions at once.
        let mut txn = Transaction::new();
        txn.insert("employees", [3, 30, 500_000]).unwrap();
        txn.insert("depts", [30, 0]).unwrap();
        let v = m.check(&db, &txn).unwrap();
        let names: Vec<&str> = v.iter().map(|x| x.assertion.as_str()).collect();
        assert!(names.contains(&"salary_cap"));
        assert!(names.contains(&"dept_capacity"));
    }
}
