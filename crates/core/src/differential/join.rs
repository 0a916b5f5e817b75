//! Differential maintenance of pure join views (§5.3).
//!
//! Join views `V = R₁ ⋈ … ⋈ R_p` are SPJ views with a trivial condition
//! and no projection; the helpers here expose the §5.3 special cases with
//! that shape, delegating to the general engine:
//!
//! * **insert-only** (Example 5.2): `v' = v ∪ t_v` where
//!   `t_v = Σ_rows ⋈(i_j if B_j else r_j)` — all contributions are
//!   insertions;
//! * **delete-only** (Example 5.3): `v' = v − d_v`, "not always cheaper …
//!   however, this is true when |v| > |d_v|".
//!
//! Reference code, not on the maintenance path: `ViewManager` calls the
//! general engine directly. These helpers give the §5.3 examples their
//! paper form for the `exp_tables` harness and the paper-example tests.

use ivm_relational::database::Database;
use ivm_relational::delta::DeltaRelation;
use ivm_relational::expr::SpjExpr;
use ivm_relational::predicate::Condition;
use ivm_relational::transaction::Transaction;

use crate::differential::spj::{differential_delta, DiffOptions};
use crate::error::Result;
use crate::stats::DiffStats;

/// Build the pure-join view `R₁ ⋈ … ⋈ R_p`.
pub fn join_view<R: Into<String>>(relations: impl IntoIterator<Item = R>) -> SpjExpr {
    SpjExpr::new(relations, Condition::always_true(), None)
}

/// Differential delta for a pure join view (any mix of inserts and
/// deletes).
pub fn join_view_delta(
    view: &SpjExpr,
    db_before: &Database,
    txn: &Transaction,
) -> Result<(DeltaRelation, DiffStats)> {
    let r = differential_delta(view, db_before, txn, &DiffOptions::default())?;
    Ok((r.delta, r.stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivm_relational::algebra;
    use ivm_relational::schema::Schema;
    use ivm_relational::tuple::Tuple;

    fn setup() -> Database {
        let mut db = Database::new();
        db.create("R", Schema::new(["A", "B"]).unwrap()).unwrap();
        db.create("S", Schema::new(["B", "C"]).unwrap()).unwrap();
        db.load("R", [[1, 10], [2, 20]]).unwrap();
        db.load("S", [[10, 100], [20, 200], [10, 101]]).unwrap();
        db
    }

    #[test]
    fn insert_only_equals_i_r_join_s() {
        // Example 5.2: the delta is exactly t_v = i_r ⋈ s.
        let db = setup();
        let view = join_view(["R", "S"]);
        let mut txn = Transaction::new();
        txn.insert_all("R", [[3, 10], [4, 30]]).unwrap();
        let (delta, _) = join_view_delta(&view, &db, &txn).unwrap();

        let i_r = txn.insert_set("R", db.schema("R").unwrap()).unwrap();
        let expected = algebra::natural_join(&i_r, db.relation("S").unwrap()).unwrap();
        assert_eq!(delta, expected.to_delta());
        // (4, 30) matched nothing: no spurious entries.
        assert_eq!(delta.len(), 2);
    }

    #[test]
    fn delete_only_equals_minus_d_r_join_s() {
        // Example 5.3: the delta is −(d_r ⋈ s).
        let db = setup();
        let view = join_view(["R", "S"]);
        let mut txn = Transaction::new();
        txn.delete("R", [1, 10]).unwrap();
        let (delta, _) = join_view_delta(&view, &db, &txn).unwrap();
        assert_eq!(delta.count(&Tuple::from([1, 10, 100])), -1);
        assert_eq!(delta.count(&Tuple::from([1, 10, 101])), -1);
        assert_eq!(delta.len(), 2);
    }

    #[test]
    fn mixed_both_relations_consistent() {
        let db = setup();
        let view = join_view(["R", "S"]);
        let mut txn = Transaction::new();
        txn.insert("R", [5, 10]).unwrap();
        txn.delete("S", [10, 101]).unwrap();
        txn.insert("S", [20, 300]).unwrap();
        let (delta, stats) = join_view_delta(&view, &db, &txn).unwrap();

        let mut v = view.eval(&db).unwrap();
        v.apply_delta(&delta).unwrap();
        let mut db_after = db.clone();
        db_after.apply(&txn).unwrap();
        assert_eq!(v, view.eval(&db_after).unwrap());
        assert!(stats.rows_evaluated >= 3, "two updated relations ⇒ 3 rows");
    }
}
