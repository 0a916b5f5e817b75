//! The complete re-evaluation baseline.
//!
//! "A materialized view can always be brought up to date by re-evaluating
//! the relational expression that defines it. However, complete
//! re-evaluation is often wasteful" (§1). This module is that baseline,
//! implemented honestly so the benchmarks can locate where the paper's
//! differential algorithms actually win — §6 poses exactly that question
//! ("determine under what circumstances differential re-evaluation is more
//! efficient than complete re-evaluation").
//!
//! [`recompute`] is [`SpjExpr::eval`], which filters before it joins: the
//! condition's single-operand atoms are applied while each operand is
//! scanned ([`ivm_relational::expr::push_selections`], the same pushdown
//! the differential engine uses), and only the surviving tuples are
//! joined. That is still complete re-evaluation — every base tuple is
//! read — but a fairer one than joining everything and selecting last, so
//! the benchmarks measure differential maintenance against a baseline a
//! real system would run.

use ivm_relational::database::Database;
use ivm_relational::delta::DeltaRelation;
use ivm_relational::expr::SpjExpr;
use ivm_relational::relation::Relation;

use crate::error::Result;

/// Recompute the view from scratch against the (post-transaction)
/// database.
pub fn recompute(view: &SpjExpr, db_after: &Database) -> Result<Relation> {
    Ok(view.eval(db_after)?)
}

/// Recompute from scratch *and* diff against the old materialization,
/// producing the same kind of view transaction the differential engine
/// emits (useful when downstream consumers want a change stream even from
/// the baseline).
pub fn recompute_delta(
    view: &SpjExpr,
    db_after: &Database,
    old_view: &Relation,
) -> Result<DeltaRelation> {
    let new_view = recompute(view, db_after)?;
    let mut delta = new_view.to_delta();
    for (t, c) in old_view.iter() {
        delta.add(t.clone(), -crate::differential::spj::signed_count(c)?);
    }
    Ok(delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivm_relational::predicate::Atom;
    use ivm_relational::schema::Schema;
    use ivm_relational::transaction::Transaction;

    #[test]
    fn recompute_delta_matches_differential() {
        let mut db = Database::new();
        db.create("R", Schema::new(["A", "B"]).unwrap()).unwrap();
        db.create("S", Schema::new(["B", "C"]).unwrap()).unwrap();
        db.load("R", [[1, 10], [2, 20]]).unwrap();
        db.load("S", [[10, 100], [20, 200]]).unwrap();
        let view = SpjExpr::new(["R", "S"], Atom::gt_const("C", 50).into(), None);
        let old = view.eval(&db).unwrap();

        let mut txn = Transaction::new();
        txn.insert("R", [3, 10]).unwrap();
        txn.delete("S", [20, 200]).unwrap();

        let diff = crate::differential::differential_delta(
            &view,
            &db,
            &txn,
            &crate::differential::DiffOptions::default(),
        )
        .unwrap();

        let mut db_after = db.clone();
        db_after.apply(&txn).unwrap();
        let full = recompute_delta(&view, &db_after, &old).unwrap();
        assert_eq!(diff.delta, full);
    }

    #[test]
    fn recompute_delta_empty_when_nothing_changed() {
        let mut db = Database::new();
        db.create("R", Schema::new(["A"]).unwrap()).unwrap();
        db.load("R", [[1], [2]]).unwrap();
        let view = SpjExpr::new(["R"], Atom::gt_const("A", 0).into(), None);
        let old = view.eval(&db).unwrap();
        assert!(recompute_delta(&view, &db, &old).unwrap().is_empty());
    }
}
