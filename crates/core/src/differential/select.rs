//! Differential maintenance of select views (§5.1).
//!
//! For `V = σ_C(R)` and a transaction with net sets `i_r`, `d_r`:
//!
//! > `v' = v ∪ σ_C(i_r) − σ_C(d_r)`
//!
//! i.e. the maintenance delta is `+σ_C(i_r) − σ_C(d_r)`. "Assuming
//! |v| > |d_r|, it is cheaper to update the view by the above sequence of
//! operations than recomputing the expression V from scratch" — the
//! `select_view` bench (experiment E6) locates that crossover empirically.
//!
//! Reference code, not on the maintenance path: `ViewManager` maintains
//! select views through the general engine ([`crate::differential::spj`]).
//! This module states §5.1 in the paper's form for the E6 benches, the
//! `exp_crossover` harness and the paper-example tests.

use ivm_relational::algebra;
use ivm_relational::delta::DeltaRelation;
use ivm_relational::predicate::Condition;
use ivm_relational::relation::Relation;

use crate::error::Result;

/// Compute the §5.1 delta `+σ_C(i_r) − σ_C(d_r)` for a select view.
pub fn select_view_delta(
    cond: &Condition,
    inserts: &Relation,
    deletes: &Relation,
) -> Result<DeltaRelation> {
    inserts.schema().require_same(deletes.schema())?;
    let mut delta = algebra::select(inserts, cond)?.to_delta();
    let deleted = algebra::select(deletes, cond)?;
    for (t, c) in deleted.iter() {
        delta.add(t.clone(), -(c as i64));
    }
    Ok(delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivm_relational::predicate::Atom;
    use ivm_relational::schema::Schema;
    use ivm_relational::tuple::Tuple;

    fn ab() -> Schema {
        Schema::new(["A", "B"]).unwrap()
    }

    #[test]
    fn inserts_filtered_and_added() {
        let i = Relation::from_rows(ab(), [[1, 1], [20, 2]]).unwrap();
        let d = Relation::empty(ab());
        let delta = select_view_delta(&Atom::lt_const("A", 10).into(), &i, &d).unwrap();
        assert_eq!(delta.count(&Tuple::from([1, 1])), 1);
        assert_eq!(delta.count(&Tuple::from([20, 2])), 0, "filtered by σ");
    }

    #[test]
    fn deletes_filtered_and_subtracted() {
        let i = Relation::empty(ab());
        let d = Relation::from_rows(ab(), [[1, 1], [20, 2]]).unwrap();
        let delta = select_view_delta(&Atom::lt_const("A", 10).into(), &i, &d).unwrap();
        assert_eq!(delta.count(&Tuple::from([1, 1])), -1);
        assert_eq!(delta.count(&Tuple::from([20, 2])), 0);
    }

    #[test]
    fn mixed_maintenance_matches_reevaluation() {
        // v = σ_{A<10}(r); apply i, d; differential must equal re-eval.
        let cond: Condition = Atom::lt_const("A", 10).into();
        let r = Relation::from_rows(ab(), [[1, 1], [2, 2], [15, 3]]).unwrap();
        let i = Relation::from_rows(ab(), [[3, 3], [30, 4]]).unwrap();
        let d = Relation::from_rows(ab(), [[2, 2], [15, 3]]).unwrap();

        let mut v = algebra::select(&r, &cond).unwrap();
        let delta = select_view_delta(&cond, &i, &d).unwrap();
        v.apply_delta(&delta).unwrap();

        let r_new = algebra::difference(&algebra::union(&r, &i).unwrap(), &d).unwrap();
        assert_eq!(v, algebra::select(&r_new, &cond).unwrap());
    }

    #[test]
    fn schema_mismatch_rejected() {
        let i = Relation::empty(ab());
        let d = Relation::empty(Schema::new(["X"]).unwrap());
        assert!(select_view_delta(&Condition::always_true(), &i, &d).is_err());
    }
}
