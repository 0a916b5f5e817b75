//! Differential maintenance of project views (§5.2).
//!
//! Example 5.1 shows the problem: with set semantics, deleting `(1,10)`
//! from `r` must *not* delete `10` from `π_B(r)` because `(2,10)` still
//! contributes it — π does not distribute over difference. The paper's
//! alternative (1) attaches a multiplicity counter to every view tuple;
//! under the redefined counted π the identity
//! `π_X(r₁ − r₂) = π_X(r₁) − π_X(r₂)` holds and the maintenance delta is
//! simply `+π_X(σ_C(i_r)) − π_X(σ_C(d_r))`, with the view tuple vanishing
//! only when its counter reaches zero.
//!
//! Reference code, not on the maintenance path: `ViewManager` maintains
//! project views through the general engine ([`crate::differential::spj`]).
//! This module states §5.2 in the paper's form for the `project_view`
//! bench and the paper-example tests.

use ivm_relational::algebra;
use ivm_relational::attribute::AttrName;
use ivm_relational::delta::DeltaRelation;
use ivm_relational::predicate::Condition;
use ivm_relational::relation::Relation;

use crate::error::Result;

/// Compute the §5.2 delta `+π_X(σ_C(i_r)) − π_X(σ_C(d_r))` for a
/// (select-)project view. Pass [`Condition::always_true`] for a pure
/// projection.
pub fn project_view_delta(
    attrs: &[AttrName],
    cond: &Condition,
    inserts: &Relation,
    deletes: &Relation,
) -> Result<DeltaRelation> {
    inserts.schema().require_same(deletes.schema())?;
    let ins = algebra::project(&algebra::select(inserts, cond)?, attrs)?;
    let del = algebra::project(&algebra::select(deletes, cond)?, attrs)?;
    let mut delta = ins.to_delta();
    for (t, c) in del.iter() {
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

    fn b() -> Vec<AttrName> {
        vec!["B".into()]
    }

    /// Example 5.1's relation and the two delete scenarios.
    #[test]
    fn example_51_counter_semantics() {
        let r = Relation::from_rows(ab(), [[1, 10], [2, 10], [3, 20]]).unwrap();
        let mut v = algebra::project(&r, &b()).unwrap();
        assert_eq!(v.count(&Tuple::from([10])), 2);

        // delete(R, {(3,20)}): 20 leaves the view.
        let d = Relation::from_rows(ab(), [[3, 20]]).unwrap();
        let delta = project_view_delta(&b(), &Condition::always_true(), &Relation::empty(ab()), &d)
            .unwrap();
        v.apply_delta(&delta).unwrap();
        assert!(!v.contains(&Tuple::from([20])));

        // delete(R, {(1,10)}): 10 must *stay* (counter 2 → 1).
        let d = Relation::from_rows(ab(), [[1, 10]]).unwrap();
        let delta = project_view_delta(&b(), &Condition::always_true(), &Relation::empty(ab()), &d)
            .unwrap();
        v.apply_delta(&delta).unwrap();
        assert_eq!(v.count(&Tuple::from([10])), 1);
    }

    #[test]
    fn inserts_bump_counters() {
        let r = Relation::from_rows(ab(), [[1, 10]]).unwrap();
        let mut v = algebra::project(&r, &b()).unwrap();
        let i = Relation::from_rows(ab(), [[5, 10], [6, 30]]).unwrap();
        let delta = project_view_delta(&b(), &Condition::always_true(), &i, &Relation::empty(ab()))
            .unwrap();
        v.apply_delta(&delta).unwrap();
        assert_eq!(v.count(&Tuple::from([10])), 2);
        assert_eq!(v.count(&Tuple::from([30])), 1);
    }

    #[test]
    fn selection_composes_with_projection() {
        // V = π_B(σ_{A<10}(R)).
        let cond: Condition = Atom::lt_const("A", 10).into();
        let r = Relation::from_rows(ab(), [[1, 10], [11, 10]]).unwrap();
        let mut v = algebra::project(&algebra::select(&r, &cond).unwrap(), &b()).unwrap();
        assert_eq!(v.count(&Tuple::from([10])), 1);
        // Insert (12, 10): filtered by σ, view unchanged.
        let i = Relation::from_rows(ab(), [[12, 10]]).unwrap();
        let delta = project_view_delta(&b(), &cond, &i, &Relation::empty(ab())).unwrap();
        assert!(delta.is_empty());
        // Delete (11, 10): also filtered (was never visible).
        let d = Relation::from_rows(ab(), [[11, 10]]).unwrap();
        let delta = project_view_delta(&b(), &cond, &Relation::empty(ab()), &d).unwrap();
        assert!(delta.is_empty());
        // Delete (1, 10): visible — view loses its only tuple.
        let d = Relation::from_rows(ab(), [[1, 10]]).unwrap();
        let delta = project_view_delta(&b(), &cond, &Relation::empty(ab()), &d).unwrap();
        v.apply_delta(&delta).unwrap();
        assert!(v.is_empty());
    }

    #[test]
    fn insert_and_delete_collapsing_to_same_view_tuple() {
        // i = (7,10), d = (1,10): both project to (10); net zero.
        let i = Relation::from_rows(ab(), [[7, 10]]).unwrap();
        let d = Relation::from_rows(ab(), [[1, 10]]).unwrap();
        let delta = project_view_delta(&b(), &Condition::always_true(), &i, &d).unwrap();
        assert!(delta.is_empty());
    }
}
