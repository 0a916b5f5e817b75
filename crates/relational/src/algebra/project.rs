//! Projection π_X, redefined with multiplicity counters (§5.2).
//!
//! Example 5.1 of the paper shows why set-semantics projection breaks
//! differential maintenance: π does not distribute over difference. The fix
//! (the paper's alternative 1) attaches a counter `N` to every view tuple
//! and redefines π so that collapsing tuples *sum* their counters:
//!
//! > π_X(r) = { t(X′) | X′ = X ∪ {N} and ∃u ∈ r (u(X) = t(X) ∧
//! >            t(N) = Σ_{w∈r, w(X)=t(X)} w(N)) }
//!
//! With that redefinition `π_X(r₁ − r₂) = π_X(r₁) − π_X(r₂)` holds, which
//! `ivm::differential::project` relies on (and which our property tests
//! check).

use crate::attribute::AttrName;
use crate::error::Result;
use crate::relation::Relation;
use crate::schema::Schema;
use crate::tagged::TaggedRelation;
use crate::tuple::projection_positions;

fn target_schema(from: &Schema, attrs: &[AttrName]) -> Result<Schema> {
    from.project(attrs.iter())
}

/// π_X over a plain counted relation: counters of collapsing tuples add up.
pub fn project(rel: &Relation, attrs: &[AttrName]) -> Result<Relation> {
    let onto = target_schema(rel.schema(), attrs)?;
    let pos = projection_positions(rel.schema(), &onto)?;
    let mut out = Relation::empty(onto);
    for (t, c) in rel.iter() {
        out.insert(t.project_positions(&pos), c)?;
    }
    Ok(out)
}

/// π_X over a tagged relation: tuples collapse *per tag* (§5.3 — a unary
/// operator preserves the operand's tag), counters add within each tag.
pub fn project_tagged(rel: &TaggedRelation, attrs: &[AttrName]) -> Result<TaggedRelation> {
    let onto = target_schema(rel.schema(), attrs)?;
    let pos = projection_positions(rel.schema(), &onto)?;
    let mut out = TaggedRelation::empty(onto);
    for (t, tag, c) in rel.iter() {
        out.add(t.project_positions(&pos), tag.through_unary(), c);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::setops::difference;
    use crate::tagged::Tag;
    use crate::tuple::Tuple;

    fn ab() -> Schema {
        Schema::new(["A", "B"]).unwrap()
    }

    fn b() -> Vec<AttrName> {
        vec!["B".into()]
    }

    #[test]
    fn counters_sum_on_collapse() {
        // Example 5.1's relation: {(1,10), (2,10), (3,20)}.
        let r = Relation::from_rows(ab(), [[1, 10], [2, 10], [3, 20]]).unwrap();
        let v = project(&r, &b()).unwrap();
        assert_eq!(v.count(&Tuple::from([10])), 2);
        assert_eq!(v.count(&Tuple::from([20])), 1);
    }

    #[test]
    fn example_51_delete_with_counters() {
        // delete(R, {(1,10)}) must leave 10 in the view (count 2 → 1).
        let r = Relation::from_rows(ab(), [[1, 10], [2, 10], [3, 20]]).unwrap();
        let d = Relation::from_rows(ab(), [[1, 10]]).unwrap();
        let v_before = project(&r, &b()).unwrap();
        let v_delta = project(&d, &b()).unwrap();
        let v_after = difference(&v_before, &v_delta).unwrap();
        assert_eq!(v_after.count(&Tuple::from([10])), 1);
        assert_eq!(v_after.count(&Tuple::from([20])), 1);
    }

    #[test]
    fn distributes_over_difference_with_counters() {
        // π_X(r1 − r2) = π_X(r1) − π_X(r2) under counted semantics.
        let r1 = Relation::from_rows(ab(), [[1, 10], [2, 10], [3, 20], [4, 20]]).unwrap();
        let r2 = Relation::from_rows(ab(), [[2, 10], [3, 20]]).unwrap();
        let lhs = project(&difference(&r1, &r2).unwrap(), &b()).unwrap();
        let rhs = difference(&project(&r1, &b()).unwrap(), &project(&r2, &b()).unwrap()).unwrap();
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn projection_onto_unknown_attr_fails() {
        let r = Relation::from_rows(ab(), [[1, 10]]).unwrap();
        assert!(project(&r, &["Z".into()]).is_err());
    }

    #[test]
    fn projection_reorders() {
        let r = Relation::from_rows(ab(), [[1, 10]]).unwrap();
        let v = project(&r, &["B".into(), "A".into()]).unwrap();
        assert!(v.contains(&Tuple::from([10, 1])));
    }

    #[test]
    fn tagged_projection_separates_tags() {
        let mut tr = TaggedRelation::empty(ab());
        tr.add(Tuple::from([1, 10]), Tag::Insert, 1);
        tr.add(Tuple::from([2, 10]), Tag::Delete, 1);
        tr.add(Tuple::from([3, 10]), Tag::Insert, 1);
        let p = project_tagged(&tr, &b()).unwrap();
        assert_eq!(p.count(&Tuple::from([10]), Tag::Insert), 2);
        assert_eq!(p.count(&Tuple::from([10]), Tag::Delete), 1);
    }

    #[test]
    fn project_all_attrs_is_identity_on_counts() {
        let r = Relation::from_rows(ab(), [[1, 10], [1, 10]]).unwrap();
        let v = project(&r, &["A".into(), "B".into()]).unwrap();
        assert_eq!(v, r);
    }
}
