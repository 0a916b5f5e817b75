//! Selection σ_C.
//!
//! Selection filters tuples by a [`Condition`] and is count- and
//! tag-transparent: a selected tuple keeps its multiplicity counter (§5.2)
//! and its tag (§5.3's unary-operator table). Each scan binds the
//! condition to the operand's scheme once ([`Condition::bind`]) and then
//! evaluates tuples by position.

use crate::error::Result;
use crate::predicate::Condition;
use crate::relation::Relation;
use crate::tagged::TaggedRelation;

/// σ_C over a plain counted relation.
pub fn select(rel: &Relation, cond: &Condition) -> Result<Relation> {
    let cond = cond.bind(rel.schema());
    let mut out = Relation::empty(rel.schema().clone());
    for (t, c) in rel.iter() {
        if cond.eval(t)? {
            out.insert(t.clone(), c)?;
        }
    }
    Ok(out)
}

/// σ_C over a tagged relation (tags pass through unchanged).
pub fn select_tagged(rel: &TaggedRelation, cond: &Condition) -> Result<TaggedRelation> {
    let cond = cond.bind(rel.schema());
    let mut out = TaggedRelation::empty(rel.schema().clone());
    for (t, tag, c) in rel.iter() {
        if cond.eval(t)? {
            out.add(t.clone(), tag.through_unary(), c);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Atom;
    use crate::schema::Schema;
    use crate::tagged::Tag;
    use crate::tuple::Tuple;

    fn ab() -> Schema {
        Schema::new(["A", "B"]).unwrap()
    }

    fn lt10() -> Condition {
        Atom::lt_const("A", 10).into()
    }

    #[test]
    fn select_filters_and_keeps_counts() {
        let r = Relation::from_rows(ab(), [[1, 2], [1, 2], [12, 9]]).unwrap();
        let s = select(&r, &lt10()).unwrap();
        assert_eq!(s.count(&Tuple::from([1, 2])), 2);
        assert!(!s.contains(&Tuple::from([12, 9])));
    }

    #[test]
    fn select_propagates_eval_errors() {
        let r = Relation::from_rows(ab(), [[1, 2]]).unwrap();
        let bad: Condition = Atom::lt_const("Z", 10).into();
        assert!(select(&r, &bad).is_err());
    }

    #[test]
    fn select_tagged_keeps_tags() {
        let mut tr = TaggedRelation::empty(ab());
        tr.add(Tuple::from([1, 2]), Tag::Delete, 2);
        tr.add(Tuple::from([11, 2]), Tag::Insert, 1);
        let s = select_tagged(&tr, &lt10()).unwrap();
        assert_eq!(s.count(&Tuple::from([1, 2]), Tag::Delete), 2);
        assert!(s.count(&Tuple::from([11, 2]), Tag::Insert) == 0);
    }

    #[test]
    fn select_true_is_identity() {
        let r = Relation::from_rows(ab(), [[1, 2], [3, 4]]).unwrap();
        assert_eq!(select(&r, &Condition::always_true()).unwrap(), r);
    }

    #[test]
    fn select_false_is_empty() {
        let r = Relation::from_rows(ab(), [[1, 2]]).unwrap();
        assert!(select(&r, &Condition::always_false()).unwrap().is_empty());
    }
}
