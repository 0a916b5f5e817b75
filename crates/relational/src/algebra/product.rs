//! Cross product ×.
//!
//! The §4 normal form `π_X(σ_C(R₁ × … × R_p))` is built on cross products
//! of relations with *disjoint* schemes. Counters multiply (§5.2's join
//! redefinition restricted to an empty join key).

use crate::algebra::join::mul_counts;
use crate::error::Result;
use crate::relation::Relation;

/// `l × r` over plain counted relations (schemes must be disjoint).
pub fn product(l: &Relation, r: &Relation) -> Result<Relation> {
    let schema = l.schema().product(r.schema())?;
    let mut out = Relation::empty(schema);
    for (lt, lc) in l.iter() {
        for (rt, rc) in r.iter() {
            out.insert(lt.concat(rt), mul_counts(lc, rc)?)?;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::tuple::Tuple;

    fn ab() -> Schema {
        Schema::new(["A", "B"]).unwrap()
    }

    fn cd() -> Schema {
        Schema::new(["C", "D"]).unwrap()
    }

    #[test]
    fn product_concatenates_and_multiplies_counts() {
        let l = Relation::from_rows(ab(), [[1, 2], [1, 2]]).unwrap(); // count 2
        let r = Relation::from_rows(cd(), [[3, 4], [3, 4], [3, 4]]).unwrap(); // count 3
        let p = product(&l, &r).unwrap();
        assert_eq!(p.count(&Tuple::from([1, 2, 3, 4])), 6);
        assert_eq!(p.schema().attrs().len(), 4);
    }

    #[test]
    fn product_rejects_overlapping_schemes() {
        let l = Relation::empty(ab());
        let r = Relation::empty(Schema::new(["B", "C"]).unwrap());
        assert!(product(&l, &r).is_err());
    }

    #[test]
    fn product_with_empty_is_empty() {
        let l = Relation::from_rows(ab(), [[1, 2]]).unwrap();
        let r = Relation::empty(cd());
        assert!(product(&l, &r).unwrap().is_empty());
    }

    #[test]
    fn product_counter_overflow_is_an_error() {
        use crate::error::RelError;
        let mut l = Relation::empty(ab());
        l.insert(Tuple::from([1, 2]), u64::MAX / 2 + 1).unwrap();
        let mut r = Relation::empty(cd());
        r.insert(Tuple::from([3, 4]), 2).unwrap();
        assert!(matches!(
            product(&l, &r).unwrap_err(),
            RelError::CounterOverflow(_)
        ));
    }
}
