//! Natural join ⋈, redefined for counters (§5.2) and tags (§5.3).
//!
//! The counter redefinition: the joined tuple's counter is the *product* of
//! the operand counters (`t(N) = u(N) * v(N)`). The tag of a joined tuple
//! follows the §5.3 combination table; `insert ⋈ delete` combinations are
//! dropped. Implementation is a hash join on the shared attributes — when
//! the schemes share no attribute the join degenerates to a cross product,
//! exactly as in the algebra.
//!
//! Counter products use `checked_mul` throughout and surface
//! [`RelError::CounterOverflow`] instead of wrapping in release builds.

use std::collections::HashMap;

use crate::attribute::AttrName;
use crate::delta::DeltaRelation;
use crate::error::{RelError, Result};
use crate::relation::Relation;
use crate::schema::Schema;
use crate::tagged::{Tag, TaggedRelation};
use crate::tuple::Tuple;
use crate::value::Value;

/// Positions of the shared (join-key) attributes in each operand, plus the
/// positions of the right operand's non-shared attributes (the part
/// appended to the left tuple in the output layout `R ∪ (S − R)`).
///
/// Errors with [`RelError::UnknownAttribute`] if an attribute reported
/// shared by [`Schema::intersection`] cannot be located in one of the
/// operands — a schema-invariant violation rather than a user error, but
/// one the caller can now surface instead of panicking.
pub fn join_key_positions(l: &Schema, r: &Schema) -> Result<(Vec<usize>, Vec<usize>, Vec<usize>)> {
    let shared: Vec<AttrName> = l.intersection(r);
    let position = |s: &Schema, a: &AttrName| {
        s.position(a).ok_or_else(|| RelError::UnknownAttribute {
            attr: a.clone(),
            scheme: format!("{s}"),
        })
    };
    let l_key = shared
        .iter()
        .map(|a| position(l, a))
        .collect::<Result<Vec<usize>>>()?;
    let r_key = shared
        .iter()
        .map(|a| position(r, a))
        .collect::<Result<Vec<usize>>>()?;
    let r_rest = r
        .attrs()
        .iter()
        .enumerate()
        .filter(|(_, a)| !l.contains(a))
        .map(|(i, _)| i)
        .collect();
    Ok((l_key, r_key, r_rest))
}

/// `lc * rc` for §5.2 counters, or [`RelError::CounterOverflow`].
pub(crate) fn mul_counts(lc: u64, rc: u64) -> Result<u64> {
    lc.checked_mul(rc)
        .ok_or_else(|| RelError::CounterOverflow(format!("{lc} * {rc} exceeds u64")))
}

/// `lc * rc` for signed delta counts, or [`RelError::CounterOverflow`].
pub(crate) fn mul_signed(lc: i64, rc: i64) -> Result<i64> {
    lc.checked_mul(rc)
        .ok_or_else(|| RelError::CounterOverflow(format!("{lc} * {rc} exceeds i64")))
}

fn key_of(tuple: &Tuple, positions: &[usize]) -> Vec<Value> {
    positions.iter().map(|&p| tuple.at(p).clone()).collect()
}

/// Hash join over borrowed `(tuple, payload)` slices. The index is always
/// built over the *smaller* side, which matters in the differential engine
/// where a tiny change set routinely joins a large old relation. `emit`
/// receives the joined tuple plus both payloads (counter, signed count, or
/// tag+counter) and owns the combination rule.
fn hash_join_slices<'a, P, F>(
    lts: &[(&'a Tuple, P)],
    rts: &[(&'a Tuple, P)],
    l_key: &[usize],
    r_key: &[usize],
    r_rest: &[usize],
    mut emit: F,
) -> Result<()>
where
    P: Copy,
    F: FnMut(Tuple, P, P) -> Result<()>,
{
    if lts.len() <= rts.len() {
        // Index the left side, probe from the right.
        let mut index: HashMap<Vec<Value>, Vec<(&Tuple, P)>> = HashMap::new();
        for &(lt, lp) in lts {
            index.entry(key_of(lt, l_key)).or_default().push((lt, lp));
        }
        for &(rt, rp) in rts {
            if let Some(matches) = index.get(&key_of(rt, r_key)) {
                for &(lt, lp) in matches {
                    emit(lt.concat_positions(rt, r_rest), lp, rp)?;
                }
            }
        }
    } else {
        let mut index: HashMap<Vec<Value>, Vec<(&Tuple, P)>> = HashMap::new();
        for &(rt, rp) in rts {
            index.entry(key_of(rt, r_key)).or_default().push((rt, rp));
        }
        for &(lt, lp) in lts {
            if let Some(matches) = index.get(&key_of(lt, l_key)) {
                for &(rt, rp) in matches {
                    emit(lt.concat_positions(rt, r_rest), lp, rp)?;
                }
            }
        }
    }
    Ok(())
}

/// `l ⋈ r` over plain counted relations.
pub fn natural_join(l: &Relation, r: &Relation) -> Result<Relation> {
    let (l_key, r_key, r_rest) = join_key_positions(l.schema(), r.schema())?;
    let lts: Vec<(&Tuple, u64)> = l.iter().collect();
    let rts: Vec<(&Tuple, u64)> = r.iter().collect();
    let mut out = Relation::empty(l.schema().join(r.schema()));
    hash_join_slices(&lts, &rts, &l_key, &r_key, &r_rest, |t, lc, rc| {
        out.insert(t, mul_counts(lc, rc)?)
    })?;
    Ok(out)
}

/// `l ⋈ r` over signed deltas (bilinear in the signed counts).
pub fn natural_join_delta(l: &DeltaRelation, r: &DeltaRelation) -> Result<DeltaRelation> {
    let (l_key, r_key, r_rest) = join_key_positions(l.schema(), r.schema())?;
    let lts: Vec<(&Tuple, i64)> = l.iter().collect();
    let rts: Vec<(&Tuple, i64)> = r.iter().collect();
    let mut out = DeltaRelation::empty(l.schema().join(r.schema()));
    hash_join_slices(&lts, &rts, &l_key, &r_key, &r_rest, |t, lc, rc| {
        out.add(t, mul_signed(lc, rc)?);
        Ok(())
    })?;
    Ok(out)
}

/// `l ⋈ r` over tagged relations; tags combine via [`Tag::combine`], and
/// `insert ⋈ delete` pairs are dropped.
pub fn natural_join_tagged(l: &TaggedRelation, r: &TaggedRelation) -> Result<TaggedRelation> {
    let (l_key, r_key, r_rest) = join_key_positions(l.schema(), r.schema())?;
    let lts: Vec<(&Tuple, (Tag, u64))> = l.iter().map(|(t, tag, c)| (t, (tag, c))).collect();
    let rts: Vec<(&Tuple, (Tag, u64))> = r.iter().map(|(t, tag, c)| (t, (tag, c))).collect();
    let mut out = TaggedRelation::empty(l.schema().join(r.schema()));
    hash_join_slices(
        &lts,
        &rts,
        &l_key,
        &r_key,
        &r_rest,
        |t, (ltag, lc), (rtag, rc)| {
            if let Some(tag) = ltag.combine(rtag) {
                out.add(t, tag, mul_counts(lc, rc)?);
            }
            Ok(())
        },
    )?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::{product, union};

    fn ab() -> Schema {
        Schema::new(["A", "B"]).unwrap()
    }

    fn bc() -> Schema {
        Schema::new(["B", "C"]).unwrap()
    }

    #[test]
    fn natural_join_on_shared_attribute() {
        // r = {(1,10), (2,20)}, s = {(10,100), (10,200), (30,300)}
        let r = Relation::from_rows(ab(), [[1, 10], [2, 20]]).unwrap();
        let s = Relation::from_rows(bc(), [[10, 100], [10, 200], [30, 300]]).unwrap();
        let j = natural_join(&r, &s).unwrap();
        assert_eq!(j.schema().attrs(), &["A".into(), "B".into(), "C".into()]);
        assert!(j.contains(&Tuple::from([1, 10, 100])));
        assert!(j.contains(&Tuple::from([1, 10, 200])));
        assert!(!j.contains(&Tuple::from([2, 20, 300])));
        assert_eq!(j.total_count(), 2);
    }

    #[test]
    fn join_counters_multiply() {
        let r = Relation::from_rows(ab(), [[1, 10], [1, 10]]).unwrap(); // x2
        let s = Relation::from_rows(bc(), [[10, 7], [10, 7], [10, 7]]).unwrap(); // x3
        let j = natural_join(&r, &s).unwrap();
        assert_eq!(j.count(&Tuple::from([1, 10, 7])), 6);
    }

    #[test]
    fn disjoint_schemes_degenerate_to_product() {
        let r = Relation::from_rows(ab(), [[1, 2]]).unwrap();
        let s = Relation::from_rows(Schema::new(["C", "D"]).unwrap(), [[3, 4]]).unwrap();
        assert_eq!(natural_join(&r, &s).unwrap(), product(&r, &s).unwrap());
    }

    #[test]
    fn join_distributes_over_union() {
        // (r ∪ i) ⋈ s = (r ⋈ s) ∪ (i ⋈ s) — the §5.3 identity.
        let r = Relation::from_rows(ab(), [[1, 10], [2, 20]]).unwrap();
        let i = Relation::from_rows(ab(), [[3, 10]]).unwrap();
        let s = Relation::from_rows(bc(), [[10, 5], [20, 6]]).unwrap();
        let lhs = natural_join(&union(&r, &i).unwrap(), &s).unwrap();
        let rhs = union(
            &natural_join(&r, &s).unwrap(),
            &natural_join(&i, &s).unwrap(),
        )
        .unwrap();
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn delta_join_is_bilinear() {
        let mut dl = DeltaRelation::empty(ab());
        dl.add(Tuple::from([1, 10]), 2);
        dl.add(Tuple::from([2, 10]), -1);
        let mut dr = DeltaRelation::empty(bc());
        dr.add(Tuple::from([10, 5]), -3);
        let j = natural_join_delta(&dl, &dr).unwrap();
        assert_eq!(j.count(&Tuple::from([1, 10, 5])), -6);
        assert_eq!(j.count(&Tuple::from([2, 10, 5])), 3);
    }

    #[test]
    fn tagged_join_example_54_cases() {
        // Example 5.4's six cases, driven through one tagged join.
        // keep(r)={(1,10)}, d_r={(2,10)}, i_r={(3,10)};
        // keep(s)={(10,100)}, d_s={(10,200)}, i_s={(10,300)}.
        let mut l = TaggedRelation::empty(ab());
        l.add(Tuple::from([1, 10]), Tag::Old, 1);
        l.add(Tuple::from([2, 10]), Tag::Delete, 1);
        l.add(Tuple::from([3, 10]), Tag::Insert, 1);
        let mut r = TaggedRelation::empty(bc());
        r.add(Tuple::from([10, 100]), Tag::Old, 1);
        r.add(Tuple::from([10, 200]), Tag::Delete, 1);
        r.add(Tuple::from([10, 300]), Tag::Insert, 1);
        let j = natural_join_tagged(&l, &r).unwrap();
        // Case 6: old ⋈ old → old.
        assert_eq!(j.count(&Tuple::from([1, 10, 100]), Tag::Old), 1);
        // Case 3: insert ⋈ old → insert.
        assert_eq!(j.count(&Tuple::from([3, 10, 100]), Tag::Insert), 1);
        // Case 1: insert ⋈ insert → insert.
        assert_eq!(j.count(&Tuple::from([3, 10, 300]), Tag::Insert), 1);
        // Case 5: delete ⋈ old → delete.
        assert_eq!(j.count(&Tuple::from([2, 10, 100]), Tag::Delete), 1);
        // Case 4: delete ⋈ delete → delete.
        assert_eq!(j.count(&Tuple::from([2, 10, 200]), Tag::Delete), 1);
        // Case 2: insert ⋈ delete → ignored entirely.
        assert_eq!(j.count(&Tuple::from([3, 10, 200]), Tag::Insert), 0);
        assert_eq!(j.count(&Tuple::from([3, 10, 200]), Tag::Delete), 0);
        assert_eq!(j.count(&Tuple::from([3, 10, 200]), Tag::Old), 0);
        // And old ⋈ insert → insert (symmetric of case 3).
        assert_eq!(j.count(&Tuple::from([1, 10, 300]), Tag::Insert), 1);
    }

    #[test]
    fn join_key_positions_shapes() {
        let (lk, rk, rr) = join_key_positions(&ab(), &bc()).unwrap();
        assert_eq!(lk, vec![1]); // B in {A,B}
        assert_eq!(rk, vec![0]); // B in {B,C}
        assert_eq!(rr, vec![1]); // C appended
    }

    #[test]
    fn counter_overflow_is_an_error_not_a_wrap() {
        // (u64::MAX / 2 + 1) * 2 wraps to 0 in release; must error instead.
        let big = u64::MAX / 2 + 1;
        let mut r = Relation::empty(ab());
        r.insert(Tuple::from([1, 10]), big).unwrap();
        let mut s = Relation::empty(bc());
        s.insert(Tuple::from([10, 100]), 2).unwrap();
        let err = natural_join(&r, &s).unwrap_err();
        assert!(
            matches!(err, RelError::CounterOverflow(_)),
            "expected CounterOverflow, got {err:?}"
        );

        // The signed variant at i64 scale.
        let mut dl = DeltaRelation::empty(ab());
        dl.add(Tuple::from([1, 10]), i64::MAX / 2 + 1);
        let mut dr = DeltaRelation::empty(bc());
        dr.add(Tuple::from([10, 100]), 2);
        let err = natural_join_delta(&dl, &dr).unwrap_err();
        assert!(matches!(err, RelError::CounterOverflow(_)));

        // The tagged variant.
        let mut tl = TaggedRelation::empty(ab());
        tl.add(Tuple::from([1, 10]), Tag::Insert, big);
        let mut tr = TaggedRelation::empty(bc());
        tr.add(Tuple::from([10, 100]), Tag::Old, 2);
        let err = natural_join_tagged(&tl, &tr).unwrap_err();
        assert!(matches!(err, RelError::CounterOverflow(_)));
    }
}
