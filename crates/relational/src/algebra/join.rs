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
//!
//! The plain and tagged flavours also have a `*_with(l, r, threads, obs)`
//! form that, when the combined operands clear the pool's grain rule
//! ([`Pool::for_work`]), hash-partitions both operands by their join key
//! and joins the partitions on a scoped worker pool. Tuples with equal
//! keys land in the same partition, partitions are therefore key-disjoint,
//! and the output relations are keyed maps — so the merged result is
//! identical to the sequential join for every thread count.

use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};

use ivm_parallel::{Obs, Pool};

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

fn joined_tuple(lt: &Tuple, rt: &Tuple, r_rest: &[usize]) -> Tuple {
    let mut values: Vec<Value> = lt.values().to_vec();
    values.extend(r_rest.iter().map(|&p| rt.at(p).clone()));
    Tuple::from(values)
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
                    emit(joined_tuple(lt, rt, r_rest), lp, rp)?;
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
                    emit(joined_tuple(lt, rt, r_rest), lp, rp)?;
                }
            }
        }
    }
    Ok(())
}

/// Scatter tuples into `parts` buckets by the hash of their join key, so
/// equal keys always share a bucket. With an empty key (cross product)
/// every tuple lands in one bucket and the join stays sequential — which
/// is correct, since a cross product cannot be key-partitioned.
fn partition_by_key<'a, P: Copy>(
    items: &[(&'a Tuple, P)],
    key: &[usize],
    parts: usize,
) -> Vec<Vec<(&'a Tuple, P)>> {
    let mut out: Vec<Vec<(&'a Tuple, P)>> = (0..parts).map(|_| Vec::new()).collect();
    for &(t, p) in items {
        let mut h = DefaultHasher::new();
        key_of(t, key).hash(&mut h);
        out[(h.finish() % parts as u64) as usize].push((t, p));
    }
    out
}

/// Shared skeleton of the two partitioned joins: size the fan-out by the
/// combined operand tuples (the pool's grain rule), fan the key-disjoint
/// partitions out on the pool, and hand each pair of partitions to
/// `join_part` (which returns its locally accumulated output rows for
/// in-order merging). Cross products (empty join key) stay sequential.
fn partitioned<'a, P, R, F>(
    lts: Vec<(&'a Tuple, P)>,
    rts: Vec<(&'a Tuple, P)>,
    l_key: &[usize],
    r_key: &[usize],
    threads: usize,
    obs: &Obs,
    join_part: F,
) -> Result<Vec<Vec<R>>>
where
    P: Copy + Send + Sync,
    R: Send,
    F: Fn(&[(&'a Tuple, P)], &[(&'a Tuple, P)]) -> Result<Vec<R>> + Sync,
{
    let pool = Pool::for_work(threads, lts.len() + rts.len());
    if pool.is_sequential() || l_key.is_empty() {
        return Ok(vec![join_part(&lts, &rts)?]);
    }
    let parts = pool.threads();
    let l_parts = partition_by_key(&lts, l_key, parts);
    let r_parts = partition_by_key(&rts, r_key, parts);
    let pairs: Vec<_> = l_parts.into_iter().zip(r_parts).collect();
    pool.try_map_observed(&pairs, |(lp, rp)| join_part(lp, rp), obs)
}

/// `l ⋈ r` over plain counted relations, fanned out over up to `threads`
/// workers when the operands clear the pool's grain ([`Pool::for_work`]).
/// `threads = 1` is the sequential oracle; `0` means one worker per core.
/// Output is identical at every width; `obs` times the partition chunks.
pub fn natural_join_with(
    l: &Relation,
    r: &Relation,
    threads: usize,
    obs: &Obs,
) -> Result<Relation> {
    let schema = l.schema().join(r.schema());
    let (l_key, r_key, r_rest) = join_key_positions(l.schema(), r.schema())?;
    let lts: Vec<(&Tuple, u64)> = l.iter().collect();
    let rts: Vec<(&Tuple, u64)> = r.iter().collect();
    let chunks = partitioned(lts, rts, &l_key, &r_key, threads, obs, |lp, rp| {
        let mut acc: Vec<(Tuple, u64)> = Vec::new();
        hash_join_slices(lp, rp, &l_key, &r_key, &r_rest, |t, lc, rc| {
            acc.push((t, mul_counts(lc, rc)?));
            Ok(())
        })?;
        Ok(acc)
    })?;
    let mut out = Relation::empty(schema);
    for chunk in chunks {
        for (t, c) in chunk {
            out.insert(t, c)?;
        }
    }
    Ok(out)
}

/// `l ⋈ r` over plain counted relations (sequential form).
pub fn natural_join(l: &Relation, r: &Relation) -> Result<Relation> {
    natural_join_with(l, r, 1, &Obs::disabled())
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
/// `insert ⋈ delete` pairs are dropped. Fanned out like
/// [`natural_join_with`].
pub fn natural_join_tagged_with(
    l: &TaggedRelation,
    r: &TaggedRelation,
    threads: usize,
    obs: &Obs,
) -> Result<TaggedRelation> {
    let schema = l.schema().join(r.schema());
    let (l_key, r_key, r_rest) = join_key_positions(l.schema(), r.schema())?;
    let lts: Vec<(&Tuple, (Tag, u64))> = l.iter().map(|(t, tag, c)| (t, (tag, c))).collect();
    let rts: Vec<(&Tuple, (Tag, u64))> = r.iter().map(|(t, tag, c)| (t, (tag, c))).collect();
    let chunks = partitioned(lts, rts, &l_key, &r_key, threads, obs, |lp, rp| {
        let mut acc: Vec<(Tuple, Tag, u64)> = Vec::new();
        hash_join_slices(
            lp,
            rp,
            &l_key,
            &r_key,
            &r_rest,
            |t, (ltag, lc), (rtag, rc)| {
                if let Some(tag) = ltag.combine(rtag) {
                    acc.push((t, tag, mul_counts(lc, rc)?));
                }
                Ok(())
            },
        )?;
        Ok(acc)
    })?;
    let mut out = TaggedRelation::empty(schema);
    for chunk in chunks {
        for (t, tag, c) in chunk {
            out.add(t, tag, c);
        }
    }
    Ok(out)
}

/// `l ⋈ r` over tagged relations (sequential form).
pub fn natural_join_tagged(l: &TaggedRelation, r: &TaggedRelation) -> Result<TaggedRelation> {
    natural_join_tagged_with(l, r, 1, &Obs::disabled())
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

    /// Build a pair of relations big enough to clear the pool's grain
    /// (4,000 combined tuples: up to three workers), with skewed key
    /// multiplicity so partitions are uneven.
    fn big_pair() -> (Relation, Relation) {
        let mut r = Relation::empty(ab());
        let mut s = Relation::empty(bc());
        for i in 0..2000i64 {
            r.insert(Tuple::from([i, i % 37]), (i % 3 + 1) as u64)
                .unwrap();
            s.insert(Tuple::from([i % 37, i]), (i % 2 + 1) as u64)
                .unwrap();
        }
        (r, s)
    }

    #[test]
    fn partitioned_join_matches_sequential() {
        let off = Obs::disabled();
        let (r, s) = big_pair();
        let seq = natural_join_with(&r, &s, 1, &off).unwrap();
        for threads in [2, 3, 8] {
            assert_eq!(natural_join_with(&r, &s, threads, &off).unwrap(), seq);
        }
        let mut tl = TaggedRelation::empty(ab());
        let mut tr = TaggedRelation::empty(bc());
        for (i, (t, c)) in r.iter().enumerate() {
            let tag = [Tag::Old, Tag::Insert, Tag::Delete][i % 3];
            tl.add(t.clone(), tag, c);
        }
        for (i, (t, c)) in s.iter().enumerate() {
            let tag = [Tag::Insert, Tag::Old][i % 2];
            tr.add(t.clone(), tag, c);
        }
        let seq_t = natural_join_tagged_with(&tl, &tr, 1, &off).unwrap();
        assert_eq!(natural_join_tagged_with(&tl, &tr, 4, &off).unwrap(), seq_t);
    }

    /// Partitioned-join fan-outs recorded at `width`, and the result.
    fn observed_join(r: &Relation, s: &Relation, threads: usize) -> (Relation, u64) {
        let rec = std::sync::Arc::new(ivm_obs::InMemoryRecorder::new());
        let out = natural_join_with(r, s, threads, &Obs::new(rec.clone())).unwrap();
        (out, rec.counter(ivm_obs::names::POOL_CHUNKS))
    }

    #[test]
    fn joins_partition_only_above_the_grain() {
        // Above the grain: the join really fans out, with the result of
        // width 1.
        let (r, s) = big_pair();
        let (seq, seq_chunks) = observed_join(&r, &s, 1);
        assert_eq!(seq_chunks, 0, "width 1 never dispatches");
        for threads in [2, 3, 8] {
            let (par, chunks) = observed_join(&r, &s, threads);
            assert_eq!(par, seq, "threads={threads}");
            assert_eq!(chunks, threads.min(3) as u64, "threads={threads}");
        }
        // The small unit cases stay sequential at every width.
        let (small_r, small_s) = (
            Relation::from_rows(ab(), [[1, 10], [2, 20]]).unwrap(),
            Relation::from_rows(bc(), [[10, 5]]).unwrap(),
        );
        let (small_seq, _) = observed_join(&small_r, &small_s, 1);
        let (small_par, chunks) = observed_join(&small_r, &small_s, 8);
        assert_eq!(small_par, small_seq);
        assert_eq!(chunks, 0, "below the grain nothing is dispatched");
    }

    #[test]
    fn partitioned_cross_product_stays_correct() {
        // Empty join key: cannot be key-partitioned; must still be right.
        let mut r = Relation::empty(ab());
        let mut s = Relation::empty(Schema::new(["C", "D"]).unwrap());
        for i in 0..1200i64 {
            r.insert(Tuple::from([i, i]), 1).unwrap();
            s.insert(Tuple::from([i, -i]), 1).unwrap();
        }
        let off = Obs::disabled();
        let seq = natural_join_with(&r, &s, 1, &off).unwrap();
        assert_eq!(natural_join_with(&r, &s, 4, &off).unwrap(), seq);
    }
}
