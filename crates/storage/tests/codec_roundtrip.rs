//! Property tests: every `Codec` implementation must round-trip
//! (`decode(encode(x)) == x`) for arbitrary values, and decoding must
//! reject trailing garbage.

use ivm_relational::predicate::Atom;
use ivm_relational::prelude::*;
use ivm_storage::{Codec, StorageError};
use proptest::prelude::*;
use proptest::strategy::TestRng;

// ---------------------------------------------------------------------------
// Strategies for relational values.
// ---------------------------------------------------------------------------

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        "[a-z0-9]{0,12}".prop_map(Value::str),
    ]
}

fn tuple_strategy(arity: usize) -> impl Strategy<Value = Tuple> {
    prop::collection::vec(value_strategy(), arity..arity + 1).prop_map(Tuple::new)
}

/// A two-attribute schema plus tuples of matching arity and positive
/// multiplicities — i.e. an arbitrary well-formed counted relation.
fn relation_strategy() -> impl Strategy<Value = Relation> {
    prop::collection::vec((tuple_strategy(2), 1u64..5), 0..12).prop_map(|rows| {
        let mut rel = Relation::empty(Schema::new(["A", "B"]).unwrap());
        for (tuple, count) in rows {
            rel.insert(tuple, count).unwrap();
        }
        rel
    })
}

/// An arbitrary signed delta over a two-attribute schema (zero counts
/// cancel and drop out, as they do in the engine).
fn delta_strategy() -> impl Strategy<Value = DeltaRelation> {
    prop::collection::vec((tuple_strategy(2), -4i64..5), 0..12).prop_map(|rows| {
        let mut delta = DeltaRelation::empty(Schema::new(["A", "B"]).unwrap());
        for (tuple, count) in rows {
            delta.add(tuple, count);
        }
        delta
    })
}

/// The row section of a `Relation`/`Delta` encoding built the way the
/// codec first did it: from the owned `sorted()` copies. The encoders now
/// sort borrowed tuples; WAL, checkpoint and wire bytes must not move.
fn reference_rows<C: Copy + Into<i128>>(schema: &Schema, rows: Vec<(Tuple, C)>) -> Vec<u8> {
    let mut out = Vec::new();
    schema.encode_into(&mut out);
    out.extend_from_slice(&(rows.len() as u64).to_le_bytes());
    for (tuple, count) in rows {
        tuple.encode_into(&mut out);
        // Both count types are 8 bytes little-endian on the wire.
        out.extend_from_slice(&(count.into() as i64).to_le_bytes());
    }
    out
}

fn transaction_strategy() -> impl Strategy<Value = Transaction> {
    prop::collection::vec((0u8..2, 0u8..2, tuple_strategy(2)), 0..16).prop_map(|ops| {
        let mut txn = Transaction::new();
        for (rel_pick, op, tuple) in ops {
            let rel = if rel_pick == 0 { "R" } else { "S" };
            if op == 0 {
                txn.insert(rel, tuple).unwrap();
            } else {
                txn.delete(rel, tuple).unwrap();
            }
        }
        txn
    })
}

// ---------------------------------------------------------------------------
// Round-trip properties.
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn value_roundtrip(v in value_strategy()) {
        prop_assert_eq!(Value::decode(&v.encode()).unwrap(), v);
    }

    #[test]
    fn tuple_roundtrip(t in tuple_strategy(3)) {
        prop_assert_eq!(Tuple::decode(&t.encode()).unwrap(), t);
    }

    #[test]
    fn relation_roundtrip(r in relation_strategy()) {
        let back = Relation::decode(&r.encode()).unwrap();
        prop_assert_eq!(back.schema(), r.schema());
        prop_assert_eq!(back.sorted(), r.sorted());
    }

    #[test]
    fn relation_bytes_match_the_sorted_reference(r in relation_strategy()) {
        prop_assert_eq!(r.encode(), reference_rows(r.schema(), r.sorted()));
    }

    #[test]
    fn delta_bytes_match_the_sorted_reference(d in delta_strategy()) {
        prop_assert_eq!(d.encode(), reference_rows(d.schema(), d.sorted()));
        prop_assert_eq!(DeltaRelation::decode(&d.encode()).unwrap(), d);
    }

    #[test]
    fn transaction_roundtrip(t in transaction_strategy()) {
        // Transaction equality is net-effect equality, which is exactly
        // what the codec preserves (it serializes net insert/delete sets).
        prop_assert_eq!(Transaction::decode(&t.encode()).unwrap(), t);
    }

    #[test]
    fn decode_rejects_trailing_bytes(v in value_strategy(), extra in 1usize..8) {
        let mut bytes = v.encode();
        bytes.resize(bytes.len() + extra, 0u8);
        prop_assert!(matches!(
            Value::decode(&bytes),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn truncated_value_never_panics(v in value_strategy(), cut in 0usize..64) {
        let bytes = v.encode();
        prop_assume!(cut < bytes.len());
        // Any prefix must produce a typed error, not a panic.
        prop_assert!(Value::decode(&bytes[..cut]).is_err());
    }
}

// Expression round-trips use handwritten cases: the interesting structure
// (nesting, operator mix) is small and enumerable.
#[test]
fn spj_expr_roundtrip() {
    let exprs = [
        SpjExpr::new(["R"], Atom::lt_const("A", 10).into(), None),
        SpjExpr::new(
            ["R", "S"],
            Atom::lt_const("A", 10).into(),
            Some(vec!["A".into(), "C".into()]),
        ),
    ];
    for e in exprs {
        assert_eq!(SpjExpr::decode(&e.encode()).unwrap(), e);
    }
}

#[test]
fn tree_expr_roundtrip() {
    let base = |n: &str| Expr::base(n);
    let exprs = [
        base("R"),
        Expr::union(base("R"), base("S")),
        base("R")
            .join(base("S"))
            .select(Condition::from(Atom::lt_const("A", 10)))
            .project(["A"])
            .difference(base("T")),
    ];
    for e in exprs {
        assert_eq!(Expr::decode(&e.encode()).unwrap(), e);
    }
}

/// The per-test deterministic RNG plumbing is part of the vendored stub;
/// make sure two different tests see different sequences (guards against a
/// stub regression silently collapsing coverage).
#[test]
fn stub_rngs_differ_per_test() {
    use rand::Rng;
    let mut a: TestRng = proptest::strategy::rng_for_test("alpha");
    let mut b: TestRng = proptest::strategy::rng_for_test("beta");
    let xs: Vec<u64> = (0..4).map(|_| a.gen()).collect();
    let ys: Vec<u64> = (0..4).map(|_| b.gen()).collect();
    assert_ne!(xs, ys);
}
