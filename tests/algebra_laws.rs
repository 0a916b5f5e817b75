//! Property tests for the algebraic identities §5 relies on, under the
//! counted-multiset semantics of §5.2:
//!
//! * ⋈ and σ distribute over ∪ (the differential join expansion, §5.3),
//! * π distributes over − and ∪ (the §5.2 counter redefinition),
//! * ⋈ is commutative/associative up to column order,
//! * ⋈ is bilinear over signed deltas (the tree-view join delta rule),
//! * where tagged and signed joins agree pointwise (all-insert operands)
//!   and where they deliberately do not (mixed tags),
//! * full evaluation that pushes selections below its joins
//!   (`SpjExpr::eval_with`) equals the literal tree `π_X(σ_C(R₁ ⋈ … ⋈ R_p))`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ivm_relational::algebra;
use ivm_relational::prelude::*;

fn random_relation(rng: &mut StdRng, schema: &Schema, size: usize, domain: i64) -> Relation {
    let mut rel = Relation::empty(schema.clone());
    for _ in 0..size {
        let t = Tuple::new((0..schema.arity()).map(|_| rng.gen_range(0..domain)));
        // Random multiplicities 1..=3 exercise the counter arithmetic.
        rel.insert(t, rng.gen_range(1..=3)).unwrap();
    }
    rel
}

/// Operand schemes for a random SPJ expression over `p` operands: with
/// `disjoint` every operand has attributes of its own (the join is a
/// cross product, §4's ×); otherwise each draws from one small pool, so
/// operands share attributes in random patterns (§5.3's ⋈).
fn random_schemes(rng: &mut StdRng, p: usize, disjoint: bool) -> Vec<Schema> {
    (0..p)
        .map(|i| {
            if disjoint {
                let arity = rng.gen_range(1..=2);
                Schema::new((0..arity).map(|j| format!("X{i}_{j}"))).unwrap()
            } else {
                let mut attrs: Vec<&str> = ["A", "B", "C", "D"]
                    .into_iter()
                    .filter(|_| rng.gen_bool(0.5))
                    .collect();
                if attrs.is_empty() {
                    attrs.push(["A", "B", "C", "D"][rng.gen_range(0..4)]);
                }
                Schema::new(attrs).unwrap()
            }
        })
        .collect()
}

/// A random atom over `attrs`: a constant bound, or `x op y + c` between
/// two (possibly equal-operand, possibly cross-operand) attributes.
fn random_atom(rng: &mut StdRng, attrs: &[AttrName], domain: i64) -> Atom {
    let ops = [CompOp::Eq, CompOp::Lt, CompOp::Gt, CompOp::Le, CompOp::Ge];
    let op = ops[rng.gen_range(0..ops.len())];
    let x = attrs[rng.gen_range(0..attrs.len())].clone();
    if rng.gen_bool(0.6) {
        Atom::cmp_const(x, op, rng.gen_range(0..domain))
    } else {
        let y = attrs[rng.gen_range(0..attrs.len())].clone();
        Atom::cmp_attr(x, op, y, rng.gen_range(-1..=1))
    }
}

/// The literal tree `π_X(σ_C(R₁ ⋈ … ⋈ R_p))` of an SPJ expression,
/// evaluated join-first by `Expr::eval`.
fn literal_tree(e: &SpjExpr) -> Expr {
    let mut ops = e.relations.iter().map(|r| Expr::base(r.as_str()));
    let first = ops.next().expect("at least one operand");
    let selected = ops.fold(first, Expr::join).select(e.condition.clone());
    match &e.projection {
        Some(attrs) => selected.project(attrs.iter().cloned()),
        None => selected,
    }
}

fn ab() -> Schema {
    Schema::new(["A", "B"]).unwrap()
}

fn bc() -> Schema {
    Schema::new(["B", "C"]).unwrap()
}

fn cd() -> Schema {
    Schema::new(["C", "D"]).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// (r ∪ i) ⋈ s = (r ⋈ s) ∪ (i ⋈ s) — Example 5.2's derivation.
    #[test]
    fn join_distributes_over_union(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let r = random_relation(&mut rng, &ab(), 12, 5);
        let i = random_relation(&mut rng, &ab(), 4, 5);
        let s = random_relation(&mut rng, &bc(), 12, 5);
        let lhs = algebra::natural_join(&algebra::union(&r, &i).unwrap(), &s).unwrap();
        let rhs = algebra::union(
            &algebra::natural_join(&r, &s).unwrap(),
            &algebra::natural_join(&i, &s).unwrap(),
        )
        .unwrap();
        prop_assert!(lhs == rhs);
    }

    /// σ_C(r ∪ i) = σ_C(r) ∪ σ_C(i) and σ over − (Algorithm 5.1's
    /// distribution of σ over the truth-table union).
    #[test]
    fn select_distributes_over_union_and_difference(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let r = random_relation(&mut rng, &ab(), 15, 6);
        let i = random_relation(&mut rng, &ab(), 6, 6);
        let cond: Condition = Atom::lt_const("A", 3).into();
        let lhs = algebra::select(&algebra::union(&r, &i).unwrap(), &cond).unwrap();
        let rhs = algebra::union(
            &algebra::select(&r, &cond).unwrap(),
            &algebra::select(&i, &cond).unwrap(),
        )
        .unwrap();
        prop_assert!(lhs == rhs);

        // Difference: r ∪ i minus i gives back r, through σ.
        let whole = algebra::union(&r, &i).unwrap();
        let lhs = algebra::select(&algebra::difference(&whole, &i).unwrap(), &cond).unwrap();
        let rhs = algebra::difference(
            &algebra::select(&whole, &cond).unwrap(),
            &algebra::select(&i, &cond).unwrap(),
        )
        .unwrap();
        prop_assert!(lhs == rhs);
    }

    /// π_X(r₁ − r₂) = π_X(r₁) − π_X(r₂) under counters (§5.2), and the
    /// same over ∪.
    #[test]
    fn project_distributes_over_difference_and_union(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let sub = random_relation(&mut rng, &ab(), 6, 4);
        let rest = random_relation(&mut rng, &ab(), 10, 4);
        let whole = algebra::union(&sub, &rest).unwrap();
        let attrs: Vec<AttrName> = vec!["B".into()];

        let lhs = algebra::project(&algebra::difference(&whole, &sub).unwrap(), &attrs).unwrap();
        let rhs = algebra::difference(
            &algebra::project(&whole, &attrs).unwrap(),
            &algebra::project(&sub, &attrs).unwrap(),
        )
        .unwrap();
        prop_assert!(lhs == rhs);

        let lhs = algebra::project(&algebra::union(&sub, &rest).unwrap(), &attrs).unwrap();
        let rhs = algebra::union(
            &algebra::project(&sub, &attrs).unwrap(),
            &algebra::project(&rest, &attrs).unwrap(),
        )
        .unwrap();
        prop_assert!(lhs == rhs);
    }

    /// r ⋈ s = π_canonical(s ⋈ r): commutative up to column order.
    #[test]
    fn join_commutative_up_to_column_order(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let r = random_relation(&mut rng, &ab(), 10, 5);
        let s = random_relation(&mut rng, &bc(), 10, 5);
        let rs = algebra::natural_join(&r, &s).unwrap();
        let sr = algebra::natural_join(&s, &r).unwrap();
        let fixed = algebra::project(&sr, rs.schema().attrs()).unwrap();
        prop_assert!(rs == fixed);
    }

    /// (r ⋈ s) ⋈ t = r ⋈ (s ⋈ t) on a chain (same column order).
    #[test]
    fn join_associative(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let r = random_relation(&mut rng, &ab(), 8, 4);
        let s = random_relation(&mut rng, &bc(), 8, 4);
        let t = random_relation(&mut rng, &cd(), 8, 4);
        let left = algebra::natural_join(&algebra::natural_join(&r, &s).unwrap(), &t).unwrap();
        let right = algebra::natural_join(&r, &algebra::natural_join(&s, &t).unwrap()).unwrap();
        prop_assert!(left == right);
    }

    /// Δ(l) ⋈ (Δa + Δb) = Δ(l) ⋈ Δa + Δ(l) ⋈ Δb — bilinearity of the
    /// signed join, the identity behind the tree-view `Δ(l ⋈ r)` rule.
    #[test]
    fn delta_join_bilinear(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let make_delta = |rng: &mut StdRng, schema: &Schema| {
            let mut d = DeltaRelation::empty(schema.clone());
            for _ in 0..8 {
                let t = Tuple::new((0..schema.arity()).map(|_| rng.gen_range(0..4i64)));
                d.add(t, rng.gen_range(-2..=2));
            }
            d
        };
        let l = make_delta(&mut rng, &ab());
        let a = make_delta(&mut rng, &bc());
        let b = make_delta(&mut rng, &bc());
        let mut sum = a.clone();
        sum.merge(&b).unwrap();
        let lhs = algebra::natural_join_delta(&l, &sum).unwrap();
        let mut rhs = algebra::natural_join_delta(&l, &a).unwrap();
        rhs.merge(&algebra::natural_join_delta(&l, &b).unwrap()).unwrap();
        prop_assert!(lhs == rhs);
    }

    /// For all-insert operands the tagged join collapses exactly to the
    /// signed join. (Mixed tags deliberately do NOT collapse pointwise:
    /// `insert ⋈ delete` is *ignored* by tags but `−` in signed
    /// inclusion–exclusion, and `delete ⋈ delete` is `−` vs `+`; a signed
    /// pipeline would compensate through different `B = 0` operands and
    /// agree with the tagged one only in totals — see
    /// `tag_vs_signed_local_discrepancy`.)
    #[test]
    fn tagged_join_collapses_to_signed_join_for_inserts(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let make_inserts = |rng: &mut StdRng, schema: &Schema| {
            let mut t = TaggedRelation::empty(schema.clone());
            for _ in 0..8 {
                let tup = Tuple::new((0..schema.arity()).map(|_| rng.gen_range(0..4i64)));
                t.add(tup, Tag::Insert, rng.gen_range(1..=2));
            }
            t
        };
        let l = make_inserts(&mut rng, &ab());
        let r = make_inserts(&mut rng, &bc());
        let tagged = algebra::natural_join_tagged(&l, &r).unwrap().to_delta().unwrap();
        let signed = algebra::natural_join_delta(&l.to_delta().unwrap(), &r.to_delta().unwrap())
            .unwrap();
        prop_assert!(tagged == signed);
    }

    /// Cross product with disjoint schemes equals natural join; counters
    /// multiply.
    #[test]
    fn product_is_join_on_disjoint_schemes(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let r = random_relation(&mut rng, &ab(), 6, 4);
        let t = random_relation(&mut rng, &cd(), 6, 4);
        prop_assert!(
            algebra::product(&r, &t).unwrap() == algebra::natural_join(&r, &t).unwrap()
        );
    }

    /// Union and difference are inverse: (r ∪ s) − s = r.
    #[test]
    fn union_difference_roundtrip_prop(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let r = random_relation(&mut rng, &ab(), 10, 5);
        let s = random_relation(&mut rng, &ab(), 10, 5);
        let back = algebra::difference(&algebra::union(&r, &s).unwrap(), &s).unwrap();
        prop_assert!(back == r);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Full evaluation with selections pushed below the joins equals the
    /// literal join-then-select tree, on random 1–4-operand expressions:
    /// disjoint (×) and overlapping (⋈) schemes, bounds on shared
    /// attributes (pushed to both sides), cross-operand `x op y + c` atoms
    /// (kept in the residual), multi-disjunct DNF (nothing pushed),
    /// counters above 1, and empty operands.
    #[test]
    fn pushed_eval_equals_literal_tree(
        seed in any::<u64>(),
        p in 1..=4usize,
        disjoint in any::<bool>(),
        disjuncts in 1..=3usize,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let domain = 4;
        let schemes = random_schemes(&mut rng, p, disjoint);
        let mut db = Database::new();
        let mut names = Vec::new();
        for (i, schema) in schemes.iter().enumerate() {
            // One operand in six is empty.
            let size = if rng.gen_range(0..6) == 0 { 0 } else { rng.gen_range(1..=8) };
            let name = format!("R{i}");
            db.adopt(name.clone(), random_relation(&mut rng, schema, size, domain)).unwrap();
            names.push(name);
        }
        let refs: Vec<&Schema> = schemes.iter().collect();
        let joined = SpjExpr::new(names.clone(), Condition::always_true(), None)
            .join_schema_with(&refs)
            .unwrap();
        let attrs = joined.attrs();
        let condition = Condition::dnf((0..disjuncts).map(|_| {
            let n = rng.gen_range(0..=3);
            Conjunction::new((0..n).map(|_| random_atom(&mut rng, attrs, domain)))
        }));
        let projection = rng.gen_bool(0.5).then(|| {
            let mut keep: Vec<AttrName> =
                attrs.iter().filter(|_| rng.gen_bool(0.5)).cloned().collect();
            if keep.is_empty() {
                keep.push(attrs[0].clone());
            }
            keep
        });
        let e = SpjExpr::new(names, condition, projection);
        let literal = literal_tree(&e).eval(&db).unwrap();
        let pushed = e.eval(&db).unwrap();
        prop_assert!(pushed == literal, "{e}\npushed {pushed}\nliteral {literal}");
        prop_assert_eq!(pushed.schema(), literal.schema());
    }
}

/// What the pushed evaluation does with bad data on an operand tuple that
/// joins with nothing. A pushed atom is evaluated while its operand is
/// scanned, before any join, so a string value there raises `TypeError`
/// even though the tuple would never reach a joined row; the literal
/// join-first tree never looks at it. The differential engine's pushdown
/// behaves the same way. An atom naming an attribute that no operand has
/// cannot be pushed: it stays in the residual and, as before, fails only
/// when some joined row reaches it.
#[test]
fn pushed_eval_on_tuples_that_never_join() {
    let mut db = Database::new();
    db.create("R", Schema::new(["A", "B"]).unwrap()).unwrap();
    db.create("S", Schema::new(["B", "C"]).unwrap()).unwrap();
    db.load(
        "R",
        [
            Tuple::from([1, 10]),
            Tuple::new([Value::str("x"), Value::Int(99)]),
        ],
    )
    .unwrap();
    db.load("S", [[10, 5]]).unwrap();

    // (x, 99) finds no S partner; A < 5 is pushed onto R and sees it.
    let pushed = SpjExpr::new(["R", "S"], Atom::lt_const("A", 5).into(), None);
    let literal = literal_tree(&pushed);
    assert_eq!(literal.eval(&db).unwrap().total_count(), 1);
    assert!(matches!(
        pushed.eval(&db).unwrap_err(),
        RelError::TypeError(_)
    ));

    // Z is in neither operand: residual, evaluated only on joined rows.
    let unknown = SpjExpr::new(["R", "S"], Atom::lt_const("Z", 5).into(), None);
    assert!(matches!(
        unknown.eval(&db).unwrap_err(),
        RelError::UnknownAttribute { .. }
    ));
    let none_join = SpjExpr::new(
        ["R", "S"],
        Condition::conjunction([Atom::lt_const("C", 0), Atom::lt_const("Z", 5)]),
        None,
    );
    // C < 0 empties S before the join, so no row reaches Z < 5.
    assert!(none_join.eval(&db).unwrap().is_empty());
    assert!(literal_tree(&none_join).eval(&db).unwrap().is_empty());
}

/// Documents the deliberate local discrepancy between tags and signed
/// counts: pointwise, tagged `delete ⋈ delete` yields a deletion while
/// signed `(−)·(−)` yields an insertion — yet the tagged engine, whose
/// `B = 0` operands are the surviving `r − d`, still produces exactly the
/// full re-evaluation delta. A signed-count pipeline would need the full
/// old relation there instead, which is why the two can only be compared
/// end-to-end, never join-by-join.
#[test]
fn tag_vs_signed_local_discrepancy() {
    let ab = Schema::new(["A", "B"]).unwrap();
    let bc = Schema::new(["B", "C"]).unwrap();

    // One deleted tuple on each side, matching join keys.
    let mut l = TaggedRelation::empty(ab.clone());
    l.add(Tuple::from([1, 10]), Tag::Delete, 1);
    let mut r = TaggedRelation::empty(bc.clone());
    r.add(Tuple::from([10, 7]), Tag::Delete, 1);

    let tagged = algebra::natural_join_tagged(&l, &r)
        .unwrap()
        .to_delta()
        .unwrap();
    assert_eq!(
        tagged.count(&Tuple::from([1, 10, 7])),
        -1,
        "tags: deleted once"
    );

    let signed =
        algebra::natural_join_delta(&l.to_delta().unwrap(), &r.to_delta().unwrap()).unwrap();
    assert_eq!(
        signed.count(&Tuple::from([1, 10, 7])),
        1,
        "signed: (−1)·(−1) = +1"
    );

    // And yet the engine is exact end-to-end on exactly this scenario.
    use ivm::differential::{differential_delta, DiffOptions};
    let mut db = Database::new();
    db.create("R", ab).unwrap();
    db.create("S", bc).unwrap();
    db.load("R", [[1, 10]]).unwrap();
    db.load("S", [[10, 7]]).unwrap();
    let view = SpjExpr::new(["R", "S"], Condition::always_true(), None);
    let mut txn = Transaction::new();
    txn.delete("R", [1, 10]).unwrap();
    txn.delete("S", [10, 7]).unwrap();
    let t = differential_delta(&view, &db, &txn, &DiffOptions::default()).unwrap();
    let mut db_after = db.clone();
    db_after.apply(&txn).unwrap();
    let full =
        ivm::full_reval::recompute_delta(&view, &db_after, &view.eval(&db).unwrap()).unwrap();
    assert_eq!(t.delta, full);
    assert_eq!(t.delta.count(&Tuple::from([1, 10, 7])), -1);
}
