//! Edge-case hardening: extreme constants (saturation), empty relations,
//! degenerate schemas, deep conditions, and boundary behaviors across the
//! whole stack.

use ivm::prelude::*;
use ivm_relational::algebra;
use ivm_satisfiability::atom::{Atom as SatAtom, Op};
use ivm_satisfiability::conjunctive::{ConjunctiveFormula, Solver};

#[test]
fn satisfiability_with_extreme_constants_saturates() {
    // x0 ≤ i64::MIN and x0 ≥ i64::MAX: unsatisfiable without overflow UB.
    let f = ConjunctiveFormula::with_atoms(
        1,
        [
            SatAtom::var_const(0, Op::Le, i64::MIN),
            SatAtom::var_const(0, Op::Ge, i64::MAX),
        ],
    )
    .unwrap();
    assert!(!f.is_satisfiable(Solver::FloydWarshall));
    assert!(!f.is_satisfiable(Solver::BellmanFord));

    // A single extreme bound stays satisfiable.
    let f = ConjunctiveFormula::with_atoms(1, [SatAtom::var_const(0, Op::Le, i64::MAX)]).unwrap();
    assert!(f.is_satisfiable(Solver::FloydWarshall));

    // Strict inequality at the domain edge: x0 < i64::MIN normalizes with
    // saturating −1 and must not wrap into "≤ i64::MAX".
    let f = ConjunctiveFormula::with_atoms(1, [SatAtom::var_const(0, Op::Lt, i64::MIN)]).unwrap();
    // Saturation makes the bound i64::MIN itself — a conservative
    // (satisfiable) approximation rather than a wrap-around; the check
    // is that nothing panics and FW/BF agree.
    assert_eq!(
        f.is_satisfiable(Solver::FloydWarshall),
        f.is_satisfiable(Solver::BellmanFord)
    );
}

#[test]
fn substitution_with_extreme_values() {
    // (A = B) with A := i64::MAX then checking B: no overflow.
    let f = ConjunctiveFormula::with_atoms(2, [SatAtom::var_var(0, Op::Eq, 1, 0)]).unwrap();
    let sub = f.substitute(&[(0, i64::MAX)]);
    assert!(sub.is_satisfiable(Solver::FloydWarshall));
    let sub2 = sub.substitute(&[(1, i64::MIN)]);
    assert!(!sub2.is_satisfiable(Solver::FloydWarshall));
}

#[test]
fn empty_relations_through_the_whole_pipeline() {
    let mut db = Database::new();
    db.create("R", Schema::new(["A", "B"]).unwrap()).unwrap();
    db.create("S", Schema::new(["B", "C"]).unwrap()).unwrap();
    // Both relations empty; view over them.
    let view = SpjExpr::new(["R", "S"], Atom::lt_const("A", 10).into(), None);
    assert!(view.eval(&db).unwrap().is_empty());

    // Insert into one empty relation: differential still correct.
    let mut txn = Transaction::new();
    txn.insert("R", [1, 10]).unwrap();
    let r = differential_delta(&view, &db, &txn, &DiffOptions::default()).unwrap();
    assert!(r.delta.is_empty(), "no join partner in empty S");
    let mut db2 = db.clone();
    db2.apply(&txn).unwrap();
    assert!(view.eval(&db2).unwrap().is_empty());
}

#[test]
fn single_attribute_and_wide_schemas() {
    // 1-attribute relation.
    let mut db = Database::new();
    db.create("N", Schema::new(["X"]).unwrap()).unwrap();
    db.load("N", [[1], [2], [3]]).unwrap();
    let view = SpjExpr::new(["N"], Atom::gt_const("X", 1).into(), None);
    assert_eq!(view.eval(&db).unwrap().total_count(), 2);

    // 16-attribute relation round-trips through σ/π.
    let attrs: Vec<String> = (0..16).map(|i| format!("C{i}")).collect();
    let mut db = Database::new();
    db.create("W", Schema::new(attrs.clone()).unwrap()).unwrap();
    db.load("W", [Tuple::new((0..16i64).collect::<Vec<_>>())])
        .unwrap();
    let view = SpjExpr::new(
        ["W"],
        Atom::ge_const("C15", 15).into(),
        Some(vec!["C0".into(), "C15".into()]),
    );
    let v = view.eval(&db).unwrap();
    assert!(v.contains(&Tuple::from([0, 15])));
}

#[test]
fn projection_to_zero_attributes() {
    // π over the empty attribute list: one empty tuple whose counter is
    // the input cardinality — the counted-semantics analogue of SQL's
    // SELECT COUNT(*).
    let schema = Schema::new(["A", "B"]).unwrap();
    let r = Relation::from_rows(schema, [[1, 2], [3, 4], [5, 6]]).unwrap();
    let v = algebra::project(&r, &[]).unwrap();
    assert_eq!(v.len(), 1);
    assert_eq!(v.count(&Tuple::new(Vec::<Value>::new())), 3);
}

#[test]
fn maintenance_through_zero_attribute_projection() {
    // The "count view" maintains its counter differentially.
    let mut db = Database::new();
    db.create("R", Schema::new(["A"]).unwrap()).unwrap();
    db.load("R", [[1], [2]]).unwrap();
    let view = SpjExpr::new(["R"], Condition::always_true(), Some(vec![]));
    let mut v = view.eval(&db).unwrap();
    assert_eq!(v.count(&Tuple::new(Vec::<Value>::new())), 2);
    let mut txn = Transaction::new();
    txn.insert("R", [3]).unwrap();
    txn.delete("R", [1]).unwrap();
    let r = differential_delta(&view, &db, &txn, &DiffOptions::default()).unwrap();
    v.apply_delta(&r.delta).unwrap();
    assert_eq!(
        v.count(&Tuple::new(Vec::<Value>::new())),
        2,
        "+1 −1 nets out"
    );
    let mut txn2 = Transaction::new();
    txn2.insert("R", [9]).unwrap();
    db.apply(&txn).unwrap();
    let r = differential_delta(&view, &db, &txn2, &DiffOptions::default()).unwrap();
    v.apply_delta(&r.delta).unwrap();
    assert_eq!(v.count(&Tuple::new(Vec::<Value>::new())), 3);
}

#[test]
fn transaction_cancellation_produces_no_maintenance() {
    let mut db = Database::new();
    db.create("R", Schema::new(["A"]).unwrap()).unwrap();
    db.load("R", [[1]]).unwrap();
    let view = SpjExpr::new(["R"], Condition::always_true(), None);
    // insert(2) then delete(2): net empty.
    let mut txn = Transaction::new();
    txn.insert("R", [2]).unwrap();
    txn.delete("R", [2]).unwrap();
    assert!(txn.is_empty());
    let r = differential_delta(&view, &db, &txn, &DiffOptions::default()).unwrap();
    assert!(r.delta.is_empty());
    assert_eq!(r.stats.rows_evaluated, 0);
}

#[test]
fn condition_on_every_attribute_of_a_join() {
    // Every attribute constrained: pushdown covers everything, residual
    // empty; correct with and without pushdown.
    let mut db = Database::new();
    db.create("R", Schema::new(["A", "B"]).unwrap()).unwrap();
    db.create("S", Schema::new(["B", "C"]).unwrap()).unwrap();
    db.load("R", [[1, 1], [2, 2], [3, 3]]).unwrap();
    db.load("S", [[1, 9], [2, 8], [3, 7]]).unwrap();
    let view = SpjExpr::new(
        ["R", "S"],
        Condition::conjunction([
            Atom::ge_const("A", 1),
            Atom::le_const("B", 2),
            Atom::gt_const("C", 7),
        ]),
        None,
    );
    let mut txn = Transaction::new();
    txn.insert("R", [4, 1]).unwrap();
    txn.delete("S", [2, 8]).unwrap();
    let mut db_after = db.clone();
    db_after.apply(&txn).unwrap();
    let expected = view.eval(&db_after).unwrap();
    for push_selections in [true, false] {
        let mut v = view.eval(&db).unwrap();
        let r = differential_delta(
            &view,
            &db,
            &txn,
            &DiffOptions {
                push_selections,
                ..DiffOptions::default()
            },
        )
        .unwrap();
        v.apply_delta(&r.delta).unwrap();
        assert_eq!(v, expected);
    }
}

#[test]
fn deep_dnf_condition() {
    // 8 disjuncts; the filter and engine must stay correct.
    let mut db = Database::new();
    db.create("R", Schema::new(["A"]).unwrap()).unwrap();
    let disjuncts: Vec<Conjunction> = (0..8)
        .map(|i| Conjunction::new([Atom::eq_const("A", i * 10)]))
        .collect();
    let view = SpjExpr::new(["R"], Condition::dnf(disjuncts), None);
    let f = RelevanceFilter::new(&view, &db, "R").unwrap();
    for a in 0..100 {
        let relevant = f.is_relevant(&Tuple::from([a])).unwrap();
        assert_eq!(relevant, a % 10 == 0 && a < 80, "a={a}");
    }
}

#[test]
fn view_over_relation_updated_twice_in_stream() {
    // Same tuple inserted, deleted, re-inserted across transactions.
    let mut m = ViewManager::new();
    m.create_relation("R", Schema::new(["A"]).unwrap()).unwrap();
    m.register_view(
        "v",
        SpjExpr::new(["R"], Atom::lt_const("A", 100).into(), None),
        RefreshPolicy::Immediate,
    )
    .unwrap();
    for _ in 0..3 {
        let mut t = Transaction::new();
        t.insert("R", [5]).unwrap();
        m.execute(&t).unwrap();
        assert!(m.view_contents("v").unwrap().contains(&Tuple::from([5])));
        let mut t = Transaction::new();
        t.delete("R", [5]).unwrap();
        m.execute(&t).unwrap();
        assert!(!m.view_contents("v").unwrap().contains(&Tuple::from([5])));
    }
    m.verify_consistency().unwrap();
}
