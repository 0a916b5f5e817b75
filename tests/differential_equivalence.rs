//! The central correctness property of §5: for *any* database, SPJ view
//! and transaction, applying the differential delta to the old
//! materialization yields exactly the full re-evaluation of the view on
//! the new state — multiplicity counters included. Every case runs twice:
//! on its index-free database, where each `B = 0` operand takes the
//! materialized fallback, and on the same rows carrying every join index
//! `register_view` would derive, where the engine probes them.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::IteratorRandom;
use rand::{Rng, SeedableRng};

use ivm::differential::{differential_delta, DiffOptions};
use ivm::prelude::*;

/// Deterministically build a chain database R0(A0,A1) ⋈ R1(A1,A2) ⋈ …
/// with a small value domain so joins, duplicates and counter collisions
/// actually happen.
fn build_db(rng: &mut StdRng, p: usize, size: usize, domain: i64) -> Database {
    let mut db = Database::new();
    for i in 0..p {
        let name = format!("R{i}");
        let schema = Schema::new([format!("A{i}"), format!("A{}", i + 1)]).unwrap();
        db.create(name.clone(), schema).unwrap();
        let mut loaded = 0;
        let mut attempts = 0;
        while loaded < size && attempts < size * 50 + 100 {
            attempts += 1;
            let t = Tuple::from([rng.gen_range(0..domain), rng.gen_range(0..domain)]);
            if !db.relation(&name).unwrap().contains(&t) {
                db.load(&name, [t]).unwrap();
                loaded += 1;
            }
        }
    }
    db
}

/// A random condition over the chain attributes A0..=Ap.
fn build_condition(rng: &mut StdRng, p: usize, domain: i64) -> Condition {
    let attr = |i: usize| AttrName::new(format!("A{i}"));
    let n_disjuncts = rng.gen_range(1..=2);
    let mut disjuncts = Vec::new();
    for _ in 0..n_disjuncts {
        let n_atoms = rng.gen_range(0..=2);
        let mut atoms = Vec::new();
        for _ in 0..n_atoms {
            let ops = [CompOp::Eq, CompOp::Lt, CompOp::Gt, CompOp::Le, CompOp::Ge];
            let op = ops[rng.gen_range(0..ops.len())];
            let x = attr(rng.gen_range(0..=p));
            if rng.gen_bool(0.5) {
                atoms.push(Atom::cmp_const(x, op, rng.gen_range(0..domain)));
            } else {
                let y = attr(rng.gen_range(0..=p));
                atoms.push(Atom::cmp_attr(x, op, y, rng.gen_range(-2..=2)));
            }
        }
        disjuncts.push(Conjunction::new(atoms));
    }
    Condition::dnf(disjuncts)
}

/// A random projection over the chain attributes (sometimes None).
fn build_projection(rng: &mut StdRng, p: usize) -> Option<Vec<AttrName>> {
    if rng.gen_bool(0.3) {
        return None;
    }
    let all: Vec<AttrName> = (0..=p).map(|i| AttrName::new(format!("A{i}"))).collect();
    let k = rng.gen_range(1..=all.len());
    let mut picked = all.into_iter().choose_multiple(rng, k);
    picked.sort();
    Some(picked)
}

/// A random transaction touching a random subset of the relations.
fn build_txn(rng: &mut StdRng, db: &Database, p: usize, domain: i64) -> Transaction {
    let mut txn = Transaction::new();
    for i in 0..p {
        if rng.gen_bool(0.4) {
            continue; // leave this relation untouched
        }
        let name = format!("R{i}");
        let rel = db.relation(&name).unwrap();
        // Delete up to 3 existing tuples.
        let n_del = rng.gen_range(0..=3usize.min(rel.len()));
        for t in rel
            .iter()
            .map(|(t, _)| t.clone())
            .choose_multiple(rng, n_del)
        {
            txn.delete(&name, t).unwrap();
        }
        // Insert up to 3 fresh tuples.
        let n_ins = rng.gen_range(0..=3);
        let mut added = 0;
        let mut attempts = 0;
        while added < n_ins && attempts < 200 {
            attempts += 1;
            let t = Tuple::from([rng.gen_range(0..domain), rng.gen_range(0..domain)]);
            if !rel.contains(&t) && txn.insert(&name, t).is_ok() {
                added += 1;
            }
        }
    }
    txn
}

/// Build every index `register_view` would derive for the chain join:
/// each relation's shared attribute with each neighbour, plus the
/// two-attribute union key middle operands expose under reordering
/// (the same shape as `index_equivalence.rs`).
fn add_chain_indexes(db: &mut Database, p: usize) {
    for i in 0..p {
        let name = format!("R{i}");
        let mut keys: Vec<Vec<AttrName>> = Vec::new();
        if i > 0 {
            keys.push(vec![AttrName::new(format!("A{i}"))]);
        }
        if i + 1 < p {
            keys.push(vec![AttrName::new(format!("A{}", i + 1))]);
        }
        if keys.len() == 2 {
            keys.push(vec![
                AttrName::new(format!("A{i}")),
                AttrName::new(format!("A{}", i + 1)),
            ]);
        }
        for key in keys {
            db.ensure_index(&name, &key).unwrap();
        }
    }
}

/// The two databases a case runs on, labelled: the index-free `db` built
/// by [`build_db`], and the same rows with the chain's join indexes.
fn index_states(db: Database, p: usize) -> [(&'static str, Database); 2] {
    let mut indexed = db.clone();
    add_chain_indexes(&mut indexed, p);
    [("index-free", db), ("indexed", indexed)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Differential ≡ full re-evaluation, with and without indexes,
    /// random everything.
    #[test]
    fn differential_equals_full_reevaluation(
        seed in any::<u64>(),
        p in 1usize..=3,
        size in 0usize..=15,
        domain in 2i64..=6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let db = build_db(&mut rng, p, size, domain);
        let relations: Vec<String> = (0..p).map(|i| format!("R{i}")).collect();
        let view = SpjExpr::new(
            relations,
            build_condition(&mut rng, p, domain),
            build_projection(&mut rng, p),
        );
        let txn = build_txn(&mut rng, &db, p, domain);

        let mut db_after = db.clone();
        db_after.apply(&txn).unwrap();
        let expected = view.eval(&db_after).unwrap();

        for (label, db) in index_states(db, p) {
            let mut v = view.eval(&db).unwrap();
            let result = differential_delta(&view, &db, &txn, &DiffOptions::default()).unwrap();
            v.apply_delta(&result.delta).unwrap();
            prop_assert!(
                v == expected,
                "{label} run diverged:\ndiff  = {v}\nfull = {expected}",
            );
        }
    }

    /// The index-free and the indexed run produce the *identical* delta
    /// (not just equivalent end states): the delta full re-evaluation
    /// derives from the old and new view.
    #[test]
    fn engines_agree_on_the_delta(
        seed in any::<u64>(),
        p in 1usize..=3,
        size in 0usize..=12,
    ) {
        let domain = 5;
        let mut rng = StdRng::seed_from_u64(seed);
        let db = build_db(&mut rng, p, size, domain);
        let relations: Vec<String> = (0..p).map(|i| format!("R{i}")).collect();
        let view = SpjExpr::new(
            relations,
            build_condition(&mut rng, p, domain),
            build_projection(&mut rng, p),
        );
        let txn = build_txn(&mut rng, &db, p, domain);

        let mut db_after = db.clone();
        db_after.apply(&txn).unwrap();
        let reference =
            full_reval::recompute_delta(&view, &db_after, &view.eval(&db).unwrap()).unwrap();
        for (label, db) in index_states(db, p) {
            let delta = differential_delta(&view, &db, &txn, &DiffOptions::default())
                .unwrap()
                .delta;
            prop_assert!(delta == reference, "{label} run produced a different delta");
        }
    }

    /// Idempotent no-op: an empty transaction yields an empty delta and
    /// zero rows.
    #[test]
    fn empty_transaction_empty_delta(
        seed in any::<u64>(),
        p in 1usize..=3,
        size in 0usize..=10,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let db = build_db(&mut rng, p, size, 5);
        let relations: Vec<String> = (0..p).map(|i| format!("R{i}")).collect();
        let view = SpjExpr::new(relations, Condition::always_true(), None);
        let txn = Transaction::new();
        for (_, db) in index_states(db, p) {
            let r = differential_delta(&view, &db, &txn, &DiffOptions::default()).unwrap();
            prop_assert!(r.delta.is_empty());
            prop_assert_eq!(r.stats.rows_evaluated, 0);
        }
    }

    /// Applying a transaction and then its inverse returns the view to its
    /// original contents via two differential passes.
    #[test]
    fn delta_roundtrip_inverse_transaction(
        seed in any::<u64>(),
        size in 1usize..=12,
    ) {
        let p = 2;
        let domain = 5;
        let mut rng = StdRng::seed_from_u64(seed);
        let db = build_db(&mut rng, p, size, domain);
        let relations: Vec<String> = (0..p).map(|i| format!("R{i}")).collect();
        let view = SpjExpr::new(
            relations,
            build_condition(&mut rng, p, domain),
            build_projection(&mut rng, p),
        );
        let txn = build_txn(&mut rng, &db, p, domain);

        // Inverse transaction: swap inserts and deletes.
        let mut inv = Transaction::new();
        for name in txn.touched() {
            for t in txn.inserted(name) {
                inv.delete(name, t.clone()).unwrap();
            }
            for t in txn.deleted(name) {
                inv.insert(name, t.clone()).unwrap();
            }
        }

        let original = view.eval(&db).unwrap();
        for (label, db) in index_states(db, p) {
            // Forward.
            let mut v = original.clone();
            let fwd = differential_delta(&view, &db, &txn, &DiffOptions::default()).unwrap();
            v.apply_delta(&fwd.delta).unwrap();
            let mut db_mid = db.clone();
            db_mid.apply(&txn).unwrap();
            prop_assert!(v == view.eval(&db_mid).unwrap(), "{} forward run", label);

            // Back.
            let back = differential_delta(&view, &db_mid, &inv, &DiffOptions::default()).unwrap();
            v.apply_delta(&back.delta).unwrap();
            prop_assert!(v == original, "{} inverse run", label);
        }
    }
}

/// Random general-algebra trees (σ, π, ⋈, ∪, −) maintained by
/// `tree_delta` must match full re-evaluation. Difference nodes are
/// generated in the always-well-formed shape `(t ∪ s) − s`.
fn build_tree(rng: &mut StdRng, depth: usize) -> ivm_relational::expr::Expr {
    use ivm_relational::expr::Expr;
    let leaf = |rng: &mut StdRng| Expr::base(format!("R{}", rng.gen_range(0..2)));
    if depth == 0 {
        return leaf(rng);
    }
    let cond = |rng: &mut StdRng, attr: String| -> Condition {
        Atom::cmp_const(attr.as_str(), CompOp::Lt, rng.gen_range(0..5)).into()
    };
    match rng.gen_range(0..5) {
        0 => leaf(rng),
        1 => {
            // Select over a subtree on one of its guaranteed attributes:
            // leaves are R0(A0,A1)/R1(A1,A2); A1 is common to both, and
            // every operator here preserves... projection may drop it, so
            // only select directly over leaves.
            let base_idx = rng.gen_range(0..2);
            let attr = format!("A{}", rng.gen_range(base_idx..=base_idx + 1));
            let c = cond(rng, attr);
            Expr::base(format!("R{base_idx}")).select(c)
        }
        2 => {
            // Join of two subtrees (natural; may degenerate to ×).
            build_tree(rng, depth - 1).join(build_tree(rng, depth - 1))
        }
        3 => {
            // t ∪ σ(t): same scheme by construction.
            let t = Expr::base(format!("R{}", rng.gen_range(0..2)));
            let attr = match &t {
                Expr::Base(n) if n == "R0" => "A0".to_string(),
                _ => "A1".to_string(),
            };
            let c = cond(rng, attr);
            t.clone().union(t.select(c))
        }
        _ => {
            // (t ∪ s) − s with s = σ(t): always well-formed.
            let t = Expr::base(format!("R{}", rng.gen_range(0..2)));
            let attr = match &t {
                Expr::Base(n) if n == "R0" => "A0".to_string(),
                _ => "A1".to_string(),
            };
            let c = cond(rng, attr);
            let s = t.clone().select(c);
            t.union(s.clone()).difference(s)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    #[test]
    fn tree_maintenance_equals_full_reevaluation(
        seed in any::<u64>(),
        size in 0usize..=12,
        depth in 0usize..=3,
    ) {
        use ivm::differential::MaterializedExpr;
        let mut rng = StdRng::seed_from_u64(seed);
        let db = build_db(&mut rng, 2, size, 5);
        let expr = build_tree(&mut rng, depth);
        let txn = build_txn(&mut rng, &db, 2, 5);

        for (label, db) in index_states(db, 2) {
            let mut mv = MaterializedExpr::materialize(expr.clone(), &db).unwrap();
            mv.update(&db, &txn).unwrap();
            let mut after = db.clone();
            after.apply(&txn).unwrap();
            prop_assert!(mv.consistent_with(&after).unwrap(), "{} expr {:?}", label, mv.expr());
        }
    }
}
