//! Thread-count invariance: the parallel maintenance engine must be a
//! pure speedup. For any database, SPJ view and transaction, running the
//! differential pass at 2 or 8 threads must produce the *identical* view
//! transaction — tuple-for-tuple, counter-for-counter — as the sequential
//! oracle at 1 thread, with and without prefix sharing, and the
//! paper-level work metric (truth-table rows evaluated) must not change.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::IteratorRandom;
use rand::{Rng, SeedableRng};

use ivm::differential::{differential_delta, DiffOptions};
use ivm::prelude::*;

/// Chain database R0(A0,A1) ⋈ R1(A1,A2) ⋈ … over a small value domain so
/// joins, duplicates and counter collisions actually happen.
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
            continue;
        }
        let name = format!("R{i}");
        let rel = db.relation(&name).unwrap();
        let n_del = rng.gen_range(0..=3usize.min(rel.len()));
        for t in rel
            .iter()
            .map(|(t, _)| t.clone())
            .choose_multiple(rng, n_del)
        {
            txn.delete(&name, t).unwrap();
        }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    /// Parallel delta ≡ sequential delta, bit-identically, at every thread
    /// count, for both row strategies.
    #[test]
    fn parallel_delta_is_thread_count_invariant(
        seed in any::<u64>(),
        p in 1usize..=4,
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

        for share_prefixes in [true, false] {
            let opts = |threads: usize| DiffOptions {
                share_prefixes,
                threads,
                ..DiffOptions::default()
            };
            let oracle = differential_delta(&view, &db, &txn, &opts(1)).unwrap();
            for threads in [2usize, 8] {
                let par = differential_delta(&view, &db, &txn, &opts(threads)).unwrap();
                prop_assert!(
                    par.delta == oracle.delta,
                    "share={share_prefixes} threads={threads} diverged:\n\
                     par = {:?}\nseq = {:?}",
                    par.delta,
                    oracle.delta,
                );
                prop_assert_eq!(
                    par.stats.rows_evaluated,
                    oracle.stats.rows_evaluated,
                    "row count changed at {} threads", threads
                );
            }
        }
    }

    /// The same invariance holds end-to-end through the `ViewManager`:
    /// executing a transaction stream at any thread count leaves every
    /// view's materialization (counters included) identical.
    #[test]
    fn manager_state_is_thread_count_invariant(
        seed in any::<u64>(),
        size in 0usize..=12,
        n_txns in 1usize..=6,
    ) {
        let p = 2;
        let domain = 5;
        let mut rng = StdRng::seed_from_u64(seed);
        let db = build_db(&mut rng, p, size, domain);
        let view = SpjExpr::new(
            ["R0", "R1"],
            build_condition(&mut rng, p, domain),
            build_projection(&mut rng, p),
        );
        let txns: Vec<Transaction> = {
            let mut db_evolving = db.clone();
            (0..n_txns)
                .map(|_| {
                    let txn = build_txn(&mut rng, &db_evolving, p, domain);
                    db_evolving.apply(&txn).unwrap();
                    txn
                })
                .collect()
        };

        let run = |threads: usize| -> Relation {
            let mut m = ViewManager::new().with_threads(threads);
            for name in ["R0", "R1"] {
                m.create_relation(name, db.schema(name).unwrap().clone()).unwrap();
                let tuples: Vec<Tuple> =
                    db.relation(name).unwrap().iter().map(|(t, _)| t.clone()).collect();
                m.load(name, tuples).unwrap();
            }
            m.register_view("v", view.clone(), RefreshPolicy::Immediate).unwrap();
            for txn in &txns {
                m.execute(txn).unwrap();
            }
            m.verify_consistency().unwrap();
            m.view_contents("v").unwrap().clone()
        };

        let oracle = run(1);
        for threads in [2usize, 8] {
            let par = run(threads);
            prop_assert!(
                par == oracle,
                "manager diverged at {threads} threads:\npar = {par}\nseq = {oracle}"
            );
        }
    }
}
