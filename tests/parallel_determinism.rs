//! Thread-count invariance: the manager's one fan-out, the §4 relevance
//! filter, must be a pure speedup. Executing a transaction stream at 2 or
//! 8 threads must leave every view's materialization — counters included —
//! identical to the sequential oracle at 1 thread. The differential engine
//! itself runs on the calling thread at every width.
//!
//! The proptest inputs are small, so the pool's grain rule keeps them on
//! the sequential paths at every width. The fixed cases at the end use
//! inputs that clear the grain: one checks through `pool.chunks` that a
//! differential pass still dispatches nothing, one that a wide stratum
//! still records each node's spans, and one pins that a two-tuple
//! transaction dispatches nothing at the default width.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::IteratorRandom;
use rand::{Rng, SeedableRng};

use ivm::differential::{differential_delta_observed, DiffOptions};
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

    /// Executing a transaction stream through the `ViewManager` at any
    /// thread count leaves every view's materialization (counters
    /// included) identical.
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

// ---------------------------------------------------------------------
// Inputs above the pool's grain.
// ---------------------------------------------------------------------

/// A recorder and the handle that feeds it.
fn recorded() -> (Arc<InMemoryRecorder>, Obs) {
    let rec = Arc::new(InMemoryRecorder::new());
    let obs = Obs::new(rec.clone());
    (rec, obs)
}

/// Pool chunks dispatched by the fan-outs `rec` saw.
fn chunks(rec: &InMemoryRecorder) -> u64 {
    rec.counter(metric_names::POOL_CHUNKS)
}

/// A transaction deleting the first `n` tuples of each named relation
/// and inserting `n` fresh ones over the chain domain `0..domain`.
fn bulk_txn(db: &Database, relations: &[&str], n: usize, domain: i64) -> Transaction {
    let mut txn = Transaction::new();
    for (i, name) in relations.iter().enumerate() {
        let rel = db.relation(name).unwrap();
        for (t, _) in rel.iter().take(n) {
            txn.delete(*name, t.clone()).unwrap();
        }
        // Walk the domain² pairs from a per-relation offset; every pair
        // is visited once, so this ends whenever n free pairs exist.
        let mut added = 0;
        let start = i as i64 * 7919;
        for v in start..start + domain * domain {
            if added == n {
                break;
            }
            let t = Tuple::from([(v / domain) % domain, v % domain]);
            if !rel.contains(&t) && txn.insert(*name, t).is_ok() {
                added += 1;
            }
        }
        assert_eq!(added, n, "domain too small for {n} fresh tuples");
    }
    txn
}

#[test]
fn truth_table_rows_run_on_the_caller_above_the_grain() {
    // Three 1,500-tuple relations, two of them changed: three rows that
    // read thousands of operand tuples between them, well past two
    // grains, and still no chunk is dispatched at any width.
    let mut rng = StdRng::seed_from_u64(7);
    let (p, domain) = (3, 1000);
    let db = build_db(&mut rng, p, 1500, domain);
    let view = SpjExpr::new(
        ["R0", "R1", "R2"],
        Atom::lt_const("A0", 900).into(),
        Some(vec!["A0".into(), "A3".into()]),
    );
    let txn = bulk_txn(&db, &["R0", "R1"], 20, domain);
    let opts = |threads: usize| DiffOptions { threads };
    let (rec1, obs1) = recorded();
    let oracle = differential_delta_observed(&view, &db, &txn, &opts(1), &obs1).unwrap();
    assert!(!oracle.delta.is_empty());
    assert!(
        oracle.stats.operand_tuples >= 2 * 1024, // two of the pool's grains
        "the pass must clear two grains: {}",
        oracle.stats.operand_tuples
    );
    assert_eq!(chunks(&rec1), 0, "width 1");
    for threads in [2usize, 8] {
        let (rec, obs) = recorded();
        let run = differential_delta_observed(&view, &db, &txn, &opts(threads), &obs).unwrap();
        assert_eq!(chunks(&rec), 0, "threads={threads}");
        assert_eq!(run.delta, oracle.delta, "threads={threads}");
        assert_eq!(run.stats, oracle.stats, "threads={threads}");
    }
}

/// A manager over chain relations `R0(A0,A1)`, `R1(A1,A2)` loaded from
/// `db`, with `views` registered immediate, at `threads` workers.
fn chain_manager(
    db: &Database,
    views: &[(&str, SpjExpr)],
    threads: usize,
) -> (ViewManager, Arc<InMemoryRecorder>) {
    let rec = Arc::new(InMemoryRecorder::new());
    let mut m = ViewManager::new()
        .with_threads(threads)
        .with_recorder(rec.clone());
    for name in ["R0", "R1"] {
        m.create_relation(name, db.schema(name).unwrap().clone())
            .unwrap();
        let tuples: Vec<Tuple> = db
            .relation(name)
            .unwrap()
            .iter()
            .map(|(t, _)| t.clone())
            .collect();
        m.load(name, tuples).unwrap();
    }
    for (name, view) in views {
        m.register_view(*name, view.clone(), RefreshPolicy::Immediate)
            .unwrap();
    }
    (m, rec)
}

/// Execute `txn` at 1 and at `threads` workers over the same views, all
/// of them in one stratum; return the chunks the wide run dispatched
/// after asserting that its report and every view's contents match the
/// width-1 run.
fn chunks_vs_width_one(
    db: &Database,
    views: &[(&str, SpjExpr)],
    txn: &Transaction,
    threads: usize,
) -> u64 {
    let (mut seq, _) = chain_manager(db, views, 1);
    let (mut par, rec) = chain_manager(db, views, threads);
    let before = chunks(&rec);
    let seq_report = seq.execute(txn).unwrap();
    let par_report = par.execute(txn).unwrap();
    assert_eq!(par_report, seq_report, "threads={threads}");
    for (name, _) in views {
        assert_eq!(
            par.view_contents(name).unwrap(),
            seq.view_contents(name).unwrap(),
            "view {name} at threads={threads}"
        );
    }
    par.verify_consistency().unwrap();
    let width = rec.histogram(metric_names::DAG_STRATUM_WIDTH).max;
    assert_eq!(width, views.len() as u64, "all views in one stratum");
    chunks(&rec) - before
}

#[test]
fn wide_stratum_records_every_nodes_spans() {
    // Two independent views in one stratum, each consuming 1,500
    // changes: the stratum's nodes run one after another on the calling
    // thread, so each records its own filter and differentiate span.
    let mut rng = StdRng::seed_from_u64(3);
    let domain = 1000;
    let db = build_db(&mut rng, 2, 2000, domain);
    let views = [
        (
            "low0",
            SpjExpr::new(["R0"], Atom::lt_const("A0", 500).into(), None),
        ),
        (
            "low1",
            SpjExpr::new(["R1"], Atom::lt_const("A2", 500).into(), None),
        ),
    ];
    let txn = bulk_txn(&db, &["R0", "R1"], 750, domain);
    let (mut seq, _) = chain_manager(&db, &views, 1);
    let (mut par, rec) = chain_manager(&db, &views, 2);
    let spans = |path: &str| rec.span(path).count;
    let (filters, diffs) = (spans("execute/filter"), spans("execute/differentiate"));
    let seq_report = seq.execute(&txn).unwrap();
    let par_report = par.execute(&txn).unwrap();
    assert_eq!(par_report, seq_report);
    assert_eq!(par_report.views_maintained, 2, "both views maintained");
    for (name, _) in &views {
        assert_eq!(
            par.view_contents(name).unwrap(),
            seq.view_contents(name).unwrap(),
            "view {name}"
        );
    }
    par.verify_consistency().unwrap();
    assert_eq!(rec.histogram(metric_names::DAG_STRATUM_WIDTH).max, 2);
    assert_eq!(
        spans("execute/filter") - filters,
        2,
        "one filter span per node"
    );
    assert_eq!(
        spans("execute/differentiate") - diffs,
        2,
        "one differentiate span per node"
    );
}

#[test]
fn two_tuple_write_dispatches_no_chunk() {
    // One insert and one delete on R0 touch both views of the stratum;
    // far below the grain, the default width must run exactly what one
    // thread runs, with no pool dispatch anywhere.
    let mut rng = StdRng::seed_from_u64(5);
    let domain = 50;
    let db = build_db(&mut rng, 2, 300, domain);
    let views = [
        (
            "sel",
            SpjExpr::new(["R0"], Atom::lt_const("A0", 40).into(), None),
        ),
        (
            "joined",
            SpjExpr::new(
                ["R0", "R1"],
                Atom::lt_const("A2", 45).into(),
                Some(vec!["A0".into(), "A2".into()]),
            ),
        ),
    ];
    let txn = bulk_txn(&db, &["R0"], 1, domain);
    assert_eq!(txn.size(), 2);
    assert_eq!(chunks_vs_width_one(&db, &views, &txn, 4), 0);
}
