//! Join-key index transparency: probing a maintained index must be an
//! *invisible* optimization. For any database, view, transaction, row
//! strategy and manager thread count, the indexed run and the hash-build
//! fallback must produce bit-identical deltas, identical engine
//! statistics (probe counters excepted — those differ by construction),
//! identical [`MaintenanceReport`]s through the manager, and identical
//! view states.
//! Recovery must rebuild indexes that checkpoints do not persist.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::IteratorRandom;
use rand::{Rng, SeedableRng};

use ivm::differential::{differential_delta, DiffOptions};
use ivm::prelude::*;

/// Deterministically build a chain database R0(A0,A1) ⋈ R1(A1,A2) ⋈ …
/// with a small value domain (same generator family as
/// `differential_equivalence.rs`).
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

/// Build every index `register_view` would derive for the chain join:
/// each relation's shared attribute with each neighbour, plus the
/// two-attribute union key middle operands expose under reordering.
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

/// Both row strategies (with and without prefix sharing); selection
/// pushdown and reordering stay on (their interaction with probe planning — pushed
/// conditions are checked per posting, pivot groups choose the probe
/// keys — is exactly what we exercise).
fn option_grid(use_indexes: bool) -> Vec<DiffOptions> {
    let mut out = Vec::new();
    for share_prefixes in [true, false] {
        out.push(DiffOptions {
            share_prefixes,
            use_indexes,
            ..DiffOptions::default()
        });
    }
    out
}

/// A chain view with the `sales` shape: a single-operand atom on an end
/// attribute (pushed onto one operand) and a bound on a shared attribute
/// (pushed onto both neighbours), with or without a projection.
fn build_selected_view(rng: &mut StdRng, p: usize, domain: i64) -> SpjExpr {
    let end = if rng.gen_bool(0.5) { 0 } else { p };
    let shared = rng.gen_range(0..=p);
    let condition = Condition::conjunction([
        Atom::ge_const(format!("A{end}"), rng.gen_range(0..domain)),
        Atom::le_const(format!("A{shared}"), rng.gen_range(0..domain)),
    ]);
    let projection = rng
        .gen_bool(0.5)
        .then(|| vec![AttrName::new("A0"), AttrName::new(format!("A{p}"))]);
    SpjExpr::new(
        (0..p).map(|i| format!("R{i}")).collect::<Vec<_>>(),
        condition,
        projection,
    )
}

/// Zero the only fields allowed to differ between indexed and fallback
/// runs, leaving everything else to the equality assertion.
fn scrub_probes(mut s: DiffStats) -> DiffStats {
    s.index_probes = 0;
    s.index_probe_rows = 0;
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    /// Indexed probing ≡ hash-build fallback: identical delta, identical
    /// stats modulo the probe counters, with and without prefix sharing.
    #[test]
    fn indexed_and_fallback_agree(
        seed in any::<u64>(),
        p in 1usize..=3,
        size in 0usize..=12,
        domain in 2i64..=6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut db = build_db(&mut rng, p, size, domain);
        add_chain_indexes(&mut db, p);
        let relations: Vec<String> = (0..p).map(|i| format!("R{i}")).collect();
        let view = SpjExpr::new(relations, Condition::always_true(), None);
        let txn = build_txn(&mut rng, &db, p, domain);

        for (on, off) in option_grid(true).into_iter().zip(option_grid(false)) {
            let indexed = differential_delta(&view, &db, &txn, &on).unwrap();
            let fallback = differential_delta(&view, &db, &txn, &off).unwrap();
            prop_assert!(
                indexed.delta == fallback.delta,
                "share={}: indexed delta diverged",
                on.share_prefixes,
            );
            prop_assert_eq!(
                scrub_probes(indexed.stats),
                scrub_probes(fallback.stats),
                "share={}: stats diverged",
                on.share_prefixes,
            );
            prop_assert_eq!(fallback.stats.index_probes, 0);
        }
    }

    /// Selection-aware probes: with selections pushed onto the indexed
    /// operands, probing ≡ the hash-build fallback — identical delta, row,
    /// join and output counts with and without prefix sharing.
    /// `operand_tuples` may differ: an indexed operand charges `|r − d_r|`
    /// before the pushed selection, the fallback its filtered size.
    #[test]
    fn selected_views_agree_with_and_without_indexes(
        seed in any::<u64>(),
        p in 1usize..=3,
        size in 0usize..=12,
        domain in 2i64..=6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut db = build_db(&mut rng, p, size, domain);
        add_chain_indexes(&mut db, p);
        let view = build_selected_view(&mut rng, p, domain);
        let txn = build_txn(&mut rng, &db, p, domain);

        for (on, off) in option_grid(true).into_iter().zip(option_grid(false)) {
            let indexed = differential_delta(&view, &db, &txn, &on).unwrap();
            let fallback = differential_delta(&view, &db, &txn, &off).unwrap();
            let ctx = format!("share={}", on.share_prefixes);
            prop_assert!(indexed.delta == fallback.delta, "{}: delta diverged", ctx);
            let (a, b) = (indexed.stats, fallback.stats);
            prop_assert_eq!(a.rows_evaluated, b.rows_evaluated, "{}", ctx);
            prop_assert_eq!(a.joins_performed, b.joins_performed, "{}", ctx);
            prop_assert_eq!(a.joins_skipped, b.joins_skipped, "{}", ctx);
            prop_assert_eq!(a.output_inserts, b.output_inserts, "{}", ctx);
            prop_assert_eq!(a.output_deletes, b.output_deletes, "{}", ctx);
            prop_assert_eq!(b.index_probes, 0);
        }
    }

    /// The full path through the manager: two managers over the same
    /// data, one probing indexes and one forced to the fallback, must
    /// produce identical `MaintenanceReport`s (probe counters excepted)
    /// and identical view contents after every transaction.
    #[test]
    fn managers_agree_with_and_without_indexes(
        seed in any::<u64>(),
        size in 0usize..=10,
        thread_pick in 0usize..3,
    ) {
        let p = 2;
        let domain = 5;
        let threads = [1usize, 2, 8][thread_pick];
        let mk = |use_indexes: bool| {
            ViewManager::new().with_manager_options(ManagerOptions {
                diff: DiffOptions { use_indexes, threads, ..DiffOptions::default() },
                ..ManagerOptions::default()
            })
        };
        let mut with_ix = mk(true);
        let mut without_ix = mk(false);

        let mut rng = StdRng::seed_from_u64(seed);
        let db = build_db(&mut rng, p, size, domain);
        for i in 0..p {
            let name = format!("R{i}");
            let rel = db.relation(&name).unwrap();
            let schema = rel.schema().clone();
            let rows: Vec<Tuple> = rel.sorted().into_iter().map(|(t, _)| t.clone()).collect();
            for m in [&mut with_ix, &mut without_ix] {
                m.create_relation(name.clone(), schema.clone()).unwrap();
                m.load(&name, rows.clone()).unwrap();
            }
        }
        let view = SpjExpr::new(
            (0..p).map(|i| format!("R{i}")).collect::<Vec<_>>(),
            Condition::always_true(),
            None,
        );
        for m in [&mut with_ix, &mut without_ix] {
            m.register_view("v", view.clone(), RefreshPolicy::Immediate).unwrap();
        }
        prop_assert!(with_ix.database().relation("R0").unwrap().index_count() > 0);

        for _ in 0..4 {
            let txn = build_txn(&mut rng, with_ix.database(), p, domain);
            let a = with_ix.execute(&txn).unwrap();
            let b = without_ix.execute(&txn).unwrap();
            let mut a_scrubbed = a;
            a_scrubbed.diff = scrub_probes(a.diff);
            let mut b_scrubbed = b;
            b_scrubbed.diff = scrub_probes(b.diff);
            prop_assert_eq!(a_scrubbed, b_scrubbed, "reports diverged at threads={}", threads);
            prop_assert!(
                with_ix.view_contents("v").unwrap() == without_ix.view_contents("v").unwrap(),
                "view states diverged at threads={}", threads,
            );
        }
        with_ix.verify_consistency().unwrap();
        without_ix.verify_consistency().unwrap();
    }
}

/// A covered equijoin with a trivial residual must actually *probe*:
/// the optimization has a regression guard, not just an equivalence one.
#[test]
fn covered_join_probes_the_index() {
    let mut db = Database::new();
    db.create("R", Schema::new(["A", "B"]).unwrap()).unwrap();
    db.create("S", Schema::new(["B", "C"]).unwrap()).unwrap();
    db.load("R", (0..50i64).map(|i| [i, i % 10])).unwrap();
    db.load("S", (0..10i64).map(|i| [i, i * 7])).unwrap();
    db.ensure_index("S", &[AttrName::new("B")]).unwrap();

    let view = SpjExpr::new(["R", "S"], Condition::always_true(), None);
    let mut txn = Transaction::new();
    txn.insert("R", [100, 3]).unwrap();
    txn.insert("R", [101, 4]).unwrap();

    let on = DiffOptions::default();
    let off = DiffOptions {
        use_indexes: false,
        ..on
    };
    let indexed = differential_delta(&view, &db, &txn, &on).unwrap();
    let fallback = differential_delta(&view, &db, &txn, &off).unwrap();
    assert!(indexed.stats.index_probes > 0, "covered join never probed");
    assert_eq!(indexed.delta, fallback.delta);
    assert_eq!(scrub_probes(indexed.stats), scrub_probes(fallback.stats));
}

/// A selective 3-way join with a selection pushed onto every operand
/// and two changed operands must probe: each truth-table row starts at a
/// change set, and the pushed selections are applied per posting instead
/// of forcing the materialized fallback. Reading fewer `orders` postings
/// than `orders` holds is the O(|Δ|)-not-O(|r|) guard.
#[test]
fn selected_operands_probe_the_index() {
    let mut db = Database::new();
    db.create("orders", Schema::new(["OID", "CUST", "AMT"]).unwrap())
        .unwrap();
    db.create("customers", Schema::new(["CUST", "REGION"]).unwrap())
        .unwrap();
    db.create("regions", Schema::new(["REGION", "RNAME"]).unwrap())
        .unwrap();
    let orders = 2000i64;
    db.load("orders", (0..orders).map(|i| [i, i % 200, (i * 37) % 1000]))
        .unwrap();
    db.load("customers", (0..200i64).map(|c| [c, c % 50]))
        .unwrap();
    db.load("regions", (0..50i64).map(|r| [r, (r * 7) % 13]))
        .unwrap();
    for (rel, key) in [
        ("orders", vec!["CUST"]),
        ("customers", vec!["CUST"]),
        ("customers", vec!["REGION"]),
        ("customers", vec!["CUST", "REGION"]),
        ("regions", vec!["REGION"]),
    ] {
        let key: Vec<AttrName> = key.into_iter().map(AttrName::new).collect();
        db.ensure_index(rel, &key).unwrap();
    }
    let view = SpjExpr::new(
        ["orders", "customers", "regions"],
        Condition::conjunction([Atom::ge_const("AMT", 500), Atom::le_const("REGION", 39)]),
        Some(vec![
            "OID".into(),
            "CUST".into(),
            "AMT".into(),
            "RNAME".into(),
        ]),
    );
    let mut txn = Transaction::new();
    for i in 0..10i64 {
        txn.insert("orders", [orders + i, i * 13, 600 + i]).unwrap();
        txn.delete("orders", [i, i % 200, (i * 37) % 1000]).unwrap();
        let c = 100 + i;
        txn.delete("customers", [c, c % 50]).unwrap();
        txn.insert("customers", [c, (c + 1) % 50]).unwrap();
    }

    let on = DiffOptions::default();
    let off = DiffOptions {
        use_indexes: false,
        ..on
    };
    let indexed = differential_delta(&view, &db, &txn, &on).unwrap();
    let fallback = differential_delta(&view, &db, &txn, &off).unwrap();
    assert!(
        indexed.stats.index_probes > 0,
        "selected operands never probed"
    );
    assert!(
        indexed.stats.index_probe_rows < orders as u64,
        "probed {} postings, |orders| = {orders}",
        indexed.stats.index_probe_rows
    );
    assert!(!indexed.delta.is_empty());
    assert_eq!(indexed.delta, fallback.delta);
    assert_eq!(indexed.stats.rows_evaluated, fallback.stats.rows_evaluated);
}

/// Fresh scratch directory for one durability test; removed on drop.
struct TestDir(PathBuf);

impl TestDir {
    fn new(label: &str) -> Self {
        TestDir(ivm_storage::temp::scratch_dir(label))
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// R(A,B) ⋈ S(B,C) with data, registered durably.
fn durable_setup(m: &mut ViewManager) {
    m.create_relation("R", Schema::new(["A", "B"]).unwrap())
        .unwrap();
    m.create_relation("S", Schema::new(["B", "C"]).unwrap())
        .unwrap();
    m.load("R", (0..20i64).map(|i| [i, i % 5])).unwrap();
    m.load("S", (0..5i64).map(|i| [i, i * 3])).unwrap();
    m.register_view(
        "v",
        SpjExpr::new(["R", "S"], Condition::always_true(), None),
        RefreshPolicy::Immediate,
    )
    .unwrap();
}

fn assert_indexes_live(m: &ViewManager) {
    for name in ["R", "S"] {
        let rel = m.database().relation(name).unwrap();
        assert!(rel.index_count() > 0, "{name} lost its indexes");
        rel.verify_indexes()
            .unwrap_or_else(|e| panic!("{name} index diverged: {e}"));
    }
}

/// WAL-only recovery re-derives indexes by replaying `RegisterView`
/// through the normal registration path.
#[test]
fn wal_recovery_rebuilds_indexes() {
    let dir = TestDir::new("ix-wal");
    {
        let mut m = ViewManager::open(dir.path()).unwrap();
        durable_setup(&mut m);
        let mut txn = Transaction::new();
        txn.insert("R", [100, 2]).unwrap();
        m.execute(&txn).unwrap();
    }
    let mut m = ViewManager::open(dir.path()).unwrap();
    assert_indexes_live(&m);
    let mut txn = Transaction::new();
    txn.insert("R", [101, 3]).unwrap();
    txn.delete("S", Tuple::from([2, 6])).unwrap();
    m.execute(&txn).unwrap();
    assert_indexes_live(&m);
    m.verify_consistency().unwrap();
}

/// Checkpoints persist relation data but not derived indexes; restore
/// must rebuild them from the stored view definitions.
#[test]
fn checkpoint_restore_rebuilds_indexes() {
    let dir = TestDir::new("ix-ckpt");
    {
        let mut m = ViewManager::open(dir.path()).unwrap();
        durable_setup(&mut m);
        m.checkpoint().unwrap();
    }
    let mut m = ViewManager::open(dir.path()).unwrap();
    assert!(
        m.recovery_report().unwrap().checkpoint_seq.is_some(),
        "checkpoint not restored"
    );
    assert_indexes_live(&m);
    let mut txn = Transaction::new();
    txn.insert("R", [100, 4]).unwrap();
    m.execute(&txn).unwrap();
    assert_indexes_live(&m);
    m.verify_consistency().unwrap();
}

/// A crash injected mid-apply must leave recovery with consistent
/// indexes: the WAL replays the acknowledged prefix, and index
/// maintenance rides the same apply path.
#[test]
fn mid_apply_crash_recovers_consistent_indexes() {
    let dir = TestDir::new("ix-crash");
    let plan = Arc::new(FailpointPlan::new());
    {
        let mut m = ViewManager::open(dir.path()).unwrap();
        durable_setup(&mut m);
        plan.arm(FP_APPLY_MID, 0, FailpointAction::Crash);
        m.set_failpoints(plan.clone());
        let mut txn = Transaction::new();
        txn.insert("R", [100, 1]).unwrap();
        match m.execute(&txn) {
            Err(IvmError::Storage(e)) if e.is_injected() => {}
            other => panic!("failpoint did not fire: {other:?}"),
        }
    }
    assert!(plan.fired(FP_APPLY_MID), "plan never fired");
    let mut m = ViewManager::open(dir.path()).unwrap();
    assert_indexes_live(&m);
    // The logged transaction was replayed on recovery; state and indexes
    // must agree with full re-evaluation.
    assert!(m
        .database()
        .relation("R")
        .unwrap()
        .contains(&Tuple::from([100, 1])));
    m.verify_consistency().unwrap();
}

/// Satellite: checkpoint bytes must not depend on tuple insertion order.
/// Two managers loading the same multiset in opposite orders write
/// byte-identical checkpoint files (the codec sorts on the way out).
#[test]
fn checkpoint_bytes_are_insertion_order_invariant() {
    let rows: Vec<[i64; 2]> = (0..30i64).map(|i| [i, i % 7]).collect();
    let write = |label: &str, rows: Vec<[i64; 2]>| -> (TestDir, Vec<u8>) {
        let dir = TestDir::new(label);
        let seq = {
            let mut m = ViewManager::open(dir.path()).unwrap();
            m.create_relation("R", Schema::new(["A", "B"]).unwrap())
                .unwrap();
            m.register_view(
                "v",
                SpjExpr::new(["R"], Atom::lt_const("B", 5).into(), None),
                RefreshPolicy::Immediate,
            )
            .unwrap();
            // One transaction per tuple: both managers log the same
            // number of WAL records, so the checkpoints carry the same
            // LSN and may only differ if iteration order leaks.
            for row in rows {
                let mut txn = Transaction::new();
                txn.insert("R", row).unwrap();
                m.execute(&txn).unwrap();
            }
            m.checkpoint().unwrap()
        };
        let bytes = std::fs::read(dir.path().join(format!("checkpoint-{seq:016}.ckpt"))).unwrap();
        (dir, bytes)
    };

    let (_d1, forward) = write("ix-bytes-fwd", rows.clone());
    let mut reversed = rows;
    reversed.reverse();
    let (_d2, backward) = write("ix-bytes-rev", reversed);
    assert_eq!(
        forward, backward,
        "checkpoint bytes depend on insertion order"
    );
}
