use super::*;
use crate::differential::DiffOptions;
use ivm_obs::{names, InMemoryRecorder};
use ivm_relational::error::RelError;
use ivm_relational::predicate::{Atom, Condition};
use std::sync::atomic::{AtomicUsize, Ordering};

fn manager_with_data() -> ViewManager {
    let mut m = ViewManager::new();
    m.create_relation("R", Schema::new(["A", "B"]).unwrap())
        .unwrap();
    m.create_relation("S", Schema::new(["B", "C"]).unwrap())
        .unwrap();
    m.load("R", [[1, 10], [2, 20]]).unwrap();
    m.load("S", [[10, 100], [20, 200]]).unwrap();
    m
}

fn view_expr() -> SpjExpr {
    SpjExpr::new(
        ["R", "S"],
        Atom::lt_const("A", 10).into(),
        Some(vec!["A".into(), "C".into()]),
    )
}

#[test]
fn immediate_view_tracks_transactions() {
    let mut m = manager_with_data();
    m.register_view("v", view_expr(), RefreshPolicy::Immediate)
        .unwrap();
    let mut txn = Transaction::new();
    txn.insert("R", [3, 10]).unwrap();
    txn.delete("S", [20, 200]).unwrap();
    m.execute(&txn).unwrap();
    m.verify_consistency().unwrap();
    let v = m.view_contents("v").unwrap();
    assert!(v.contains(&Tuple::from([3, 100])));
    assert!(!v.contains(&Tuple::from([2, 200])));
}

#[test]
fn filter_skips_irrelevant_transactions() {
    let mut m = manager_with_data();
    m.register_view("v", view_expr(), RefreshPolicy::Immediate)
        .unwrap();
    // A = 50 violates A < 10: provably irrelevant.
    let mut txn = Transaction::new();
    txn.insert("R", [50, 10]).unwrap();
    m.execute(&txn).unwrap();
    let s = m.stats("v").unwrap();
    assert_eq!(s.skipped_by_filter, 1);
    assert_eq!(s.maintenance_runs, 0);
    assert_eq!(s.filter.irrelevant, 1);
    m.verify_consistency().unwrap();
}

#[test]
fn failpoint_crash_before_append_loses_transaction() {
    let dir = ivm_storage::temp::scratch_dir("fp-before-append");
    let plan = Arc::new(ivm_storage::FailpointPlan::new());
    {
        let mut m = ViewManager::open(&dir).unwrap();
        m.create_relation("R", Schema::new(["A"]).unwrap()).unwrap();
        m.set_failpoints(Arc::clone(&plan));
        plan.arm(
            ivm_storage::fault::FP_WAL_BEFORE_APPEND,
            0,
            ivm_storage::FailpointAction::Crash,
        );
        let mut txn = Transaction::new();
        txn.insert("R", [1]).unwrap();
        let err = m.execute(&txn).unwrap_err();
        match err {
            crate::error::IvmError::Storage(e) => assert!(e.is_injected()),
            other => panic!("expected injected crash, got {other}"),
        }
    }
    assert!(plan.fired(ivm_storage::fault::FP_WAL_BEFORE_APPEND));
    // The crash hit before the WAL append: the transaction was never
    // acknowledged, so recovery must not resurrect it.
    let m = ViewManager::open(&dir).unwrap();
    assert_eq!(m.database().relation("R").unwrap().len(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failpoint_crash_mid_apply_recovers_transaction() {
    let dir = ivm_storage::temp::scratch_dir("fp-mid-apply");
    let plan = Arc::new(ivm_storage::FailpointPlan::new());
    {
        let mut m = ViewManager::open(&dir).unwrap();
        m.create_relation("R", Schema::new(["A", "B"]).unwrap())
            .unwrap();
        m.create_relation("S", Schema::new(["B", "C"]).unwrap())
            .unwrap();
        m.register_view("v", view_expr(), RefreshPolicy::Immediate)
            .unwrap();
        m.set_failpoints(Arc::clone(&plan));
        plan.arm(
            ivm_storage::fault::FP_APPLY_MID,
            0,
            ivm_storage::FailpointAction::Crash,
        );
        let mut txn = Transaction::new();
        txn.insert("R", [1, 10]).unwrap();
        txn.insert("S", [10, 100]).unwrap();
        let err = m.execute(&txn).unwrap_err();
        assert!(matches!(
            err,
            crate::error::IvmError::Storage(ref e) if e.is_injected()
        ));
    }
    // The crash hit after the WAL sync (the commit point): recovery
    // replays the record and the view catches up differentially.
    let m = ViewManager::open(&dir).unwrap();
    assert!(m
        .database()
        .relation("R")
        .unwrap()
        .contains(&Tuple::from([1, 10])));
    let v = m.view_contents("v").unwrap();
    assert!(v.contains(&Tuple::from([1, 100])));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failpoint_torn_write_after_append_loses_only_last_txn() {
    let dir = ivm_storage::temp::scratch_dir("fp-torn-append");
    let plan = Arc::new(ivm_storage::FailpointPlan::new());
    {
        let mut m = ViewManager::open(&dir).unwrap();
        m.create_relation("R", Schema::new(["A"]).unwrap()).unwrap();
        let mut txn = Transaction::new();
        txn.insert("R", [1]).unwrap();
        m.execute(&txn).unwrap();
        m.set_failpoints(Arc::clone(&plan));
        // Tear the tail of the record we just appended, then crash: the
        // transaction is lost even though the append itself succeeded.
        plan.arm(
            ivm_storage::fault::FP_WAL_AFTER_APPEND,
            0,
            ivm_storage::FailpointAction::CorruptAndCrash(ivm_storage::CorruptSpec::TruncateAt(
                ivm_storage::FaultPos::FromEnd(3),
            )),
        );
        let mut txn = Transaction::new();
        txn.insert("R", [2]).unwrap();
        let err = m.execute(&txn).unwrap_err();
        assert!(matches!(
            err,
            crate::error::IvmError::Storage(ref e) if e.is_injected()
        ));
    }
    let m = ViewManager::open(&dir).unwrap();
    let r = m.database().relation("R").unwrap();
    assert!(r.contains(&Tuple::from([1])));
    assert!(!r.contains(&Tuple::from([2])));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn filtering_can_be_disabled() {
    let mut m = manager_with_data().with_filtering(false);
    m.register_view("v", view_expr(), RefreshPolicy::Immediate)
        .unwrap();
    let mut txn = Transaction::new();
    txn.insert("R", [50, 10]).unwrap();
    m.execute(&txn).unwrap();
    let s = m.stats("v").unwrap();
    assert_eq!(s.skipped_by_filter, 0);
    assert_eq!(s.maintenance_runs, 1);
    m.verify_consistency().unwrap();
}

#[test]
fn deferred_view_is_stale_until_refresh() {
    let mut m = manager_with_data();
    m.register_view("v", view_expr(), RefreshPolicy::Deferred)
        .unwrap();
    let mut txn = Transaction::new();
    txn.insert("R", [3, 10]).unwrap();
    m.execute(&txn).unwrap();
    assert!(!m
        .view_contents("v")
        .unwrap()
        .contains(&Tuple::from([3, 100])));
    m.refresh("v").unwrap();
    assert!(m
        .view_contents("v")
        .unwrap()
        .contains(&Tuple::from([3, 100])));
    m.verify_consistency().unwrap();
}

/// A relevant write to a deferred view is queued, not maintained: the
/// report counts it in `views_deferred` only, and the refresh that
/// folds it in leaves the view equal to full re-evaluation.
#[test]
fn deferred_write_is_reported_as_deferred_not_maintained() {
    let mut m = manager_with_data();
    m.register_view("v", view_expr(), RefreshPolicy::Deferred)
        .unwrap();
    let mut txn = Transaction::new();
    txn.insert("R", [3, 10]).unwrap();
    let report = m.execute(&txn).unwrap();
    assert_eq!(report.views_touched, 1);
    assert_eq!(report.views_deferred, 1);
    assert_eq!(report.views_maintained, 0);
    assert_eq!(report.diff.rows_evaluated, 0);
    m.refresh("v").unwrap();
    let full = view_expr().eval(m.database()).unwrap();
    assert_eq!(m.view_contents("v").unwrap(), &full);
    assert!(full.contains(&Tuple::from([3, 100])));
}

#[test]
fn deferred_accumulates_and_cancels() {
    let mut m = manager_with_data();
    m.register_view("v", view_expr(), RefreshPolicy::Deferred)
        .unwrap();
    let mut t1 = Transaction::new();
    t1.insert("R", [3, 10]).unwrap();
    m.execute(&t1).unwrap();
    let mut t2 = Transaction::new();
    t2.delete("R", [3, 10]).unwrap();
    m.execute(&t2).unwrap();
    m.refresh("v").unwrap();
    // Net no-op: view unchanged, and the refresh had nothing to do.
    assert!(!m
        .view_contents("v")
        .unwrap()
        .contains(&Tuple::from([3, 100])));
    m.verify_consistency().unwrap();
}

/// A deferred join over indexed base operands, refreshed every third
/// step while rows come in and old rows go out. The refresh runs the
/// engine backwards from the live operands and their indexes; the view
/// stays equal to full re-evaluation, and the output counters describe
/// the delta the listeners saw, not the backward run's negation.
#[test]
fn deferred_refresh_over_indexed_operands_stays_consistent() {
    let mut m = ViewManager::new();
    m.create_relation("R", Schema::new(["A", "B"]).unwrap())
        .unwrap();
    m.create_relation("S", Schema::new(["B", "C"]).unwrap())
        .unwrap();
    let expr = SpjExpr::new(
        ["R", "S"],
        Atom::lt_const("A", 20).into(),
        Some(vec!["B".into(), "C".into()]),
    );
    m.register_view("v", expr, RefreshPolicy::Deferred).unwrap();
    assert!(m.database().relation("R").unwrap().index_count() > 0);
    assert!(m.database().relation("S").unwrap().index_count() > 0);
    let seen = Arc::new(std::sync::Mutex::new((0u64, 0u64)));
    let tally = Arc::clone(&seen);
    m.on_change(
        "v",
        Arc::new(move |_, d: &DeltaRelation| {
            let mut t = tally.lock().unwrap();
            for (_, c) in d.iter() {
                if c > 0 {
                    t.0 += c as u64;
                } else {
                    t.1 += c.unsigned_abs();
                }
            }
        }),
    )
    .unwrap();
    let row = |s: i64| ([s, s % 4], [s % 4, 100 + s]);
    for step in 0..15i64 {
        let mut txn = Transaction::new();
        let (r, s) = row(step);
        txn.insert("R", r).unwrap();
        if step < 4 || step % 3 == 0 {
            txn.insert("S", s).unwrap();
        }
        if step >= 3 {
            txn.delete("R", row(step - 3).0).unwrap();
        }
        m.execute(&txn).unwrap();
        if step % 3 == 2 {
            m.refresh("v").unwrap();
            m.verify_consistency().unwrap();
        }
    }
    m.refresh("v").unwrap();
    m.verify_consistency().unwrap();
    let stats = m.stats("v").unwrap();
    let (ins, del) = *seen.lock().unwrap();
    assert!(ins > 0 && del > 0, "the stream both grew and shrank v");
    assert_eq!(stats.diff.output_inserts, ins);
    assert_eq!(stats.diff.output_deletes, del);
}

/// A deferred self-join of a projection, whose deltas carry counts
/// above one: the backward refresh feeds the same negated delta to
/// both positions and stays equal to full re-evaluation.
#[test]
fn deferred_self_join_refresh_stays_consistent() {
    let mut m = ViewManager::new();
    m.create_relation("R", Schema::new(["A", "B"]).unwrap())
        .unwrap();
    let p = SpjExpr::new(["R"], Condition::always_true(), Some(vec!["A".into()]));
    m.register_view("p", p, RefreshPolicy::Immediate).unwrap();
    let sq = SpjExpr::new(["p", "p"], Condition::always_true(), None);
    m.register_view("sq", sq, RefreshPolicy::Deferred).unwrap();
    let row = |s: i64| [s % 3, s];
    for step in 0..16i64 {
        let mut txn = Transaction::new();
        txn.insert("R", row(step)).unwrap();
        if step >= 5 {
            txn.delete("R", row(step - 5)).unwrap();
        }
        m.execute(&txn).unwrap();
        if step % 2 == 1 {
            m.refresh("sq").unwrap();
            m.verify_consistency().unwrap();
        }
    }
    let sq = m.view_contents("sq").unwrap();
    assert!(sq.iter().any(|(_, c)| c > 1), "sq = {sq}");
}

#[test]
fn on_demand_refreshes_at_query() {
    let mut m = manager_with_data();
    m.register_view("v", view_expr(), RefreshPolicy::OnDemand)
        .unwrap();
    let mut txn = Transaction::new();
    txn.insert("R", [3, 10]).unwrap();
    m.execute(&txn).unwrap();
    let v = m.query("v").unwrap();
    assert!(v.contains(&Tuple::from([3, 100])));
}

#[test]
fn listeners_fire_with_deltas() {
    let mut m = manager_with_data();
    m.register_view("v", view_expr(), RefreshPolicy::Immediate)
        .unwrap();
    let hits = Arc::new(AtomicUsize::new(0));
    let h = hits.clone();
    m.on_change(
        "v",
        Arc::new(move |_name, delta| {
            h.fetch_add(delta.len(), Ordering::SeqCst);
        }),
    )
    .unwrap();
    let mut txn = Transaction::new();
    txn.insert("R", [3, 10]).unwrap();
    m.execute(&txn).unwrap();
    assert_eq!(hits.load(Ordering::SeqCst), 1);
    // Irrelevant change: no notification.
    let mut txn = Transaction::new();
    txn.insert("R", [99, 10]).unwrap();
    m.execute(&txn).unwrap();
    assert_eq!(hits.load(Ordering::SeqCst), 1);
}

#[test]
fn duplicate_and_unknown_views() {
    let mut m = manager_with_data();
    m.register_view("v", view_expr(), RefreshPolicy::Immediate)
        .unwrap();
    assert!(matches!(
        m.register_view("v", view_expr(), RefreshPolicy::Immediate),
        Err(IvmError::DuplicateView(_))
    ));
    assert!(matches!(m.refresh("zzz"), Err(IvmError::UnknownView(_))));
}

#[test]
fn multiple_views_one_transaction() {
    let mut m = manager_with_data();
    m.register_view("v1", view_expr(), RefreshPolicy::Immediate)
        .unwrap();
    m.register_view(
        "v2",
        SpjExpr::new(["S"], Atom::gt_const("C", 150).into(), None),
        RefreshPolicy::Immediate,
    )
    .unwrap();
    let mut txn = Transaction::new();
    txn.insert("S", [10, 300]).unwrap();
    m.execute(&txn).unwrap();
    m.verify_consistency().unwrap();
    assert!(m
        .view_contents("v2")
        .unwrap()
        .contains(&Tuple::from([10, 300])));
    assert!(m
        .view_contents("v1")
        .unwrap()
        .contains(&Tuple::from([1, 300])));
}

#[test]
fn shared_manager_roundtrip() {
    let shared = SharedViewManager::new(manager_with_data());
    shared
        .write(|m| m.register_view("v", view_expr(), RefreshPolicy::Immediate))
        .unwrap();
    let mut txn = Transaction::new();
    txn.insert("R", [3, 10]).unwrap();
    shared.execute(&txn).unwrap();
    let v = shared.query("v").unwrap();
    assert!(v.contains(&Tuple::from([3, 100])));
    let count = shared.read(|m| m.view_names().count());
    assert_eq!(count, 1);
}

#[test]
fn always_full_strategy_recomputes() {
    let mut m = manager_with_data().with_strategy(MaintenanceStrategy::AlwaysFull);
    m.register_view("v", view_expr(), RefreshPolicy::Immediate)
        .unwrap();
    let mut txn = Transaction::new();
    txn.insert("R", [3, 10]).unwrap();
    m.execute(&txn).unwrap();
    let s = m.stats("v").unwrap();
    assert_eq!(s.full_recomputes, 1);
    assert_eq!(s.maintenance_runs, 0);
    assert!(m
        .view_contents("v")
        .unwrap()
        .contains(&Tuple::from([3, 100])));
    m.verify_consistency().unwrap();
}

#[test]
fn full_strategy_still_notifies_listeners() {
    let mut m = manager_with_data().with_strategy(MaintenanceStrategy::AlwaysFull);
    m.register_view("v", view_expr(), RefreshPolicy::Immediate)
        .unwrap();
    let hits = Arc::new(AtomicUsize::new(0));
    let h = hits.clone();
    m.on_change(
        "v",
        Arc::new(move |_, d| {
            h.fetch_add(d.len(), Ordering::SeqCst);
        }),
    )
    .unwrap();
    let mut txn = Transaction::new();
    txn.insert("R", [3, 10]).unwrap();
    m.execute(&txn).unwrap();
    assert_eq!(hits.load(Ordering::SeqCst), 1);
}

#[test]
fn cost_based_strategy_picks_differential_for_small_changes() {
    let mut m = manager_with_data().with_strategy(MaintenanceStrategy::CostBased);
    m.register_view("v", view_expr(), RefreshPolicy::Immediate)
        .unwrap();
    let mut txn = Transaction::new();
    txn.insert("R", [3, 10]).unwrap();
    m.execute(&txn).unwrap();
    let s = m.stats("v").unwrap();
    assert_eq!(s.maintenance_runs, 1);
    assert_eq!(s.full_recomputes, 0);
    m.verify_consistency().unwrap();
}

#[test]
fn cost_based_strategy_picks_full_for_wholesale_changes() {
    // Disjoint schemas: a cross product has no equijoin structure, so
    // no join-key index is derived and the unindexed crossover still
    // sends wholesale replacement to full re-evaluation.
    let mut m = ViewManager::new().with_strategy(MaintenanceStrategy::CostBased);
    m.create_relation("R", Schema::new(["A", "B"]).unwrap())
        .unwrap();
    m.create_relation("S", Schema::new(["C", "D"]).unwrap())
        .unwrap();
    m.load("R", (0..100i64).map(|i| [i, i % 10]).collect::<Vec<_>>())
        .unwrap();
    m.load("S", (0..10i64).map(|i| [i, i * 7]).collect::<Vec<_>>())
        .unwrap();
    m.register_view(
        "v",
        SpjExpr::new(["R", "S"], Condition::always_true(), None),
        RefreshPolicy::Immediate,
    )
    .unwrap();
    assert_eq!(m.database().relation("R").unwrap().index_count(), 0);
    // Replace nearly the whole of R in one transaction.
    let mut txn = Transaction::new();
    for i in 0..100i64 {
        txn.delete("R", [i, i % 10]).unwrap();
        txn.insert("R", [1000 + i, i % 10]).unwrap();
    }
    m.execute(&txn).unwrap();
    let s = m.stats("v").unwrap();
    assert_eq!(
        s.full_recomputes, 1,
        "wholesale change must trigger full re-eval"
    );
    assert_eq!(s.maintenance_runs, 0);
    m.verify_consistency().unwrap();
}

#[test]
fn cost_based_strategy_keeps_indexed_wholesale_differential() {
    // Same wholesale replacement, but R ⋈ S on B derives join-key
    // indexes at registration: the probe-priced differential estimate
    // now beats the full re-join, so maintenance stays incremental.
    let mut m = ViewManager::new().with_strategy(MaintenanceStrategy::CostBased);
    m.create_relation("R", Schema::new(["A", "B"]).unwrap())
        .unwrap();
    m.create_relation("S", Schema::new(["B", "C"]).unwrap())
        .unwrap();
    m.load("R", (0..100i64).map(|i| [i, i % 10]).collect::<Vec<_>>())
        .unwrap();
    m.load("S", (0..10i64).map(|i| [i, i * 7]).collect::<Vec<_>>())
        .unwrap();
    m.register_view(
        "v",
        SpjExpr::new(["R", "S"], Condition::always_true(), None),
        RefreshPolicy::Immediate,
    )
    .unwrap();
    assert!(m.database().relation("S").unwrap().index_count() > 0);
    let mut txn = Transaction::new();
    for i in 0..100i64 {
        txn.delete("R", [i, i % 10]).unwrap();
        txn.insert("R", [1000 + i, i % 10]).unwrap();
    }
    m.execute(&txn).unwrap();
    let s = m.stats("v").unwrap();
    assert_eq!(
        s.maintenance_runs, 1,
        "indexed wholesale stays differential"
    );
    assert_eq!(s.full_recomputes, 0);
    m.verify_consistency().unwrap();
}

#[test]
fn tree_view_maintained_through_manager() {
    let mut m = manager_with_data();
    // (R ⋈ S) ∪ (R ⋈ S with C > 150): counted union over a join.
    let joined = ivm_relational::expr::Expr::base("R").join(ivm_relational::expr::Expr::base("S"));
    let expr = joined
        .clone()
        .union(joined.select(Atom::gt_const("C", 150)));
    m.register_tree_view("t", expr).unwrap();
    assert_eq!(m.view_contents("t").unwrap().total_count(), 3); // 2 + 1

    let mut txn = Transaction::new();
    txn.insert("R", [3, 20]).unwrap(); // joins (20,200): counts in both branches
    txn.delete("S", [10, 100]).unwrap();
    m.execute(&txn).unwrap();
    m.verify_consistency().unwrap();
    let t = m.view_contents("t").unwrap();
    assert_eq!(t.count(&Tuple::from([3, 20, 200])), 2);
    assert!(!t.contains(&Tuple::from([1, 10, 100])));
    let s = m.stats("t").unwrap();
    assert_eq!(s.maintenance_runs, 1);
}

#[test]
fn tree_view_listener_and_query() {
    let mut m = manager_with_data();
    m.register_tree_view("t", ivm_relational::expr::Expr::base("R").project(["B"]))
        .unwrap();
    let hits = Arc::new(AtomicUsize::new(0));
    let h = hits.clone();
    m.on_change(
        "t",
        Arc::new(move |_, d| {
            h.fetch_add(d.len(), Ordering::SeqCst);
        }),
    )
    .unwrap();
    let mut txn = Transaction::new();
    txn.insert("R", [9, 90]).unwrap();
    m.execute(&txn).unwrap();
    assert_eq!(hits.load(Ordering::SeqCst), 1);
    let q = m.query("t").unwrap();
    assert!(q.contains(&Tuple::from([90])));
    // Names include both kinds; duplicate names rejected across kinds.
    assert_eq!(m.view_names().count(), 1);
    assert!(matches!(
        m.register_view("t", view_expr(), RefreshPolicy::Immediate),
        Err(IvmError::DuplicateView(_))
    ));
    assert!(matches!(
        m.register_tree_view("t", ivm_relational::expr::Expr::base("R")),
        Err(IvmError::DuplicateView(_))
    ));
}

#[test]
fn tree_views_pass_the_view_name_checks() {
    let mut m = manager_with_data();
    assert!(matches!(
        m.register_tree_view("R", ivm_relational::expr::Expr::base("R")),
        Err(IvmError::UnsupportedView(_))
    ));
    assert!(matches!(
        m.register_view("R", view_expr(), RefreshPolicy::Immediate),
        Err(IvmError::UnsupportedView(_))
    ));
    assert_eq!(m.view_names().count(), 0);
}

#[test]
fn tree_view_terms_run_the_relevance_filter() {
    let mut m = manager_with_data();
    // π_{A,B}(σ_{A<10}(R) ⋈ S) ∪ σ_{A<10}(R): both terms filter on
    // A < 10.
    let small = Expr::base("R").select(Atom::lt_const("A", 10));
    let expr = small
        .clone()
        .join(Expr::base("S"))
        .project(["A", "B"])
        .union(small);
    m.register_tree_view("t", expr).unwrap();
    let mut txn = Transaction::new();
    txn.insert("R", [50, 10]).unwrap(); // A = 50: irrelevant to every term
    let report = m.execute(&txn).unwrap();
    assert_eq!(report.views_touched, 1);
    assert_eq!(report.views_skipped, 1);
    assert_eq!(report.views_maintained, 0);
    assert_eq!(report.filter.irrelevant, 2, "one check per term");
    assert_eq!(m.stats("t").unwrap().skipped_by_filter, 1);
    // A relation no term reads leaves the view untouched.
    m.create_relation("U", Schema::new(["A"]).unwrap()).unwrap();
    let mut txn = Transaction::new();
    txn.insert("U", [1]).unwrap();
    assert_eq!(m.execute(&txn).unwrap().views_touched, 0);
    m.verify_consistency().unwrap();
}

#[test]
fn views_without_terms_are_rejected() {
    let mut m = manager_with_data();
    let no_operands = SpjExpr::new(Vec::<String>::new(), Condition::always_true(), None);
    assert!(matches!(
        m.register_view("v", no_operands, RefreshPolicy::Immediate),
        Err(IvmError::UnsupportedView(_))
    ));
    // R − R: every term cancels, so there is nothing to maintain.
    assert!(matches!(
        m.register_tree_view("t", Expr::base("R").difference(Expr::base("R"))),
        Err(IvmError::UnsupportedView(_))
    ));
    assert_eq!(m.view_names().count(), 0);
}

#[test]
fn apply_shares_rows_with_the_delta_and_the_pinned_copy() {
    let mut m = manager_with_data();
    m.register_view("v", view_expr(), RefreshPolicy::Immediate)
        .unwrap();
    let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let sink = Arc::clone(&seen);
    m.on_change("v", Arc::new(move |_, d| sink.lock().push(d.clone())))
        .unwrap();
    // A pinned reader forces the copy-on-write path.
    let pinned = m.query("v").unwrap();
    let mut txn = Transaction::new();
    txn.insert("R", [3, 10]).unwrap();
    m.execute(&txn).unwrap();
    let after = m.query("v").unwrap();
    assert!(!Arc::ptr_eq(&pinned, &after), "copied");
    let ptr_in = |rel: &Relation, row: &Tuple| {
        let (t, _) = rel.iter().find(|(t, _)| *t == row).unwrap();
        t.values().as_ptr()
    };
    let delta = seen.lock().pop().unwrap();
    let (added, _) = delta.iter().next().unwrap();
    assert_eq!(ptr_in(&after, added), added.values().as_ptr());
    // The copy duplicated table slots, not rows: old rows are shared.
    for (t, _) in pinned.iter() {
        assert_eq!(ptr_in(&after, t), t.values().as_ptr());
    }
}

#[test]
fn spj_view_stacks_on_a_tree_view() {
    let mut m = manager_with_data();
    m.create_relation("T", Schema::new(["A", "B"]).unwrap())
        .unwrap();
    m.load("T", [[7, 20]]).unwrap();
    m.register_tree_view("u", Expr::base("R").union(Expr::base("T")))
        .unwrap();
    m.register_view(
        "w",
        SpjExpr::new(["u", "S"], Atom::gt_const("C", 150).into(), None),
        RefreshPolicy::Immediate,
    )
    .unwrap();
    let node = m.dag().into_iter().find(|n| n.name == "w").unwrap();
    assert_eq!(node.depends_on, ["u"]);
    assert_eq!(node.stratum, 1);
    let mut txn = Transaction::new();
    txn.insert("T", [8, 20]).unwrap();
    txn.delete("R", [2, 20]).unwrap();
    let report = m.execute(&txn).unwrap();
    assert_eq!(report.views_maintained, 2);
    let w = m.view_contents("w").unwrap();
    assert!(w.contains(&Tuple::from([8, 20, 200])));
    assert!(!w.contains(&Tuple::from([2, 20, 200])));
    assert_eq!(m.view_expr("w").unwrap().relations, ["u", "S"]);
    assert!(matches!(
        m.view_expr("u"),
        Err(IvmError::UnsupportedView(_))
    ));
    m.verify_consistency().unwrap();
}

#[test]
fn tree_view_over_registered_projections() {
    // π_{A,C}(R ⋈ S) ∪ (π_A(T) ⋈ π_C(S)). Lifting π_A(T) above its
    // join would join on B, so the tree is rejected as written; with
    // the projections registered as views it compiles, cross product
    // of disjoint schemes included.
    let mut m = manager_with_data();
    m.create_relation("T", Schema::new(["A", "B"]).unwrap())
        .unwrap();
    m.load("T", [[1, 10], [7, 70]]).unwrap();
    let left = Expr::base("R").join(Expr::base("S")).project(["A", "C"]);
    let inline = left.clone().union(
        Expr::base("T")
            .project(["A"])
            .join(Expr::base("S").project(["C"])),
    );
    let err = m.register_tree_view("t", inline).unwrap_err();
    assert!(
        matches!(&err, IvmError::UnsupportedView(msg) if msg.contains("attribute B")),
        "{err}"
    );
    let project = |rel: &str, attr: &str| {
        SpjExpr::new([rel], Condition::always_true(), Some(vec![attr.into()]))
    };
    m.register_view("ta", project("T", "A"), RefreshPolicy::Immediate)
        .unwrap();
    m.register_view("sc", project("S", "C"), RefreshPolicy::Immediate)
        .unwrap();
    let stacked = left.union(Expr::base("ta").join(Expr::base("sc")));
    m.register_tree_view("t", stacked).unwrap();
    for step in 0..10i64 {
        let mut txn = Transaction::new();
        txn.insert("R", [100 + step, 10]).unwrap();
        if step % 2 == 0 {
            txn.insert("T", [200 + step, 10]).unwrap();
        }
        if step % 3 == 0 {
            txn.insert("S", [10, 1000 + step]).unwrap();
        }
        m.execute(&txn).unwrap();
        m.verify_consistency().unwrap();
    }
    // The literal tree, evaluated over the base relations.
    let literal = Expr::base("R")
        .join(Expr::base("S"))
        .project(["A", "C"])
        .eval(m.database())
        .unwrap();
    let ta = Expr::base("T").project(["A"]).eval(m.database()).unwrap();
    let sc = Expr::base("S").project(["C"]).eval(m.database()).unwrap();
    let cross = ivm_relational::algebra::natural_join(&ta, &sc).unwrap();
    let expected = ivm_relational::algebra::union(&literal, &cross).unwrap();
    assert_eq!(*m.view_contents("t").unwrap(), expected);
    assert!(expected.total_count() > 0);
}

#[test]
fn ill_formed_difference_fails_closed() {
    let dir = ivm_storage::temp::scratch_dir("ill-formed-difference");
    let mut m = ViewManager::open(&dir).unwrap();
    m.create_relation("R", Schema::new(["A"]).unwrap()).unwrap();
    m.create_relation("T", Schema::new(["A"]).unwrap()).unwrap();
    m.load("R", [[1], [2]]).unwrap();
    m.register_tree_view("d", Expr::base("R").difference(Expr::base("T")))
        .unwrap();
    let t_before = m.database().relation("T").unwrap().clone();
    let d_before = m.view_contents("d").unwrap().clone();
    let next_lsn = m.durability_status().unwrap().next_lsn;
    // (3) is in T but not in R: R − T would count it −1.
    let mut bad = Transaction::new();
    bad.insert("T", [3]).unwrap();
    assert!(matches!(
        m.execute(&bad).unwrap_err(),
        IvmError::Relational(RelError::NegativeCount(_))
    ));
    assert_eq!(
        m.durability_status().unwrap().next_lsn,
        next_lsn,
        "not logged"
    );
    assert_eq!(m.database().relation("T").unwrap(), &t_before);
    assert_eq!(m.view_contents("d").unwrap(), &d_before);
    drop(m);
    // Recovery sees nothing of it, and the next valid transaction
    // commits.
    let mut m = ViewManager::open(&dir).unwrap();
    assert_eq!(m.database().relation("T").unwrap(), &t_before);
    assert_eq!(m.view_contents("d").unwrap(), &d_before);
    let mut good = Transaction::new();
    good.insert("T", [2]).unwrap();
    m.execute(&good).unwrap();
    assert_eq!(
        m.view_contents("d").unwrap().sorted(),
        [(Tuple::from([1]), 1)]
    );
    m.verify_consistency().unwrap();
    drop(m);
    let mut m = ViewManager::open(&dir).unwrap();
    m.verify_consistency().unwrap();
    drop(m);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn builders_set_the_manager_state() {
    let m = ViewManager::new();
    assert_eq!(m.threads, DiffOptions::default().threads);
    assert_eq!(m.strategy, MaintenanceStrategy::default());
    assert!(m.filtering);
    assert!(!m.observability().enabled());
    let m = ViewManager::new()
        .with_threads(4)
        .with_threads(2)
        .with_strategy(MaintenanceStrategy::AlwaysFull)
        .with_filtering(false)
        .with_recorder(Arc::new(InMemoryRecorder::new()));
    assert_eq!(m.threads, 2);
    assert_eq!(m.strategy, MaintenanceStrategy::AlwaysFull);
    assert!(!m.filtering);
    assert!(m.observability().enabled());
}

/// Registration builds one §4 filter per (term, base operand) pair; a
/// write builds none.
#[test]
fn registration_builds_each_terms_filters_once() {
    let recorder = Arc::new(InMemoryRecorder::new());
    let mut m = manager_with_data().with_recorder(recorder.clone());
    m.register_view("v", view_expr(), RefreshPolicy::Immediate)
        .unwrap();
    assert_eq!(recorder.counter(names::FILTER_GRAPHS_BUILT), 2);
    let over_s = SpjExpr::new(["S"], Atom::gt_const("C", 150).into(), None);
    m.register_view("w", over_s, RefreshPolicy::Deferred)
        .unwrap();
    assert_eq!(recorder.counter(names::FILTER_GRAPHS_BUILT), 3);
    let mut txn = Transaction::new();
    txn.insert("R", [3, 10]).unwrap();
    txn.insert("S", [30, 300]).unwrap();
    m.execute(&txn).unwrap();
    assert_eq!(recorder.counter(names::FILTER_TUPLES_CHECKED), 3);
    assert_eq!(recorder.counter(names::FILTER_GRAPHS_BUILT), 3);
    m.verify_consistency().unwrap();
}

/// Checkpoint recovery builds a view's filters with its terms, so the
/// first write after reopening filters without building one.
#[test]
fn recovered_views_filter_without_building_on_write() {
    let dir = ivm_storage::temp::scratch_dir("filters-at-recovery");
    {
        let mut m = ViewManager::open(&dir).unwrap();
        m.create_relation("R", Schema::new(["A", "B"]).unwrap())
            .unwrap();
        m.create_relation("S", Schema::new(["B", "C"]).unwrap())
            .unwrap();
        m.load("S", [[10, 100]]).unwrap();
        m.register_view("v", view_expr(), RefreshPolicy::Immediate)
            .unwrap();
        m.checkpoint().unwrap();
    }
    let recorder = Arc::new(InMemoryRecorder::new());
    let mut m = ViewManager::open(&dir)
        .unwrap()
        .with_recorder(recorder.clone());
    assert_eq!(m.recovery_report().unwrap().wal_records_replayed, 0);
    let mut txn = Transaction::new();
    txn.insert("R", [3, 10]).unwrap();
    assert_eq!(m.execute(&txn).unwrap().views_maintained, 1);
    assert_eq!(recorder.counter(names::FILTER_TUPLES_ADMITTED), 1);
    assert_eq!(recorder.counter(names::FILTER_GRAPHS_BUILT), 0);
    assert!(m
        .view_contents("v")
        .unwrap()
        .contains(&Tuple::from([3, 100])));
    m.verify_consistency().unwrap();
    drop(m);
    std::fs::remove_dir_all(&dir).ok();
}

/// A refresh's recorder counters describe the refresh, not the engine's
/// backward run: folding queued inserts in counts them as inserts.
#[test]
fn refresh_counts_its_inserts_as_inserts() {
    let recorder = Arc::new(InMemoryRecorder::new());
    let mut m = manager_with_data().with_recorder(recorder.clone());
    m.register_view("v", view_expr(), RefreshPolicy::Deferred)
        .unwrap();
    let mut txn = Transaction::new();
    txn.insert("R", [3, 10]).unwrap();
    txn.insert("R", [4, 20]).unwrap();
    m.execute(&txn).unwrap();
    recorder.reset();
    m.refresh("v").unwrap();
    assert_eq!(recorder.counter(names::DIFF_OUTPUT_INSERTS), 2);
    assert_eq!(recorder.counter(names::DIFF_OUTPUT_DELETES), 0);
    assert_eq!(recorder.counter(names::DIFF_TAG_DELETES), 0);
    assert_eq!(recorder.counter(names::MANAGER_MAINTENANCE_RUNS), 1);
    let s = m.stats("v").unwrap();
    assert_eq!((s.diff.output_inserts, s.diff.output_deletes), (2, 0));
    m.verify_consistency().unwrap();
}

#[test]
fn thread_count_does_not_change_view_contents() {
    let run = |threads: usize| {
        let mut m = manager_with_data().with_threads(threads);
        m.register_view("v", view_expr(), RefreshPolicy::Immediate)
            .unwrap();
        for i in 0..30i64 {
            let mut txn = Transaction::new();
            txn.insert("R", [3 + i, 10 * (i % 3 + 1)]).unwrap();
            if i % 4 == 0 {
                txn.insert("S", [10 * (i % 3 + 1), 500 + i]).unwrap();
            }
            m.execute(&txn).unwrap();
        }
        m.verify_consistency().unwrap();
        m.view_contents("v").unwrap().clone()
    };
    let seq = run(1);
    for threads in [2, 8] {
        assert_eq!(run(threads), seq, "threads={threads}");
    }
}

#[test]
fn snapshots_publish_at_commit_points() {
    let mut m = manager_with_data();
    m.register_view("v", view_expr(), RefreshPolicy::Immediate)
        .unwrap();
    let hub = m.snapshots();
    let armed_epoch = hub.epoch();
    assert!(hub.is_armed());
    let before = hub.latest();
    assert_eq!(before.len(), 1);
    let mut txn = Transaction::new();
    txn.insert("R", [3, 10]).unwrap();
    m.execute(&txn).unwrap();
    let after = hub.latest();
    assert_eq!(after.epoch(), armed_epoch + 1);
    assert!(after.get("v").unwrap().contains(&Tuple::from([3, 100])));
    // The pinned pre-transaction snapshot is unchanged.
    assert!(!before.get("v").unwrap().contains(&Tuple::from([3, 100])));
}

#[test]
fn snapshot_reuses_allocations_for_untouched_views() {
    let mut m = manager_with_data();
    m.register_view("v", view_expr(), RefreshPolicy::Immediate)
        .unwrap();
    m.register_view(
        "w",
        SpjExpr::new(["S"], Atom::gt_const("C", 150).into(), None),
        RefreshPolicy::Immediate,
    )
    .unwrap();
    let hub = m.snapshots();
    let before = hub.latest();
    // Touches R only: `w` (over S) must share its allocation.
    let mut txn = Transaction::new();
    txn.insert("R", [3, 10]).unwrap();
    m.execute(&txn).unwrap();
    let after = hub.latest();
    assert!(std::ptr::eq(
        before.get("w").unwrap(),
        after.get("w").unwrap()
    ));
    assert!(!std::ptr::eq(
        before.get("v").unwrap(),
        after.get("v").unwrap()
    ));
}

#[test]
fn query_returns_an_isolated_snapshot() {
    let mut m = manager_with_data();
    m.register_view("v", view_expr(), RefreshPolicy::Immediate)
        .unwrap();
    let held = m.query("v").unwrap();
    let rows_then = (*held).clone();
    let mut txn = Transaction::new();
    txn.insert("R", [3, 10]).unwrap();
    m.execute(&txn).unwrap();
    assert_eq!(*held, rows_then, "a held query result never changes");
    assert!(!held.contains(&Tuple::from([3, 100])));
    assert!(m.query("v").unwrap().contains(&Tuple::from([3, 100])));
    m.verify_consistency().unwrap();
}

#[test]
fn reads_share_the_view_instead_of_copying_it() {
    let mut m = manager_with_data();
    m.register_view("v", view_expr(), RefreshPolicy::Immediate)
        .unwrap();
    let first = m.query("v").unwrap();
    assert!(
        Arc::ptr_eq(&first, &m.query("v").unwrap()),
        "no write between two queries: one allocation"
    );
    let hub = m.snapshots();
    let q = m.query("v").unwrap();
    assert!(std::ptr::eq(&*q, hub.latest().get("v").unwrap()));
    // Relevant to `v` (A < 10) but joining no S tuple: the
    // differential pass runs and yields an empty delta, which must not
    // copy the view although the hub and `q` both hold it.
    let mut txn = Transaction::new();
    txn.insert("R", [3, 30]).unwrap();
    assert_eq!(m.execute(&txn).unwrap().views_maintained, 1);
    let after = m.query("v").unwrap();
    assert!(Arc::ptr_eq(&q, &after), "an empty delta keeps the pointer");
    assert!(std::ptr::eq(&*after, hub.latest().get("v").unwrap()));
}

#[test]
fn shared_query_reads_under_the_read_lock() {
    let mut m = manager_with_data();
    m.register_view("v", view_expr(), RefreshPolicy::Immediate)
        .unwrap();
    m.register_view("lazy", view_expr(), RefreshPolicy::OnDemand)
        .unwrap();
    let shared = SharedViewManager::new(m);
    let mut txn = Transaction::new();
    txn.insert("R", [3, 10]).unwrap();
    shared.execute(&txn).unwrap();
    // A read lock held elsewhere does not block `query` on an
    // immediate view (a query that took the write lock would time
    // out here).
    let (tx, rx) = std::sync::mpsc::channel();
    let reader = shared.clone();
    let v = shared.read(|_| {
        std::thread::spawn(move || tx.send(reader.query("v")));
        rx.recv_timeout(std::time::Duration::from_secs(10))
    });
    let v = v.expect("query waited for the read lock").unwrap();
    assert!(v.contains(&Tuple::from([3, 100])));
    // An on-demand view with changes pending still refreshes.
    let lazy = shared.query("lazy").unwrap();
    assert_eq!(*lazy, *v);
    assert!(shared.read(|m| m.stats("lazy").unwrap().maintenance_runs) > 0);
}

#[test]
fn deferred_view_snapshot_catches_up_on_refresh() {
    let mut m = manager_with_data();
    m.register_view("v", view_expr(), RefreshPolicy::Deferred)
        .unwrap();
    let hub = m.snapshots();
    let mut txn = Transaction::new();
    txn.insert("R", [3, 10]).unwrap();
    m.execute(&txn).unwrap();
    // Deferred: the snapshot mirrors the stale materialization.
    assert!(!hub
        .latest()
        .get("v")
        .unwrap()
        .contains(&Tuple::from([3, 100])));
    m.refresh("v").unwrap();
    assert!(hub
        .latest()
        .get("v")
        .unwrap()
        .contains(&Tuple::from([3, 100])));
}

#[test]
fn invalid_transaction_changes_nothing_durable() {
    let dir = ivm_storage::temp::scratch_dir("invalid-txn");
    let mut m = ViewManager::open(&dir).unwrap();
    m.create_relation("R", Schema::new(["A", "B"]).unwrap())
        .unwrap();
    m.create_relation("S", Schema::new(["B", "C"]).unwrap())
        .unwrap();
    m.load("R", [[1, 10], [2, 20]]).unwrap();
    m.load("S", [[10, 100], [20, 200]]).unwrap();
    m.register_view("v", view_expr(), RefreshPolicy::Immediate)
        .unwrap();
    m.register_view(
        "small",
        SpjExpr::new(["R"], Atom::lt_const("A", 5).into(), None),
        RefreshPolicy::Immediate,
    )
    .unwrap();
    let status = m.durability_status().unwrap();
    let (wal_bytes, next_lsn) = (status.wal_len_bytes, status.next_lsn);
    let relations = [
        m.database().relation("R").unwrap().clone(),
        m.database().relation("S").unwrap().clone(),
    ];
    let views = [
        m.view_contents("v").unwrap().clone(),
        m.view_contents("small").unwrap().clone(),
    ];
    let hub = m.snapshots();
    let epoch = hub.epoch();
    // A valid insert next to an insert of a tuple R already holds.
    let mut txn = Transaction::new();
    txn.insert("R", [3, 10]).unwrap();
    txn.insert("R", [1, 10]).unwrap();
    assert!(matches!(
        m.execute(&txn).unwrap_err(),
        IvmError::Relational(RelError::InsertExists(_))
    ));
    let status = m.durability_status().unwrap();
    assert_eq!(status.wal_len_bytes, wal_bytes, "nothing logged");
    assert_eq!(status.next_lsn, next_lsn);
    assert_eq!(m.database().relation("R").unwrap(), &relations[0]);
    assert_eq!(m.database().relation("S").unwrap(), &relations[1]);
    assert_eq!(m.view_contents("v").unwrap(), &views[0]);
    assert_eq!(m.view_contents("small").unwrap(), &views[1]);
    assert_eq!(hub.epoch(), epoch, "nothing published");
    m.verify_consistency().unwrap();
    drop(m);
    // Recovery replays nothing of it either.
    let m = ViewManager::open(&dir).unwrap();
    assert_eq!(m.database().relation("R").unwrap(), &relations[0]);
    assert_eq!(m.view_contents("v").unwrap(), &views[0]);
    drop(m);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn injected_crash_publishes_nothing() {
    let dir = ivm_storage::temp::scratch_dir("snap-no-publish");
    let plan = Arc::new(ivm_storage::FailpointPlan::new());
    let mut m = ViewManager::open(&dir).unwrap();
    m.create_relation("R", Schema::new(["A", "B"]).unwrap())
        .unwrap();
    m.create_relation("S", Schema::new(["B", "C"]).unwrap())
        .unwrap();
    m.register_view("v", view_expr(), RefreshPolicy::Immediate)
        .unwrap();
    let hub = m.snapshots();
    let epoch_before = hub.epoch();
    m.set_failpoints(Arc::clone(&plan));
    plan.arm(
        ivm_storage::fault::FP_APPLY_MID,
        0,
        ivm_storage::FailpointAction::Crash,
    );
    let mut txn = Transaction::new();
    txn.insert("R", [1, 10]).unwrap();
    assert!(m.execute(&txn).is_err());
    // The crash hit mid-apply: readers must still see the old state.
    assert_eq!(hub.epoch(), epoch_before);
    assert!(hub.latest().get("v").unwrap().is_empty());
    drop(m);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn load_after_registration_maintains_view() {
    let mut m = ViewManager::new();
    m.create_relation("R", Schema::new(["A"]).unwrap()).unwrap();
    m.register_view(
        "v",
        SpjExpr::new(["R"], Atom::lt_const("A", 10).into(), None),
        RefreshPolicy::Immediate,
    )
    .unwrap();
    m.load("R", [[1], [20]]).unwrap();
    let v = m.view_contents("v").unwrap();
    assert!(v.contains(&Tuple::from([1])));
    assert!(!v.contains(&Tuple::from([20])));
    m.verify_consistency().unwrap();
}
