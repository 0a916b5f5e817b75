//! Observability integration: the `MaintenanceReport` returned by
//! [`ViewManager::execute`] and the metrics emitted to an attached
//! [`InMemoryRecorder`] must tell the same story as the engine's own
//! statistics — and that story must be identical at every thread count
//! (work counts are deterministic; only timings are observational).

use std::sync::Arc;

use ivm::prelude::*;

fn build_manager(threads: usize, recorder: Arc<InMemoryRecorder>) -> ViewManager {
    let mut m = ViewManager::new()
        .with_threads(threads)
        .with_recorder(recorder);
    m.create_relation("R", Schema::new(["A", "B"]).unwrap())
        .unwrap();
    m.create_relation("S", Schema::new(["B", "C"]).unwrap())
        .unwrap();
    m.create_relation("T", Schema::new(["C", "D"]).unwrap())
        .unwrap();
    m.load("R", (0..40i64).map(|i| [i, i % 8]).collect::<Vec<_>>())
        .unwrap();
    m.load("S", (0..8i64).map(|i| [i, i * 3]).collect::<Vec<_>>())
        .unwrap();
    m.load("T", (0..24i64).map(|i| [i, i + 100]).collect::<Vec<_>>())
        .unwrap();
    m.register_view(
        "v",
        SpjExpr::new(
            ["R", "S", "T"],
            Atom::lt_const("A", 30).into(),
            Some(vec!["A".into(), "D".into()]),
        ),
        RefreshPolicy::Immediate,
    )
    .unwrap();
    m
}

/// A transaction touching all three operands: the truth table has
/// 2³ − 1 = 7 rows, so `rows_evaluated` is meaningfully > 1.
fn mixed_txn(round: i64) -> Transaction {
    let mut txn = Transaction::new();
    txn.insert("R", [40 + round, round % 8]).unwrap();
    txn.insert("S", [round % 8, 1000 + round]).unwrap();
    txn.insert("T", [round % 24 + 50, round]).unwrap();
    txn.delete("R", [round, round % 8]).unwrap();
    txn
}

/// Run a fixed workload and return (total report, final view contents,
/// counter snapshot).
fn run_workload(threads: usize) -> (usize, usize, Relation, Snapshot) {
    let recorder = Arc::new(InMemoryRecorder::new());
    let mut m = build_manager(threads, recorder.clone());
    recorder.reset(); // ignore the loads; measure the maintenance rounds
    let mut report_rows = 0;
    let engine_rows_before = m.stats("v").unwrap().diff.rows_evaluated;
    for round in 0..12i64 {
        let report = m.execute(&mixed_txn(round)).unwrap();
        report_rows += report.diff.rows_evaluated;
    }
    m.verify_consistency().unwrap();
    let engine_rows = m.stats("v").unwrap().diff.rows_evaluated - engine_rows_before;
    let contents = m.view_contents("v").unwrap().clone();
    (report_rows, engine_rows, contents, recorder.snapshot())
}

#[test]
fn report_rows_evaluated_matches_engine_and_recorder() {
    for threads in [1, 8] {
        let (report_rows, engine_rows, _, snapshot) = run_workload(threads);
        assert!(report_rows > 0, "threads={threads}: workload must do work");
        assert_eq!(
            report_rows, engine_rows,
            "threads={threads}: MaintenanceReport must equal per-view engine stats"
        );
        let counted = snapshot
            .counters
            .get(metric_names::DIFF_ROWS_EVALUATED)
            .copied()
            .unwrap_or(0);
        assert_eq!(
            counted, report_rows as u64,
            "threads={threads}: diff.rows_evaluated counter must equal the report"
        );
    }
}

#[test]
fn work_counts_and_contents_are_thread_invariant() {
    let (rows_seq, _, contents_seq, snap_seq) = run_workload(1);
    for threads in [2, 8] {
        let (rows, _, contents, snap) = run_workload(threads);
        assert_eq!(rows, rows_seq, "threads={threads}: rows_evaluated");
        assert_eq!(contents, contents_seq, "threads={threads}: view contents");
        // Deterministic work counters agree exactly. Pool/timing metrics
        // vary with width, and so does `diff.joins_performed` — the
        // parallel engine splits one logical join into per-chunk joins.
        for name in [
            metric_names::DIFF_ROWS_EVALUATED,
            metric_names::DIFF_OUTPUT_INSERTS,
            metric_names::DIFF_OUTPUT_DELETES,
            metric_names::FILTER_TUPLES_CHECKED,
            metric_names::FILTER_TUPLES_ADMITTED,
            metric_names::FILTER_TUPLES_FILTERED,
            metric_names::MANAGER_TRANSACTIONS,
            metric_names::MANAGER_MAINTENANCE_RUNS,
        ] {
            assert_eq!(
                snap.counters.get(name),
                snap_seq.counters.get(name),
                "threads={threads}: counter {name}"
            );
        }
    }
}

#[test]
fn span_tree_nests_under_execute() {
    let recorder = Arc::new(InMemoryRecorder::new());
    let mut m = build_manager(0, recorder.clone());
    m.execute(&mixed_txn(0)).unwrap();
    let snapshot = recorder.snapshot();
    for path in [
        "execute",
        "execute/filter",
        "execute/differentiate",
        "execute/apply",
    ] {
        assert!(
            snapshot.spans.contains_key(path),
            "missing span {path}; got {:?}",
            snapshot.spans.keys().collect::<Vec<_>>()
        );
    }
    // In-memory managers never log: no `execute/log` span.
    assert!(!snapshot.spans.contains_key("execute/log"));
}

#[test]
fn durable_manager_emits_wal_metrics() {
    let dir = ivm_storage::temp::scratch_dir("obs-wal-metrics");
    let recorder = Arc::new(InMemoryRecorder::new());
    {
        let mut m = ViewManager::open(&dir)
            .unwrap()
            .with_recorder(recorder.clone());
        m.create_relation("R", Schema::new(["A"]).unwrap()).unwrap();
        let mut txn = Transaction::new();
        txn.insert("R", [1]).unwrap();
        m.execute(&txn).unwrap();
        m.checkpoint().unwrap();
        let snapshot = recorder.snapshot();
        let status = m.durability_status().unwrap();
        assert_eq!(
            snapshot.counters.get(metric_names::WAL_RECORDS_APPENDED),
            Some(&status.wal.records_appended)
        );
        assert_eq!(
            snapshot.counters.get(metric_names::WAL_BYTES_APPENDED),
            Some(&status.wal.bytes_appended)
        );
        assert_eq!(
            snapshot.counters.get(metric_names::WAL_SYNCS),
            Some(&status.wal.syncs)
        );
        assert_eq!(
            snapshot.counters.get(metric_names::CHECKPOINTS_WRITTEN),
            Some(&1)
        );
        assert!(snapshot.spans.contains_key("execute/log"), "log span");
        assert!(snapshot.spans.contains_key("checkpoint"), "checkpoint span");
    }
    std::fs::remove_dir_all(&dir).ok();
}
