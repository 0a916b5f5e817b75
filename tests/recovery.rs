//! Durability integration tests: crash-recovery equivalence and WAL/
//! checkpoint corruption handling.
//!
//! The central property: a manager that checkpoints, "crashes" (is
//! dropped) and recovers must end in exactly the state of a manager that
//! ran the same workload uninterrupted — same base relations, same view
//! materializations — and recovery must get there differentially (no
//! full re-evaluations observed in [`MaintenanceStats`]).

use std::path::{Path, PathBuf};

use ivm::prelude::*;
use ivm_storage::fault;
use proptest::prelude::*;

/// Fresh scratch directory for one test; removed on drop.
struct TestDir(PathBuf);

impl TestDir {
    fn new(label: &str) -> Self {
        TestDir(ivm_storage::temp::scratch_dir(label))
    }

    fn path(&self) -> &Path {
        &self.0
    }

    fn wal(&self) -> PathBuf {
        self.0.join(ivm_storage::WAL_FILE)
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// R(A,B), S(B,C), one immediate SPJ view, one deferred SPJ view, one
/// algebra-tree view — every persistable view kind.
fn setup(mgr: &mut ViewManager) {
    mgr.create_relation("R", Schema::new(["A", "B"]).unwrap())
        .unwrap();
    mgr.create_relation("S", Schema::new(["B", "C"]).unwrap())
        .unwrap();
    let join = SpjExpr::new(
        ["R", "S"],
        Atom::lt_const("A", 8).into(),
        Some(vec!["A".into(), "C".into()]),
    );
    mgr.register_view("v_join", join, RefreshPolicy::Immediate)
        .unwrap();
    let filter = SpjExpr::new(["R"], Atom::lt_const("B", 5).into(), None);
    mgr.register_view("v_def", filter, RefreshPolicy::Deferred)
        .unwrap();
    let tree = Expr::base("R")
        .select(Condition::from(Atom::lt_const("A", 6)))
        .project(["A"]);
    mgr.register_tree_view("v_tree", tree).unwrap();
}

/// One workload step: (relation, insert?, a, b). Deletes target the same
/// small value domain so they regularly hit existing tuples; steps whose
/// delete misses are rejected by validation identically on every manager,
/// so both sides of the equivalence stay in lock-step.
type Step = (u8, bool, i64, i64);

fn apply_step(mgr: &mut ViewManager, step: Step) {
    let (rel_pick, insert, a, b) = step;
    let rel = if rel_pick % 2 == 0 { "R" } else { "S" };
    let mut txn = Transaction::new();
    if insert {
        txn.insert(rel, [a, b]).unwrap();
    } else {
        txn.delete(rel, [a, b]).unwrap();
    }
    // A delete of an absent tuple fails validation before anything is
    // logged or applied — a no-op on durable and in-memory managers alike.
    match mgr.execute(&txn) {
        Ok(_) => {}
        Err(IvmError::Relational(_)) => {}
        Err(e) => panic!("unexpected execute error: {e}"),
    }
}

fn step_strategy() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec((0u8..2, any::<bool>(), 0i64..10, 0i64..10), 0..30)
}

fn assert_same_state(recovered: &ViewManager, reference: &ViewManager) {
    for rel in ["R", "S"] {
        assert_eq!(
            recovered.database().relation(rel).unwrap(),
            reference.database().relation(rel).unwrap(),
            "base relation {rel} diverged"
        );
    }
    for view in ["v_join", "v_def", "v_tree"] {
        assert_eq!(
            recovered.view_contents(view).unwrap(),
            reference.view_contents(view).unwrap(),
            "view {view} diverged"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// checkpoint + crash + recover ≡ uninterrupted run, and recovery is
    /// differential (zero full recomputes during replay).
    #[test]
    fn recovery_equivalence(steps in step_strategy(), ckpt_at in 0usize..30) {
        let dir = TestDir::new("equiv");

        // Reference: plain in-memory manager, never interrupted.
        let mut reference = ViewManager::new();
        setup(&mut reference);

        // Durable run with a checkpoint somewhere in the middle, then an
        // abrupt drop (no clean shutdown step exists — every commit is
        // already synced).
        let lsn_at_crash;
        {
            let mut durable = ViewManager::open(dir.path()).unwrap();
            setup(&mut durable);
            for (i, step) in steps.iter().enumerate() {
                if i == ckpt_at {
                    durable.checkpoint().unwrap();
                }
                apply_step(&mut durable, *step);
            }
            lsn_at_crash = durable.durability_status().unwrap().next_lsn;
        }
        for step in &steps {
            apply_step(&mut reference, *step);
        }

        let recovered = ViewManager::open(dir.path()).unwrap();
        assert_same_state(&recovered, &reference);

        let report = recovered.recovery_report().unwrap();
        prop_assert!(report.wal_truncated.is_none(), "clean log reported torn");
        // The last-applied LSN survives the crash: new appends continue
        // exactly where the crashed process stopped.
        prop_assert_eq!(
            recovered.durability_status().unwrap().next_lsn,
            lsn_at_crash
        );
        for view in ["v_join", "v_def", "v_tree"] {
            let stats = recovered.stats(view).unwrap();
            prop_assert_eq!(
                stats.full_recomputes, 0,
                "replay of {} fell back to re-evaluation", view
            );
        }

        // The recovered manager must be live: keep running the workload on
        // both and stay in lock-step.
        let mut recovered = recovered;
        for step in steps.iter().take(5) {
            apply_step(&mut recovered, *step);
            apply_step(&mut reference, *step);
        }
        assert_same_state(&recovered, &reference);
    }
}

#[test]
fn torn_final_frame_loses_only_last_txn() {
    let dir = TestDir::new("torn");
    {
        let mut m = ViewManager::open(dir.path()).unwrap();
        setup(&mut m);
        apply_step(&mut m, (0, true, 1, 1));
        apply_step(&mut m, (0, true, 2, 2));
        apply_step(&mut m, (0, true, 3, 3));
    }
    // Tear the tail: drop the last few bytes of the final frame, as if the
    // process died mid-write. Same `CorruptSpec` the simulation harness
    // injects through its failpoint plan.
    fault::corrupt(dir.wal(), CorruptSpec::TruncateAt(FaultPos::FromEnd(3))).unwrap();

    let m = ViewManager::open(dir.path()).unwrap();
    let report = m.recovery_report().unwrap();
    assert!(report.wal_truncated.is_some(), "torn tail not reported");

    // Everything but the torn-off last transaction survives.
    let r = m.database().relation("R").unwrap();
    assert!(r.contains(&Tuple::from([1, 1])));
    assert!(r.contains(&Tuple::from([2, 2])));
    assert!(!r.contains(&Tuple::from([3, 3])));
    // And the view matches what re-evaluation over the recovered base
    // state would produce.
    assert_eq!(m.view_contents("v_tree").unwrap().total_count(), 2);
}

#[test]
fn bit_flip_mid_log_truncates_at_corruption_without_panicking() {
    let dir = TestDir::new("bitflip");
    {
        let mut m = ViewManager::open(dir.path()).unwrap();
        setup(&mut m);
        for i in 0..6 {
            apply_step(&mut m, (0, true, i, i));
        }
    }
    fault::corrupt(dir.wal(), CorruptSpec::FlipBit(FaultPos::Fraction(1, 2), 3)).unwrap();

    // Open must succeed with a typed truncation report — never a panic.
    let mut m = ViewManager::open(dir.path()).unwrap();
    let report = m.recovery_report().unwrap().clone();
    assert!(report.wal_truncated.is_some(), "corruption not detected");

    // Whatever prefix survived must be internally consistent, and the
    // truncated file must reopen cleanly next time.
    m.verify_consistency().unwrap();
    apply_step(&mut m, (0, true, 42, 0));
    drop(m);
    let m2 = ViewManager::open(dir.path()).unwrap();
    assert!(m2.recovery_report().unwrap().wal_truncated.is_none());
    assert!(m2
        .database()
        .relation("R")
        .unwrap()
        .contains(&Tuple::from([42, 0])));
}

#[test]
fn zero_length_wal_recovers_empty() {
    let dir = TestDir::new("zerolen");
    std::fs::create_dir_all(dir.path()).unwrap();
    std::fs::write(dir.wal(), b"").unwrap();

    let m = ViewManager::open(dir.path()).unwrap();
    let report = m.recovery_report().unwrap();
    assert!(report.wal_truncated.is_none());
    assert_eq!(report.wal_records_replayed, 0);
    assert_eq!(m.database().relation_names().count(), 0);
}

#[test]
fn corrupt_newest_checkpoint_falls_back_to_older() {
    let dir = TestDir::new("ckptfall");
    let newest;
    {
        let mut m = ViewManager::open(dir.path()).unwrap();
        setup(&mut m);
        apply_step(&mut m, (0, true, 1, 1));
        m.checkpoint().unwrap();
        apply_step(&mut m, (0, true, 2, 2));
        newest = m.checkpoint().unwrap();
        apply_step(&mut m, (0, true, 3, 3));
    }
    // Trash the newest checkpoint's interior.
    let ckpt = dir.path().join(format!("checkpoint-{newest:016}.ckpt"));
    fault::corrupt(&ckpt, CorruptSpec::FlipByte(FaultPos::Fraction(1, 2), 0xFF)).unwrap();

    let m = ViewManager::open(dir.path()).unwrap();
    let report = m.recovery_report().unwrap();
    assert_eq!(
        report.checkpoints_skipped, 1,
        "corrupt checkpoint not skipped"
    );
    // Replay from the older checkpoint still reaches the final state.
    let r = m.database().relation("R").unwrap();
    for i in 1..=3 {
        assert!(r.contains(&Tuple::from([i, i])), "lost tuple ({i},{i})");
    }
}

/// The declarative failpoint plan — the same mechanism the simulation
/// harness arms — drives a torn-write crash end to end: the armed
/// transaction is corrupted on disk and reported as a crash, and recovery
/// keeps exactly the acknowledged prefix.
#[test]
fn failpoint_plan_torn_write_is_rolled_back_on_recovery() {
    let dir = TestDir::new("fp-plan");
    let plan = std::sync::Arc::new(FailpointPlan::new());
    plan.arm(
        FP_WAL_AFTER_APPEND,
        1, // skip the first append, fire on the second
        FailpointAction::CorruptAndCrash(CorruptSpec::TruncateAt(FaultPos::FromEnd(2))),
    );
    {
        let mut m = ViewManager::open(dir.path())
            .unwrap()
            .with_failpoints(plan.clone());
        setup(&mut m);
        apply_step(&mut m, (0, true, 1, 1));
        let mut txn = Transaction::new();
        txn.insert("R", [2, 2]).unwrap();
        match m.execute(&txn) {
            Err(IvmError::Storage(e)) if e.is_injected() => {}
            other => panic!("failpoint did not fire: {other:?}"),
        }
        // The manager is now "dead": drop it without further use.
    }
    assert!(plan.fired(FP_WAL_AFTER_APPEND), "plan never fired");

    let m = ViewManager::open(dir.path()).unwrap();
    assert!(
        m.recovery_report().unwrap().wal_truncated.is_some(),
        "torn record not detected"
    );
    let r = m.database().relation("R").unwrap();
    assert!(r.contains(&Tuple::from([1, 1])), "acknowledged tuple lost");
    assert!(
        !r.contains(&Tuple::from([2, 2])),
        "unacknowledged (torn) tuple resurrected"
    );
}

#[test]
fn checkpoint_compacts_wal_and_recovery_still_matches() {
    let dir = TestDir::new("compact");

    // Reference: the same workload, uninterrupted and in memory.
    let mut reference = ViewManager::new();
    setup(&mut reference);
    {
        let mut m = ViewManager::open(dir.path()).unwrap();
        setup(&mut m);
        for i in 0..20 {
            apply_step(&mut m, (i as u8, true, i, i % 7));
        }
        // First checkpoint: only one image exists, so there is no fallback
        // yet and the log must stay whole.
        m.checkpoint().unwrap();
        let after_first = m.durability_status().unwrap().wal_len_bytes;
        assert!(after_first > 0, "first checkpoint emptied the WAL");

        for i in 20..25 {
            apply_step(&mut m, (i as u8, true, i, i % 7));
        }
        // Second checkpoint: two images retained; everything at or below
        // the older image's LSN leaves the log.
        m.checkpoint().unwrap();
        let after_second = m.durability_status().unwrap().wal_len_bytes;
        assert!(
            after_second < after_first,
            "WAL did not shrink: {after_first} -> {after_second} bytes"
        );
        // Appends keep working on the compacted log.
        apply_step(&mut m, (0, true, 3, 5));
    }
    for i in 0..20 {
        apply_step(&mut reference, (i as u8, true, i, i % 7));
    }
    for i in 20..25 {
        apply_step(&mut reference, (i as u8, true, i, i % 7));
    }
    apply_step(&mut reference, (0, true, 3, 5));

    // Recovery over the compacted log lands in exactly the uninterrupted
    // state, with a clean (non-torn) scan.
    let recovered = ViewManager::open(dir.path()).unwrap();
    assert!(recovered.recovery_report().unwrap().wal_truncated.is_none());
    assert_same_state(&recovered, &reference);
}

#[test]
fn checkpoint_every_n_fires_and_resets() {
    let dir = TestDir::new("every-n");
    let mut m =
        ViewManager::open_with_policy(dir.path(), DurabilityPolicy::WalWithCheckpointEvery(2))
            .unwrap();
    setup(&mut m);
    for i in 0..5 {
        apply_step(&mut m, (0, true, i, i));
    }
    let status = m.durability_status().unwrap();
    assert!(status.txns_since_checkpoint < 2);
    let ckpts: Vec<_> = std::fs::read_dir(dir.path())
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".ckpt"))
        .collect();
    assert!(!ckpts.is_empty(), "automatic checkpoint never fired");
    assert!(ckpts.len() <= 2, "old checkpoints not pruned");
    drop(m);

    let m2 = ViewManager::open(dir.path()).unwrap();
    assert!(m2.recovery_report().unwrap().checkpoint_seq.is_some());
    assert_eq!(m2.database().relation("R").unwrap().len(), 5);
}

#[test]
fn policy_none_reads_but_does_not_log() {
    let dir = TestDir::new("none");
    {
        let mut m = ViewManager::open(dir.path()).unwrap();
        setup(&mut m);
        apply_step(&mut m, (0, true, 1, 1));
    }
    let wal_before = fault::file_len(dir.wal()).unwrap();

    let mut m = ViewManager::open_with_policy(dir.path(), DurabilityPolicy::None).unwrap();
    assert!(m
        .database()
        .relation("R")
        .unwrap()
        .contains(&Tuple::from([1, 1])));
    assert!(m.recovery_report().is_none());
    apply_step(&mut m, (0, true, 2, 2)); // applied in memory only
    assert!(matches!(m.checkpoint().unwrap_err(), IvmError::Storage(_)));
    drop(m);

    assert_eq!(
        fault::file_len(dir.wal()).unwrap(),
        wal_before,
        "None policy wrote to the WAL"
    );
    let m2 = ViewManager::open(dir.path()).unwrap();
    assert!(!m2
        .database()
        .relation("R")
        .unwrap()
        .contains(&Tuple::from([2, 2])));
}

#[test]
fn checkpoint_on_memory_manager_is_typed_error() {
    let mut m = ViewManager::new();
    let err = m.checkpoint().unwrap_err();
    assert!(matches!(err, IvmError::Storage(_)));
    assert!(err.to_string().contains("ViewManager::open"));
}

/// Pins the checkpoint format: a fixed scenario covering every persisted
/// part (two base relations, an Immediate join view, a Deferred view with
/// pending deltas, a tree view) must produce an image of exactly this
/// length and CRC-32. Any change to how images are encoded fails here,
/// and images written before such a change could no longer be restored.
#[test]
fn checkpoint_image_bytes_are_pinned() {
    let dir = TestDir::new("ckpt-golden");
    let mut m = ViewManager::open(dir.path()).unwrap();
    setup(&mut m);
    for i in 0..6 {
        apply_step(&mut m, (0, true, i, i % 4));
        apply_step(&mut m, (1, true, i % 4, 10 + i));
    }
    apply_step(&mut m, (0, false, 2, 2));
    // The deferred view has not folded its queued changes in.
    assert!(m.view_contents("v_def").unwrap().is_empty());
    assert!(!m.view_contents("v_join").unwrap().is_empty());
    assert!(!m.view_contents("v_tree").unwrap().is_empty());
    let seq = m.checkpoint().unwrap();
    let image = std::fs::read(dir.path().join(format!("checkpoint-{seq:016}.ckpt"))).unwrap();
    assert_eq!(image.len(), 1275);
    assert_eq!(ivm_storage::frame::crc32(&image), 0xce29_ddc3);
}

/// A fallback image whose frame fails its check licenses no compaction:
/// with checkpoint 1 corrupt, writing checkpoint 2 keeps the whole log, so
/// even when checkpoint 2 is lost as well, recovery replays from LSN 1 and
/// lands in the uninterrupted state.
#[test]
fn corrupt_fallback_image_blocks_wal_compaction() {
    let dir = TestDir::new("compact-guard");
    let steps: Vec<Step> = (0..12).map(|i| (i as u8, true, i, i % 5)).collect();
    let mut reference = ViewManager::new();
    setup(&mut reference);
    for &step in &steps {
        apply_step(&mut reference, step);
    }
    {
        let mut m = ViewManager::open(dir.path()).unwrap();
        setup(&mut m);
        for &step in &steps[..8] {
            apply_step(&mut m, step);
        }
        let first = m.checkpoint().unwrap();
        let ckpt = dir.path().join(format!("checkpoint-{first:016}.ckpt"));
        fault::corrupt(&ckpt, CorruptSpec::FlipByte(FaultPos::Fraction(1, 2), 0x20)).unwrap();
        for &step in &steps[8..] {
            apply_step(&mut m, step);
        }
        let before = fault::file_len(dir.wal()).unwrap();
        let second = m.checkpoint().unwrap();
        let status = m.durability_status().unwrap();
        assert_eq!(
            status.wal_file_bytes, before,
            "WAL shrank behind a corrupt image"
        );
        assert_eq!(status.wal.compactions, 0);
        let ckpt = dir.path().join(format!("checkpoint-{second:016}.ckpt"));
        fault::corrupt(&ckpt, CorruptSpec::FlipByte(FaultPos::Fraction(1, 3), 0x20)).unwrap();
    }
    let recovered = ViewManager::open(dir.path()).unwrap();
    let report = recovered.recovery_report().unwrap();
    assert_eq!(report.checkpoint_seq, None);
    assert!(report.wal_truncated.is_none());
    // Five DDL records, then every step.
    assert_eq!(report.wal_records_replayed, 5 + steps.len());
    assert_same_state(&recovered, &reference);
}
