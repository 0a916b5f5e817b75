//! View-over-view dependency DAGs: stacked views must be bit-identical
//! to their flattened single-view equivalents at every thread count,
//! sibling views over one join must each be maintained from their own
//! definition, and multi-level DAGs must survive checkpoint/WAL-replay recovery —
//! including crashes injected at the most inconsistent instant of a
//! commit.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ivm::prelude::*;

/// Fresh scratch directory for one test; removed on drop.
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

fn schema(attrs: &[&str]) -> Schema {
    Schema::new(attrs.iter().map(|a| a.to_string())).unwrap()
}

/// R(A,B) ⋈ S(B,C) ⋈ T(C,D): the base universe every test stacks over.
fn create_base(m: &mut ViewManager) {
    m.create_relation("R", schema(&["A", "B"])).unwrap();
    m.create_relation("S", schema(&["B", "C"])).unwrap();
    m.create_relation("T", schema(&["C", "D"])).unwrap();
}

/// A deterministic batch of inserts/deletes over the base relations.
fn random_txn(rng: &mut StdRng, m: &ViewManager, domain: i64) -> Transaction {
    let mut txn = Transaction::new();
    for rel in ["R", "S", "T"] {
        for _ in 0..rng.gen_range(0..4) {
            let t = Tuple::from([rng.gen_range(0..domain), rng.gen_range(0..domain)]);
            let present = m.database().relation(rel).unwrap().contains(&t);
            if present && rng.gen_bool(0.4) {
                if txn.deleted(rel).all(|d| *d != t) {
                    txn.delete(rel, t).unwrap();
                }
            } else if !present && txn.inserted(rel).all(|i| *i != t) {
                txn.insert(rel, t).unwrap();
            }
        }
    }
    txn
}

/// Build a manager with a two-level stack (`inner` = σ over R⋈S,
/// `outer` = π(σ over inner⋈T)) next to the flattened single view the
/// stack must stay bit-identical to.
///
/// Beside it, `proj = π_{A,B}(R × Tm)` counts each R tuple `|Tm|` times,
/// so its deltas carry counts > 1, and feeds two dependents: `lazy`, a
/// deferred σ(proj ⋈ S), and `sq`, the self-join proj ⋈ proj. `Tm(E, G)`
/// mirrors T under other attribute names (`mirror_t`), which gives the
/// self-join a flattened twin: `sq_flat = π_{A,B}(R × Tm × T)`.
fn stacked_and_flat(threads: usize) -> ViewManager {
    let mut m = ViewManager::new().with_threads(threads);
    create_base(&mut m);
    m.create_relation("Tm", schema(&["E", "G"])).unwrap();
    let inner = SpjExpr::new(["R", "S"], Atom::lt_const("A", 40).into(), None);
    m.register_view("inner", inner, RefreshPolicy::Immediate)
        .unwrap();
    let outer = SpjExpr::new(
        ["inner", "T"],
        Atom::lt_const("D", 30).into(),
        Some(vec!["A".into(), "D".into()]),
    );
    m.register_view("outer", outer, RefreshPolicy::Immediate)
        .unwrap();
    let flat = SpjExpr::new(
        ["R", "S", "T"],
        Condition::dnf([Conjunction::new([
            Atom::lt_const("A", 40),
            Atom::lt_const("D", 30),
        ])]),
        Some(vec!["A".into(), "D".into()]),
    );
    m.register_view("flat", flat, RefreshPolicy::Immediate)
        .unwrap();

    let a_b = || Some(vec![AttrName::new("A"), AttrName::new("B")]);
    let proj = SpjExpr::new(["R", "Tm"], Condition::always_true(), a_b());
    m.register_view("proj", proj, RefreshPolicy::Immediate)
        .unwrap();
    let lazy = SpjExpr::new(["proj", "S"], Atom::lt_const("C", 30).into(), None);
    m.register_view("lazy", lazy, RefreshPolicy::Deferred)
        .unwrap();
    let lazy_flat = SpjExpr::new(
        ["R", "S", "Tm"],
        Atom::lt_const("C", 30).into(),
        Some(vec!["A".into(), "B".into(), "C".into()]),
    );
    m.register_view("lazy_flat", lazy_flat, RefreshPolicy::Immediate)
        .unwrap();
    let sq = SpjExpr::new(["proj", "proj"], Condition::always_true(), None);
    m.register_view("sq", sq, RefreshPolicy::Immediate).unwrap();
    let sq_flat = SpjExpr::new(["R", "Tm", "T"], Condition::always_true(), a_b());
    m.register_view("sq_flat", sq_flat, RefreshPolicy::Immediate)
        .unwrap();
    m
}

/// Copy T's changes in `txn` onto its mirror `Tm`.
fn mirror_t(txn: &mut Transaction) {
    let inserted: Vec<Tuple> = txn.inserted("T").cloned().collect();
    let deleted: Vec<Tuple> = txn.deleted("T").cloned().collect();
    for t in inserted {
        txn.insert("Tm", t).unwrap();
    }
    for t in deleted {
        txn.delete("Tm", t).unwrap();
    }
}

/// Fail the case unless two views hold the same tuples with the same
/// counters.
fn same_view(m: &ViewManager, a: &str, b: &str) -> std::result::Result<(), String> {
    let (va, vb) = (m.view_contents(a).unwrap(), m.view_contents(b).unwrap());
    prop_assert!(
        va.same_contents(vb),
        "{a} diverged from {b}:\n{a} = {va}\n{b} = {vb}"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The central stacking property: a view over a view, maintained
    /// differentially with topological delta flow, stays bit-identical
    /// (counters included) to the flattened single view — at 1, 2 and 8
    /// maintenance threads, through random insert/delete workloads. The
    /// same holds for the dependents of a projection whose deltas carry
    /// counts > 1: a deferred view, compared after every third step's
    /// refresh, and a self-join, compared after every step.
    #[test]
    fn stacked_equals_flattened_at_every_thread_count(seed in any::<u64>()) {
        for threads in [1usize, 2, 8] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut m = stacked_and_flat(threads);
            let widest = Arc::new(std::sync::Mutex::new(0i64));
            let seen = Arc::clone(&widest);
            m.on_change(
                "proj",
                Arc::new(move |_, d: &DeltaRelation| {
                    let most = d.iter().map(|(_, c)| c.abs()).max().unwrap_or(0);
                    let mut widest = seen.lock().unwrap();
                    *widest = (*widest).max(most);
                }),
            )
            .unwrap();
            for step in 0..12 {
                let mut txn = random_txn(&mut rng, &m, 50);
                if txn.is_empty() {
                    continue;
                }
                mirror_t(&mut txn);
                m.execute(&txn).unwrap();
                let outer = m.view_contents("outer").unwrap();
                let flat = m.view_contents("flat").unwrap();
                prop_assert!(
                    outer.same_contents(flat),
                    "stacked view diverged from flattened oracle at {threads} threads:\nouter = {outer}\nflat = {flat}"
                );
                same_view(&m, "sq", "sq_flat")?;
                if step % 3 == 2 {
                    m.refresh("lazy").unwrap();
                    same_view(&m, "lazy", "lazy_flat")?;
                }
            }
            prop_assert!(
                *widest.lock().unwrap() > 1,
                "no delta of proj carried a count above 1"
            );
            m.verify_consistency().unwrap();
            same_view(&m, "lazy", "lazy_flat")?;
        }
    }
}

/// Two sibling projections of one select-join core are two DAG nodes,
/// each maintained from the expression it was registered with: a write
/// relevant to both runs each sibling's own maintenance, and no internal
/// node holds their un-projected core.
#[test]
fn sibling_projections_are_maintained_independently() {
    let mut m = ViewManager::new();
    create_base(&mut m);
    let sibling = |attr: &str| {
        SpjExpr::new(
            ["R", "S"],
            Atom::lt_const("A", 5).into(),
            Some(vec![AttrName::new(attr)]),
        )
    };
    m.register_view("va", sibling("A"), RefreshPolicy::Immediate)
        .unwrap();
    m.register_view("vb", sibling("C"), RefreshPolicy::Immediate)
        .unwrap();
    let dag = m.dag();
    let nodes: Vec<&str> = dag.iter().map(|n| n.name.as_str()).collect();
    assert_eq!(nodes, ["va", "vb"]);
    for node in &dag {
        assert!(
            node.depends_on.is_empty(),
            "{} has upstream views",
            node.name
        );
        assert_eq!(node.expr, m.view_expr(&node.name).unwrap());
    }

    let mut txn = Transaction::new();
    txn.insert("R", [3, 30]).unwrap();
    txn.insert("S", [30, 300]).unwrap();
    let report = m.execute(&txn).unwrap();
    assert_eq!(report.views_maintained, 2);
    for name in ["va", "vb"] {
        assert_eq!(m.stats(name).unwrap().maintenance_runs, 1, "{name}");
    }
    assert!(m.view_contents("va").unwrap().contains(&Tuple::from([3])));
    assert!(m.view_contents("vb").unwrap().contains(&Tuple::from([300])));
    m.verify_consistency().unwrap();
}

/// Cycle and namespace rejection at definition time.
#[test]
fn invalid_stackings_are_rejected() {
    let mut m = ViewManager::new();
    create_base(&mut m);
    // Self-reference.
    let err = m
        .register_view(
            "v",
            SpjExpr::new(["v"], Condition::always_true(), None),
            RefreshPolicy::Immediate,
        )
        .unwrap_err();
    assert!(matches!(err, IvmError::UnsupportedView(_)));
    // Unknown operand.
    assert!(m
        .register_view(
            "v",
            SpjExpr::new(["nope"], Condition::always_true(), None),
            RefreshPolicy::Immediate,
        )
        .is_err());
    // Deferred views cannot be operands (their deltas are stale).
    m.register_view(
        "lazy",
        SpjExpr::new(["R"], Condition::always_true(), None),
        RefreshPolicy::Deferred,
    )
    .unwrap();
    let err = m
        .register_view(
            "over_lazy",
            SpjExpr::new(["lazy"], Condition::always_true(), None),
            RefreshPolicy::Immediate,
        )
        .unwrap_err();
    assert!(matches!(err, IvmError::UnsupportedView(_)));
    // A relation may not shadow a view either.
    let err = m.create_relation("lazy", schema(&["X"])).unwrap_err();
    assert!(matches!(err, IvmError::UnsupportedView(_)));
}

/// A deferred view stacked over an immediate view accumulates the
/// upstream *view* deltas (multiplicities included) and folds them in on
/// refresh.
#[test]
fn deferred_view_over_immediate_view() {
    let mut m = ViewManager::new();
    create_base(&mut m);
    m.register_view(
        "joined",
        SpjExpr::new(["R", "S"], Condition::always_true(), None),
        RefreshPolicy::Immediate,
    )
    .unwrap();
    m.register_view(
        "lazy_top",
        SpjExpr::new(
            ["joined"],
            Atom::lt_const("A", 10).into(),
            Some(vec!["A".into()]),
        ),
        RefreshPolicy::OnDemand,
    )
    .unwrap();
    // Duplicate join partners produce counts > 1 in the upstream delta.
    m.load("R", [[1, 5]]).unwrap();
    m.load("S", [[5, 7], [5, 8]]).unwrap();
    assert!(m.view_contents("lazy_top").unwrap().is_empty()); // stale
    let lazy = m.query("lazy_top").unwrap(); // refresh folds pending in
    assert_eq!(lazy.count(&Tuple::from([1])), 2);
    m.verify_consistency().unwrap();
}

/// Run `steps` transactions against a durable manager hosting a 3-level
/// DAG (with two siblings over one core), checkpointing midway, then "crash" and
/// recover: the recovered state must match an undisturbed in-memory run
/// bit-for-bit, without any full re-evaluations during replay.
fn run_3level_recovery(seed: u64, checkpoint_at: usize, steps: usize) {
    let dir = TestDir::new("stacked-recovery");
    let register_all = |m: &mut ViewManager| {
        create_base(m);
        let core = SpjExpr::new(["R", "S"], Atom::lt_const("A", 40).into(), None);
        m.register_view("l1", core, RefreshPolicy::Immediate)
            .unwrap();
        let mid = |proj: &[&str]| {
            SpjExpr::new(
                ["l1", "T"],
                Atom::lt_const("D", 30).into(),
                Some(proj.iter().map(|a| AttrName::new(*a)).collect()),
            )
        };
        // Two siblings over the same l1⋈T core.
        m.register_view("l2a", mid(&["A", "D"]), RefreshPolicy::Immediate)
            .unwrap();
        m.register_view("l2b", mid(&["B", "C"]), RefreshPolicy::Immediate)
            .unwrap();
        let top = SpjExpr::new(
            ["l2a"],
            Atom::lt_const("D", 20).into(),
            Some(vec!["A".into()]),
        );
        m.register_view("l3", top, RefreshPolicy::Immediate)
            .unwrap();
    };

    // Oracle: same workload, never crashed, purely in memory.
    let mut oracle = ViewManager::new();
    register_all(&mut oracle);
    let mut oracle_rng = StdRng::seed_from_u64(seed);
    for _ in 0..steps {
        let txn = random_txn(&mut oracle_rng, &oracle, 50);
        oracle.execute(&txn).unwrap();
    }

    // Durable run with a mid-workload checkpoint, dropped "mid-flight".
    {
        let mut m = ViewManager::open(dir.path()).unwrap();
        register_all(&mut m);
        let mut rng = StdRng::seed_from_u64(seed);
        for step in 0..steps {
            let txn = random_txn(&mut rng, &m, 50);
            m.execute(&txn).unwrap();
            if step + 1 == checkpoint_at {
                m.checkpoint().unwrap();
            }
        }
    }

    let recovered = ViewManager::open(dir.path()).unwrap();
    let report = recovered.recovery_report().unwrap();
    assert_eq!(report.checkpoint_seq, Some(1));
    for name in ["l1", "l2a", "l2b", "l3"] {
        let got = recovered.view_contents(name).unwrap();
        let want = oracle.view_contents(name).unwrap();
        assert!(
            got.same_contents(want),
            "view {name} diverged after recovery:\ngot = {got}\nwant = {want}"
        );
        // Replay went through the differential path, not re-evaluation.
        assert_eq!(recovered.stats(name).unwrap().full_recomputes, 0);
    }
    // The DAG structure itself survived: same strata, same edges.
    let dag = recovered.dag();
    assert_eq!(dag.len(), oracle.dag().len());
    for (r, o) in dag.iter().zip(oracle.dag()) {
        assert_eq!(r.name, o.name);
        assert_eq!(r.stratum, o.stratum);
        assert_eq!(r.depends_on, o.depends_on);
    }
}

#[test]
fn three_level_dag_checkpoint_and_replay_recovery() {
    run_3level_recovery(0x51AC, 4, 9);
    run_3level_recovery(0xB10B, 1, 5);
}

/// Crash at `FP_APPLY_MID` — base relations updated, view deltas not yet
/// applied, WAL record already durable — then recover. The half-applied
/// transaction must be replayed to a fully consistent whole-DAG state.
#[test]
fn mid_apply_crash_recovers_whole_dag() {
    let dir = TestDir::new("stacked-mid-apply");
    {
        let mut m = ViewManager::open(dir.path()).unwrap();
        create_base(&mut m);
        let core = SpjExpr::new(["R", "S"], Condition::always_true(), None);
        m.register_view("c", core, RefreshPolicy::Immediate)
            .unwrap();
        let top = SpjExpr::new(["c", "T"], Condition::always_true(), Some(vec!["A".into()]));
        m.register_view("top", top, RefreshPolicy::Immediate)
            .unwrap();
        m.load("R", [[1, 2]]).unwrap();
        m.load("S", [[2, 3]]).unwrap();

        let plan = Arc::new(FailpointPlan::new());
        m.set_failpoints(Arc::clone(&plan));
        plan.arm(FP_APPLY_MID, 0, FailpointAction::Crash);
        let mut txn = Transaction::new();
        txn.insert("T", [3, 4]).unwrap();
        let err = m.execute(&txn).unwrap_err();
        assert!(matches!(
            err,
            IvmError::Storage(ref e) if matches!(**e, ivm_storage::StorageError::Injected(_))
        ));
        // Crashed mid-apply: discard the manager (its in-memory state is
        // the torn one).
    }
    let mut recovered = ViewManager::open(dir.path()).unwrap();
    let top = recovered.view_contents("top").unwrap();
    assert!(top.contains(&Tuple::from([1])), "top = {top}");
    recovered.verify_consistency().unwrap();
}
