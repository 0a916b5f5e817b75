//! The simulation harness: drives a generated [`Scenario`] through the
//! real engine, injects crashes, recovers, and checks every step against
//! the oracle.
//!
//! One run is a pure function of its [`SimConfig`]: the workload, the
//! fault plan and every checker decision derive from the seed. The run
//! produces a [`SimOutcome`] whose `digest` field is a stable hash of the
//! final base + view state — two runs agree on the digest iff they ended
//! in identical states, which is how reproducibility and thread-count
//! invariance are asserted.
//!
//! ## Crash protocol
//!
//! Fault injection arms at most one failpoint per step (a pure function
//! of `(seed, step id)`, so shrinking away other steps never reshuffles
//! it). When the failpoint fires, the engine returns
//! `StorageError::Injected`, the harness *discards the manager* — the
//! simulated process is dead — and re-opens the storage directory, which
//! exercises real recovery. Whether the interrupted transaction counts as
//! committed follows the WAL discipline:
//!
//! | failpoint                        | verdict       |
//! |----------------------------------|---------------|
//! | `wal.before_append` + crash      | not committed |
//! | `wal.after_append` + crash       | committed (the sync was the commit point) |
//! | `wal.after_append` + torn/flipped tail | not committed (recovery truncates the record) |
//! | `apply.mid` + crash              | committed (replayed from the WAL) |
//! | `checkpoint.before`/`.mid` + crash | no transaction in flight |
//!
//! Corruption is only ever aimed at the *tail* of the WAL (the record
//! just appended); corrupting earlier bytes would destroy acknowledged
//! transactions, which is data loss no recovery can undo — that regime is
//! covered by `tests/recovery.rs`, not the simulator.

use std::path::PathBuf;
use std::sync::Arc;

use ivm::prelude::*;
use ivm_obs::names;
use ivm_storage::fault::{
    FP_APPLY_MID, FP_CHECKPOINT_BEFORE, FP_CHECKPOINT_MID, FP_WAL_AFTER_APPEND,
    FP_WAL_BEFORE_APPEND,
};

use crate::oracle::{self, Oracle};
use crate::rng::SimRng;
use crate::workload::{Scenario, Step, StepOp};

/// Everything that determines a run. Two runs with equal configs are
/// bit-identical.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Workload seed.
    pub seed: u64,
    /// Number of steps to generate.
    pub steps: usize,
    /// Maintenance thread count (0 = sequential default).
    pub threads: usize,
    /// Inject crashes and corruption.
    pub faults: bool,
    /// Run against a WAL-backed manager in a scratch directory. Forced on
    /// when `faults` is on (crash recovery needs a disk to recover from).
    pub durable: bool,
    /// Full state check every `check_every` steps (1 = every step; the
    /// final state is always checked).
    pub check_every: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            steps: 100,
            threads: 0,
            faults: false,
            durable: true,
            check_every: 1,
        }
    }
}

impl SimConfig {
    /// The one-line reproduction command for this config.
    pub fn repro_line(&self) -> String {
        let mut s = format!(
            "cargo run -p ivm-sim -- --seed {:#X} --steps {}",
            self.seed, self.steps
        );
        if self.threads != 0 {
            s.push_str(&format!(" --threads {}", self.threads));
        }
        if self.faults {
            s.push_str(" --faults");
        }
        if !self.durable {
            s.push_str(" --in-memory");
        }
        if self.check_every != 1 {
            s.push_str(&format!(" --check-every {}", self.check_every));
        }
        s
    }

    /// The same options as bare CLI arguments (corpus file format).
    pub fn args_line(&self) -> String {
        self.repro_line()
            .strip_prefix("cargo run -p ivm-sim -- ")
            .expect("repro line has the fixed prefix")
            .to_string()
    }
}

/// What a run produced.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Steps actually executed.
    pub steps_run: usize,
    /// Transactions the engine committed.
    pub txns_committed: usize,
    /// Transactions rejected by validation (on both engine and oracle).
    pub txns_rejected: usize,
    /// Injected crashes survived (each followed by a real recovery).
    pub crashes: usize,
    /// Full state checks performed.
    pub checks: usize,
    /// Stable hash of the final base + view state.
    pub digest: u64,
    /// The first divergence, if any. `None` means the run is clean.
    pub failure: Option<Failure>,
}

impl SimOutcome {
    /// True when no divergence was found.
    pub fn ok(&self) -> bool {
        self.failure.is_none()
    }
}

/// A checker divergence: the step it surfaced at and a description.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Id of the step after which the divergence was detected.
    pub step: u64,
    /// Human-readable description of what diverged.
    pub what: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "step #{}: {}", self.step, self.what)
    }
}

/// The fault (if any) a step carries: pure in `(seed, step id)`. Shared
/// with the workload generator, which uses the same function to predict
/// which transactions will abort so its model of the database stays exact
/// under fault injection.
pub(crate) fn fault_for_step(seed: u64, step: &Step) -> Option<(&'static str, FailpointAction)> {
    let mut rng = SimRng::for_stream(seed ^ 0xFA01_7AB1E, step.id);
    match &step.op {
        StepOp::Txn(_) => {
            if !rng.chance(1, 6) {
                return None;
            }
            Some(match rng.range_u64(0, 4) {
                0 => (FP_WAL_BEFORE_APPEND, FailpointAction::Crash),
                1 => (FP_WAL_AFTER_APPEND, FailpointAction::Crash),
                2 => (
                    FP_WAL_AFTER_APPEND,
                    FailpointAction::CorruptAndCrash(CorruptSpec::TruncateAt(FaultPos::FromEnd(
                        rng.range_u64(1, 6),
                    ))),
                ),
                3 => (
                    FP_WAL_AFTER_APPEND,
                    FailpointAction::CorruptAndCrash(CorruptSpec::FlipBit(
                        FaultPos::FromEnd(rng.range_u64(1, 6)),
                        rng.range_u64(0, 7) as u8,
                    )),
                ),
                _ => (FP_APPLY_MID, FailpointAction::Crash),
            })
        }
        StepOp::Checkpoint => {
            if !rng.chance(1, 4) {
                return None;
            }
            Some(if rng.chance(1, 2) {
                (FP_CHECKPOINT_BEFORE, FailpointAction::Crash)
            } else {
                (FP_CHECKPOINT_MID, FailpointAction::Crash)
            })
        }
        _ => None,
    }
}

/// Does an interrupted transaction count as committed? (See module docs.)
pub(crate) fn committed_at(point: &str, action: &FailpointAction) -> bool {
    match (point, action) {
        (p, FailpointAction::Crash) if p == FP_WAL_BEFORE_APPEND => false,
        (p, FailpointAction::Crash) if p == FP_WAL_AFTER_APPEND => true,
        (p, FailpointAction::CorruptAndCrash(_)) if p == FP_WAL_AFTER_APPEND => false,
        (p, _) if p == FP_APPLY_MID => true,
        _ => true,
    }
}

/// Generate the scenario for `config` and run it.
pub fn run(config: &SimConfig) -> SimOutcome {
    let scenario = crate::workload::generate_with_faults(config.seed, config.steps, config.faults);
    run_scenario(&scenario, config)
}

/// Run both sequentially and with a thread pool on the same scenario and
/// assert the outcomes are identical (checker verdicts and final digest).
/// Returns the sequential outcome, with a synthesized failure when the
/// two runs disagree.
pub fn run_invariance(config: &SimConfig, alt_threads: usize) -> SimOutcome {
    let mut seq = run(config);
    let alt = run(&SimConfig {
        threads: alt_threads,
        ..config.clone()
    });
    if seq.failure.is_none() && alt.failure.is_none() && seq.digest != alt.digest {
        seq.failure = Some(Failure {
            step: 0,
            what: format!(
                "thread-count variance: digest {:#X} sequential vs {:#X} with {} threads",
                seq.digest, alt.digest, alt_threads
            ),
        });
    } else if seq.failure.is_none() && alt.failure.is_some() {
        seq.failure = Some(Failure {
            step: alt.failure.as_ref().expect("checked above").step,
            what: format!(
                "failure appears only with {} threads: {}",
                alt_threads,
                alt.failure.expect("checked above")
            ),
        });
    }
    seq
}

/// Engine + bookkeeping for one simulated process lifetime.
struct Process {
    mgr: ViewManager,
    recorder: Arc<InMemoryRecorder>,
}

impl Process {
    fn configure(mut mgr: ViewManager, config: &SimConfig, plan: &Arc<FailpointPlan>) -> Process {
        let recorder = Arc::new(InMemoryRecorder::new());
        let dyn_recorder: Arc<dyn Recorder> = recorder.clone();
        mgr = mgr.with_threads(config.threads).with_recorder(dyn_recorder);
        if config.faults {
            mgr.set_failpoints(Arc::clone(plan));
        }
        Process { mgr, recorder }
    }
}

/// Run one scenario under one config. This is the heart of the simulator.
pub fn run_scenario(scenario: &Scenario, config: &SimConfig) -> SimOutcome {
    let durable = config.durable || config.faults;
    let mut outcome = SimOutcome {
        steps_run: 0,
        txns_committed: 0,
        txns_rejected: 0,
        crashes: 0,
        checks: 0,
        digest: 0,
        failure: None,
    };

    let dir: Option<PathBuf> =
        durable.then(|| ivm_storage::temp::scratch_dir(&format!("sim-{:x}", config.seed)));
    let plan = Arc::new(FailpointPlan::new());

    let opened = if let Some(dir) = &dir {
        ViewManager::open(dir).map_err(|e| format!("open scratch dir: {e}"))
    } else {
        Ok(ViewManager::new())
    };
    let mut proc = match opened {
        Ok(mgr) => Process::configure(mgr, config, &plan),
        Err(what) => {
            outcome.failure = Some(Failure { step: 0, what });
            return outcome;
        }
    };

    let mut oracle = match Oracle::new(scenario) {
        Ok(o) => o,
        Err(e) => {
            outcome.failure = Some(Failure {
                step: 0,
                what: format!("oracle construction: {e}"),
            });
            return outcome;
        }
    };

    // DDL: create every relation and register every view.
    for r in &scenario.relations {
        if let Err(e) = proc.mgr.create_relation(r.name.clone(), r.schema()) {
            outcome.failure = Some(Failure {
                step: 0,
                what: format!("create_relation {}: {e}", r.name),
            });
            return outcome;
        }
    }
    for v in &scenario.views {
        if let Err(e) = proc
            .mgr
            .register_view(v.name.clone(), v.expr.clone(), v.policy)
        {
            outcome.failure = Some(Failure {
                step: 0,
                what: format!("register_view {}: {e}", v.name),
            });
            return outcome;
        }
    }

    // --- The step loop ------------------------------------------------
    for (pos, step) in scenario.steps.iter().enumerate() {
        let fault = if config.faults {
            fault_for_step(config.seed, step)
        } else {
            None
        };
        if let Some((point, action)) = &fault {
            plan.arm(*point, 0, *action);
        }

        let step_result = run_step(step, &mut proc, &mut oracle, config, &plan, dir.as_deref());
        // Whatever happened, never leave a stale failpoint armed for a
        // later step — fault decisions are per-step.
        if let Some((point, _)) = &fault {
            plan.disarm(point);
        }
        outcome.steps_run += 1;
        let crashed_this_step = matches!(&step_result, Ok(e) if e.crashed);
        match step_result {
            Ok(effect) => {
                outcome.txns_committed += effect.committed as usize;
                outcome.txns_rejected += effect.rejected as usize;
                outcome.crashes += effect.crashed as usize;
            }
            Err(what) => {
                outcome.failure = Some(Failure {
                    step: step.id,
                    what,
                });
                break;
            }
        }

        let due = config.check_every.max(1);
        if crashed_this_step || (pos + 1) % due == 0 || pos + 1 == scenario.steps.len() {
            outcome.checks += 1;
            if let Some(what) = oracle::check(&proc.mgr, &oracle) {
                outcome.failure = Some(Failure {
                    step: step.id,
                    what,
                });
                break;
            }
        }
    }

    outcome.digest = state_digest(&proc.mgr, &oracle);
    if let Some(dir) = &dir {
        std::fs::remove_dir_all(dir).ok();
    }
    outcome
}

/// What a step did (for outcome bookkeeping).
#[derive(Default)]
struct StepEffect {
    committed: bool,
    rejected: bool,
    crashed: bool,
}

/// Execute one step against the live process; `Err` is a checker failure.
fn run_step(
    step: &Step,
    proc: &mut Process,
    oracle: &mut Oracle,
    config: &SimConfig,
    plan: &Arc<FailpointPlan>,
    dir: Option<&std::path::Path>,
) -> std::result::Result<StepEffect, String> {
    let mut effect = StepEffect::default();
    match &step.op {
        StepOp::Txn(spec) => {
            let txn = spec.to_transaction();
            let oracle_ok = oracle.accepts(&txn);
            let before = counters(&proc.recorder);
            match proc.mgr.execute(&txn) {
                Ok(report) => {
                    if !oracle_ok {
                        return Err("engine accepted a transaction the oracle rejects".into());
                    }
                    oracle
                        .commit(spec)
                        .map_err(|e| format!("oracle commit: {e}"))?;
                    effect.committed = true;
                    cross_check_metrics(&before, &counters(&proc.recorder), &report)?;
                }
                Err(IvmError::Storage(e)) if e.is_injected() => {
                    let point = injected_point(&e);
                    let action = plan_action_for(config.seed, step, &point)?;
                    if committed_at(&point, &action) {
                        if !oracle_ok {
                            return Err(
                                "engine reached its commit point on a transaction the oracle \
                                 rejects"
                                    .into(),
                            );
                        }
                        oracle
                            .commit(spec)
                            .map_err(|e| format!("oracle commit: {e}"))?;
                        effect.committed = true;
                    }
                    effect.crashed = true;
                    recover(proc, oracle, config, plan, dir)?;
                }
                Err(IvmError::Relational(e)) => {
                    if oracle_ok {
                        return Err(format!(
                            "engine rejected a transaction the oracle accepts: {e}"
                        ));
                    }
                    effect.rejected = true;
                }
                Err(e) => return Err(format!("execute failed: {e}")),
            }
        }
        StepOp::Refresh(view) => {
            proc.mgr
                .refresh(view)
                .map_err(|e| format!("refresh {view}: {e}"))?;
            oracle
                .materialize(view)
                .map_err(|e| format!("oracle refresh {view}: {e}"))?;
        }
        StepOp::Query(view) => {
            let got = proc
                .mgr
                .query(view)
                .map_err(|e| format!("query {view}: {e}"))?;
            if oracle.policy(view) == RefreshPolicy::OnDemand {
                oracle
                    .materialize(view)
                    .map_err(|e| format!("oracle query {view}: {e}"))?;
            }
            if *got != *oracle.expected(view) {
                return Err(format!(
                    "query of view {view} returned contents diverging from the oracle"
                ));
            }
        }
        StepOp::Checkpoint => {
            if dir.is_none() {
                return Ok(effect); // meaningless without durability
            }
            match proc.mgr.checkpoint() {
                Ok(_) => {}
                Err(IvmError::Storage(e)) if e.is_injected() => {
                    effect.crashed = true;
                    recover(proc, oracle, config, plan, dir)?;
                }
                Err(e) => return Err(format!("checkpoint failed: {e}")),
            }
        }
    }
    Ok(effect)
}

/// The failpoint name inside an injected-crash error.
fn injected_point(e: &ivm_storage::StorageError) -> String {
    match e {
        ivm_storage::StorageError::Injected(point) => point.clone(),
        other => panic!("caller checked is_injected(): {other}"),
    }
}

/// Re-derive the action armed for this step (pure, so no bookkeeping is
/// needed across the crash).
fn plan_action_for(
    seed: u64,
    step: &Step,
    point: &str,
) -> std::result::Result<FailpointAction, String> {
    match fault_for_step(seed, step) {
        Some((p, action)) if p == point => Ok(action),
        other => Err(format!(
            "failpoint {point} fired but the step's fault plan is {other:?}"
        )),
    }
}

/// The simulated process died: discard the manager, re-open the storage
/// directory (real recovery), and converge the stale views.
fn recover(
    proc: &mut Process,
    oracle: &mut Oracle,
    config: &SimConfig,
    plan: &Arc<FailpointPlan>,
    dir: Option<&std::path::Path>,
) -> std::result::Result<(), String> {
    let dir = dir.ok_or_else(|| "injected crash without a storage directory".to_string())?;
    let mgr = ViewManager::open(dir).map_err(|e| format!("recovery failed: {e}"))?;
    *proc = Process::configure(mgr, config, plan);
    // Refresh timing is not durable: deferred/on-demand views may have
    // rolled back to an older materialization. Converge both sides.
    let names: Vec<String> = oracle.view_names().map(str::to_string).collect();
    for name in names {
        if oracle.policy(&name) != RefreshPolicy::Immediate {
            proc.mgr
                .refresh(&name)
                .map_err(|e| format!("post-recovery refresh {name}: {e}"))?;
        }
    }
    oracle
        .materialize_stale()
        .map_err(|e| format!("oracle post-recovery refresh: {e}"))?;
    Ok(())
}

/// Counter snapshot used by the metrics cross-check.
struct Counters {
    transactions: u64,
    maintenance_runs: u64,
    skipped: u64,
    full_recomputes: u64,
    rows_evaluated: u64,
}

fn counters(recorder: &InMemoryRecorder) -> Counters {
    Counters {
        transactions: recorder.counter(names::MANAGER_TRANSACTIONS),
        maintenance_runs: recorder.counter(names::MANAGER_MAINTENANCE_RUNS),
        skipped: recorder.counter(names::MANAGER_SKIPPED_BY_FILTER),
        full_recomputes: recorder.counter(names::MANAGER_FULL_RECOMPUTES),
        rows_evaluated: recorder.counter(names::DIFF_ROWS_EVALUATED),
    }
}

/// The [`MaintenanceReport`] a caller sees and the metrics a recorder
/// sees are two descriptions of the same work; any disagreement means one
/// of the two observability paths lies.
fn cross_check_metrics(
    before: &Counters,
    after: &Counters,
    report: &MaintenanceReport,
) -> std::result::Result<(), String> {
    let expect = [
        (
            names::MANAGER_TRANSACTIONS,
            after.transactions - before.transactions,
            1,
        ),
        (
            names::MANAGER_MAINTENANCE_RUNS,
            after.maintenance_runs - before.maintenance_runs,
            report.views_maintained as u64,
        ),
        (
            names::MANAGER_SKIPPED_BY_FILTER,
            after.skipped - before.skipped,
            report.views_skipped as u64,
        ),
        (
            names::MANAGER_FULL_RECOMPUTES,
            after.full_recomputes - before.full_recomputes,
            report.full_recomputes as u64,
        ),
        (
            names::DIFF_ROWS_EVALUATED,
            after.rows_evaluated - before.rows_evaluated,
            report.diff.rows_evaluated as u64,
        ),
    ];
    for (name, recorded, reported) in expect {
        if recorded != reported {
            return Err(format!(
                "metrics cross-check: counter {name} moved by {recorded} but the \
                 MaintenanceReport says {reported}"
            ));
        }
    }
    Ok(())
}

// --- State digest -----------------------------------------------------

/// Stable hash of the engine's final state: every base relation in name
/// order, then every view in the oracle's order, each digested by
/// [`digest_views`] (tuples in sorted order — never raw hash-map order,
/// which varies) and folded together. The tag keeps a relation apart from
/// a view with the same name and contents.
pub fn state_digest(mgr: &ViewManager, oracle: &Oracle) -> u64 {
    const RELATION: u64 = 0xFD;
    const VIEW: u64 = 0xFC;
    let db = mgr.database();
    let mut rel_names: Vec<&str> = db.relation_names().collect();
    rel_names.sort_unstable();
    let relations = rel_names
        .into_iter()
        .filter_map(|name| Some((RELATION, name, db.relation(name).ok()?)));
    let views = oracle
        .view_names()
        .filter_map(|name| Some((VIEW, name, mgr.view_contents(name).ok()?)));
    relations
        .chain(views)
        .fold(0, |acc: u64, (tag, name, rel)| {
            acc.rotate_left(5) ^ tag ^ digest_views([(name, rel)])
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_run_passes_and_reproduces() {
        let cfg = SimConfig {
            seed: 0x51,
            steps: 60,
            ..SimConfig::default()
        };
        let a = run(&cfg);
        assert!(a.ok(), "unexpected failure: {:?}", a.failure);
        assert!(a.txns_committed > 0);
        let b = run(&cfg);
        assert_eq!(a.digest, b.digest, "same seed must reproduce bit-for-bit");
        assert_eq!(a.txns_committed, b.txns_committed);
        assert_eq!(a.checks, b.checks);
    }

    #[test]
    fn in_memory_run_passes() {
        let cfg = SimConfig {
            seed: 0x52,
            steps: 60,
            durable: false,
            ..SimConfig::default()
        };
        let out = run(&cfg);
        assert!(out.ok(), "unexpected failure: {:?}", out.failure);
    }

    #[test]
    fn faulted_run_recovers_to_oracle_state() {
        // Sweep a few seeds so at least one injects a crash; every crash
        // must recover to oracle-equivalent state.
        let mut crashes = 0;
        for seed in 0x60..0x68u64 {
            let cfg = SimConfig {
                seed,
                steps: 80,
                faults: true,
                ..SimConfig::default()
            };
            let out = run(&cfg);
            assert!(out.ok(), "seed {seed:#x} failed: {:?}", out.failure);
            crashes += out.crashes;
        }
        assert!(crashes > 0, "fault plan never fired across 8 seeds");
    }

    #[test]
    fn thread_invariance_holds() {
        let cfg = SimConfig {
            seed: 0x71,
            steps: 60,
            ..SimConfig::default()
        };
        let out = run_invariance(&cfg, 2);
        assert!(out.ok(), "unexpected variance: {:?}", out.failure);
    }

    #[test]
    fn repro_line_round_trips_the_config() {
        let cfg = SimConfig {
            seed: 0xDEAD,
            steps: 412,
            faults: true,
            ..SimConfig::default()
        };
        assert_eq!(
            cfg.repro_line(),
            "cargo run -p ivm-sim -- --seed 0xDEAD --steps 412 --faults"
        );
    }
}
