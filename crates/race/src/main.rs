//! The `ivm-race` CI gate: model-check the snapshot and serve protocols.
//!
//! Runs under `ci/analyze.sh` as part of the required `analyze` job:
//!
//! 1. DPOR-explores both protocol models *as written* — they must verify
//!    clean with at least [`SNAPSHOT_MIN_EXECUTIONS`] and
//!    [`SERVE_MIN_EXECUTIONS`] distinct interleavings.
//! 2. Runs every seeded foil — the checker must catch each one and the
//!    reported schedule must replay to the same violation (self-test:
//!    a gate that cannot catch a planted bug proves nothing).
//! 3. Runs the message-passing litmus in both memory modes,
//!    demonstrating that declared-ordering exploration catches an
//!    underdeclared store that SeqCst-only exploration provably misses.
//!
//! Output is deterministic (counts and digests are pure functions of
//! the models); exit status is non-zero on any unexpected verdict.

use ivm_race::{
    replay, replays_to_deadlock, DeclaredOrdering, DporExplorer, Explorer, MemMode, MessagePassing,
    Model, ScheduleBug, ServeFoil, ServeModel, SnapshotFoil, SnapshotModel,
};

/// Acceptance floor: the snapshot model must be exercised by at least
/// this many distinct interleavings.
const SNAPSHOT_MIN_EXECUTIONS: u64 = 500;

/// The serve model's floor is its whole count: two sessions contend for
/// one lock, and DPOR covers both lock orders in four executions.
const SERVE_MIN_EXECUTIONS: u64 = 4;

fn snapshot_model(readers: usize, foil: SnapshotFoil) -> SnapshotModel {
    SnapshotModel {
        mode: MemMode::Declared,
        publishes: 1,
        readers,
        pins: 1,
        foil,
    }
}

fn serve_model(foil: ServeFoil) -> ServeModel {
    ServeModel { sessions: 2, foil }
}

/// Explore a clean protocol model; fail if it reports a bug or explores
/// fewer than `floor` executions.
fn run_clean<M>(name: &str, model: &M, floor: u64) -> Result<(), String>
where
    M: ivm_race::DporModel,
    M::State: Clone,
{
    let stats = DporExplorer::default()
        .explore(model)
        .map_err(|bug| format!("{name}: unexpected violation: {bug}"))?;
    println!(
        "model {name}: OK — {} executions ({} sleep-pruned), {} steps, max depth {}, digest {:#018x}",
        stats.executions, stats.pruned, stats.steps, stats.max_depth, stats.digest
    );
    if stats.executions < floor {
        return Err(format!(
            "{name}: only {} executions, need ≥ {floor}",
            stats.executions
        ));
    }
    Ok(())
}

/// Explore a foiled model; fail unless the checker catches it AND the
/// counterexample replays.
fn run_foil<M, F>(name: &str, model: &M, reproduces: F) -> Result<(), String>
where
    M: ivm_race::DporModel,
    M::State: Clone,
    F: Fn(&M, &ScheduleBug) -> Result<bool, String>,
{
    let bug = match DporExplorer::default().explore(model) {
        Err(bug) => bug,
        Ok(stats) => {
            return Err(format!(
                "foil {name}: NOT caught ({} executions explored)",
                stats.executions
            ))
        }
    };
    if !reproduces(model, &bug).map_err(|e| format!("foil {name}: replay failed: {e}"))? {
        return Err(format!("foil {name}: schedule does not replay: {bug}"));
    }
    println!(
        "foil {name}: caught and replayed — {} (schedule length {})",
        bug.message,
        bug.schedule.len()
    );
    Ok(())
}

fn run() -> Result<(), String> {
    // 1. The protocols as written.
    run_clean(
        "snapshot-hub",
        &snapshot_model(2, SnapshotFoil::None),
        SNAPSHOT_MIN_EXECUTIONS,
    )?;
    run_clean(
        "serve-shutdown",
        &serve_model(ServeFoil::None),
        SERVE_MIN_EXECUTIONS,
    )?;

    // 2. Seeded foils: violation-replays for the snapshot foils,
    //    deadlock-replay for the lost wakeup. The relaxed-announce foil
    //    runs with one reader — the minimal witness for the race; at
    //    two readers DFS order buries the violating subtree millions of
    //    executions deep.
    let violation_replays = |m: &SnapshotModel, bug: &ScheduleBug| {
        replay(m, &bug.schedule).map(|state| m.check(&state).is_err())
    };
    run_foil(
        "snapshot-hub/skip-announce",
        &snapshot_model(2, SnapshotFoil::SkipAnnounce),
        violation_replays,
    )?;
    run_foil(
        "snapshot-hub/relaxed-announce",
        &snapshot_model(1, SnapshotFoil::RelaxedAnnounce),
        violation_replays,
    )?;
    run_foil(
        "serve-shutdown/skip-socket-shutdown",
        &serve_model(ServeFoil::SkipSocketShutdown),
        |m, bug| replays_to_deadlock(m, &bug.schedule),
    )?;

    // 3. The declared-orderings litmus: an underdeclared flag store is
    //    invisible to SeqCst-only exploration and caught under declared
    //    semantics.
    let mp = |mode| MessagePassing {
        mode,
        flag_order: DeclaredOrdering::Relaxed,
    };
    if let Err(bug) = Explorer::default().explore(&mp(MemMode::SeqCstOnly)) {
        return Err(format!(
            "litmus: SeqCst-only run should be (vacuously) green, got: {bug}"
        ));
    }
    match Explorer::default().explore(&mp(MemMode::Declared)) {
        Err(bug) => println!("litmus message-passing: underdeclared flag caught — {bug}"),
        Ok(_) => {
            return Err("litmus: declared-ordering run missed the underdeclared flag".into());
        }
    }
    Ok(())
}

fn main() {
    match run() {
        Ok(()) => println!("ivm-race: all protocol models verified, all foils caught"),
        Err(msg) => {
            eprintln!("ivm-race: FAILED: {msg}");
            std::process::exit(1);
        }
    }
}
