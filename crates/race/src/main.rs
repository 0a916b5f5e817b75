//! The `ivm-race` CI gate: model-check the serve protocol.
//!
//! Runs under `ci/analyze.sh` as part of the required `analyze` job:
//!
//! 1. Explores every interleaving of the serve model *as written* — it
//!    must verify clean with at least [`SERVE_MIN_INTERLEAVINGS`] of them.
//! 2. Runs the seeded lost-wakeup foil — the checker must catch it and
//!    the reported schedule must replay to the same deadlock (self-test:
//!    a gate that cannot catch a planted bug proves nothing).
//!
//! Output is deterministic (counts and digests are pure functions of
//! the model); exit status is non-zero on any unexpected verdict.

use ivm_race::{replays_to_deadlock, Explorer, ServeFoil, ServeModel};

/// The serve model's floor is its whole count: every interleaving of two
/// sessions contending for one lock and the stopper that shuts them down.
const SERVE_MIN_INTERLEAVINGS: u64 = 704;

fn serve_model(foil: ServeFoil) -> ServeModel {
    ServeModel { sessions: 2, foil }
}

fn run() -> Result<(), String> {
    // 1. The protocol as written.
    let stats = Explorer::default()
        .explore(&serve_model(ServeFoil::None))
        .map_err(|bug| format!("serve-shutdown: unexpected violation: {bug}"))?;
    println!(
        "model serve-shutdown: OK — {} interleavings, {} steps, max depth {}, digest {:#018x}",
        stats.interleavings, stats.steps, stats.max_depth, stats.digest
    );
    if stats.interleavings < SERVE_MIN_INTERLEAVINGS {
        return Err(format!(
            "serve-shutdown: only {} interleavings, need ≥ {SERVE_MIN_INTERLEAVINGS}",
            stats.interleavings
        ));
    }

    // 2. The seeded foil: the lost wakeup must be caught and its
    //    schedule must replay to a deadlock.
    let name = "serve-shutdown/skip-socket-shutdown";
    let model = serve_model(ServeFoil::SkipSocketShutdown);
    let bug = match Explorer::default().explore(&model) {
        Err(bug) => bug,
        Ok(stats) => {
            return Err(format!(
                "foil {name}: NOT caught ({} interleavings explored)",
                stats.interleavings
            ))
        }
    };
    if !replays_to_deadlock(&model, &bug.schedule)
        .map_err(|e| format!("foil {name}: replay failed: {e}"))?
    {
        return Err(format!("foil {name}: schedule does not replay: {bug}"));
    }
    println!(
        "foil {name}: caught and replayed — {} (schedule length {})",
        bug.message,
        bug.schedule.len()
    );
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
