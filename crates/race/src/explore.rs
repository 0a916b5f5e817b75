//! The exhaustive schedule explorer: models, schedules, replay.
//!
//! This is the core that started life as `crates/parallel/src/model.rs`
//! (the pool's "mini-loom"): a concurrent protocol is written as an
//! explicit state machine of threads taking atomic steps over shared
//! state, and the [`Explorer`] enumerates **every** interleaving of those
//! steps with a scripted scheduler (depth-first, replay-based: each
//! execution restarts from the initial state and follows a recorded
//! schedule prefix), running the model's invariant check at the end of
//! each complete execution.
//!
//! The exploration is a pure function of the model: no clocks, no
//! ambient randomness, no real threads. Two runs produce bit-identical
//! statistics and trace digests, and a reported counterexample is a
//! replayable schedule (`run with threads [1, 0, 2, ...]`).
//!
//! Exhaustive enumeration costs the factorial of the step count, so a
//! model stays small: the serve model's two sessions and stopper take
//! 704 interleavings, and [`Explorer::max_interleavings`] turns a model
//! that outgrows it into an error.

use std::fmt;

/// Scheduling status of one model thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Has an enabled atomic step.
    Runnable,
    /// Waiting on another thread (e.g. a join on an unfinished worker).
    Blocked,
    /// No steps left.
    Finished,
}

/// A concurrent protocol expressed as threads of atomic steps over
/// shared state. The explorer owns the schedule; the model owns the
/// semantics.
pub trait Model {
    /// Shared state mutated by the threads.
    type State;

    /// Fresh state for one execution.
    fn init(&self) -> Self::State;

    /// Number of model threads (fixed for all executions).
    fn threads(&self) -> usize;

    /// Scheduling status of `thread` in `state`.
    fn status(&self, state: &Self::State, thread: usize) -> Status;

    /// Execute one atomic step of `thread`. Called only when
    /// [`Model::status`] says `Runnable`.
    fn step(&self, state: &mut Self::State, thread: usize);

    /// Invariant check at the end of a complete execution (every thread
    /// `Finished`). Return a description of the violation, if any.
    fn check(&self, state: &Self::State) -> Result<(), String>;
}

/// A schedule that violated the model's invariants, with enough detail
/// to replay it by hand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleBug {
    /// Thread ids in execution order — feed to [`replay`] (or
    /// [`replay_prefix`] for deadlock schedules) to reproduce.
    pub schedule: Vec<usize>,
    /// What went wrong: the model's check message, or a deadlock report.
    pub message: String,
}

impl fmt::Display for ScheduleBug {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} under schedule {:?}", self.message, self.schedule)
    }
}

/// Aggregate statistics of an exhaustive exploration. Deterministic:
/// identical across runs for the same model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exploration {
    /// Number of distinct complete interleavings executed.
    pub interleavings: u64,
    /// Total atomic steps across all interleavings.
    pub steps: u64,
    /// Length of the longest execution.
    pub max_depth: usize,
    /// FNV-1a digest of every (depth, thread) choice in visit order —
    /// the determinism witness two runs are compared by.
    pub digest: u64,
}

/// Exhaustive depth-first schedule exploration with a bounded number of
/// interleavings (a runaway backstop, not a sampling knob — hitting it
/// is an error, never a silent truncation).
#[derive(Debug, Clone, Copy)]
pub struct Explorer {
    /// Abort with an error beyond this many interleavings.
    pub max_interleavings: u64,
}

impl Default for Explorer {
    fn default() -> Self {
        Explorer {
            max_interleavings: 1_000_000,
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

impl Explorer {
    /// Run every interleaving of `model`, checking invariants at the end
    /// of each. Returns aggregate statistics, or the first violating
    /// schedule (including deadlocks: no thread runnable while some are
    /// unfinished).
    pub fn explore<M: Model>(&self, model: &M) -> Result<Exploration, ScheduleBug> {
        // DFS over choice points by replay: `picks[d]` is the index into
        // the runnable set chosen at depth `d`. After each complete
        // execution, backtrack to the deepest choice point with an
        // untried alternative and replay from scratch.
        let mut picks: Vec<usize> = Vec::new();
        let mut stats = Exploration {
            interleavings: 0,
            steps: 0,
            max_depth: 0,
            digest: FNV_OFFSET,
        };
        loop {
            if stats.interleavings >= self.max_interleavings {
                return Err(ScheduleBug {
                    schedule: Vec::new(),
                    message: format!(
                        "exploration exceeded {} interleavings — model too large",
                        self.max_interleavings
                    ),
                });
            }
            let mut state = model.init();
            // (chosen index, runnable count) per depth of this execution.
            let mut frames: Vec<(usize, usize)> = Vec::new();
            let mut trace: Vec<usize> = Vec::new();
            loop {
                let runnable: Vec<usize> = (0..model.threads())
                    .filter(|&t| model.status(&state, t) == Status::Runnable)
                    .collect();
                if runnable.is_empty() {
                    let stuck: Vec<usize> = (0..model.threads())
                        .filter(|&t| model.status(&state, t) == Status::Blocked)
                        .collect();
                    if !stuck.is_empty() {
                        return Err(ScheduleBug {
                            schedule: trace,
                            message: format!("deadlock: threads {stuck:?} blocked forever"),
                        });
                    }
                    break; // all finished: complete execution
                }
                let depth = frames.len();
                let pick = if depth < picks.len() { picks[depth] } else { 0 };
                frames.push((pick, runnable.len()));
                let thread = runnable[pick];
                trace.push(thread);
                stats.digest = fnv1a(stats.digest, &[depth as u8, thread as u8]);
                model.step(&mut state, thread);
                stats.steps += 1;
            }
            stats.interleavings += 1;
            stats.max_depth = stats.max_depth.max(frames.len());
            if let Err(message) = model.check(&state) {
                return Err(ScheduleBug {
                    schedule: trace,
                    message,
                });
            }
            // Backtrack to the deepest untried alternative.
            picks = frames.iter().map(|&(p, _)| p).collect();
            let mut advanced = false;
            while let Some((pick, n)) = frames.pop() {
                picks.truncate(frames.len());
                if pick + 1 < n {
                    picks.push(pick + 1);
                    advanced = true;
                    break;
                }
            }
            if !advanced {
                return Ok(stats);
            }
        }
    }
}

/// Replay one explicit schedule (thread ids in execution order) against
/// a model, returning the final state — the debugging companion to a
/// [`ScheduleBug`]. Fails if the schedule names a non-runnable thread or
/// stops before every thread finishes.
pub fn replay<M: Model>(model: &M, schedule: &[usize]) -> Result<M::State, String> {
    let state = replay_prefix(model, schedule)?;
    for t in 0..model.threads() {
        if model.status(&state, t) != Status::Finished {
            return Err(format!("schedule ended with thread {t} unfinished"));
        }
    }
    Ok(state)
}

/// Replay a schedule *prefix*, returning the state it leads to without
/// requiring every thread to have finished. This is how deadlock
/// counterexamples are reproduced: the schedule of a deadlock
/// [`ScheduleBug`] ends at the stuck state, where no thread is runnable
/// but some are blocked.
pub fn replay_prefix<M: Model>(model: &M, schedule: &[usize]) -> Result<M::State, String> {
    let mut state = model.init();
    for (i, &thread) in schedule.iter().enumerate() {
        if thread >= model.threads() {
            return Err(format!("step {i}: no such thread {thread}"));
        }
        match model.status(&state, thread) {
            Status::Runnable => model.step(&mut state, thread),
            s => return Err(format!("step {i}: thread {thread} is {s:?}, not runnable")),
        }
    }
    Ok(state)
}

/// True when `schedule` leads the model to a deadlock: no thread
/// runnable, at least one blocked. Used to confirm that a deadlock
/// counterexample actually reproduces.
pub fn replays_to_deadlock<M: Model>(model: &M, schedule: &[usize]) -> Result<bool, String> {
    let state = replay_prefix(model, schedule)?;
    let mut blocked = false;
    for t in 0..model.threads() {
        match model.status(&state, t) {
            Status::Runnable => return Ok(false),
            Status::Blocked => blocked = true,
            Status::Finished => {}
        }
    }
    Ok(blocked)
}
