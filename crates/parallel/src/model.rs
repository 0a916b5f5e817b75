//! Deterministic schedule-explored models of the pool's coordination
//! protocols.
//!
//! Real `std::thread::scope` threads cannot be paused and resumed at
//! will, so the concurrency-sensitive invariants of this crate — the
//! *earliest-error-in-input-order* selection of [`crate::Pool::try_map`]
//! and the *caller-runs-chunk-0, join-in-order, drain-then-propagate*
//! shutdown of the chunked fan-out under it — are checked against explicit
//! state-machine **models** instead, explored by the standalone
//! [`ivm_race`] crate. This module keeps the two pool models next to the
//! pool they describe.
//!
//! This is model checking, not testing-by-execution: a bug like "the
//! error of whichever worker *finished first* wins" passes every real
//! `try_map` stress test almost always, but the explorer finds the one
//! interleaving where a later chunk's error overtakes an earlier one —
//! see `schedule_dependent_selection_is_caught` in the tests.

use ivm_race::explore::{Model, Status};

// ---------------------------------------------------------------------
// Model 1: try_map's deterministic error selection.
// ---------------------------------------------------------------------

/// Which selection protocol a model's calling thread follows when
/// several chunks fail (an error in [`FirstErrorModel`], a panic in
/// [`ShutdownModel`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Selection {
    /// What [`crate::Pool`] implements: the caller runs chunk 0, joins
    /// the workers in input order, and the first failing chunk in
    /// *input* order wins. Schedule independent — the property the
    /// explorer proves.
    InputOrder,
    /// The classic racy alternative: whichever chunk *failed first on
    /// the wall clock* wins. Kept as a known-buggy foil so the harness
    /// can demonstrate it catches schedule dependence.
    CompletionOrder,
}

/// State-machine model of [`crate::Pool::try_map`]: each chunk folds a
/// contiguous run of `Result` items, short-circuiting on the chunk's
/// first error. Thread 0 is the caller: it folds chunk 0 itself, then
/// joins the workers of chunks `1..` in input order and selects the
/// overall outcome. Thread `t ≥ 1` is the worker of chunk `t`.
#[derive(Debug, Clone)]
pub struct FirstErrorModel {
    /// Per-chunk items, contiguous in input order (at least one chunk).
    pub chunks: Vec<Vec<Result<u64, u64>>>,
    /// Error-selection protocol under test.
    pub selection: Selection,
}

/// Execution state of [`FirstErrorModel`].
#[derive(Debug, Clone)]
pub struct FirstErrorState {
    pc: Vec<usize>,
    acc: Vec<Vec<u64>>,
    outcome: Vec<Option<Result<(), u64>>>,
    /// Chunks in the order their *errors* became visible — the
    /// wall-clock completion order a racy selection would consult.
    error_log: Vec<usize>,
    /// Next worker chunk the caller joins (starts at 1).
    join_next: usize,
    final_result: Option<Result<Vec<u64>, u64>>,
}

impl FirstErrorModel {
    fn chunk_count(&self) -> usize {
        self.chunks.len().max(1)
    }

    /// The schedule-independent oracle: first failing chunk in input
    /// order contributes its first error; otherwise the concatenation.
    pub fn oracle(&self) -> Result<Vec<u64>, u64> {
        let mut all = Vec::new();
        for chunk in &self.chunks {
            for item in chunk {
                match item {
                    Ok(v) => all.push(*v),
                    Err(e) => return Err(*e),
                }
            }
        }
        Ok(all)
    }

    /// One atomic step of chunk `c`: fold one item, or finish an empty
    /// chunk.
    fn fold(&self, s: &mut FirstErrorState, c: usize) {
        let chunk = self.chunks.get(c).map_or(&[][..], Vec::as_slice);
        match chunk.get(s.pc[c]) {
            Some(Ok(v)) => {
                s.acc[c].push(*v);
                s.pc[c] += 1;
                if s.pc[c] == chunk.len() {
                    s.outcome[c] = Some(Ok(()));
                }
            }
            Some(Err(e)) => {
                // Chunk-local short-circuit, as in try_map's chunk body.
                s.outcome[c] = Some(Err(*e));
                s.error_log.push(c);
            }
            None => s.outcome[c] = Some(Ok(())),
        }
    }
}

impl Model for FirstErrorModel {
    type State = FirstErrorState;

    fn init(&self) -> FirstErrorState {
        let n = self.chunk_count();
        FirstErrorState {
            pc: vec![0; n],
            acc: vec![Vec::new(); n],
            outcome: vec![None; n],
            error_log: Vec::new(),
            join_next: 1,
            final_result: None,
        }
    }

    fn threads(&self) -> usize {
        self.chunk_count()
    }

    fn status(&self, s: &FirstErrorState, t: usize) -> Status {
        let n = self.chunk_count();
        if s.outcome[t].is_none() {
            // Folding its chunk (the caller's is chunk 0).
            Status::Runnable
        } else if t > 0 {
            Status::Finished
        } else if s.join_next < n {
            // Joining blocks until the next handle's worker is done.
            if s.outcome[s.join_next].is_some() {
                Status::Runnable
            } else {
                Status::Blocked
            }
        } else if s.final_result.is_none() {
            Status::Runnable
        } else {
            Status::Finished
        }
    }

    fn step(&self, s: &mut FirstErrorState, t: usize) {
        let n = self.chunk_count();
        if s.outcome[t].is_none() {
            self.fold(s, t);
        } else if s.join_next < n {
            s.join_next += 1;
        } else {
            // All handles joined: select the overall outcome.
            let failing = match self.selection {
                Selection::InputOrder => (0..n).find(|&c| matches!(s.outcome[c], Some(Err(_)))),
                Selection::CompletionOrder => s.error_log.first().copied(),
            };
            s.final_result = Some(match failing {
                Some(c) => match s.outcome[c] {
                    Some(Err(e)) => Err(e),
                    // A chunk only enters `failing` via Err outcomes.
                    _ => Err(u64::MAX),
                },
                None => {
                    let mut all = Vec::new();
                    for acc in &s.acc {
                        all.extend_from_slice(acc);
                    }
                    Ok(all)
                }
            });
        }
    }

    fn check(&self, s: &FirstErrorState) -> Result<(), String> {
        let got = match &s.final_result {
            Some(r) => r,
            None => return Err("execution finished without a final result".into()),
        };
        let want = self.oracle();
        if *got != want {
            return Err(format!(
                "schedule-dependent outcome: got {got:?}, oracle says {want:?}"
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Model 2: scope shutdown with panic propagation.
// ---------------------------------------------------------------------

/// State-machine model of the shutdown path of the chunked fan-out under
/// [`crate::Pool::try_map`].
/// Thread 0 is the caller: it runs chunk 0 itself, then joins the
/// workers of chunks `1..` (threads `1..`) in input order. Each chunk
/// runs to completion or panics at a scripted step. The first panic the
/// caller meets — its own chunk 0's, or a joined worker's — unwinds the
/// scope, which waits for every remaining worker before re-raising it.
/// The invariant is the `std::thread::scope` contract: no worker
/// outlives the scope, and the propagated panic is the first panicking
/// chunk in input order.
#[derive(Debug, Clone)]
pub struct ShutdownModel {
    /// Steps each chunk runs before finishing cleanly (at least one
    /// chunk; chunk 0 runs on the caller).
    pub steps_per_chunk: Vec<usize>,
    /// `(chunk, step)` pairs where that chunk panics instead.
    pub panics: Vec<(usize, usize)>,
    /// Which panic the scope re-raises when several chunks panic.
    pub selection: Selection,
}

/// Execution state of [`ShutdownModel`].
#[derive(Debug, Clone)]
pub struct ShutdownState {
    pc: Vec<usize>,
    done: Vec<bool>,
    panicked: Vec<bool>,
    /// Chunks in the order they panicked on the wall clock.
    panic_log: Vec<usize>,
    /// Next worker chunk the caller joins (starts at 1).
    join_next: usize,
    /// The panic unwinding the caller, once it met one.
    unwinding: Option<usize>,
    /// The payload the scope re-raised on exit.
    raised: Option<usize>,
    /// Workers still running when the scope exited — must stay empty.
    leaked: Vec<usize>,
    exited: bool,
}

impl ShutdownModel {
    fn chunk_count(&self) -> usize {
        self.steps_per_chunk.len().max(1)
    }

    fn steps(&self, chunk: usize) -> usize {
        self.steps_per_chunk.get(chunk).copied().unwrap_or(0)
    }

    fn panics_at(&self, chunk: usize, step: usize) -> bool {
        self.panics.contains(&(chunk, step))
    }

    /// The chunk whose panic the scope must re-raise: first panicking
    /// chunk in input order, independent of the schedule.
    pub fn expected_panic(&self) -> Option<usize> {
        (0..self.chunk_count()).find(|&c| (0..self.steps(c)).any(|s| self.panics_at(c, s)))
    }

    /// One step of chunk `c`'s body.
    fn run(&self, s: &mut ShutdownState, c: usize) {
        if self.panics_at(c, s.pc[c]) {
            s.panicked[c] = true;
            s.panic_log.push(c);
            s.done[c] = true;
        } else {
            s.pc[c] += 1;
            if s.pc[c] >= self.steps(c) {
                s.done[c] = true;
            }
        }
    }
}

impl Model for ShutdownModel {
    type State = ShutdownState;

    fn init(&self) -> ShutdownState {
        let n = self.chunk_count();
        let mut done = vec![false; n];
        for (c, d) in done.iter_mut().enumerate() {
            *d = self.steps(c) == 0;
        }
        ShutdownState {
            pc: vec![0; n],
            done,
            panicked: vec![false; n],
            panic_log: Vec::new(),
            join_next: 1,
            unwinding: None,
            raised: None,
            leaked: Vec::new(),
            exited: false,
        }
    }

    fn threads(&self) -> usize {
        self.chunk_count()
    }

    fn status(&self, s: &ShutdownState, t: usize) -> Status {
        let n = self.chunk_count();
        if t > 0 || !s.done[t] {
            // A worker, or the caller still running its own chunk 0.
            return if s.done[t] {
                Status::Finished
            } else {
                Status::Runnable
            };
        }
        if s.exited {
            Status::Finished
        } else if s.unwinding.is_some() {
            // Unwinding: the scope waits for every worker to finish.
            if s.done.iter().all(|d| *d) {
                Status::Runnable
            } else {
                Status::Blocked
            }
        } else if s.join_next >= n || s.done[s.join_next] {
            // Every handle joined (the scope exits), or the next is done.
            Status::Runnable
        } else {
            Status::Blocked
        }
    }

    fn step(&self, s: &mut ShutdownState, t: usize) {
        let n = self.chunk_count();
        if !s.done[t] {
            self.run(s, t);
            // The caller's own panic unwinds it at once; a worker's is
            // only seen when the caller joins it.
            if t == 0 && s.panicked[t] {
                s.unwinding = Some(t);
            }
        } else if s.unwinding.is_none() && s.join_next < n {
            // Join in input order; a panicked handle's payload is
            // re-raised at once, which unwinds the scope.
            if s.panicked[s.join_next] {
                s.unwinding = Some(s.join_next);
            }
            s.join_next += 1;
        } else {
            // Scope exit: record any worker still running as leaked.
            for c in 1..n {
                if !s.done[c] {
                    s.leaked.push(c);
                }
            }
            s.raised = match self.selection {
                Selection::InputOrder => s.unwinding,
                Selection::CompletionOrder => s.panic_log.first().copied(),
            };
            s.exited = true;
        }
    }

    fn check(&self, s: &ShutdownState) -> Result<(), String> {
        if !s.exited {
            return Err("execution finished without exiting the scope".into());
        }
        if !s.leaked.is_empty() {
            return Err(format!("workers {:?} outlived the scope", s.leaked));
        }
        if s.raised != self.expected_panic() {
            return Err(format!(
                "schedule-dependent panic: propagated {:?}, expected {:?}",
                s.raised,
                self.expected_panic()
            ));
        }
        for c in 0..self.chunk_count() {
            // Every chunk runs to completion or to its panic.
            if !s.panicked[c] && s.pc[c] < self.steps(c) {
                return Err(format!("chunk {c} finished early"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivm_race::explore::{replay, Explorer};

    fn error_model(selection: Selection) -> FirstErrorModel {
        // Two failing chunks: input order says the caller's chunk 0
        // error (17) wins, but chunk 2's error (63) is reachable *first*
        // under schedules where worker 2 outruns the caller.
        FirstErrorModel {
            chunks: vec![
                vec![Ok(1), Err(17)],
                vec![Ok(2), Ok(3)],
                vec![Ok(4), Err(63)],
                vec![Ok(5), Ok(6)],
            ],
            selection,
        }
    }

    #[test]
    fn input_order_selection_is_schedule_independent() {
        let model = error_model(Selection::InputOrder);
        let stats = Explorer::default().explore(&model).unwrap();
        assert!(stats.interleavings >= 280, "{stats:?}");
        assert_eq!(model.oracle(), Err(17));
    }

    #[test]
    fn schedule_dependent_selection_is_caught() {
        let model = error_model(Selection::CompletionOrder);
        let bug = Explorer::default().explore(&model).unwrap_err();
        assert!(bug.message.contains("schedule-dependent"), "{bug}");
        // The counterexample replays to the same bad state.
        let state = replay(&model, &bug.schedule).unwrap();
        assert_eq!(state.final_result, Some(Err(63)));
    }

    #[test]
    fn all_ok_model_concatenates_in_input_order() {
        let model = FirstErrorModel {
            chunks: vec![vec![Ok(1), Ok(2)], vec![], vec![Ok(3)], vec![Ok(4)]],
            selection: Selection::InputOrder,
        };
        let stats = Explorer::default().explore(&model).unwrap();
        assert!(stats.interleavings > 1);
        assert_eq!(model.oracle(), Ok(vec![1, 2, 3, 4]));
    }

    #[test]
    fn shutdown_model_joins_everyone() {
        let model = ShutdownModel {
            steps_per_chunk: vec![2, 2, 2, 2],
            panics: vec![(1, 1)],
            selection: Selection::InputOrder,
        };
        let stats = Explorer::default().explore(&model).unwrap();
        assert!(stats.interleavings >= 280, "{stats:?}");
        assert_eq!(model.expected_panic(), Some(1));
    }

    #[test]
    fn callers_own_panic_drains_the_workers_first() {
        let model = ShutdownModel {
            steps_per_chunk: vec![2, 2, 2, 2],
            panics: vec![(0, 1), (3, 0)],
            selection: Selection::InputOrder,
        };
        let stats = Explorer::default().explore(&model).unwrap();
        assert!(stats.interleavings >= 280, "{stats:?}");
        assert_eq!(model.expected_panic(), Some(0));
    }

    #[test]
    fn completion_order_panic_selection_is_caught() {
        let model = ShutdownModel {
            steps_per_chunk: vec![2, 2, 2, 2],
            panics: vec![(0, 1), (2, 0)],
            selection: Selection::CompletionOrder,
        };
        let bug = Explorer::default().explore(&model).unwrap_err();
        assert!(bug.message.contains("schedule-dependent"), "{bug}");
        let state = replay(&model, &bug.schedule).unwrap();
        assert_eq!(state.raised, Some(2));
    }

    #[test]
    fn exploration_is_deterministic() {
        let model = error_model(Selection::InputOrder);
        let a = Explorer::default().explore(&model).unwrap();
        let b = Explorer::default().explore(&model).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn replay_rejects_bad_schedules() {
        let model = ShutdownModel {
            steps_per_chunk: vec![1, 1],
            panics: vec![],
            selection: Selection::InputOrder,
        };
        assert!(replay(&model, &[7]).is_err(), "no such thread");
        assert!(replay(&model, &[1]).is_err(), "caller never ran");
        // Worker, caller's chunk, join, scope exit: a complete schedule.
        assert!(replay(&model, &[1, 0, 0, 0]).is_ok());
    }

    #[test]
    fn interleaving_cap_is_an_error_not_a_truncation() {
        let model = error_model(Selection::InputOrder);
        let bug = Explorer {
            max_interleavings: 3,
        }
        .explore(&model)
        .unwrap_err();
        assert!(bug.message.contains("exceeded"), "{bug}");
    }
}
