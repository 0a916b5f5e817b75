//! Deterministic schedule-explored models of the pool's coordination
//! protocols.
//!
//! Real `std::thread::scope` threads cannot be paused and resumed at
//! will, so the concurrency-sensitive invariants of this crate — the
//! *earliest-error-in-input-order* selection of [`crate::Pool::try_map`]
//! and the *join-everything-then-propagate* shutdown of
//! [`crate::Pool::map_chunks`] — are checked against explicit
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

/// Which error-selection protocol the [`FirstErrorModel`] main thread
/// follows when several chunks fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Selection {
    /// What [`crate::Pool::try_map`] implements: join handles in input
    /// order, first failing chunk in *input* order wins. Schedule
    /// independent — the property the explorer proves.
    InputOrder,
    /// The classic racy alternative: whichever failing worker *finished
    /// first on the wall clock* wins. Kept as a known-buggy foil so the
    /// harness can demonstrate it catches schedule dependence.
    CompletionOrder,
}

/// State-machine model of [`crate::Pool::try_map`]: `W` workers each
/// fold a contiguous chunk of `Result` items (short-circuiting on the
/// chunk's first error) while a main thread joins them in input order
/// and selects the overall outcome.
#[derive(Debug, Clone)]
pub struct FirstErrorModel {
    /// Per-worker chunks, contiguous in input order.
    pub chunks: Vec<Vec<Result<u64, u64>>>,
    /// Error-selection protocol under test.
    pub selection: Selection,
}

/// Execution state of [`FirstErrorModel`]. Workers are threads
/// `0..W`, the joining main thread is thread `W`.
#[derive(Debug, Clone)]
pub struct FirstErrorState {
    pc: Vec<usize>,
    acc: Vec<Vec<u64>>,
    outcome: Vec<Option<Result<(), u64>>>,
    /// Worker ids in the order their *errors* became visible — the
    /// wall-clock completion order a racy selection would consult.
    error_log: Vec<usize>,
    join_next: usize,
    final_result: Option<Result<Vec<u64>, u64>>,
}

impl FirstErrorModel {
    fn workers(&self) -> usize {
        self.chunks.len()
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
}

impl Model for FirstErrorModel {
    type State = FirstErrorState;

    fn init(&self) -> FirstErrorState {
        let w = self.workers();
        FirstErrorState {
            pc: vec![0; w],
            acc: vec![Vec::new(); w],
            outcome: vec![None; w],
            error_log: Vec::new(),
            join_next: 0,
            final_result: None,
        }
    }

    fn threads(&self) -> usize {
        self.workers() + 1
    }

    fn status(&self, s: &FirstErrorState, t: usize) -> Status {
        let w = self.workers();
        if t < w {
            if s.outcome[t].is_some() {
                Status::Finished
            } else {
                Status::Runnable
            }
        } else if s.join_next < w {
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
        let w = self.workers();
        if t < w {
            // One atomic step = fold one item (or finish an empty chunk).
            match self.chunks[t].get(s.pc[t]) {
                Some(Ok(v)) => {
                    s.acc[t].push(*v);
                    s.pc[t] += 1;
                    if s.pc[t] == self.chunks[t].len() {
                        s.outcome[t] = Some(Ok(()));
                    }
                }
                Some(Err(e)) => {
                    // Chunk-local short-circuit, as in try_map's worker.
                    s.outcome[t] = Some(Err(*e));
                    s.error_log.push(t);
                }
                None => s.outcome[t] = Some(Ok(())),
            }
        } else if s.join_next < w {
            s.join_next += 1;
        } else {
            // All handles joined: select the overall outcome.
            let failing = match self.selection {
                Selection::InputOrder => (0..w).find(|&i| matches!(s.outcome[i], Some(Err(_)))),
                Selection::CompletionOrder => s.error_log.first().copied(),
            };
            s.final_result = Some(match failing {
                Some(i) => match s.outcome[i] {
                    Some(Err(e)) => Err(e),
                    // A worker only enters `failing` via Err outcomes.
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

/// State-machine model of [`crate::Pool::map_chunks`]'s shutdown path:
/// workers run to completion (or panic at a scripted step); the main
/// thread joins every handle in input order, remembers the first panic
/// payload it sees, and only after *all* joins does the scope exit and
/// re-raise. The invariant is the `std::thread::scope` contract: no
/// worker outlives the scope, and the propagated payload is the first
/// panicking handle in join (= input) order.
#[derive(Debug, Clone)]
pub struct ShutdownModel {
    /// Steps each worker runs before finishing cleanly.
    pub steps_per_worker: Vec<usize>,
    /// `(worker, step)` pairs where that worker panics instead.
    pub panics: Vec<(usize, usize)>,
}

/// Execution state of [`ShutdownModel`]. Workers are threads `0..W`,
/// the joining main thread is thread `W`.
#[derive(Debug, Clone)]
pub struct ShutdownState {
    pc: Vec<usize>,
    done: Vec<bool>,
    panicked: Vec<bool>,
    join_next: usize,
    first_panic: Option<usize>,
    /// Workers still running when the scope exited — must stay empty.
    leaked: Vec<usize>,
    exited: bool,
}

impl ShutdownModel {
    fn workers(&self) -> usize {
        self.steps_per_worker.len()
    }

    fn panics_at(&self, worker: usize, step: usize) -> bool {
        self.panics.contains(&(worker, step))
    }

    /// The worker whose panic the scope must re-raise: first panicking
    /// handle in join order, independent of the schedule.
    pub fn expected_panic(&self) -> Option<usize> {
        (0..self.workers()).find(|&w| (0..self.steps_per_worker[w]).any(|s| self.panics_at(w, s)))
    }
}

impl Model for ShutdownModel {
    type State = ShutdownState;

    fn init(&self) -> ShutdownState {
        let w = self.workers();
        ShutdownState {
            pc: vec![0; w],
            done: vec![false; w],
            panicked: vec![false; w],
            join_next: 0,
            first_panic: None,
            leaked: Vec::new(),
            exited: false,
        }
    }

    fn threads(&self) -> usize {
        self.workers() + 1
    }

    fn status(&self, s: &ShutdownState, t: usize) -> Status {
        let w = self.workers();
        if t < w {
            if s.done[t] {
                Status::Finished
            } else {
                Status::Runnable
            }
        } else if s.join_next < w {
            if s.done[s.join_next] {
                Status::Runnable
            } else {
                Status::Blocked
            }
        } else if s.exited {
            Status::Finished
        } else {
            Status::Runnable
        }
    }

    fn step(&self, s: &mut ShutdownState, t: usize) {
        let w = self.workers();
        if t < w {
            if self.panics_at(t, s.pc[t]) {
                s.panicked[t] = true;
                s.done[t] = true;
            } else {
                s.pc[t] += 1;
                if s.pc[t] >= self.steps_per_worker[t] {
                    s.done[t] = true;
                }
            }
        } else if s.join_next < w {
            // Join in input order; remember the first panic payload but
            // keep joining — scope exit must wait for every worker.
            if s.panicked[s.join_next] && s.first_panic.is_none() {
                s.first_panic = Some(s.join_next);
            }
            s.join_next += 1;
        } else {
            // Scope exit: record any worker still running as leaked.
            for worker in 0..w {
                if !s.done[worker] {
                    s.leaked.push(worker);
                }
            }
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
        if s.first_panic != self.expected_panic() {
            return Err(format!(
                "propagated panic from {:?}, expected {:?}",
                s.first_panic,
                self.expected_panic()
            ));
        }
        for worker in 0..self.workers() {
            if !s.panicked[worker] && s.pc[worker] < self.steps_per_worker[worker] {
                return Err(format!("worker {worker} finished early"));
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
        // Two failing chunks: input order says chunk 0's error (17)
        // wins, but chunk 2's error (63) is reachable *first* under
        // schedules where worker 2 outruns worker 0.
        FirstErrorModel {
            chunks: vec![
                vec![Ok(1), Err(17)],
                vec![Ok(2), Ok(3)],
                vec![Ok(4), Err(63)],
            ],
            selection,
        }
    }

    #[test]
    fn input_order_selection_is_schedule_independent() {
        let model = error_model(Selection::InputOrder);
        let stats = Explorer::default().explore(&model).unwrap();
        assert!(stats.interleavings >= 100, "{stats:?}");
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
            chunks: vec![vec![Ok(1), Ok(2)], vec![], vec![Ok(3)]],
            selection: Selection::InputOrder,
        };
        let stats = Explorer::default().explore(&model).unwrap();
        assert!(stats.interleavings > 1);
        assert_eq!(model.oracle(), Ok(vec![1, 2, 3]));
    }

    #[test]
    fn shutdown_model_joins_everyone() {
        let model = ShutdownModel {
            steps_per_worker: vec![2, 2, 2],
            panics: vec![(1, 1)],
        };
        let stats = Explorer::default().explore(&model).unwrap();
        assert!(stats.interleavings >= 100, "{stats:?}");
        assert_eq!(model.expected_panic(), Some(1));
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
            steps_per_worker: vec![1],
            panics: vec![],
        };
        assert!(replay(&model, &[7]).is_err(), "no such thread");
        assert!(replay(&model, &[0]).is_err(), "main never ran");
        // Worker, join, scope exit: a complete schedule.
        assert!(replay(&model, &[0, 1, 1]).is_ok());
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
