//! Dynamic partial-order reduction (DPOR) with sleep sets.
//!
//! Exhaustive enumeration ([`crate::explore::Explorer`]) revisits every
//! permutation of *independent* steps — steps touching different
//! objects — even though all such permutations reach the same state.
//! DPOR (Flanagan & Godefroid, POPL 2005) prunes them: it explores one
//! interleaving, then *backtracks only where two dependent transitions
//! could have been reordered*. Sleep sets remove a further class of
//! redundant re-explorations.
//!
//! Sleep sets interact subtly with DPOR's *lazy* backtrack sets: a
//! thread put to sleep at a state can later turn out to be the exact
//! reordering a newly discovered race requires there — classic sleep
//! sets assume the persistent set was fixed up front, DPOR grows it
//! during the search. Naive combination drops reachable outcomes (the
//! property test in `tests/protocols.rs` found a 3-thread
//! register-machine counterexample, kept there as a regression). The
//! fix: whenever the backtrack update schedules a thread at an earlier
//! state, it also *wakes* it (removes it from that state's sleep set),
//! so late-discovered races always win over sleep-set pruning.
//!
//! The contract with the model is one extra method pair
//! ([`DporModel::access`] / [`DporModel::digest`]) on top of
//! [`Model`]: each thread's next step declares what it touches, and the
//! checker treats two steps as dependent when their accesses conflict.
//! Declaring accesses too coarsely ([`Access::Global`]) is always
//! *sound* — it only costs pruning — so protocol models lean
//! conservative: any step that touches several objects (a
//! join that waits on every session thread) is `Global`.
//!
//! Soundness note on enabledness: a transition that *unblocks* another
//! thread must be dependent with that thread's next step. The models in
//! this crate guarantee it by making every blocking-condition consumer
//! read the object its producer writes (or `Global`), and the backtrack
//! update falls back to a persistent set (all enabled threads) whenever
//! the candidate thread is not enabled at the reordering point — the
//! classic conservative fallback.
//!
//! `tests/protocols.rs` property-tests the reduction against ground
//! truth: on small random models, the set of distinct final-state
//! digests reached by DPOR equals the set reached by exhaustive DFS.

use std::collections::BTreeSet;

use crate::explore::{fnv1a, Model, ScheduleBug, Status, FNV_OFFSET};

/// What one atomic step touches, for the dependence relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Thread-local only: independent with everything.
    Local,
    /// Reads shared object `id` (ids are model-chosen, arbitrary).
    Read(usize),
    /// Writes shared object `id`.
    Write(usize),
    /// Touches several shared objects (or unblocks other threads in a
    /// way no single id captures): conservatively dependent with every
    /// non-local access.
    Global,
}

impl Access {
    /// The (symmetric) dependence relation: can reordering two adjacent
    /// steps with these accesses change the outcome?
    pub fn depends(self, other: Access) -> bool {
        match (self, other) {
            (Access::Local, _) | (_, Access::Local) => false,
            (Access::Global, _) | (_, Access::Global) => true,
            (Access::Read(_), Access::Read(_)) => false,
            (Access::Read(a), Access::Write(b))
            | (Access::Write(a), Access::Read(b))
            | (Access::Write(a), Access::Write(b)) => a == b,
        }
    }
}

/// A [`Model`] that additionally declares per-step accesses and can
/// digest a final state, enabling partial-order reduction. The state
/// must be cloneable: DPOR snapshots states along the stack instead of
/// replaying from scratch.
pub trait DporModel: Model
where
    Self::State: Clone,
{
    /// The access the *next* step of `thread` would perform in `state`.
    /// Called only for runnable threads.
    fn access(&self, state: &Self::State, thread: usize) -> Access;

    /// Digest of a final state, used to compare the set of reachable
    /// outcomes against exhaustive exploration. States that differ in
    /// ways the protocol cares about must digest differently.
    fn digest(&self, state: &Self::State) -> u64;
}

/// Statistics of one DPOR exploration. Deterministic for a fixed model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DporExploration {
    /// Complete executions actually run (after pruning).
    pub executions: u64,
    /// Executions cut short by sleep sets (reached a state where every
    /// enabled thread was sleeping).
    pub pruned: u64,
    /// Total atomic steps taken.
    pub steps: u64,
    /// Length of the longest execution.
    pub max_depth: usize,
    /// FNV-1a digest over every (depth, thread) choice in visit order.
    pub digest: u64,
    /// Digests of every distinct final state reached.
    pub final_digests: BTreeSet<u64>,
}

/// One stack entry of the DPOR depth-first search.
struct Frame<S> {
    /// State *before* any transition is taken from this frame.
    state: S,
    /// Runnable threads in `state`, ascending.
    enabled: Vec<usize>,
    /// `access(state, t)` for each entry of `enabled` (same order).
    accesses: Vec<Access>,
    /// Threads that must (still) be explored from this state.
    backtrack: BTreeSet<usize>,
    /// Threads already explored from this state.
    done: BTreeSet<usize>,
    /// Threads whose exploration here is provably redundant.
    sleep: BTreeSet<usize>,
    /// The transition currently taken out of this frame (thread,
    /// access) — valid for every frame below the top of the stack.
    taken: Option<(usize, Access)>,
}

/// Depth-first DPOR explorer. Like [`crate::explore::Explorer`], the
/// execution cap is a runaway backstop: exceeding it is an error, never
/// a silent truncation.
#[derive(Debug, Clone, Copy)]
pub struct DporExplorer {
    /// Abort with an error beyond this many complete executions.
    pub max_executions: u64,
}

impl Default for DporExplorer {
    fn default() -> Self {
        DporExplorer {
            max_executions: 1_000_000,
        }
    }
}

impl DporExplorer {
    /// Explore a representative subset of interleavings covering every
    /// Mazurkiewicz trace (dependence-equivalence class) of `model`,
    /// checking the invariant at the end of each complete execution.
    pub fn explore<M>(&self, model: &M) -> Result<DporExploration, ScheduleBug>
    where
        M: DporModel,
        M::State: Clone,
    {
        let mut stats = DporExploration {
            executions: 0,
            pruned: 0,
            steps: 0,
            max_depth: 0,
            digest: FNV_OFFSET,
            final_digests: BTreeSet::new(),
        };
        let mut stack: Vec<Frame<M::State>> = Vec::new();
        let first = self.make_frame(model, model.init(), BTreeSet::new());
        stack.push(first);
        self.update_backtracks(model, &mut stack);

        while let Some(top) = stack.last() {
            if top.enabled.is_empty() {
                let schedule = trace_of(&stack);
                let stuck: Vec<usize> = (0..model.threads())
                    .filter(|&t| model.status(&top.state, t) == Status::Blocked)
                    .collect();
                if !stuck.is_empty() {
                    return Err(ScheduleBug {
                        schedule,
                        message: format!("deadlock: threads {stuck:?} blocked forever"),
                    });
                }
                stats.executions += 1;
                if stats.executions > self.max_executions {
                    return Err(ScheduleBug {
                        schedule: Vec::new(),
                        message: format!(
                            "DPOR exploration exceeded {} executions — model too large",
                            self.max_executions
                        ),
                    });
                }
                stats.max_depth = stats.max_depth.max(stack.len() - 1);
                stats.final_digests.insert(model.digest(&top.state));
                if let Err(message) = model.check(&top.state) {
                    return Err(ScheduleBug { schedule, message });
                }
                stack.pop();
                continue;
            }

            // Next candidate: in the backtrack set, not yet done, not
            // sleeping. Sleeping members are provably redundant here.
            let candidate = top
                .backtrack
                .iter()
                .copied()
                .find(|t| !top.done.contains(t) && !top.sleep.contains(t));
            let Some(t) = candidate else {
                if top.done.is_empty() {
                    // Every enabled thread was asleep: this whole branch
                    // is equivalent to one already explored.
                    stats.pruned += 1;
                }
                stack.pop();
                continue;
            };

            let depth = stack.len() - 1;
            // ivm-lint: allow(no-panic) — invariant: the pop branch above ran, so the stack is non-empty
            let top = stack.last_mut().expect("non-empty stack");
            top.done.insert(t);
            let idx = top
                .enabled
                .iter()
                .position(|&e| e == t)
                // ivm-lint: allow(no-panic) — invariant: pick_thread only returns members of `enabled`
                .expect("backtrack sets only hold enabled threads");
            let access = top.accesses[idx];
            top.taken = Some((t, access));

            // Sleep set inheritance: anything asleep here (or already
            // explored here) stays asleep in the child iff its step is
            // independent with the one we are taking.
            let mut child_sleep = BTreeSet::new();
            for (i, &q) in top.enabled.iter().enumerate() {
                if q == t {
                    continue;
                }
                if (top.sleep.contains(&q) || top.done.contains(&q))
                    && !top.accesses[i].depends(access)
                {
                    child_sleep.insert(q);
                }
            }

            let mut child_state = top.state.clone();
            model.step(&mut child_state, t);
            stats.steps += 1;
            stats.digest = fnv1a(stats.digest, &[depth as u8, t as u8]);

            let child = self.make_frame(model, child_state, child_sleep);
            stack.push(child);
            self.update_backtracks(model, &mut stack);
        }
        Ok(stats)
    }

    fn make_frame<M>(&self, model: &M, state: M::State, sleep: BTreeSet<usize>) -> Frame<M::State>
    where
        M: DporModel,
        M::State: Clone,
    {
        let enabled: Vec<usize> = (0..model.threads())
            .filter(|&t| model.status(&state, t) == Status::Runnable)
            .collect();
        let accesses: Vec<Access> = enabled.iter().map(|&t| model.access(&state, t)).collect();
        let mut backtrack = BTreeSet::new();
        if let Some(&first) = enabled.iter().find(|t| !sleep.contains(t)) {
            backtrack.insert(first);
        }
        Frame {
            state,
            enabled,
            accesses,
            backtrack,
            done: BTreeSet::new(),
            sleep,
            taken: None,
        }
    }

    /// The DPOR backtrack update, run whenever a new frame is pushed:
    /// for every thread enabled at the new frontier, find the *last*
    /// earlier transition dependent with that thread's next step and
    /// make sure the reordering will be explored from just before it.
    fn update_backtracks<M>(&self, _model: &M, stack: &mut [Frame<M::State>])
    where
        M: DporModel,
        M::State: Clone,
    {
        let Some((frontier, below)) = stack.split_last_mut() else {
            return;
        };
        for (i, &p) in frontier.enabled.iter().enumerate() {
            let a = frontier.accesses[i];
            if a == Access::Local {
                continue;
            }
            // Last j with a transition dependent with (p, a), by a
            // different thread.
            let Some(j) = (0..below.len()).rev().find(|&j| {
                below[j]
                    .taken
                    .map(|(t, ta)| t != p && ta.depends(a))
                    .unwrap_or(false)
            }) else {
                continue;
            };
            if below[j].enabled.contains(&p) {
                below[j].backtrack.insert(p);
                // Wake the thread if it was asleep at j. A sleeping
                // thread is redundant only as long as no *new* race
                // demands its exploration; this race was discovered
                // after j's sleep set was computed, so keeping p asleep
                // there would suppress the very reordering DPOR just
                // scheduled (the classic sleep-set/lazy-backtrack
                // interaction — see the module docs).
                below[j].sleep.remove(&p);
            } else {
                // Persistent-set fallback: p was not yet enabled at j,
                // so schedule everything that was.
                for &e in &below[j].enabled {
                    below[j].backtrack.insert(e);
                    below[j].sleep.remove(&e);
                }
            }
        }
    }
}

/// The schedule currently on the stack: one taken transition per frame
/// below the top.
fn trace_of<S>(stack: &[Frame<S>]) -> Vec<usize> {
    stack
        .iter()
        .filter_map(|f| f.taken.map(|(t, _)| t))
        .collect()
}

/// Ground truth for the equivalence property test: exhaustive DFS (no
/// reduction) collecting the digest of every final state. Errors if the
/// model deadlocks, fails its check, or exceeds `max_executions`.
pub fn exhaustive_final_digests<M>(
    model: &M,
    max_executions: u64,
) -> Result<BTreeSet<u64>, ScheduleBug>
where
    M: DporModel,
    M::State: Clone,
{
    struct Node<S> {
        state: S,
        enabled: Vec<usize>,
        next: usize,
        taken: Option<usize>,
    }
    fn make_node<M: DporModel>(model: &M, state: M::State) -> Node<M::State>
    where
        M::State: Clone,
    {
        let enabled = (0..model.threads())
            .filter(|&t| model.status(&state, t) == Status::Runnable)
            .collect();
        Node {
            state,
            enabled,
            next: 0,
            taken: None,
        }
    }
    let mut digests = BTreeSet::new();
    let mut executions = 0u64;
    let mut stack = vec![make_node(model, model.init())];
    while let Some(top) = stack.last_mut() {
        if top.enabled.is_empty() {
            let stuck =
                (0..model.threads()).any(|t| model.status(&top.state, t) == Status::Blocked);
            let digest = model.digest(&top.state);
            let checked = model.check(&top.state);
            let schedule: Vec<usize> = stack.iter().filter_map(|n| n.taken).collect();
            if stuck {
                return Err(ScheduleBug {
                    schedule,
                    message: "deadlock in exhaustive exploration".into(),
                });
            }
            executions += 1;
            if executions > max_executions {
                return Err(ScheduleBug {
                    schedule: Vec::new(),
                    message: format!("exhaustive exploration exceeded {max_executions} executions"),
                });
            }
            digests.insert(digest);
            if let Err(message) = checked {
                return Err(ScheduleBug { schedule, message });
            }
            stack.pop();
            continue;
        }
        if top.next >= top.enabled.len() {
            stack.pop();
            continue;
        }
        let t = top.enabled[top.next];
        top.next += 1;
        top.taken = Some(t);
        let mut state = top.state.clone();
        model.step(&mut state, t);
        let node = make_node(model, state);
        stack.push(node);
    }
    Ok(digests)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy model: N threads each increment a private counter `steps`
    /// times (all Local), then one shared cell once (Write). Final state
    /// is always the same; DPOR should explore far fewer interleavings
    /// than the exhaustive count.
    #[derive(Clone)]
    struct Counters {
        threads: usize,
        local_steps: usize,
    }

    #[derive(Clone)]
    struct CountersState {
        pc: Vec<usize>,
        shared: u64,
    }

    impl Model for Counters {
        type State = CountersState;
        fn init(&self) -> CountersState {
            CountersState {
                pc: vec![0; self.threads],
                shared: 0,
            }
        }
        fn threads(&self) -> usize {
            self.threads
        }
        fn status(&self, s: &CountersState, t: usize) -> Status {
            if s.pc[t] <= self.local_steps {
                Status::Runnable
            } else {
                Status::Finished
            }
        }
        fn step(&self, s: &mut CountersState, t: usize) {
            if s.pc[t] == self.local_steps {
                s.shared += 1;
            }
            s.pc[t] += 1;
        }
        fn check(&self, s: &CountersState) -> Result<(), String> {
            if s.shared == self.threads as u64 {
                Ok(())
            } else {
                Err(format!("shared = {}, want {}", s.shared, self.threads))
            }
        }
    }

    impl DporModel for Counters {
        fn access(&self, s: &CountersState, t: usize) -> Access {
            if s.pc[t] == self.local_steps {
                Access::Write(0)
            } else {
                Access::Local
            }
        }
        fn digest(&self, s: &CountersState) -> u64 {
            s.shared
        }
    }

    #[test]
    fn dpor_prunes_independent_interleavings() {
        let model = Counters {
            threads: 3,
            local_steps: 3,
        };
        let dpor = DporExplorer::default().explore(&model).unwrap();
        let exhaustive = crate::explore::Explorer::default().explore(&model).unwrap();
        assert!(
            dpor.executions < exhaustive.interleavings / 10,
            "dpor {} vs exhaustive {}",
            dpor.executions,
            exhaustive.interleavings
        );
        let truth = exhaustive_final_digests(&model, 1_000_000).unwrap();
        assert_eq!(dpor.final_digests, truth);
    }

    #[test]
    fn dpor_is_deterministic() {
        let model = Counters {
            threads: 3,
            local_steps: 2,
        };
        let a = DporExplorer::default().explore(&model).unwrap();
        let b = DporExplorer::default().explore(&model).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn access_dependence_table() {
        use Access::*;
        assert!(!Local.depends(Global));
        assert!(Global.depends(Read(3)));
        assert!(!Read(1).depends(Read(1)));
        assert!(Read(1).depends(Write(1)));
        assert!(!Read(1).depends(Write(2)));
        assert!(Write(4).depends(Write(4)));
    }

    /// A model whose check fails on one specific reordering: two threads
    /// write distinct values to one cell; check requires thread 1's
    /// value to... lose. DPOR must still find the violating order.
    #[derive(Clone)]
    struct LastWriteWins;

    #[derive(Clone)]
    struct LwwState {
        pc: [usize; 2],
        cell: u64,
    }

    impl Model for LastWriteWins {
        type State = LwwState;
        fn init(&self) -> LwwState {
            LwwState {
                pc: [0; 2],
                cell: 0,
            }
        }
        fn threads(&self) -> usize {
            2
        }
        fn status(&self, s: &LwwState, t: usize) -> Status {
            if s.pc[t] == 0 {
                Status::Runnable
            } else {
                Status::Finished
            }
        }
        fn step(&self, s: &mut LwwState, t: usize) {
            s.cell = t as u64 + 1;
            s.pc[t] = 1;
        }
        fn check(&self, s: &LwwState) -> Result<(), String> {
            if s.cell == 2 {
                Ok(())
            } else {
                Err(format!("cell = {}", s.cell))
            }
        }
    }

    impl DporModel for LastWriteWins {
        fn access(&self, _s: &LwwState, _t: usize) -> Access {
            Access::Write(0)
        }
        fn digest(&self, s: &LwwState) -> u64 {
            s.cell
        }
    }

    #[test]
    fn dpor_finds_the_dependent_reordering() {
        let bug = DporExplorer::default().explore(&LastWriteWins).unwrap_err();
        assert!(bug.message.contains("cell"), "{bug}");
        let state = crate::explore::replay(&LastWriteWins, &bug.schedule).unwrap();
        assert_eq!(state.cell, 1);
    }
}
