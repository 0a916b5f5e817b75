//! Integration tests for the model checker itself, in two groups:
//!
//! * **Reduction soundness** — on small random register-machine models
//!   (≤ 3 threads, every step always enabled), DPOR exploration must
//!   reach exactly the same set of final-state digests as exhaustive
//!   DFS. Partial-order reduction is only allowed to skip *redundant*
//!   interleavings; if the digest sets ever diverge, the pruning
//!   dropped a reachable outcome.
//! * **Gate acceptance** — the serve protocol model explores its
//!   interleaving floor under DPOR, its seeded shutdown lost-wakeup foil
//!   is caught, and the counterexample replays to the reported deadlock.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ivm_race::{
    exhaustive_final_digests, replays_to_deadlock, Access, DporExplorer, DporModel, Model,
    ServeFoil, ServeModel, Status,
};

// ---------------------------------------------------------------------
// Random register machines: the DPOR ≡ exhaustive-DFS oracle.
// ---------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Pure thread-local work.
    Local,
    /// Read a shared cell into the thread's observation log.
    Load(usize),
    /// Overwrite a shared cell.
    Store(usize, u64),
    /// Read-modify-write a shared cell.
    Add(usize, u64),
}

#[derive(Debug, Clone)]
struct RegisterMachine {
    programs: Vec<Vec<Op>>,
    locations: usize,
}

#[derive(Debug, Clone)]
struct RmState {
    pc: Vec<usize>,
    mem: Vec<u64>,
    /// Per-thread log of observed values: makes outcome digests
    /// order-sensitive wherever the memory alone would not be.
    observed: Vec<Vec<u64>>,
}

impl Model for RegisterMachine {
    type State = RmState;

    fn init(&self) -> RmState {
        RmState {
            pc: vec![0; self.programs.len()],
            mem: vec![0; self.locations],
            observed: vec![Vec::new(); self.programs.len()],
        }
    }

    fn threads(&self) -> usize {
        self.programs.len()
    }

    fn status(&self, s: &RmState, t: usize) -> Status {
        if s.pc[t] < self.programs[t].len() {
            Status::Runnable
        } else {
            Status::Finished
        }
    }

    fn step(&self, s: &mut RmState, t: usize) {
        match self.programs[t][s.pc[t]] {
            Op::Local => {}
            Op::Load(loc) => {
                let v = s.mem[loc];
                s.observed[t].push(v);
            }
            Op::Store(loc, v) => s.mem[loc] = v,
            Op::Add(loc, v) => s.mem[loc] = s.mem[loc].wrapping_add(v),
        }
        s.pc[t] += 1;
    }

    fn check(&self, _s: &RmState) -> Result<(), String> {
        Ok(())
    }
}

impl DporModel for RegisterMachine {
    fn access(&self, s: &RmState, t: usize) -> Access {
        match self.programs[t][s.pc[t]] {
            Op::Local => Access::Local,
            Op::Load(loc) => Access::Read(loc),
            Op::Store(loc, _) | Op::Add(loc, _) => Access::Write(loc),
        }
    }

    fn digest(&self, s: &RmState) -> u64 {
        let mut h = FNV_OFFSET;
        for &v in &s.mem {
            h = fnv1a(h, &v.to_le_bytes());
        }
        for log in &s.observed {
            h = fnv1a(h, &(log.len() as u64).to_le_bytes());
            for &v in log {
                h = fnv1a(h, &v.to_le_bytes());
            }
        }
        h
    }
}

fn random_machine(rng: &mut StdRng) -> RegisterMachine {
    let locations = rng.gen_range(1..=2);
    let threads = rng.gen_range(2..=3);
    let programs = (0..threads)
        .map(|_| {
            let len = rng.gen_range(1..=3);
            (0..len)
                .map(|_| {
                    let loc = rng.gen_range(0..locations);
                    match rng.gen_range(0..4) {
                        0 => Op::Local,
                        1 => Op::Load(loc),
                        2 => Op::Store(loc, rng.gen_range(1..=3)),
                        _ => Op::Add(loc, rng.gen_range(1..=3)),
                    }
                })
                .collect()
        })
        .collect();
    RegisterMachine {
        programs,
        locations,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// DPOR must reach exactly the final states exhaustive DFS reaches.
    #[test]
    fn dpor_reaches_the_same_final_states_as_exhaustive_dfs(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let machine = random_machine(&mut rng);
        let truth = exhaustive_final_digests(&machine, 1_000_000)
            .expect("register machines cannot deadlock");
        let dpor = DporExplorer::default()
            .explore(&machine)
            .expect("register machines have no invariant to violate");
        prop_assert_eq!(
            &dpor.final_digests,
            &truth,
            "pruning changed reachable outcomes for {:?}",
            machine
        );
        prop_assert!(dpor.executions <= truth.len() as u64 * 10_000);
    }
}

/// Regression: the machine (found by the property test above) on which
/// naive sleep-set inheritance loses a reachable outcome. Thread 1's
/// `Store(1, 1)` races with thread 2's reads of location 1 *late* in
/// the search, after thread 2 has already been put to sleep at the
/// reordering point; unless the backtrack update wakes sleeping
/// threads, one of the 25 reachable final states (the one where thread
/// 2 observes the flag between thread 1's two stores) is never reached.
#[test]
fn sleep_sets_do_not_suppress_late_discovered_races() {
    let machine = RegisterMachine {
        programs: vec![
            vec![Op::Load(1), Op::Add(0, 2), Op::Store(0, 1)],
            vec![Op::Load(0), Op::Store(0, 3), Op::Store(1, 1)],
            vec![Op::Load(1), Op::Add(1, 3)],
        ],
        locations: 2,
    };
    let truth = exhaustive_final_digests(&machine, 1_000_000).unwrap();
    let dpor = DporExplorer::default().explore(&machine).unwrap();
    assert_eq!(truth.len(), 25);
    assert_eq!(dpor.final_digests, truth);
}

// ---------------------------------------------------------------------
// Gate acceptance: the serve model and its foil.
// ---------------------------------------------------------------------

fn serve(foil: ServeFoil) -> ServeModel {
    ServeModel { sessions: 2, foil }
}

#[test]
fn both_protocol_models_explore_their_interleaving_floors() {
    let stats = DporExplorer::default()
        .explore(&serve(ServeFoil::None))
        .unwrap();
    assert!(stats.executions >= 4, "{stats:?}");
}

#[test]
fn the_lost_wakeup_foil_yields_a_replayable_deadlock() {
    let model = serve(ServeFoil::SkipSocketShutdown);
    let bug = DporExplorer::default()
        .explore(&model)
        .expect_err("lost wakeup must be caught");
    assert!(bug.message.contains("deadlock"), "{bug}");
    assert!(replays_to_deadlock(&model, &bug.schedule).unwrap());
}

#[test]
fn protocol_exploration_statistics_are_deterministic() {
    let a = DporExplorer::default()
        .explore(&serve(ServeFoil::None))
        .unwrap();
    let b = DporExplorer::default()
        .explore(&serve(ServeFoil::None))
        .unwrap();
    assert_eq!(a, b);
}
