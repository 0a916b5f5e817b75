//! `ivm-race` — a deterministic model checker for the engine's
//! concurrency protocols.
//!
//! The static lints of `ivm-lint` check *tokens*; this crate checks
//! *interleavings*. A protocol is written as an explicit state machine
//! ([`Model`]): threads of atomic steps over shared state, an invariant
//! checked at the end of every complete execution. Two layers make
//! that checkable at protocol scale:
//!
//! 1. [`explore`] — the exhaustive depth-first scheduler promoted from
//!    `crates/parallel/src/model.rs` (the pool's "mini-loom"), with
//!    replayable [`ScheduleBug`] counterexamples.
//! 2. [`dpor`] — dynamic partial-order reduction with sleep sets:
//!    models declare per-step accesses, and only interleavings that
//!    reorder *dependent* steps are explored. Property-tested against
//!    exhaustive exploration for final-state equivalence.
//!
//! On top sits a faithful model of the serve sessions' write lock and
//! graceful shutdown, [`serve_model`] (no lost wakeups, shutdown
//! unblocks every session). It carries a seeded *foil* (a deliberately
//! broken variant that skips the socket shutdown) that the checker must
//! catch; the `ivm-race` binary runs the model and its foil as a CI gate
//! (`ci/analyze.sh`). The snapshot hub needs no model: it publishes
//! through one lock around an `Arc`, with nothing hand-ordered to check.
//!
//! The exploration is a pure function of the model — no clocks, no
//! ambient randomness, no real threads — so every statistic is
//! bit-reproducible and every counterexample replays.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dpor;
pub mod explore;
pub mod serve_model;

pub use dpor::{exhaustive_final_digests, Access, DporExploration, DporExplorer, DporModel};
pub use explore::{
    replay, replay_prefix, replays_to_deadlock, Exploration, Explorer, Model, ScheduleBug, Status,
};
pub use serve_model::{ServeFoil, ServeModel};
