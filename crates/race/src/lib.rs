//! `ivm-race` — a deterministic model checker for the engine's
//! concurrency protocols.
//!
//! The static lints of `ivm-lint` check *tokens*; this crate checks
//! *interleavings*. A protocol is written as an explicit state machine
//! ([`Model`]): threads of atomic steps over shared state, an invariant
//! checked at the end of every complete execution. [`explore`] holds
//! the exhaustive depth-first scheduler promoted from
//! `crates/parallel/src/model.rs` (the pool's "mini-loom"): it runs
//! every interleaving of the model's steps and reports a violation as a
//! replayable [`ScheduleBug`].
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

pub mod explore;
pub mod serve_model;

pub use explore::{
    replay, replay_prefix, replays_to_deadlock, Exploration, Explorer, Model, ScheduleBug, Status,
};
pub use serve_model::{ServeFoil, ServeModel};
