//! `ivm-race` — a deterministic model checker for the engine's
//! concurrency protocols.
//!
//! The static lints of `ivm-lint` check *tokens*; this crate checks
//! *interleavings*. A protocol is written as an explicit state machine
//! ([`Model`]): threads of atomic steps over shared state, an invariant
//! checked at the end of every complete execution. Three layers make
//! that checkable at protocol scale:
//!
//! 1. [`explore`] — the exhaustive depth-first scheduler promoted from
//!    `crates/parallel/src/model.rs` (the pool's "mini-loom"), with
//!    replayable [`ScheduleBug`] counterexamples.
//! 2. [`dpor`] — dynamic partial-order reduction with sleep sets:
//!    models declare per-step accesses, and only interleavings that
//!    reorder *dependent* steps are explored. Property-tested against
//!    exhaustive exploration for final-state equivalence.
//! 3. [`mem`] — modeled atomics with **declared** memory orderings: a
//!    `Relaxed` store's visibility becomes a schedulable store-buffer
//!    flush, so a protocol whose declared orderings are weaker than it
//!    needs fails a model run even though SeqCst-only exploration stays
//!    green.
//!
//! On top sit faithful models of the two real protocols this repo
//! ships: [`snapshot_model`] (`SnapshotHub` publish/pin/reclaim —
//! no reader ever dereferences a freed snapshot, epochs are monotone)
//! and [`serve_model`] (the serve sessions' write lock and graceful
//! shutdown — no lost wakeups, shutdown unblocks every session). Each
//! carries seeded *foils* (deliberately broken variants: skipped or
//! underdeclared announce fence, skipped socket shutdown) that the
//! checker must catch; the `ivm-race` binary runs models and foils as a
//! CI gate (`ci/analyze.sh`).
//!
//! The exploration is a pure function of the model — no clocks, no
//! ambient randomness, no real threads — so every statistic is
//! bit-reproducible and every counterexample replays.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dpor;
pub mod explore;
pub mod mem;
pub mod serve_model;
pub mod snapshot_model;

pub use dpor::{exhaustive_final_digests, Access, DporExploration, DporExplorer, DporModel};
pub use explore::{
    replay, replay_prefix, replays_to_deadlock, Exploration, Explorer, Model, ScheduleBug, Status,
};
pub use mem::{DeclaredOrdering, Mem, MemMode, MessagePassing};
pub use serve_model::{ServeFoil, ServeModel};
pub use snapshot_model::{SnapshotFoil, SnapshotModel, IDLE};
