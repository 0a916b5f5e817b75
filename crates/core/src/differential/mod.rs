//! Differential re-evaluation of views (§5).
//!
//! "Differential update means bringing the materialized view up to date by
//! identifying which tuples must be inserted into or deleted from the
//! current instance of the view." The submodules follow the paper's
//! progression:
//!
//! * [`select`] — select views, `v' = v ∪ σ_C(i_r) − σ_C(d_r)` (§5.1),
//! * [`project`] — project views with multiplicity counters (§5.2),
//! * [`truth_table`] — the binary expansion over updated relations (§5.3),
//! * [`join`] — pure join views, Examples 5.2–5.4 (§5.3),
//! * [`spj`] — Algorithm 5.1 for general SPJ views (§5.4): the
//!   paper-literal tagged engine, run as one plan that shares join
//!   prefixes across rows.
//!
//! [`select`], [`project`] and [`join`] are reference code, not on the
//! maintenance path: they state §5.1–§5.3 in the paper's own form for the
//! E6/E7 benches, the `exp_*` table harnesses and `tests/paper_examples.rs`.
//! `ViewManager` maintains every view through [`spj`]: an SPJ view is one
//! term, and a tree with ∪ and − compiles to a signed sum of terms.

pub mod join;
pub mod plan;
pub mod project;
pub mod select;
pub mod spj;
pub mod truth_table;

pub use join::{join_view, join_view_delta};
pub use project::project_view_delta;
pub use select::select_view_delta;
pub use spj::{
    differential_delta, differential_delta_observed, differential_delta_parts_observed,
    DiffOptions, DifferentialResult,
};
