//! Relational algebra operators, redefined for multiplicity counters (§5.2)
//! and insert/delete tags (§5.3).
//!
//! Join, select and project each come in two flavours (cross product
//! only in the first):
//! * over [`crate::relation::Relation`] — plain counted multisets (used by
//!   full re-evaluation and view storage),
//! * over [`crate::tagged::TaggedRelation`] — the paper-literal tagged
//!   pipeline of the differential engine, where joins combine tags via
//!   the §5.3 table and `insert ⋈ delete` tuples "do not emerge".
//!
//! Join has a third, over [`crate::delta::DeltaRelation`] — signed counted
//! multisets, where it is bilinear — which the algebra-law tests hold the
//! tagged join against.
//!
//! The §5.2 redefinitions are observed throughout: projection sums the
//! counters of collapsing tuples, and join multiplies the counters of the
//! joined tuples (`t(N) = u(N) * v(N)`), which makes projection distribute
//! over difference and join distribute over union — the identities the
//! differential algorithms depend on.

mod join;
mod product;
mod project;
mod select;
mod setops;

pub use join::{join_key_positions, natural_join, natural_join_delta, natural_join_tagged};
pub use product::product;
pub use project::{project, project_tagged};
pub use select::{select, select_tagged};
pub use setops::{difference, union};
