//! `ivm-lint` — workspace static analysis for the IVM reproduction.
//!
//! The paper's §4 relevance test is itself a static analysis: it decides,
//! independent of database state, that an update cannot affect a view, by
//! running the Rosenkrantz–Hunt satisfiability check on the view
//! condition. This crate applies the same discipline in two directions,
//! sharing one diagnostic/report/baseline engine:
//!
//! * **Frontend A** ([`source`]) — token-level lints over the workspace's
//!   own Rust source: no panics or unchecked indexing in engine hot
//!   paths, `// SAFETY:` comments on every `unsafe`, metric/span name
//!   literals confined to the obs catalog, and no ambient clocks/RNG in
//!   sim-deterministic crates. Driven by `ci/analyze.sh` and the
//!   required `analyze` CI job.
//! * **Frontend B** ([`views`]) — definition-time analysis of view
//!   definitions: statically-unsatisfiable (empty-forever) conditions,
//!   always-irrelevant `(view, relation)` pairs (the degenerate case of
//!   Theorem 4.2), predicates implied by the RH digraph's transitive
//!   closure, and DAG-structure checks over definition *sets* (cycles,
//!   unresolved operands, strata). Surfaced through
//!   the shell's `\analyze` command.
//! * **Frontend C** ([`concurrency`]) — concurrency bookkeeping: every
//!   `Ordering::*` site must be inventoried in `concurrency-catalog.toml`
//!   with a rationale (the audit fails on uncataloged sites and stale
//!   ceilings), and `Mutex`/`RwLock` acquisitions are lifted into an
//!   approximate inter-procedural lock-order digraph whose cycles are
//!   reported with both acquisition paths. The dynamic complement (the
//!   `crates/race` model checker) verifies the protocols themselves.
//!
//! Pre-existing findings are grandfathered by `lint-baseline.toml`
//! ([`baseline`]) so the gate fails only on regressions; one-off
//! exceptions use `// ivm-lint: allow(rule)` comments. Every rule is
//! catalogued with its rationale in `docs/ANALYSIS.md`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod baseline;
pub mod catalog;
pub mod concurrency;
pub mod config;
pub mod diag;
pub mod source;
pub mod tokenizer;
pub mod views;
pub mod workspace;

pub use baseline::{Baseline, BaselineOutcome};
pub use concurrency::{analyze_concurrency, scan_concurrency, ConcurrencyCatalog};
pub use config::LintConfig;
pub use diag::{Finding, Report, RuleId};
pub use views::{analyze_all, analyze_dag, analyze_view, DagAnalysis, ViewAnalysisReport};
pub use workspace::{lint_workspace, load_catalog};
