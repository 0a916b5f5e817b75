//! *Efficiently Updating Materialized Views* — a from-scratch Rust
//! reproduction of Blakeley, Larson & Tompa (SIGMOD 1986).
//!
//! The paper's method has two stages, both implemented here:
//!
//! 1. **Irrelevant-update detection** (§4, [`relevance`]): every database
//!    update is first filtered through a state-independent test — the
//!    update's tuple values are substituted into the view's selection
//!    condition, and if the result is unsatisfiable (decided via a
//!    weighted constraint graph and negative-cycle detection,
//!    Rosenkrantz–Hunt) the update provably cannot affect the view in any
//!    database state. The conditions are necessary *and* sufficient
//!    (Theorem 4.1); the multi-tuple generalization (Theorem 4.2) is in
//!    [`relevance::joint`].
//! 2. **Differential re-evaluation** (§5, [`differential`]): surviving
//!    updates drive Algorithm 5.1 — truth-table expansion over the updated
//!    relations, the insert/delete/old tag algebra, multiplicity counters
//!    for projection — producing a view transaction instead of a full
//!    recomputation.
//!
//! [`manager::ViewManager`] packages both behind a database-with-views
//! API supporting immediate, deferred (§6 snapshot refresh) and on-demand
//! maintenance. Views with ∪ and − compile to signed sums of SPJ terms,
//! each maintained by the same two stages; [`full_reval`] is the complete re-evaluation baseline the
//! benchmarks compare against.
//!
//! # Quick start
//!
//! ```
//! use ivm::prelude::*;
//!
//! let mut m = ViewManager::new();
//! m.create_relation("R", Schema::new(["A", "B"]).unwrap()).unwrap();
//! m.create_relation("S", Schema::new(["B", "C"]).unwrap()).unwrap();
//! m.load("R", [[1, 10], [2, 20]]).unwrap();
//! m.load("S", [[10, 100]]).unwrap();
//!
//! // v := π_{A,C}(σ_{A<10}(R ⋈ S)), maintained on every commit.
//! let expr = SpjExpr::new(
//!     ["R", "S"],
//!     Atom::lt_const("A", 10).into(),
//!     Some(vec!["A".into(), "C".into()]),
//! );
//! m.register_view("v", expr, RefreshPolicy::Immediate).unwrap();
//!
//! let mut txn = Transaction::new();
//! txn.insert("R", [3, 10]).unwrap();
//! txn.insert("R", [99, 10]).unwrap(); // A=99 ≥ 10: provably irrelevant
//! m.execute(&txn).unwrap();
//!
//! let v = m.view_contents("v").unwrap();
//! assert!(v.contains(&Tuple::from([3, 100])));
//! assert_eq!(m.stats("v").unwrap().filter.irrelevant, 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cost;
pub mod differential;
pub mod durability;
pub mod error;
pub mod full_reval;
pub mod integrity;
pub mod manager;
pub mod relevance;
pub mod snapshot;
pub mod stats;
pub mod workload;

/// Convenient glob-import of the commonly used types (re-exports the
/// relational prelude too).
pub mod prelude {
    pub use ivm_relational::prelude::*;

    pub use crate::differential::{differential_delta, DiffOptions, DifferentialResult};
    pub use crate::durability::{DurabilityPolicy, DurabilityStatus, RecoveryReport};
    pub use crate::error::{IvmError, Result};
    pub use crate::full_reval;
    pub use crate::integrity::{IntegrityMonitor, Violation};
    pub use crate::manager::{
        DagNodeInfo, MaintenanceReport, MaintenanceStats, MaintenanceStrategy, RefreshPolicy,
        SharedViewManager, ViewManager,
    };
    pub use crate::relevance::{combination_relevant, relevance_witness, RelevanceFilter};
    pub use crate::snapshot::{digest_views, SnapshotHandle, SnapshotHub, ViewSnapshot};
    pub use crate::stats::DiffStats;
    pub use crate::workload::Workload;
    pub use ivm_obs::{
        names as metric_names, InMemoryRecorder, JsonLinesRecorder, NoopRecorder, Obs, Recorder,
        Snapshot,
    };
    pub use ivm_storage::fault::{
        FP_APPLY_MID, FP_CHECKPOINT_BEFORE, FP_CHECKPOINT_MID, FP_WAL_AFTER_APPEND,
        FP_WAL_BEFORE_APPEND,
    };
    pub use ivm_storage::{CorruptSpec, FailpointAction, FailpointPlan, FaultPos};
}
