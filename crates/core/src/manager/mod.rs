//! The view manager: end-to-end maintenance of registered views.
//!
//! Ties the paper together: transactions are validated and applied to the
//! base relations; for every registered view the update sets are first
//! passed through the §4 relevance filter, and the survivors drive the §5
//! differential engine. Three refresh policies are supported:
//!
//! * [`RefreshPolicy::Immediate`] — the paper's main assumption: "views
//!   are materialized every time a transaction updates the database",
//!   maintenance runs as the last operation of the transaction;
//! * [`RefreshPolicy::Deferred`] — the §6 *snapshot* model \[AL80\]:
//!   changes accumulate and are folded in on explicit
//!   [`ViewManager::refresh`] (snapshot refresh);
//! * [`RefreshPolicy::OnDemand`] — like deferred, but a query
//!   ([`ViewManager::query`]) triggers the refresh first.
//!
//! Alerters in the style of Buneman & Clemons \[BC79\] can subscribe to a
//! view with [`ViewManager::on_change`]; they are invoked with the view
//! delta whenever maintenance changes the view.
//!
//! Orthogonally to *when*, [`MaintenanceStrategy`] controls *how*: always
//! differentially (the paper's proposal), always by full re-evaluation
//! (the §1 strawman), or per-transaction via the §6 cost model.
//!
//! Every view is one node of the dependency DAG, maintained from a signed
//! sum of SPJ terms `Σ cᵢ·termᵢ`. An SPJ view ([`ViewManager::register_view`])
//! is the one term `+1·expr`. A general algebra tree with ∪ and −
//! ([`ViewManager::register_tree_view`]) is compiled by
//! [`Expr::signed_terms`]: ∪ is `+`, − is `−`, σ and π are linear and ⋈ is
//! bilinear. Each term goes through the §4 filter and the §5 engine, and
//! the node's delta is `Σ cᵢ·Δtermᵢ`.
//!
//! This file holds the types and accessors. The rest is cut along the
//! manager's seams: `registry` checks, materializes and indexes new
//! views and keeps the DAG; `maintain` is [`ViewManager::execute`];
//! `refresh` is the §6 snapshot refresh, [`ViewManager::query`] and the
//! consistency oracle. Checkpoints and recovery live in
//! [`crate::durability`].

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::RwLock;

use ivm_obs::{Obs, Recorder};
use ivm_relational::database::Database;
use ivm_relational::delta::DeltaRelation;
use ivm_relational::expr::{Expr, SpjExpr};
use ivm_relational::relation::Relation;
use ivm_relational::schema::Schema;
use ivm_relational::transaction::Transaction;
use ivm_relational::tuple::Tuple;

use crate::error::{IvmError, Result};
use crate::relevance::{FilterStats, RelevanceFilter};
use crate::stats::DiffStats;

mod maintain;
mod refresh;
mod registry;

/// How an immediate view is brought up to date when a relevant
/// transaction arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MaintenanceStrategy {
    /// Always run the §5 differential algorithm (the paper's proposal).
    #[default]
    AlwaysDifferential,
    /// Always re-evaluate from scratch (the §1 strawman; useful as a
    /// baseline and for bulk rebuilds).
    AlwaysFull,
    /// Decide per transaction with the §6 cost model
    /// ([`crate::cost::prefer_differential`]): differential while change
    /// sets are small, full re-evaluation for wholesale changes.
    CostBased,
}

/// When a registered view is brought up to date.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RefreshPolicy {
    /// Maintain as part of every transaction commit (§5 assumption).
    #[default]
    Immediate,
    /// Accumulate changes; refresh only on an explicit
    /// [`ViewManager::refresh`] (§6 snapshot refresh).
    Deferred,
    /// Accumulate changes; refresh lazily when the view is queried.
    OnDemand,
}

impl RefreshPolicy {
    /// The policy's stable byte in WAL records, checkpoints and the wire
    /// protocol.
    pub fn to_byte(self) -> u8 {
        match self {
            RefreshPolicy::Immediate => 0,
            RefreshPolicy::Deferred => 1,
            RefreshPolicy::OnDemand => 2,
        }
    }

    /// The policy a byte from [`RefreshPolicy::to_byte`] stands for;
    /// `None` for any other byte.
    pub fn from_byte(byte: u8) -> Option<RefreshPolicy> {
        [Self::Immediate, Self::Deferred, Self::OnDemand]
            .into_iter()
            .find(|p| p.to_byte() == byte)
    }
}

/// Per-view maintenance statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaintenanceStats {
    /// Transactions that touched at least one operand relation.
    pub transactions_seen: usize,
    /// Differential maintenance runs actually executed.
    pub maintenance_runs: usize,
    /// Transactions skipped entirely because the relevance filter proved
    /// every changed tuple irrelevant.
    pub skipped_by_filter: usize,
    /// Full re-evaluations chosen by the maintenance strategy.
    pub full_recomputes: usize,
    /// Accumulated relevance-filter statistics.
    pub filter: FilterStats,
    /// Accumulated differential-engine statistics.
    pub diff: DiffStats,
    /// Delta tuples produced by the most recent maintenance run (full
    /// recomputes report the derived replacement delta).
    pub last_delta_tuples: usize,
    /// Truth-table rows evaluated by the most recent differential run.
    pub last_rows_evaluated: usize,
}

/// What one [`ViewManager::execute`] call did, so callers (tests,
/// benches, the shell) can assert on *work counts* instead of timing.
/// The counters cover this transaction only; the cumulative per-view
/// history is [`ViewManager::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceReport {
    /// Views whose operand relations the transaction touched.
    pub views_touched: usize,
    /// Views maintained differentially by this transaction. Deferred
    /// views whose changes were queued count in `views_deferred` instead,
    /// and full re-evaluations in `full_recomputes`.
    pub views_maintained: usize,
    /// Views skipped because the §4 filter proved every tuple irrelevant.
    pub views_skipped: usize,
    /// Views rebuilt by full re-evaluation (strategy decision).
    pub full_recomputes: usize,
    /// Views whose (filtered) changes were queued for a later refresh.
    pub views_deferred: usize,
    /// Relevance-filter work for this transaction.
    pub filter: FilterStats,
    /// Differential-engine work for this transaction.
    pub diff: DiffStats,
}

/// Change listener: called with the view's delta after maintenance.
pub type ChangeListener = Arc<dyn Fn(&str, &DeltaRelation) + Send + Sync>;

/// One signed SPJ term of a view: `coef · expr`, maintained by the §4
/// filter and the §5 engine. Built by [`ViewManager::build_terms`].
pub(crate) struct Term {
    pub(crate) coef: i64,
    pub(crate) expr: SpjExpr,
    /// The §4 relevance filters, one per distinct *base* operand, in
    /// operand order.
    pub(crate) filters: Vec<RelevanceFilter>,
}

/// A registered view: one DAG node whose contents are `Σ coef·eval(term)`.
pub(crate) struct ManagedView {
    /// The materialized contents, shared with readers: a write copies
    /// them only while a reader still holds the previous version.
    pub(crate) contents: Arc<Relation>,
    /// The signed terms, at least one. An SPJ view (`tree` is `None`) has
    /// the one term `+1·definition`.
    pub(crate) terms: Vec<Term>,
    /// The tree a tree view was registered with, which the WAL and
    /// checkpoints store; `None` for an SPJ view.
    pub(crate) tree: Option<Expr>,
    pub(crate) policy: RefreshPolicy,
    /// Upstream view operands (deduplicated, operand order). Derived by
    /// [`ViewManager::rebuild_dag`] from the terms.
    pub(crate) depends_on: Vec<String>,
    /// Topological level: 0 for base-only nodes, else 1 + max upstream.
    pub(crate) stratum: usize,
    /// Accumulated operand deltas since the last refresh (deferred
    /// policies only), already relevance-filtered; keyed by operand name
    /// (base relation or upstream view). Only SPJ views can be deferred,
    /// so one term's filter decided what is queued.
    pub(crate) pending: BTreeMap<String, DeltaRelation>,
    pub(crate) listeners: Vec<ChangeListener>,
    pub(crate) stats: MaintenanceStats,
}

impl ManagedView {
    pub(crate) fn new(
        contents: Relation,
        terms: Vec<Term>,
        tree: Option<Expr>,
        policy: RefreshPolicy,
    ) -> Self {
        ManagedView {
            contents: Arc::new(contents),
            terms,
            tree,
            policy,
            depends_on: Vec::new(),
            stratum: 0,
            pending: BTreeMap::new(),
            listeners: Vec::new(),
            stats: MaintenanceStats::default(),
        }
    }

    /// Every term's operands, repeats included.
    fn operands(&self) -> impl Iterator<Item = &String> {
        self.terms.iter().flat_map(|t| &t.expr.relations)
    }

    /// Apply a maintenance delta, copying the contents first only if a
    /// reader shares them; an empty delta leaves them, and their pointer,
    /// alone.
    fn apply(&mut self, delta: &DeltaRelation) -> Result<()> {
        if !delta.is_empty() {
            Arc::make_mut(&mut self.contents).apply_delta(delta)?;
        }
        Ok(())
    }
}

/// One node of the view dependency DAG, as reported by
/// [`ViewManager::dag`].
#[derive(Debug, Clone)]
pub struct DagNodeInfo {
    /// View name.
    pub name: String,
    /// Topological stratum (0 = defined over base relations only).
    pub stratum: usize,
    /// Refresh policy.
    pub policy: RefreshPolicy,
    /// Upstream view operands.
    pub depends_on: Vec<String>,
    /// Views consuming this node's deltas.
    pub dependents: Vec<String>,
    /// An SPJ view's definition as registered; for a tree view, its first
    /// signed term.
    pub expr: SpjExpr,
    /// The plan maintained: the node's contents are `Σ c·eval(term)`. An
    /// SPJ view has the one term `(1, expr)`.
    pub terms: Vec<(i64, SpjExpr)>,
    /// The tree a tree view was registered with; `None` for an SPJ view.
    pub tree: Option<Expr>,
    /// Current materialized cardinality (distinct tuples).
    pub rows: usize,
    /// Cumulative maintenance statistics, including last-run figures.
    pub stats: MaintenanceStats,
}

/// A database plus its registered, automatically maintained views.
pub struct ViewManager {
    pub(crate) db: Database,
    pub(crate) views: BTreeMap<String, ManagedView>,
    /// Topological strata of the view DAG (stratum 0 first; names in
    /// key order within a stratum). Rebuilt on every registration and
    /// after recovery by [`ViewManager::rebuild_dag`].
    pub(crate) strata: Vec<Vec<String>>,
    /// Reverse dependency edges: node name → views consuming its delta.
    pub(crate) dependents: BTreeMap<String, Vec<String>>,
    /// The §4 relevance checks' worker bound, the manager's one fan-out:
    /// `0` (the default) means one worker per available core, `1` the
    /// sequential path the thread-invariance tests compare against.
    /// Results are identical at every width. Set by
    /// [`ViewManager::with_threads`].
    pub(crate) threads: usize,
    /// How immediate views are maintained ([`ViewManager::with_strategy`]).
    pub(crate) strategy: MaintenanceStrategy,
    /// Whether the §4 relevance filter runs ([`ViewManager::with_filtering`]).
    pub(crate) filtering: bool,
    /// Metrics/tracing handle ([`ViewManager::with_recorder`]). The
    /// disabled default reads no clock and makes every emission site a
    /// single `Option` check (see `docs/OBSERVABILITY.md`).
    pub(crate) recorder: Obs,
    /// Durable-state machinery (`None` for the default, purely in-memory
    /// manager). Installed by [`ViewManager::open`].
    pub(crate) durability: Option<Box<crate::durability::DurabilityState>>,
    /// Fault-injection plan evaluated at the commit-critical points of
    /// [`ViewManager::execute`] and [`ViewManager::checkpoint`] (`None` —
    /// the default — skips every check). Installed by tests and the
    /// deterministic simulator via [`ViewManager::set_failpoints`].
    pub(crate) failpoints: Option<Arc<ivm_storage::FailpointPlan>>,
    /// Snapshot publication hub for concurrent readers (see
    /// [`crate::snapshot`]). Dormant — one atomic load per commit — until
    /// [`ViewManager::snapshots`] arms it.
    pub(crate) snapshots: crate::snapshot::SnapshotHub,
}

/// Evaluate one named failpoint against an optional plan. On trigger, any
/// file-corruption action is applied to the WAL (when one exists) and an
/// [`ivm_storage::StorageError::Injected`] error is returned: the caller
/// aborts mid-operation exactly as if the process had died there, and the
/// manager must be discarded and re-opened. A free function (not a
/// method) so call sites inside `checkpoint()` can evaluate it while the
/// durability state is mutably borrowed.
pub(crate) fn fire_failpoint(
    plan: &Option<Arc<ivm_storage::FailpointPlan>>,
    name: &'static str,
    wal_path: Option<&std::path::Path>,
) -> Result<()> {
    let Some(plan) = plan else { return Ok(()) };
    let Some(action) = plan.hit(name) else {
        return Ok(());
    };
    if let (ivm_storage::FailpointAction::CorruptAndCrash(spec), Some(path)) = (action, wal_path) {
        ivm_storage::fault::corrupt(path, spec)?;
    }
    Err(ivm_storage::StorageError::Injected(name.to_owned()).into())
}

impl ViewManager {
    /// A manager over an empty database with default engine options
    /// (relevance-filter threads default to one worker per available
    /// core).
    pub fn new() -> Self {
        ViewManager {
            db: Database::new(),
            views: BTreeMap::new(),
            strata: Vec::new(),
            dependents: BTreeMap::new(),
            threads: 0,
            strategy: MaintenanceStrategy::default(),
            filtering: true,
            recorder: Obs::disabled(),
            durability: None,
            failpoints: None,
            snapshots: crate::snapshot::SnapshotHub::new(),
        }
    }

    /// Install a metrics/tracing recorder (see `docs/OBSERVABILITY.md`
    /// for the emitted metric catalog).
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = Obs::new(recorder);
        self
    }

    /// The manager's metrics handle (disabled unless a recorder was
    /// installed).
    pub fn observability(&self) -> &Obs {
        &self.recorder
    }

    /// The snapshot-publication hub for concurrent readers (see
    /// [`crate::snapshot`]). The first call arms publication and pushes
    /// the current state; from then on every commit —
    /// [`ViewManager::execute`], [`ViewManager::refresh`], view
    /// registration — publishes a new immutable [`crate::snapshot::ViewSnapshot`]
    /// atomically. Clone the hub (or call
    /// [`crate::snapshot::SnapshotHub::reader`]) from as many threads as
    /// needed. Readers and publication share one lock that either side
    /// holds only for a pointer clone or swap, never while maintaining a
    /// view or encoding a response.
    pub fn snapshots(&self) -> crate::snapshot::SnapshotHub {
        if !self.snapshots.is_armed() {
            self.snapshots.arm();
            self.publish_snapshot();
        }
        self.snapshots.clone()
    }

    /// Publish the committed state of every registered view (no-op while
    /// the hub is unarmed). The snapshot shares each view's `Arc`, so a
    /// view the commit left alone keeps the previous publication's pointer.
    fn publish_snapshot(&self) {
        if !self.snapshots.is_armed() {
            return;
        }
        let views = self.views.iter().map(|(n, mv)| (n.as_str(), &mv.contents));
        self.snapshots.publish(views);
    }

    /// Install a fault-injection plan (see [`ivm_storage::FailpointPlan`]).
    /// When an armed failpoint triggers during [`ViewManager::execute`] or
    /// [`ViewManager::checkpoint`], the call returns
    /// [`ivm_storage::StorageError::Injected`] and this manager must be
    /// treated as crashed: discard it and re-open the storage directory.
    pub fn set_failpoints(&mut self, plan: Arc<ivm_storage::FailpointPlan>) {
        self.failpoints = Some(plan);
    }

    /// Builder form of [`ViewManager::set_failpoints`].
    pub fn with_failpoints(mut self, plan: Arc<ivm_storage::FailpointPlan>) -> Self {
        self.failpoints = Some(plan);
        self
    }

    /// Override only the relevance filter's worker thread count (`0` =
    /// available cores, `1` = sequential).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Override the maintenance strategy for immediate views.
    pub fn with_strategy(mut self, strategy: MaintenanceStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Disable the §4 relevance filter (ablation: differential maintenance
    /// runs on every update).
    pub fn with_filtering(mut self, enabled: bool) -> Self {
        self.filtering = enabled;
        self
    }

    /// The current database state.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Create a base relation. Durable managers log the DDL so recovery
    /// can rebuild relations created after the last checkpoint.
    pub fn create_relation(&mut self, name: impl Into<String>, schema: Schema) -> Result<()> {
        let name = name.into();
        if self.views.contains_key(&name) {
            // Views and relations share the operand namespace now that
            // views can be stacked; a collision would make every later
            // operand reference ambiguous.
            return Err(IvmError::UnsupportedView(format!(
                "relation name {name} collides with a registered view"
            )));
        }
        if self.durability.is_some() {
            if self.db.contains_relation(&name) {
                return Err(ivm_relational::error::RelError::DuplicateRelation(name).into());
            }
            self.log_record(ivm_storage::WalRecord::CreateRelation {
                name: name.clone(),
                schema: schema.clone(),
            })?;
        }
        self.db.create(name, schema)?;
        Ok(())
    }

    /// Bulk-load rows. Routed through a transaction so registered views
    /// stay consistent.
    pub fn load<T: Into<Tuple>>(
        &mut self,
        relation: &str,
        rows: impl IntoIterator<Item = T>,
    ) -> Result<()> {
        let mut txn = Transaction::new();
        txn.insert_all(relation, rows)?;
        self.execute(&txn)?;
        Ok(())
    }

    /// Subscribe an alerter to a view's changes.
    pub fn on_change(&mut self, view: &str, listener: ChangeListener) -> Result<()> {
        self.managed_mut(view)?.listeners.push(listener);
        Ok(())
    }

    fn managed(&self, name: &str) -> Result<&ManagedView> {
        self.views
            .get(name)
            .ok_or_else(|| IvmError::UnknownView(name.to_owned()))
    }

    fn managed_mut(&mut self, name: &str) -> Result<&mut ManagedView> {
        self.views
            .get_mut(name)
            .ok_or_else(|| IvmError::UnknownView(name.to_owned()))
    }

    /// Current contents of a view *without* refreshing (deferred views may
    /// be stale).
    pub fn view_contents(&self, name: &str) -> Result<&Relation> {
        Ok(&self.managed(name)?.contents)
    }

    /// Maintenance statistics for a view.
    pub fn stats(&self, name: &str) -> Result<MaintenanceStats> {
        Ok(self.managed(name)?.stats)
    }

    /// The defining expression of a registered SPJ view, exactly as
    /// registered; it is also the plan the view is maintained from. A
    /// tree view has no single SPJ definition: its terms are in
    /// [`ViewManager::dag`].
    pub fn view_expr(&self, name: &str) -> Result<SpjExpr> {
        let mv = self.managed(name)?;
        match mv.tree {
            None => Ok(mv.terms[0].expr.clone()),
            Some(_) => Err(IvmError::UnsupportedView(format!(
                "view {name} is a tree view, not an SPJ view"
            ))),
        }
    }

    /// Names of registered views, in name order.
    pub fn view_names(&self) -> impl Iterator<Item = &str> {
        self.views.keys().map(String::as_str)
    }
}

impl Default for ViewManager {
    fn default() -> Self {
        ViewManager::new()
    }
}

/// A clonable, thread-safe handle around a [`ViewManager`]
/// (`parking_lot::RwLock`), for concurrent alerter-style consumers.
#[derive(Clone)]
pub struct SharedViewManager {
    inner: Arc<RwLock<ViewManager>>,
}

impl SharedViewManager {
    /// Wrap a manager.
    pub fn new(manager: ViewManager) -> Self {
        SharedViewManager {
            inner: Arc::new(RwLock::new(manager)),
        }
    }

    /// Execute a transaction under the write lock.
    pub fn execute(&self, txn: &Transaction) -> Result<MaintenanceReport> {
        self.inner.write().execute(txn)
    }

    /// Query a view (see [`ViewManager::query`]). Takes the read lock, so
    /// concurrent readers do not serialize; only an on-demand view with
    /// changes pending takes the write lock to refresh.
    pub fn query(&self, name: &str) -> Result<Arc<Relation>> {
        {
            let m = self.inner.read();
            if !m.query_refreshes(name)? {
                return Ok(Arc::clone(&m.managed(name)?.contents));
            }
        }
        self.inner.write().query(name)
    }

    /// Read-only access to the manager.
    pub fn read<T>(&self, f: impl FnOnce(&ViewManager) -> T) -> T {
        f(&self.inner.read())
    }

    /// Exclusive access to the manager.
    pub fn write<T>(&self, f: impl FnOnce(&mut ViewManager) -> T) -> T {
        f(&mut self.inner.write())
    }
}

#[cfg(test)]
mod tests;
