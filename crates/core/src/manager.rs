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
//! (the §1 strawman), or per-transaction via the §6 cost model. General
//! algebra trees (∪/− included) register through
//! [`ViewManager::register_tree_view`] and are maintained by the recursive
//! delta rules of [`crate::differential::tree`].

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use parking_lot::RwLock;

use ivm_obs::{names, Obs, Recorder};
use ivm_relational::database::Database;
use ivm_relational::delta::DeltaRelation;
use ivm_relational::expr::{Expr, SpjExpr};
use ivm_relational::relation::Relation;
use ivm_relational::schema::Schema;
use ivm_relational::transaction::Transaction;
use ivm_relational::tuple::Tuple;

use ivm_relational::attribute::AttrName;

use crate::differential::{
    differential_delta_parts_observed, DiffOptions, DifferentialResult, OperandUpdate,
};
use crate::error::{IvmError, Result};
use crate::relevance::{FilterStats, RelevanceFilter};
use crate::stats::DiffStats;
use crate::view::{MaterializedView, ViewDefinition};

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
    /// Views maintained by this transaction: SPJ views differentially,
    /// and tree views. Deferred views whose changes were queued count in
    /// `views_deferred` instead, and full re-evaluations in
    /// `full_recomputes`.
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

/// Manager-wide configuration in one bundle. `diff.threads` bounds the
/// one maintenance fan-out, the §4 relevance checks: `0` means one worker
/// per available core (the default), `1` forces the fully sequential
/// path — the deterministic oracle the thread-invariance tests compare
/// against. Results are identical at every width; only wall-clock
/// changes.
#[derive(Debug, Clone)]
pub struct ManagerOptions {
    /// The relevance filter's worker thread count, passed through to the
    /// differential engine, which reads none of it.
    pub diff: DiffOptions,
    /// How immediate views are maintained.
    pub strategy: MaintenanceStrategy,
    /// Whether the §4 relevance filter runs.
    pub filtering: bool,
    /// Metrics/tracing backend. Defaults to the disabled handle: no
    /// recorder, no clocks read, no overhead (see `docs/OBSERVABILITY.md`
    /// and the `obs_overhead` bench guard). Attach one with
    /// [`ManagerOptions::with_recorder`].
    pub recorder: Obs,
}

impl Default for ManagerOptions {
    fn default() -> Self {
        ManagerOptions {
            diff: DiffOptions::default(),
            strategy: MaintenanceStrategy::default(),
            filtering: true,
            recorder: Obs::disabled(),
        }
    }
}

impl ManagerOptions {
    /// Fully sequential configuration (`diff.threads = 1`).
    pub fn sequential() -> Self {
        ManagerOptions::default().with_threads(1)
    }

    /// Set the relevance filter's worker thread count (`0` = available
    /// cores).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.diff.threads = threads;
        self
    }

    /// Install a metrics/tracing recorder.
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = Obs::new(recorder);
        self
    }
}

pub(crate) struct ManagedView {
    /// The materialized contents and the definition as registered.
    pub(crate) view: MaterializedView,
    pub(crate) policy: RefreshPolicy,
    /// Upstream view operands (deduplicated, operand order). Derived by
    /// [`ViewManager::rebuild_dag`] from the definition.
    pub(crate) depends_on: Vec<String>,
    /// Topological level: 0 for base-only nodes, else 1 + max upstream.
    pub(crate) stratum: usize,
    /// Accumulated operand deltas since the last refresh (deferred
    /// policies only), already relevance-filtered; keyed by operand name
    /// (base relation or upstream view).
    pub(crate) pending: BTreeMap<String, DeltaRelation>,
    /// Lazily built relevance filters, one per *base* operand relation.
    pub(crate) filters: HashMap<String, RelevanceFilter>,
    pub(crate) listeners: Vec<ChangeListener>,
    pub(crate) stats: MaintenanceStats,
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
    /// The definition as registered, which is also the plan maintained.
    pub expr: SpjExpr,
    /// Current materialized cardinality (distinct tuples).
    pub rows: usize,
    /// Cumulative maintenance statistics, including last-run figures.
    pub stats: MaintenanceStats,
}

/// A general-algebra view maintained by
/// [`crate::differential::tree_delta`] (always immediate, no relevance
/// filtering — there is no SPJ normal form to analyze).
pub(crate) struct ManagedTreeView {
    pub(crate) view: crate::differential::MaterializedExpr,
    pub(crate) base_relations: Vec<String>,
    pub(crate) listeners: Vec<ChangeListener>,
    pub(crate) stats: MaintenanceStats,
}

/// A database plus its registered, automatically maintained views.
pub struct ViewManager {
    pub(crate) db: Database,
    pub(crate) views: BTreeMap<String, ManagedView>,
    pub(crate) tree_views: BTreeMap<String, ManagedTreeView>,
    /// Topological strata of the SPJ-view DAG (stratum 0 first; names in
    /// key order within a stratum). Rebuilt on every registration and
    /// after recovery by [`ViewManager::rebuild_dag`].
    pub(crate) strata: Vec<Vec<String>>,
    /// Reverse dependency edges: node name → views consuming its delta.
    pub(crate) dependents: BTreeMap<String, Vec<String>>,
    /// Engine options, strategy, filtering switch and metrics handle; the
    /// disabled handle (default) makes every emission site a single
    /// `Option` check.
    pub(crate) options: ManagerOptions,
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
            tree_views: BTreeMap::new(),
            strata: Vec::new(),
            dependents: BTreeMap::new(),
            options: ManagerOptions::default(),
            durability: None,
            failpoints: None,
            snapshots: crate::snapshot::SnapshotHub::new(),
        }
    }

    /// Apply a full [`ManagerOptions`] bundle.
    pub fn with_manager_options(mut self, opts: ManagerOptions) -> Self {
        self.options = opts;
        self
    }

    /// Install a metrics/tracing recorder (see `docs/OBSERVABILITY.md`
    /// for the emitted metric catalog).
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.options.recorder = Obs::new(recorder);
        self
    }

    /// The manager's metrics handle (disabled unless a recorder was
    /// installed).
    pub fn observability(&self) -> &Obs {
        &self.options.recorder
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
        let views = self
            .views
            .iter()
            .map(|(n, mv)| (n.as_str(), mv.view.shared_contents()))
            .chain(
                self.tree_views
                    .iter()
                    .map(|(n, tv)| (n.as_str(), tv.view.shared_contents())),
            );
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
        self.options.diff.threads = threads;
        self
    }

    /// Override the maintenance strategy for immediate views.
    pub fn with_strategy(mut self, strategy: MaintenanceStrategy) -> Self {
        self.options.strategy = strategy;
        self
    }

    /// Disable the §4 relevance filter (ablation: differential maintenance
    /// runs on every update).
    pub fn with_filtering(mut self, enabled: bool) -> Self {
        self.options.filtering = enabled;
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
        if self.views.contains_key(&name) || self.tree_views.contains_key(&name) {
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

    /// Register and materialize a view. Operands may be base relations
    /// *or previously registered SPJ views* — registrations form a
    /// dependency DAG (acyclic by construction: operands must already
    /// exist and definitions are immutable; self-reference is rejected
    /// here, and `ivm-lint`'s Frontend B additionally cycle-checks whole
    /// definition sets ahead of registration). View operands must be
    /// [`RefreshPolicy::Immediate`] so their deltas are available within
    /// the registering transaction; the stacked view itself may use any
    /// policy.
    ///
    /// Every view is one DAG node, maintained from the expression it was
    /// registered with: sibling views over the same join are maintained
    /// independently, each by its own differential run.
    ///
    /// Join-key hash indexes are derived from the equijoin structure of
    /// the definition and built on the base operands; the indexes
    /// are maintained inside every subsequent base-table apply and probed
    /// by the differential engines.
    pub fn register_view(
        &mut self,
        name: impl Into<String>,
        expr: SpjExpr,
        policy: RefreshPolicy,
    ) -> Result<()> {
        let name = name.into();
        self.check_new_view_name(&name)?;
        if expr.relations.is_empty() {
            return Err(IvmError::UnsupportedView(
                "an SPJ view needs at least one operand relation".into(),
            ));
        }
        // Operand classification: each operand must be a base relation or
        // an already-registered immediate SPJ view.
        for op in &expr.relations {
            if *op == name {
                return Err(IvmError::UnsupportedView(format!(
                    "view {name} cannot reference itself"
                )));
            }
            if self.db.contains_relation(op) {
                continue;
            }
            if self.tree_views.contains_key(op) {
                return Err(IvmError::UnsupportedView(format!(
                    "operand {op} is a tree view; only base relations and SPJ views can be stacked"
                )));
            }
            match self.views.get(op) {
                Some(up) if up.policy == RefreshPolicy::Immediate => {}
                Some(_) => {
                    return Err(IvmError::UnsupportedView(format!(
                        "view operand {op} must be an immediate view (a deferred operand \
                         would feed stale deltas downstream)"
                    )))
                }
                None => {
                    return Err(ivm_relational::error::RelError::UnknownRelation(op.clone()).into())
                }
            }
        }
        // Validate the user expression against resolved operand schemes.
        let op_schemas = expr
            .relations
            .iter()
            .map(|op| self.operand_schema(op))
            .collect::<Result<Vec<Schema>>>()?;
        {
            let refs: Vec<&Schema> = op_schemas.iter().collect();
            expr.validate_with(&refs)?;
        }
        // Materialize, then index. All fallible work happens before the
        // WAL record so a failed registration leaves no trace.
        let contents = self.eval_current(&expr)?;
        let def = ViewDefinition::new(name.clone(), expr.clone())?;
        let built = self.derive_indexes_for(&expr)?;
        if built > 0 {
            self.options.recorder.add(names::INDEX_BUILDS, built as u64);
        }
        if self.durability.is_some() {
            self.log_record(ivm_storage::WalRecord::RegisterView {
                name: name.clone(),
                expr,
                policy: crate::durability::policy_to_u8(policy),
            })?;
        }
        // Commit point: everything below is infallible.
        self.views.insert(
            name,
            ManagedView {
                view: MaterializedView::from_saved(def, contents),
                policy,
                depends_on: Vec::new(),
                stratum: 0,
                pending: BTreeMap::new(),
                filters: HashMap::new(),
                listeners: Vec::new(),
                stats: MaintenanceStats::default(),
            },
        );
        self.rebuild_dag();
        self.publish_snapshot();
        Ok(())
    }

    /// The scheme of a base relation or registered SPJ view.
    fn operand_schema(&self, name: &str) -> Result<Schema> {
        if self.db.contains_relation(name) {
            return Ok(self.db.schema(name)?.clone());
        }
        Ok(self.managed(name)?.view.contents().schema().clone())
    }

    /// Resolve operand schemes and ensure join-key indexes on the *base*
    /// operands of `expr` (see [`derive_view_indexes_resolved`]).
    pub(crate) fn derive_indexes_for(&mut self, expr: &SpjExpr) -> Result<usize> {
        let mut schemas = Vec::with_capacity(expr.arity());
        let mut is_base = Vec::with_capacity(expr.arity());
        for op in &expr.relations {
            schemas.push(self.operand_schema(op)?);
            is_base.push(self.db.contains_relation(op));
        }
        derive_view_indexes_resolved(&mut self.db, &expr.relations, &schemas, &is_base)
    }

    /// The current contents of a base relation or registered SPJ view.
    fn operand_contents(&self, name: &str) -> Result<&Relation> {
        if self.db.contains_relation(name) {
            return Ok(self.db.relation(name)?);
        }
        Ok(self.managed(name)?.view.contents())
    }

    /// Evaluate a definition against current operand state (base
    /// relations and materialized upstream views).
    fn eval_current(&self, expr: &SpjExpr) -> Result<Relation> {
        let mut inputs: Vec<&Relation> = Vec::with_capacity(expr.arity());
        for op in &expr.relations {
            inputs.push(self.operand_contents(op)?);
        }
        Ok(expr.eval_with(&inputs)?)
    }

    /// Flattened-oracle evaluation: recursively re-evaluate `expr` from
    /// base relations only, resolving view operands by re-evaluating
    /// *their* definitions from scratch (no materialized view state is
    /// consulted).
    fn eval_scratch(&self, expr: &SpjExpr) -> Result<Relation> {
        let mut owned: Vec<Option<Relation>> = Vec::with_capacity(expr.arity());
        for op in &expr.relations {
            if self.db.contains_relation(op) {
                owned.push(None);
            } else {
                let up = self.managed(op)?;
                owned.push(Some(self.eval_scratch(up.view.definition().expr())?));
            }
        }
        let mut inputs: Vec<&Relation> = Vec::with_capacity(expr.arity());
        for (op, maybe) in expr.relations.iter().zip(&owned) {
            match maybe {
                Some(r) => inputs.push(r),
                None => inputs.push(self.db.relation(op)?),
            }
        }
        Ok(expr.eval_with(&inputs)?)
    }

    /// Recompute `depends_on`/`stratum` for every SPJ node and the
    /// manager's stratum list + reverse edges from the definitions.
    /// Called after every registration and after recovery restores the
    /// registry.
    pub(crate) fn rebuild_dag(&mut self) {
        let names: Vec<String> = self.views.keys().cloned().collect();
        let mut depends: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for name in &names {
            let expr = self.views[name].view.definition().expr();
            let mut ups: Vec<String> = Vec::new();
            for op in &expr.relations {
                if self.views.contains_key(op) && !ups.contains(op) {
                    ups.push(op.clone());
                }
            }
            depends.insert(name.clone(), ups);
        }
        // stratum(v) = 0 if base-only, else 1 + max(stratum(upstream)).
        // The registry is acyclic by construction, so the fixpoint
        // terminates; the pass cap is a belt-and-braces guard.
        let mut stratum: BTreeMap<&str, usize> = names.iter().map(|n| (n.as_str(), 0)).collect();
        for _ in 0..=names.len() {
            let mut changed = false;
            for name in &names {
                let want = depends[name]
                    .iter()
                    .map(|u| stratum.get(u.as_str()).copied().unwrap_or(0) + 1)
                    .max()
                    .unwrap_or(0);
                if stratum[name.as_str()] != want {
                    stratum.insert(name, want);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let top = stratum.values().copied().max().unwrap_or(0);
        let mut strata: Vec<Vec<String>> = vec![Vec::new(); top + 1];
        for name in &names {
            // ivm-lint: allow(no-unchecked-index) — strata has top+1 levels and every stratum value is ≤ top
            strata[stratum[name.as_str()]].push(name.clone());
        }
        let mut dependents: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for (name, ups) in &depends {
            for up in ups {
                dependents.entry(up.clone()).or_default().push(name.clone());
            }
        }
        for name in &names {
            let s = stratum[name.as_str()];
            let ups = depends.remove(name).unwrap_or_default();
            let mv = self.views.get_mut(name).expect("view exists");
            mv.stratum = s;
            mv.depends_on = ups;
        }
        self.strata = strata;
        self.dependents = dependents;
    }

    /// The view dependency DAG in topological order (stratum-major, name
    /// order within a stratum): one node per registered SPJ view.
    pub fn dag(&self) -> Vec<DagNodeInfo> {
        let mut out = Vec::new();
        for stratum in &self.strata {
            for name in stratum {
                let mv = &self.views[name];
                out.push(DagNodeInfo {
                    name: name.clone(),
                    stratum: mv.stratum,
                    policy: mv.policy,
                    depends_on: mv.depends_on.clone(),
                    dependents: self.dependents.get(name).cloned().unwrap_or_default(),
                    expr: mv.view.definition().expr().clone(),
                    rows: mv.view.contents().len(),
                    stats: mv.stats,
                });
            }
        }
        out
    }

    /// The name checks every view registration makes: the name is not
    /// taken by another view and not a base relation's.
    fn check_new_view_name(&self, name: &str) -> Result<()> {
        if self.views.contains_key(name) || self.tree_views.contains_key(name) {
            return Err(IvmError::DuplicateView(name.to_owned()));
        }
        if self.db.contains_relation(name) {
            return Err(IvmError::UnsupportedView(format!(
                "view name {name} collides with a base relation"
            )));
        }
        Ok(())
    }

    /// Register a general-algebra view (any [`Expr`] tree, including ∪
    /// and −), maintained immediately via the recursive delta rules of
    /// [`crate::differential::tree_delta`]. Tree views do not go through
    /// the relevance filter.
    pub fn register_tree_view(&mut self, name: impl Into<String>, expr: Expr) -> Result<()> {
        let name = name.into();
        self.check_new_view_name(&name)?;
        let base_relations = expr.base_relations();
        let view = crate::differential::MaterializedExpr::materialize(expr, &self.db)?;
        if self.durability.is_some() {
            self.log_record(ivm_storage::WalRecord::RegisterTreeView {
                name: name.clone(),
                expr: view.expr().clone(),
            })?;
        }
        self.tree_views.insert(
            name.clone(),
            ManagedTreeView {
                view,
                base_relations,
                listeners: Vec::new(),
                stats: MaintenanceStats::default(),
            },
        );
        self.publish_snapshot();
        Ok(())
    }

    /// Subscribe an alerter to a view's changes.
    pub fn on_change(&mut self, view: &str, listener: ChangeListener) -> Result<()> {
        if let Some(tv) = self.tree_views.get_mut(view) {
            tv.listeners.push(listener);
            return Ok(());
        }
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
        if let Some(tv) = self.tree_views.get(name) {
            return Ok(tv.view.contents());
        }
        Ok(self.managed(name)?.view.contents())
    }

    /// Maintenance statistics for a view.
    pub fn stats(&self, name: &str) -> Result<MaintenanceStats> {
        if let Some(tv) = self.tree_views.get(name) {
            return Ok(tv.stats);
        }
        Ok(self.managed(name)?.stats)
    }

    /// The defining expression of a registered SPJ view, exactly as
    /// registered; it is also the plan the view is maintained from.
    pub fn view_expr(&self, name: &str) -> Result<SpjExpr> {
        Ok(self.managed(name)?.view.definition().expr().clone())
    }

    /// The refresh policy of a registered (SPJ) view.
    pub fn view_policy(&self, name: &str) -> Result<RefreshPolicy> {
        Ok(self.managed(name)?.policy)
    }

    /// Names of registered views: SPJ views in name order, then tree
    /// views in name order.
    pub fn view_names(&self) -> impl Iterator<Item = &str> {
        self.views
            .keys()
            .map(String::as_str)
            .chain(self.tree_views.keys().map(String::as_str))
    }

    /// Changed tuples the node consumes this transaction: net changes
    /// to its base operands plus the deltas its view operands emitted
    /// earlier this transaction. Non-zero exactly when the node is
    /// touched.
    fn node_work(
        mv: &ManagedView,
        txn: &Transaction,
        emitted: &HashMap<String, DeltaRelation>,
    ) -> usize {
        mv.view
            .definition()
            .expr()
            .relations
            .iter()
            .map(|op| txn.changes_to(op) + emitted.get(op.as_str()).map_or(0, DeltaRelation::len))
            .sum()
    }

    /// Execute a transaction: validate, maintain immediate views, apply to
    /// the base relations, and queue changes for deferred views.
    ///
    /// Durable managers follow the *log before apply* discipline: once the
    /// transaction validates, a WAL record is appended and synced before
    /// any in-memory state changes. A crash after the sync point replays
    /// the transaction on recovery; a crash before it loses only work that
    /// was never acknowledged.
    ///
    /// Returns a [`MaintenanceReport`] describing the work done for this
    /// transaction. With a recorder installed
    /// ([`ManagerOptions::with_recorder`]) the same numbers are also
    /// emitted as `manager.*`, `filter.*` and `diff.*` metrics under an
    /// `execute` span tree (`execute/log`, `execute/filter`,
    /// `execute/differentiate`, `execute/apply`).
    ///
    /// ```
    /// use ivm::prelude::*;
    ///
    /// let mut m = ViewManager::new();
    /// m.create_relation("R", Schema::new(["A"]).unwrap()).unwrap();
    /// m.register_view(
    ///     "v",
    ///     SpjExpr::new(["R"], Atom::lt_const("A", 10).into(), None),
    ///     RefreshPolicy::Immediate,
    /// )
    /// .unwrap();
    /// let mut txn = Transaction::new();
    /// txn.insert("R", [1]).unwrap();
    /// let report = m.execute(&txn).unwrap();
    /// assert_eq!(report.views_maintained, 1);
    /// assert!(report.diff.rows_evaluated >= 1);
    /// ```
    pub fn execute(&mut self, txn: &Transaction) -> Result<MaintenanceReport> {
        let obs = self.options.recorder.clone();
        let _execute_span = obs.span(names::SPAN_EXECUTE);
        obs.add(names::MANAGER_TRANSACTIONS, 1);
        let mut report = MaintenanceReport::default();
        self.db.validate(txn)?;
        if self.durability.is_some() && !txn.is_empty() {
            let _log_span = obs.span(names::SPAN_LOG);
            let wal_path = self.durability.as_deref().map(|s| s.wal_path().to_owned());
            fire_failpoint(
                &self.failpoints,
                ivm_storage::fault::FP_WAL_BEFORE_APPEND,
                wal_path.as_deref(),
            )?;
            self.log_txn(txn)?;
            // The record is synced: this is the commit point. A crash here
            // loses no acknowledged work — recovery replays the record.
            fire_failpoint(
                &self.failpoints,
                ivm_storage::fault::FP_WAL_AFTER_APPEND,
                wal_path.as_deref(),
            )?;
        }
        // Phase 1: stratified delta computation against the
        // pre-transaction state, bottom-up over the dependency DAG. Each
        // maintained node's delta (`emitted`) becomes the input delta of
        // its dependents in the next strata — topological delta flow.
        // `deltas` records apply order; `true` marks a node scheduled for
        // full re-evaluation after the base update (strategy decision).
        let mut deltas: Vec<(String, bool)> = Vec::new();
        let mut emitted: HashMap<String, DeltaRelation> = HashMap::new();
        let mut nodes_maintained: u64 = 0;
        for stratum in &self.strata {
            let touched: Vec<&String> = stratum
                .iter()
                .filter(|n| Self::node_work(&self.views[n.as_str()], txn, &emitted) > 0)
                .collect();
            if touched.is_empty() {
                continue;
            }
            if obs.enabled() {
                obs.observe(names::DAG_STRATUM_WIDTH, touched.len() as u64);
            }
            // Nodes within one stratum are independent (their operands
            // live strictly below), so each node's outcome is computed
            // against the pre-transaction state and applied in stratum
            // order before the next node runs.
            for name in touched {
                let outcome = self.compute_node_outcome(name, txn, &emitted)?;
                let mv = self.views.get_mut(name).expect("view exists");
                mv.stats.transactions_seen += 1;
                report.views_touched += 1;
                for (op, f) in outcome.new_filters {
                    mv.filters.insert(op, f);
                }
                mv.stats.filter += outcome.fstats;
                report.filter += outcome.fstats;
                match outcome.action {
                    NodeAction::Skipped => {
                        mv.stats.skipped_by_filter += 1;
                        report.views_skipped += 1;
                        obs.add(names::MANAGER_SKIPPED_BY_FILTER, 1);
                    }
                    NodeAction::Deferred(adds) => {
                        report.views_deferred += 1;
                        for (op, d) in adds {
                            match mv.pending.get_mut(&op) {
                                Some(acc) => acc.merge(&d)?,
                                None => {
                                    mv.pending.insert(op, d);
                                }
                            }
                        }
                    }
                    NodeAction::FullRecompute => {
                        mv.stats.full_recomputes += 1;
                        report.full_recomputes += 1;
                        obs.add(names::MANAGER_FULL_RECOMPUTES, 1);
                        nodes_maintained += 1;
                        deltas.push((name.clone(), true));
                    }
                    NodeAction::Maintained(result) => {
                        mv.stats.maintenance_runs += 1;
                        mv.stats.diff += result.stats;
                        mv.stats.last_rows_evaluated = result.stats.rows_evaluated;
                        mv.stats.last_delta_tuples = result.delta.len();
                        report.views_maintained += 1;
                        report.diff += result.stats;
                        obs.add(names::MANAGER_MAINTENANCE_RUNS, 1);
                        nodes_maintained += 1;
                        emitted.insert(name.clone(), result.delta);
                        deltas.push((name.clone(), false));
                    }
                }
            }
        }
        if nodes_maintained > 0 {
            obs.add(names::DAG_NODES_MAINTAINED, nodes_maintained);
        }
        // Phase 1b: tree views (always immediate; read-only against the
        // pre-transaction state).
        let mut tree_deltas: Vec<(String, DeltaRelation)> = Vec::new();
        for (name, tv) in &mut self.tree_views {
            let touches = tv.base_relations.iter().any(|b| txn.changes_to(b) > 0);
            if !touches {
                continue;
            }
            tv.stats.transactions_seen += 1;
            report.views_touched += 1;
            let delta = {
                let _diff_span = obs.span(names::SPAN_DIFFERENTIATE);
                crate::differential::tree_delta(tv.view.expr(), &self.db, txn)?
            };
            tv.stats.maintenance_runs += 1;
            report.views_maintained += 1;
            obs.add(names::MANAGER_MAINTENANCE_RUNS, 1);
            tree_deltas.push((name.clone(), delta));
        }
        let _apply_span = obs.span(names::SPAN_APPLY);
        // Phase 2: apply to base relations (join indexes are maintained
        // inside each relation's insert/remove). The transaction was
        // validated before the WAL append and nothing has changed since.
        self.db.apply_validated(txn)?;
        if obs.enabled() {
            for rel in txn.touched() {
                let r = self.db.relation(rel)?;
                let n = r.index_count() as u64;
                if n == 0 {
                    continue;
                }
                let changed = (txn.inserted(rel).count() + txn.deleted(rel).count()) as u64;
                obs.add(names::INDEX_MAINTENANCE_ROWS, changed * n);
                obs.observe(names::INDEX_MEMORY_BYTES, r.index_memory_bytes());
            }
        }
        // Base relations updated, view deltas not yet applied: the most
        // inconsistent instant of the whole operation. A crash here must
        // recover to a fully consistent post-transaction state (the WAL
        // record is already durable).
        fire_failpoint(
            &self.failpoints,
            ivm_storage::fault::FP_APPLY_MID,
            self.durability.as_deref().map(|s| s.wal_path()),
        )?;
        // Phase 3: apply view deltas (or full recomputations) and notify
        // listeners. `deltas` is in strata order, so a full re-evaluation
        // of a stacked node sees its upstream views already up to date.
        for (name, full) in deltas {
            let delta = if full {
                // Full re-evaluation against the new state (operands
                // resolve to updated base relations and upstream views);
                // the delta is still derived so listeners see a change
                // stream. Only dependent-free nodes take this path —
                // nodes with dependents are pinned to differential
                // maintenance because their delta feeds downstream.
                let expr = self.views[&name].view.definition().expr().clone();
                let new_contents = self.eval_current(&expr)?;
                let mv = self.views.get_mut(&name).expect("view exists");
                let mut d = new_contents.to_delta();
                for (t, c) in mv.view.contents().iter() {
                    d.add(t.clone(), -crate::differential::spj::signed_count(c)?);
                }
                mv.view.replace(new_contents);
                mv.stats.last_delta_tuples = d.len();
                d
            } else {
                let d = emitted.remove(&name).expect("delta emitted in phase 1");
                let mv = self.views.get_mut(&name).expect("view exists");
                mv.view.apply(&d)?;
                d
            };
            if !delta.is_empty() {
                let mv = &self.views[&name];
                for l in &mv.listeners {
                    l(&name, &delta);
                }
            }
        }
        for (name, delta) in tree_deltas {
            let tv = self.tree_views.get_mut(&name).expect("tree view exists");
            tv.view.apply(&delta)?;
            if !delta.is_empty() {
                for l in &tv.listeners {
                    l(&name, &delta);
                }
            }
        }
        // A threshold checkpoint is not part of `apply`.
        drop(_apply_span);
        // The transaction is committed and every view delta applied: this
        // is the atomic publication point for concurrent readers. A crash
        // or error anywhere above leaves the previous snapshot current, so
        // readers never observe a half-applied transaction.
        self.publish_snapshot();
        self.maybe_checkpoint()?;
        Ok(report)
    }

    /// Refresh a deferred/on-demand view by folding in its accumulated
    /// changes with one differential pass (snapshot refresh, §6). No-op for
    /// immediate views or when nothing is pending.
    pub fn refresh(&mut self, name: &str) -> Result<()> {
        if self.tree_views.contains_key(name) {
            return Ok(()); // tree views are maintained immediately
        }
        let options = self.options.diff;
        let mv = self.managed_mut(name)?;
        if mv.pending.is_empty() {
            return Ok(());
        }
        let pending = std::mem::take(&mut mv.pending);
        // Reconstruct only the *changed* operands as of the last refresh
        // (old = current − pending); untouched operands are borrowed from
        // the live database.
        //
        // Soundness note: `pending` is relevance-filtered, so the
        // reconstructed state differs from the true old state by exactly
        // the irrelevant tuples. By Theorem 4.1 those tuples cannot appear
        // in any view tuple (their substituted condition is unsatisfiable
        // in every state), so V(reconstructed) = V(true old) and the
        // differential below is computed against an equivalent baseline.
        let expr = mv.view.definition().expr().clone();
        let mut reconstructed: HashMap<&str, Relation> = HashMap::new();
        for (operand, delta) in &pending {
            // Operands may be base relations or upstream (immediate)
            // views; either way the current contents minus the queued
            // delta is the state as of the last refresh.
            let mut rel = self.operand_contents(operand)?.clone();
            rel.apply_delta(&delta.negated())?;
            reconstructed.insert(operand.as_str(), rel);
        }
        let mut old: Vec<&Relation> = Vec::with_capacity(expr.arity());
        let mut updates = Vec::with_capacity(expr.arity());
        for operand in &expr.relations {
            match reconstructed.get(operand.as_str()) {
                Some(rel) => {
                    old.push(rel);
                    // Queued view deltas may carry |count| > 1; the
                    // engines are count-linear, so multiplicities flow
                    // through exactly.
                    updates.push(Some(operand_update_from_delta(&pending[operand])?));
                }
                None => {
                    old.push(self.operand_contents(operand)?);
                    updates.push(None);
                }
            }
        }
        let obs = self.options.recorder.clone();
        let result = {
            let _diff_span = obs.span(names::SPAN_DIFFERENTIATE);
            crate::differential::differential_delta_parts_observed(
                &expr, &old, &updates, &options, &obs,
            )?
        };
        obs.add(names::MANAGER_MAINTENANCE_RUNS, 1);
        let mv = self.managed_mut(name)?;
        mv.stats.maintenance_runs += 1;
        mv.stats.diff += result.stats;
        mv.stats.last_rows_evaluated = result.stats.rows_evaluated;
        mv.stats.last_delta_tuples = result.delta.len();
        mv.view.apply(&result.delta)?;
        let changed = !result.delta.is_empty();
        if changed {
            let listeners = mv.listeners.clone();
            let delta = result.delta;
            for l in &listeners {
                l(name, &delta);
            }
            self.publish_snapshot();
        }
        Ok(())
    }

    /// Query a view: refreshes first for [`RefreshPolicy::OnDemand`]
    /// views, then returns the contents as a shared, immutable snapshot.
    ///
    /// The result is the view's own `Arc`, not a copy, so a read costs
    /// O(1) whatever the view's size. It never changes under the holder:
    /// a later [`ViewManager::execute`] that changes the view writes to a
    /// fresh copy while the handle is alive (copy-on-write), and a new
    /// `query` sees the change.
    pub fn query(&mut self, name: &str) -> Result<Arc<Relation>> {
        if self.query_refreshes(name)? {
            self.refresh(name)?;
        }
        self.shared_contents(name)
    }

    /// Whether [`ViewManager::query`] must fold queued changes in first:
    /// an on-demand view with changes pending.
    fn query_refreshes(&self, name: &str) -> Result<bool> {
        if self.tree_views.contains_key(name) {
            return Ok(false);
        }
        let mv = self.managed(name)?;
        Ok(mv.policy == RefreshPolicy::OnDemand && !mv.pending.is_empty())
    }

    /// The shared pointer to a view's current contents, without
    /// refreshing.
    fn shared_contents(&self, name: &str) -> Result<Arc<Relation>> {
        if let Some(tv) = self.tree_views.get(name) {
            return Ok(Arc::clone(tv.view.shared_contents()));
        }
        Ok(Arc::clone(self.managed(name)?.view.shared_contents()))
    }

    /// Check every view against a recursive from-scratch re-evaluation
    /// over base relations only (the flattened oracle; test/debug
    /// helper). Deferred views are compared after an implicit refresh.
    pub fn verify_consistency(&mut self) -> Result<()> {
        let names: Vec<String> = self.views.keys().cloned().collect();
        for name in names {
            self.refresh(&name)?;
            let mv = self.managed(&name)?;
            let expected = self.eval_scratch(mv.view.definition().expr())?;
            if expected != *mv.view.contents() {
                return Err(IvmError::UnsupportedView(format!(
                    "view {name} diverged from full re-evaluation"
                )));
            }
        }
        for (name, tv) in &self.tree_views {
            if !tv.view.consistent_with(&self.db)? {
                return Err(IvmError::UnsupportedView(format!(
                    "tree view {name} diverged from full re-evaluation"
                )));
            }
        }
        Ok(())
    }
}

impl Default for ViewManager {
    fn default() -> Self {
        ViewManager::new()
    }
}

/// Derive join-key index specs from a view's equijoin structure and
/// ensure the indexes exist on the *base* operands (views are not
/// indexed — their deltas arrive pre-joined from upstream maintenance).
///
/// For every operand `X` of the view, the candidate key sets are
///
/// * `attrs(X) ∩ attrs(Y)` for every other operand `Y` — the natural-join
///   key a differential probe uses when `X`'s unchanged portion joins a
///   prefix consisting of `Y`'s substitution, and
/// * `attrs(X) ∩ ⋃_{Y ≠ X} attrs(Y)` — the key against a multi-operand
///   prefix that reaches `X` through several relations at once.
///
/// Empty intersections (cross products) are dropped; duplicate key sets
/// collapse inside [`Database::ensure_index`], which treats keys as
/// column-position sets. A self-join contributes the full scheme as a
/// key, falling out of the pairwise rule. Returns how many indexes were
/// newly built (0 when every candidate already existed).
pub(crate) fn derive_view_indexes_resolved(
    db: &mut Database,
    names: &[String],
    schemas: &[Schema],
    is_base: &[bool],
) -> Result<usize> {
    let mut built = 0;
    for (i, name) in names.iter().enumerate() {
        // ivm-lint: allow(no-unchecked-index) — i indexes the parallel slices the caller built one-per-name
        if !is_base[i] {
            continue;
        }
        let mut candidates: Vec<Vec<AttrName>> = Vec::new();
        for (j, other) in schemas.iter().enumerate() {
            if i == j {
                continue;
            }
            // ivm-lint: allow(no-unchecked-index) — i indexes the parallel slices the caller built one-per-name
            let key = schemas[i].intersection(other);
            if !key.is_empty() {
                candidates.push(key);
            }
        }
        // ivm-lint: allow(no-unchecked-index) — i indexes the parallel slices the caller built one-per-name
        let union_key: Vec<AttrName> = schemas[i]
            .attrs()
            .iter()
            .filter(|a| {
                schemas
                    .iter()
                    .enumerate()
                    .any(|(j, s)| j != i && s.position(a).is_some())
            })
            .cloned()
            .collect();
        if !union_key.is_empty() {
            candidates.push(union_key);
        }
        for key in candidates {
            if db.ensure_index(name, &key)? {
                built += 1;
            }
        }
    }
    Ok(built)
}

/// Outcome of computing one DAG node's maintenance for a transaction,
/// produced against immutable pre-transaction state and applied in
/// deterministic stratum order afterwards.
struct NodeOutcome {
    fstats: FilterStats,
    /// Relevance filters built during this computation, cached onto the
    /// view when the outcome is applied.
    new_filters: Vec<(String, RelevanceFilter)>,
    action: NodeAction,
}

enum NodeAction {
    /// Touched, but the §4 filter proved every changed tuple irrelevant.
    Skipped,
    /// Differential delta computed (applied in phase 3).
    Maintained(DifferentialResult),
    /// Strategy chose full re-evaluation (runs post-apply in phase 3).
    FullRecompute,
    /// Deferred policy: per-operand deltas to queue for a later refresh.
    Deferred(Vec<(String, DeltaRelation)>),
}

impl ViewManager {
    /// Compute what maintaining node `name` for `txn` requires, without
    /// mutating anything. Base operands go through the §4 relevance
    /// filter; view operands consume the delta their node emitted earlier
    /// this transaction (`emitted`).
    fn compute_node_outcome(
        &self,
        name: &str,
        txn: &Transaction,
        emitted: &HashMap<String, DeltaRelation>,
    ) -> Result<NodeOutcome> {
        let (db, obs, options) = (&self.db, &self.options.recorder, &self.options.diff);
        let mv = &self.views[name];
        let expr = mv.view.definition().expr();
        let mut fstats = FilterStats::default();
        let mut new_filters: Vec<(String, RelevanceFilter)> = Vec::new();
        // Filter each distinct touched *base* operand once.
        let mut filtered_base: Vec<(&str, OperandUpdate)> = Vec::new();
        {
            let _filter_span = obs.span(names::SPAN_FILTER);
            for op in &expr.relations {
                if !db.contains_relation(op)
                    || filtered_base.iter().any(|(n, _)| n == op)
                    || txn.changes_to(op) == 0
                {
                    continue;
                }
                let rel = db.relation(op)?;
                let (inserts, deletes) = if !self.options.filtering {
                    (
                        txn.insert_set(op, rel.schema())?,
                        txn.delete_set(op, rel.schema())?,
                    )
                } else {
                    let f = match mv.filters.get(op.as_str()) {
                        Some(f) => {
                            obs.add(names::FILTER_GRAPH_CACHE_HITS, 1);
                            f
                        }
                        None => {
                            let built = RelevanceFilter::new_observed(expr, db, op, obs)?;
                            new_filters.push((op.clone(), built));
                            &new_filters.last().expect("just pushed").1
                        }
                    };
                    let (kept_ins, ins_stats) =
                        f.filter_with(txn.inserted(op), options.threads, obs)?;
                    let (kept_del, del_stats) =
                        f.filter_with(txn.deleted(op), options.threads, obs)?;
                    fstats += ins_stats;
                    fstats += del_stats;
                    let mut ins = Relation::empty(rel.schema().clone());
                    for t in kept_ins {
                        ins.insert(t, 1)?;
                    }
                    let mut del = Relation::empty(rel.schema().clone());
                    for t in kept_del {
                        del.insert(t, 1)?;
                    }
                    (ins, del)
                };
                filtered_base.push((op, OperandUpdate { inserts, deletes }));
            }
        }
        if obs.enabled() {
            obs.add(names::FILTER_TUPLES_CHECKED, fstats.checked as u64);
            obs.add(names::FILTER_TUPLES_ADMITTED, fstats.relevant as u64);
            obs.add(names::FILTER_TUPLES_FILTERED, fstats.irrelevant as u64);
        }
        // Per-position old state and net update, all pre-apply. The
        // filtered sets move into their operand's first position; only a
        // self-join's later positions copy them.
        let mut old: Vec<&Relation> = Vec::with_capacity(expr.arity());
        let mut updates: Vec<Option<OperandUpdate>> = Vec::with_capacity(expr.arity());
        for op in &expr.relations {
            if db.contains_relation(op) {
                old.push(db.relation(op)?);
                let first = expr.relations.iter().position(|o| o == op);
                let update = match first.and_then(|i| updates.get(i)) {
                    Some(earlier) => earlier.clone(),
                    None => filtered_base
                        .iter()
                        .position(|(n, _)| n == op)
                        .map(|i| filtered_base.swap_remove(i).1)
                        .filter(|u| !u.is_empty()),
                };
                updates.push(update);
            } else {
                let up = self
                    .views
                    .get(op.as_str())
                    .ok_or_else(|| IvmError::UnknownView(op.clone()))?;
                old.push(up.view.contents());
                match emitted.get(op.as_str()).filter(|d| !d.is_empty()) {
                    Some(d) => updates.push(Some(operand_update_from_delta(d)?)),
                    None => updates.push(None),
                }
            }
        }
        if !updates.iter().any(Option::is_some) {
            return Ok(NodeOutcome {
                fstats,
                new_filters,
                action: NodeAction::Skipped,
            });
        }
        let action = match mv.policy {
            RefreshPolicy::Deferred | RefreshPolicy::OnDemand => {
                // Queue per-operand deltas for a later refresh: filtered
                // base update sets plus upstream view deltas, one entry
                // per distinct operand.
                let mut adds: Vec<(String, DeltaRelation)> = Vec::new();
                for (op, update) in expr.relations.iter().zip(&updates) {
                    let Some(u) = update else { continue };
                    if adds.iter().any(|(n, _)| n == op) {
                        continue;
                    }
                    let mut d = u.inserts.to_delta();
                    for (t, c) in u.deletes.iter() {
                        d.add(t.clone(), -crate::differential::spj::signed_count(c)?);
                    }
                    adds.push((op.clone(), d));
                }
                NodeAction::Deferred(adds)
            }
            RefreshPolicy::Immediate if self.prefers_full(name, expr, &old, &updates)? => {
                NodeAction::FullRecompute
            }
            RefreshPolicy::Immediate => {
                let _diff_span = obs.span(names::SPAN_DIFFERENTIATE);
                NodeAction::Maintained(differential_delta_parts_observed(
                    expr, &old, &updates, options, obs,
                )?)
            }
        };
        Ok(NodeOutcome {
            fstats,
            new_filters,
            action,
        })
    }

    /// Whether the strategy maintains immediate node `name` by full
    /// re-evaluation. A node with dependents never is: they consume its
    /// delta within the same transaction, so differential is mandatory.
    fn prefers_full(
        &self,
        name: &str,
        expr: &SpjExpr,
        old: &[&Relation],
        updates: &[Option<OperandUpdate>],
    ) -> Result<bool> {
        if self.dependents.get(name).is_some_and(|d| !d.is_empty()) {
            return Ok(false);
        }
        Ok(match self.options.strategy {
            MaintenanceStrategy::AlwaysDifferential => false,
            MaintenanceStrategy::AlwaysFull => true,
            MaintenanceStrategy::CostBased => {
                // §6 sizes: view operands price in their upstream
                // cardinality and delta.
                let mut sizes = Vec::new();
                for ((op, update), oldr) in expr.relations.iter().zip(updates).zip(old) {
                    let changed = update.as_ref().map_or(0, OperandUpdate::len) as u64;
                    let (old_len, indexed) = if self.db.contains_relation(op) {
                        let r = self.db.relation(op)?;
                        (r.len() as u64, r.index_count() > 0)
                    } else {
                        (oldr.len() as u64, false)
                    };
                    sizes.push(crate::cost::OperandSize {
                        old: old_len,
                        changed,
                        indexed,
                    });
                }
                !crate::cost::prefer_differential(&sizes)
            }
        })
    }
}

/// Split a counted view delta into the insert/delete relation pair the
/// differential engines consume. View deltas may carry |count| > 1; the
/// engines are count-linear, so multiplicities flow through exactly.
fn operand_update_from_delta(delta: &DeltaRelation) -> Result<OperandUpdate> {
    let schema = delta.schema().clone();
    let (ins, del) = delta.split();
    let mut inserts = Relation::empty(schema.clone());
    for (t, c) in ins {
        inserts.insert(t, c)?;
    }
    let mut deletes = Relation::empty(schema);
    for (t, c) in del {
        deletes.insert(t, c)?;
    }
    Ok(OperandUpdate { inserts, deletes })
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
                return m.shared_contents(name);
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
mod tests {
    use super::*;
    use ivm_relational::error::RelError;
    use ivm_relational::predicate::{Atom, Condition};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn manager_with_data() -> ViewManager {
        let mut m = ViewManager::new();
        m.create_relation("R", Schema::new(["A", "B"]).unwrap())
            .unwrap();
        m.create_relation("S", Schema::new(["B", "C"]).unwrap())
            .unwrap();
        m.load("R", [[1, 10], [2, 20]]).unwrap();
        m.load("S", [[10, 100], [20, 200]]).unwrap();
        m
    }

    fn view_expr() -> SpjExpr {
        SpjExpr::new(
            ["R", "S"],
            Atom::lt_const("A", 10).into(),
            Some(vec!["A".into(), "C".into()]),
        )
    }

    #[test]
    fn immediate_view_tracks_transactions() {
        let mut m = manager_with_data();
        m.register_view("v", view_expr(), RefreshPolicy::Immediate)
            .unwrap();
        let mut txn = Transaction::new();
        txn.insert("R", [3, 10]).unwrap();
        txn.delete("S", [20, 200]).unwrap();
        m.execute(&txn).unwrap();
        m.verify_consistency().unwrap();
        let v = m.view_contents("v").unwrap();
        assert!(v.contains(&Tuple::from([3, 100])));
        assert!(!v.contains(&Tuple::from([2, 200])));
    }

    #[test]
    fn filter_skips_irrelevant_transactions() {
        let mut m = manager_with_data();
        m.register_view("v", view_expr(), RefreshPolicy::Immediate)
            .unwrap();
        // A = 50 violates A < 10: provably irrelevant.
        let mut txn = Transaction::new();
        txn.insert("R", [50, 10]).unwrap();
        m.execute(&txn).unwrap();
        let s = m.stats("v").unwrap();
        assert_eq!(s.skipped_by_filter, 1);
        assert_eq!(s.maintenance_runs, 0);
        assert_eq!(s.filter.irrelevant, 1);
        m.verify_consistency().unwrap();
    }

    #[test]
    fn failpoint_crash_before_append_loses_transaction() {
        let dir = ivm_storage::temp::scratch_dir("fp-before-append");
        let plan = Arc::new(ivm_storage::FailpointPlan::new());
        {
            let mut m = ViewManager::open(&dir).unwrap();
            m.create_relation("R", Schema::new(["A"]).unwrap()).unwrap();
            m.set_failpoints(Arc::clone(&plan));
            plan.arm(
                ivm_storage::fault::FP_WAL_BEFORE_APPEND,
                0,
                ivm_storage::FailpointAction::Crash,
            );
            let mut txn = Transaction::new();
            txn.insert("R", [1]).unwrap();
            let err = m.execute(&txn).unwrap_err();
            match err {
                crate::error::IvmError::Storage(e) => assert!(e.is_injected()),
                other => panic!("expected injected crash, got {other}"),
            }
        }
        assert!(plan.fired(ivm_storage::fault::FP_WAL_BEFORE_APPEND));
        // The crash hit before the WAL append: the transaction was never
        // acknowledged, so recovery must not resurrect it.
        let m = ViewManager::open(&dir).unwrap();
        assert_eq!(m.database().relation("R").unwrap().len(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failpoint_crash_mid_apply_recovers_transaction() {
        let dir = ivm_storage::temp::scratch_dir("fp-mid-apply");
        let plan = Arc::new(ivm_storage::FailpointPlan::new());
        {
            let mut m = ViewManager::open(&dir).unwrap();
            m.create_relation("R", Schema::new(["A", "B"]).unwrap())
                .unwrap();
            m.create_relation("S", Schema::new(["B", "C"]).unwrap())
                .unwrap();
            m.register_view("v", view_expr(), RefreshPolicy::Immediate)
                .unwrap();
            m.set_failpoints(Arc::clone(&plan));
            plan.arm(
                ivm_storage::fault::FP_APPLY_MID,
                0,
                ivm_storage::FailpointAction::Crash,
            );
            let mut txn = Transaction::new();
            txn.insert("R", [1, 10]).unwrap();
            txn.insert("S", [10, 100]).unwrap();
            let err = m.execute(&txn).unwrap_err();
            assert!(matches!(
                err,
                crate::error::IvmError::Storage(ref e) if e.is_injected()
            ));
        }
        // The crash hit after the WAL sync (the commit point): recovery
        // replays the record and the view catches up differentially.
        let m = ViewManager::open(&dir).unwrap();
        assert!(m
            .database()
            .relation("R")
            .unwrap()
            .contains(&Tuple::from([1, 10])));
        let v = m.view_contents("v").unwrap();
        assert!(v.contains(&Tuple::from([1, 100])));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failpoint_torn_write_after_append_loses_only_last_txn() {
        let dir = ivm_storage::temp::scratch_dir("fp-torn-append");
        let plan = Arc::new(ivm_storage::FailpointPlan::new());
        {
            let mut m = ViewManager::open(&dir).unwrap();
            m.create_relation("R", Schema::new(["A"]).unwrap()).unwrap();
            let mut txn = Transaction::new();
            txn.insert("R", [1]).unwrap();
            m.execute(&txn).unwrap();
            m.set_failpoints(Arc::clone(&plan));
            // Tear the tail of the record we just appended, then crash: the
            // transaction is lost even though the append itself succeeded.
            plan.arm(
                ivm_storage::fault::FP_WAL_AFTER_APPEND,
                0,
                ivm_storage::FailpointAction::CorruptAndCrash(
                    ivm_storage::CorruptSpec::TruncateAt(ivm_storage::FaultPos::FromEnd(3)),
                ),
            );
            let mut txn = Transaction::new();
            txn.insert("R", [2]).unwrap();
            let err = m.execute(&txn).unwrap_err();
            assert!(matches!(
                err,
                crate::error::IvmError::Storage(ref e) if e.is_injected()
            ));
        }
        let m = ViewManager::open(&dir).unwrap();
        let r = m.database().relation("R").unwrap();
        assert!(r.contains(&Tuple::from([1])));
        assert!(!r.contains(&Tuple::from([2])));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn filtering_can_be_disabled() {
        let mut m = manager_with_data().with_filtering(false);
        m.register_view("v", view_expr(), RefreshPolicy::Immediate)
            .unwrap();
        let mut txn = Transaction::new();
        txn.insert("R", [50, 10]).unwrap();
        m.execute(&txn).unwrap();
        let s = m.stats("v").unwrap();
        assert_eq!(s.skipped_by_filter, 0);
        assert_eq!(s.maintenance_runs, 1);
        m.verify_consistency().unwrap();
    }

    #[test]
    fn deferred_view_is_stale_until_refresh() {
        let mut m = manager_with_data();
        m.register_view("v", view_expr(), RefreshPolicy::Deferred)
            .unwrap();
        let mut txn = Transaction::new();
        txn.insert("R", [3, 10]).unwrap();
        m.execute(&txn).unwrap();
        assert!(!m
            .view_contents("v")
            .unwrap()
            .contains(&Tuple::from([3, 100])));
        m.refresh("v").unwrap();
        assert!(m
            .view_contents("v")
            .unwrap()
            .contains(&Tuple::from([3, 100])));
        m.verify_consistency().unwrap();
    }

    /// A relevant write to a deferred view is queued, not maintained: the
    /// report counts it in `views_deferred` only, and the refresh that
    /// folds it in leaves the view equal to full re-evaluation.
    #[test]
    fn deferred_write_is_reported_as_deferred_not_maintained() {
        let mut m = manager_with_data();
        m.register_view("v", view_expr(), RefreshPolicy::Deferred)
            .unwrap();
        let mut txn = Transaction::new();
        txn.insert("R", [3, 10]).unwrap();
        let report = m.execute(&txn).unwrap();
        assert_eq!(report.views_touched, 1);
        assert_eq!(report.views_deferred, 1);
        assert_eq!(report.views_maintained, 0);
        assert_eq!(report.diff.rows_evaluated, 0);
        m.refresh("v").unwrap();
        let full = view_expr().eval(m.database()).unwrap();
        assert_eq!(m.view_contents("v").unwrap(), &full);
        assert!(full.contains(&Tuple::from([3, 100])));
    }

    #[test]
    fn deferred_accumulates_and_cancels() {
        let mut m = manager_with_data();
        m.register_view("v", view_expr(), RefreshPolicy::Deferred)
            .unwrap();
        let mut t1 = Transaction::new();
        t1.insert("R", [3, 10]).unwrap();
        m.execute(&t1).unwrap();
        let mut t2 = Transaction::new();
        t2.delete("R", [3, 10]).unwrap();
        m.execute(&t2).unwrap();
        m.refresh("v").unwrap();
        // Net no-op: view unchanged, and the refresh had nothing to do.
        assert!(!m
            .view_contents("v")
            .unwrap()
            .contains(&Tuple::from([3, 100])));
        m.verify_consistency().unwrap();
    }

    #[test]
    fn on_demand_refreshes_at_query() {
        let mut m = manager_with_data();
        m.register_view("v", view_expr(), RefreshPolicy::OnDemand)
            .unwrap();
        let mut txn = Transaction::new();
        txn.insert("R", [3, 10]).unwrap();
        m.execute(&txn).unwrap();
        let v = m.query("v").unwrap();
        assert!(v.contains(&Tuple::from([3, 100])));
    }

    #[test]
    fn listeners_fire_with_deltas() {
        let mut m = manager_with_data();
        m.register_view("v", view_expr(), RefreshPolicy::Immediate)
            .unwrap();
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        m.on_change(
            "v",
            Arc::new(move |_name, delta| {
                h.fetch_add(delta.len(), Ordering::SeqCst);
            }),
        )
        .unwrap();
        let mut txn = Transaction::new();
        txn.insert("R", [3, 10]).unwrap();
        m.execute(&txn).unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        // Irrelevant change: no notification.
        let mut txn = Transaction::new();
        txn.insert("R", [99, 10]).unwrap();
        m.execute(&txn).unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn duplicate_and_unknown_views() {
        let mut m = manager_with_data();
        m.register_view("v", view_expr(), RefreshPolicy::Immediate)
            .unwrap();
        assert!(matches!(
            m.register_view("v", view_expr(), RefreshPolicy::Immediate),
            Err(IvmError::DuplicateView(_))
        ));
        assert!(matches!(m.refresh("zzz"), Err(IvmError::UnknownView(_))));
    }

    #[test]
    fn multiple_views_one_transaction() {
        let mut m = manager_with_data();
        m.register_view("v1", view_expr(), RefreshPolicy::Immediate)
            .unwrap();
        m.register_view(
            "v2",
            SpjExpr::new(["S"], Atom::gt_const("C", 150).into(), None),
            RefreshPolicy::Immediate,
        )
        .unwrap();
        let mut txn = Transaction::new();
        txn.insert("S", [10, 300]).unwrap();
        m.execute(&txn).unwrap();
        m.verify_consistency().unwrap();
        assert!(m
            .view_contents("v2")
            .unwrap()
            .contains(&Tuple::from([10, 300])));
        assert!(m
            .view_contents("v1")
            .unwrap()
            .contains(&Tuple::from([1, 300])));
    }

    #[test]
    fn shared_manager_roundtrip() {
        let shared = SharedViewManager::new(manager_with_data());
        shared
            .write(|m| m.register_view("v", view_expr(), RefreshPolicy::Immediate))
            .unwrap();
        let mut txn = Transaction::new();
        txn.insert("R", [3, 10]).unwrap();
        shared.execute(&txn).unwrap();
        let v = shared.query("v").unwrap();
        assert!(v.contains(&Tuple::from([3, 100])));
        let count = shared.read(|m| m.view_names().count());
        assert_eq!(count, 1);
    }

    #[test]
    fn always_full_strategy_recomputes() {
        let mut m = manager_with_data().with_strategy(MaintenanceStrategy::AlwaysFull);
        m.register_view("v", view_expr(), RefreshPolicy::Immediate)
            .unwrap();
        let mut txn = Transaction::new();
        txn.insert("R", [3, 10]).unwrap();
        m.execute(&txn).unwrap();
        let s = m.stats("v").unwrap();
        assert_eq!(s.full_recomputes, 1);
        assert_eq!(s.maintenance_runs, 0);
        assert!(m
            .view_contents("v")
            .unwrap()
            .contains(&Tuple::from([3, 100])));
        m.verify_consistency().unwrap();
    }

    #[test]
    fn full_strategy_still_notifies_listeners() {
        let mut m = manager_with_data().with_strategy(MaintenanceStrategy::AlwaysFull);
        m.register_view("v", view_expr(), RefreshPolicy::Immediate)
            .unwrap();
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        m.on_change(
            "v",
            Arc::new(move |_, d| {
                h.fetch_add(d.len(), Ordering::SeqCst);
            }),
        )
        .unwrap();
        let mut txn = Transaction::new();
        txn.insert("R", [3, 10]).unwrap();
        m.execute(&txn).unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn cost_based_strategy_picks_differential_for_small_changes() {
        let mut m = manager_with_data().with_strategy(MaintenanceStrategy::CostBased);
        m.register_view("v", view_expr(), RefreshPolicy::Immediate)
            .unwrap();
        let mut txn = Transaction::new();
        txn.insert("R", [3, 10]).unwrap();
        m.execute(&txn).unwrap();
        let s = m.stats("v").unwrap();
        assert_eq!(s.maintenance_runs, 1);
        assert_eq!(s.full_recomputes, 0);
        m.verify_consistency().unwrap();
    }

    #[test]
    fn cost_based_strategy_picks_full_for_wholesale_changes() {
        // Disjoint schemas: a cross product has no equijoin structure, so
        // no join-key index is derived and the unindexed crossover still
        // sends wholesale replacement to full re-evaluation.
        let mut m = ViewManager::new().with_strategy(MaintenanceStrategy::CostBased);
        m.create_relation("R", Schema::new(["A", "B"]).unwrap())
            .unwrap();
        m.create_relation("S", Schema::new(["C", "D"]).unwrap())
            .unwrap();
        m.load("R", (0..100i64).map(|i| [i, i % 10]).collect::<Vec<_>>())
            .unwrap();
        m.load("S", (0..10i64).map(|i| [i, i * 7]).collect::<Vec<_>>())
            .unwrap();
        m.register_view(
            "v",
            SpjExpr::new(["R", "S"], Condition::always_true(), None),
            RefreshPolicy::Immediate,
        )
        .unwrap();
        assert_eq!(m.database().relation("R").unwrap().index_count(), 0);
        // Replace nearly the whole of R in one transaction.
        let mut txn = Transaction::new();
        for i in 0..100i64 {
            txn.delete("R", [i, i % 10]).unwrap();
            txn.insert("R", [1000 + i, i % 10]).unwrap();
        }
        m.execute(&txn).unwrap();
        let s = m.stats("v").unwrap();
        assert_eq!(
            s.full_recomputes, 1,
            "wholesale change must trigger full re-eval"
        );
        assert_eq!(s.maintenance_runs, 0);
        m.verify_consistency().unwrap();
    }

    #[test]
    fn cost_based_strategy_keeps_indexed_wholesale_differential() {
        // Same wholesale replacement, but R ⋈ S on B derives join-key
        // indexes at registration: the probe-priced differential estimate
        // now beats the full re-join, so maintenance stays incremental.
        let mut m = ViewManager::new().with_strategy(MaintenanceStrategy::CostBased);
        m.create_relation("R", Schema::new(["A", "B"]).unwrap())
            .unwrap();
        m.create_relation("S", Schema::new(["B", "C"]).unwrap())
            .unwrap();
        m.load("R", (0..100i64).map(|i| [i, i % 10]).collect::<Vec<_>>())
            .unwrap();
        m.load("S", (0..10i64).map(|i| [i, i * 7]).collect::<Vec<_>>())
            .unwrap();
        m.register_view(
            "v",
            SpjExpr::new(["R", "S"], Condition::always_true(), None),
            RefreshPolicy::Immediate,
        )
        .unwrap();
        assert!(m.database().relation("S").unwrap().index_count() > 0);
        let mut txn = Transaction::new();
        for i in 0..100i64 {
            txn.delete("R", [i, i % 10]).unwrap();
            txn.insert("R", [1000 + i, i % 10]).unwrap();
        }
        m.execute(&txn).unwrap();
        let s = m.stats("v").unwrap();
        assert_eq!(
            s.maintenance_runs, 1,
            "indexed wholesale stays differential"
        );
        assert_eq!(s.full_recomputes, 0);
        m.verify_consistency().unwrap();
    }

    #[test]
    fn tree_view_maintained_through_manager() {
        let mut m = manager_with_data();
        // (R ⋈ S) ∪ (R ⋈ S with C > 150): counted union over a join.
        let joined =
            ivm_relational::expr::Expr::base("R").join(ivm_relational::expr::Expr::base("S"));
        let expr = joined
            .clone()
            .union(joined.select(Atom::gt_const("C", 150)));
        m.register_tree_view("t", expr).unwrap();
        assert_eq!(m.view_contents("t").unwrap().total_count(), 3); // 2 + 1

        let mut txn = Transaction::new();
        txn.insert("R", [3, 20]).unwrap(); // joins (20,200): counts in both branches
        txn.delete("S", [10, 100]).unwrap();
        m.execute(&txn).unwrap();
        m.verify_consistency().unwrap();
        let t = m.view_contents("t").unwrap();
        assert_eq!(t.count(&Tuple::from([3, 20, 200])), 2);
        assert!(!t.contains(&Tuple::from([1, 10, 100])));
        let s = m.stats("t").unwrap();
        assert_eq!(s.maintenance_runs, 1);
    }

    #[test]
    fn tree_view_listener_and_query() {
        let mut m = manager_with_data();
        m.register_tree_view("t", ivm_relational::expr::Expr::base("R").project(["B"]))
            .unwrap();
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        m.on_change(
            "t",
            Arc::new(move |_, d| {
                h.fetch_add(d.len(), Ordering::SeqCst);
            }),
        )
        .unwrap();
        let mut txn = Transaction::new();
        txn.insert("R", [9, 90]).unwrap();
        m.execute(&txn).unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        let q = m.query("t").unwrap();
        assert!(q.contains(&Tuple::from([90])));
        // Names include both kinds; duplicate names rejected across kinds.
        assert_eq!(m.view_names().count(), 1);
        assert!(matches!(
            m.register_view("t", view_expr(), RefreshPolicy::Immediate),
            Err(IvmError::DuplicateView(_))
        ));
        assert!(matches!(
            m.register_tree_view("t", ivm_relational::expr::Expr::base("R")),
            Err(IvmError::DuplicateView(_))
        ));
    }

    #[test]
    fn tree_views_pass_the_view_name_checks() {
        let mut m = manager_with_data();
        assert!(matches!(
            m.register_tree_view("R", ivm_relational::expr::Expr::base("R")),
            Err(IvmError::UnsupportedView(_))
        ));
        assert!(matches!(
            m.register_view("R", view_expr(), RefreshPolicy::Immediate),
            Err(IvmError::UnsupportedView(_))
        ));
        assert_eq!(m.view_names().count(), 0);
    }

    #[test]
    fn manager_options_bundle_applies() {
        assert_eq!(ManagerOptions::default().diff, DiffOptions::default());
        let opts = ManagerOptions::sequential().with_threads(4);
        assert_eq!(opts.diff.threads, 4);
        let m = ViewManager::new().with_manager_options(ManagerOptions {
            strategy: MaintenanceStrategy::AlwaysFull,
            filtering: false,
            ..ManagerOptions::default().with_threads(2)
        });
        assert_eq!(m.options.strategy, MaintenanceStrategy::AlwaysFull);
        assert!(!m.options.filtering);
        assert_eq!(m.options.diff.threads, 2);
    }

    #[test]
    fn thread_count_does_not_change_view_contents() {
        let run = |threads: usize| {
            let mut m = manager_with_data().with_threads(threads);
            m.register_view("v", view_expr(), RefreshPolicy::Immediate)
                .unwrap();
            for i in 0..30i64 {
                let mut txn = Transaction::new();
                txn.insert("R", [3 + i, 10 * (i % 3 + 1)]).unwrap();
                if i % 4 == 0 {
                    txn.insert("S", [10 * (i % 3 + 1), 500 + i]).unwrap();
                }
                m.execute(&txn).unwrap();
            }
            m.verify_consistency().unwrap();
            m.view_contents("v").unwrap().clone()
        };
        let seq = run(1);
        for threads in [2, 8] {
            assert_eq!(run(threads), seq, "threads={threads}");
        }
    }

    #[test]
    fn snapshots_publish_at_commit_points() {
        let mut m = manager_with_data();
        m.register_view("v", view_expr(), RefreshPolicy::Immediate)
            .unwrap();
        let hub = m.snapshots();
        let armed_epoch = hub.epoch();
        assert!(hub.is_armed());
        let before = hub.latest();
        assert_eq!(before.len(), 1);
        let mut txn = Transaction::new();
        txn.insert("R", [3, 10]).unwrap();
        m.execute(&txn).unwrap();
        let after = hub.latest();
        assert_eq!(after.epoch(), armed_epoch + 1);
        assert!(after.get("v").unwrap().contains(&Tuple::from([3, 100])));
        // The pinned pre-transaction snapshot is unchanged.
        assert!(!before.get("v").unwrap().contains(&Tuple::from([3, 100])));
    }

    #[test]
    fn snapshot_reuses_allocations_for_untouched_views() {
        let mut m = manager_with_data();
        m.register_view("v", view_expr(), RefreshPolicy::Immediate)
            .unwrap();
        m.register_view(
            "w",
            SpjExpr::new(["S"], Atom::gt_const("C", 150).into(), None),
            RefreshPolicy::Immediate,
        )
        .unwrap();
        let hub = m.snapshots();
        let before = hub.latest();
        // Touches R only: `w` (over S) must share its allocation.
        let mut txn = Transaction::new();
        txn.insert("R", [3, 10]).unwrap();
        m.execute(&txn).unwrap();
        let after = hub.latest();
        assert!(std::ptr::eq(
            before.get("w").unwrap(),
            after.get("w").unwrap()
        ));
        assert!(!std::ptr::eq(
            before.get("v").unwrap(),
            after.get("v").unwrap()
        ));
    }

    #[test]
    fn query_returns_an_isolated_snapshot() {
        let mut m = manager_with_data();
        m.register_view("v", view_expr(), RefreshPolicy::Immediate)
            .unwrap();
        let held = m.query("v").unwrap();
        let rows_then = (*held).clone();
        let mut txn = Transaction::new();
        txn.insert("R", [3, 10]).unwrap();
        m.execute(&txn).unwrap();
        assert_eq!(*held, rows_then, "a held query result never changes");
        assert!(!held.contains(&Tuple::from([3, 100])));
        assert!(m.query("v").unwrap().contains(&Tuple::from([3, 100])));
        m.verify_consistency().unwrap();
    }

    #[test]
    fn reads_share_the_view_instead_of_copying_it() {
        let mut m = manager_with_data();
        m.register_view("v", view_expr(), RefreshPolicy::Immediate)
            .unwrap();
        let first = m.query("v").unwrap();
        assert!(
            Arc::ptr_eq(&first, &m.query("v").unwrap()),
            "no write between two queries: one allocation"
        );
        let hub = m.snapshots();
        let q = m.query("v").unwrap();
        assert!(std::ptr::eq(&*q, hub.latest().get("v").unwrap()));
        // Relevant to `v` (A < 10) but joining no S tuple: the
        // differential pass runs and yields an empty delta, which must not
        // copy the view although the hub and `q` both hold it.
        let mut txn = Transaction::new();
        txn.insert("R", [3, 30]).unwrap();
        assert_eq!(m.execute(&txn).unwrap().views_maintained, 1);
        let after = m.query("v").unwrap();
        assert!(Arc::ptr_eq(&q, &after), "an empty delta keeps the pointer");
        assert!(std::ptr::eq(&*after, hub.latest().get("v").unwrap()));
    }

    #[test]
    fn shared_query_reads_under_the_read_lock() {
        let mut m = manager_with_data();
        m.register_view("v", view_expr(), RefreshPolicy::Immediate)
            .unwrap();
        m.register_view("lazy", view_expr(), RefreshPolicy::OnDemand)
            .unwrap();
        let shared = SharedViewManager::new(m);
        let mut txn = Transaction::new();
        txn.insert("R", [3, 10]).unwrap();
        shared.execute(&txn).unwrap();
        // A read lock held elsewhere does not block `query` on an
        // immediate view (a query that took the write lock would time
        // out here).
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = shared.clone();
        let v = shared.read(|_| {
            std::thread::spawn(move || tx.send(reader.query("v")));
            rx.recv_timeout(std::time::Duration::from_secs(10))
        });
        let v = v.expect("query waited for the read lock").unwrap();
        assert!(v.contains(&Tuple::from([3, 100])));
        // An on-demand view with changes pending still refreshes.
        let lazy = shared.query("lazy").unwrap();
        assert_eq!(*lazy, *v);
        assert!(shared.read(|m| m.stats("lazy").unwrap().maintenance_runs) > 0);
    }

    #[test]
    fn deferred_view_snapshot_catches_up_on_refresh() {
        let mut m = manager_with_data();
        m.register_view("v", view_expr(), RefreshPolicy::Deferred)
            .unwrap();
        let hub = m.snapshots();
        let mut txn = Transaction::new();
        txn.insert("R", [3, 10]).unwrap();
        m.execute(&txn).unwrap();
        // Deferred: the snapshot mirrors the stale materialization.
        assert!(!hub
            .latest()
            .get("v")
            .unwrap()
            .contains(&Tuple::from([3, 100])));
        m.refresh("v").unwrap();
        assert!(hub
            .latest()
            .get("v")
            .unwrap()
            .contains(&Tuple::from([3, 100])));
    }

    #[test]
    fn invalid_transaction_changes_nothing_durable() {
        let dir = ivm_storage::temp::scratch_dir("invalid-txn");
        let mut m = ViewManager::open(&dir).unwrap();
        m.create_relation("R", Schema::new(["A", "B"]).unwrap())
            .unwrap();
        m.create_relation("S", Schema::new(["B", "C"]).unwrap())
            .unwrap();
        m.load("R", [[1, 10], [2, 20]]).unwrap();
        m.load("S", [[10, 100], [20, 200]]).unwrap();
        m.register_view("v", view_expr(), RefreshPolicy::Immediate)
            .unwrap();
        m.register_view(
            "small",
            SpjExpr::new(["R"], Atom::lt_const("A", 5).into(), None),
            RefreshPolicy::Immediate,
        )
        .unwrap();
        let status = m.durability_status().unwrap();
        let (wal_bytes, next_lsn) = (status.wal_len_bytes, status.next_lsn);
        let relations = [
            m.database().relation("R").unwrap().clone(),
            m.database().relation("S").unwrap().clone(),
        ];
        let views = [
            m.view_contents("v").unwrap().clone(),
            m.view_contents("small").unwrap().clone(),
        ];
        let hub = m.snapshots();
        let epoch = hub.epoch();
        // A valid insert next to an insert of a tuple R already holds.
        let mut txn = Transaction::new();
        txn.insert("R", [3, 10]).unwrap();
        txn.insert("R", [1, 10]).unwrap();
        assert!(matches!(
            m.execute(&txn).unwrap_err(),
            IvmError::Relational(RelError::InsertExists(_))
        ));
        let status = m.durability_status().unwrap();
        assert_eq!(status.wal_len_bytes, wal_bytes, "nothing logged");
        assert_eq!(status.next_lsn, next_lsn);
        assert_eq!(m.database().relation("R").unwrap(), &relations[0]);
        assert_eq!(m.database().relation("S").unwrap(), &relations[1]);
        assert_eq!(m.view_contents("v").unwrap(), &views[0]);
        assert_eq!(m.view_contents("small").unwrap(), &views[1]);
        assert_eq!(hub.epoch(), epoch, "nothing published");
        m.verify_consistency().unwrap();
        drop(m);
        // Recovery replays nothing of it either.
        let m = ViewManager::open(&dir).unwrap();
        assert_eq!(m.database().relation("R").unwrap(), &relations[0]);
        assert_eq!(m.view_contents("v").unwrap(), &views[0]);
        drop(m);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_crash_publishes_nothing() {
        let dir = ivm_storage::temp::scratch_dir("snap-no-publish");
        let plan = Arc::new(ivm_storage::FailpointPlan::new());
        let mut m = ViewManager::open(&dir).unwrap();
        m.create_relation("R", Schema::new(["A", "B"]).unwrap())
            .unwrap();
        m.create_relation("S", Schema::new(["B", "C"]).unwrap())
            .unwrap();
        m.register_view("v", view_expr(), RefreshPolicy::Immediate)
            .unwrap();
        let hub = m.snapshots();
        let epoch_before = hub.epoch();
        m.set_failpoints(Arc::clone(&plan));
        plan.arm(
            ivm_storage::fault::FP_APPLY_MID,
            0,
            ivm_storage::FailpointAction::Crash,
        );
        let mut txn = Transaction::new();
        txn.insert("R", [1, 10]).unwrap();
        assert!(m.execute(&txn).is_err());
        // The crash hit mid-apply: readers must still see the old state.
        assert_eq!(hub.epoch(), epoch_before);
        assert!(hub.latest().get("v").unwrap().is_empty());
        drop(m);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_after_registration_maintains_view() {
        let mut m = ViewManager::new();
        m.create_relation("R", Schema::new(["A"]).unwrap()).unwrap();
        m.register_view(
            "v",
            SpjExpr::new(["R"], Atom::lt_const("A", 10).into(), None),
            RefreshPolicy::Immediate,
        )
        .unwrap();
        m.load("R", [[1], [20]]).unwrap();
        let v = m.view_contents("v").unwrap();
        assert!(v.contains(&Tuple::from([1])));
        assert!(!v.contains(&Tuple::from([20])));
        m.verify_consistency().unwrap();
    }
}
