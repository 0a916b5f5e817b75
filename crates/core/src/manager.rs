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
use ivm_relational::error::RelError;

use crate::differential::{differential_delta_parts_observed, DiffOptions, DifferentialResult};
use crate::error::{IvmError, Result};
use crate::relevance::{FilterStats, RelevanceFilter};
use crate::stats::DiffStats;

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
        match byte {
            0 => Some(RefreshPolicy::Immediate),
            1 => Some(RefreshPolicy::Deferred),
            2 => Some(RefreshPolicy::OnDemand),
            _ => None,
        }
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

/// One signed SPJ term of a view: `coef · expr`, maintained by the §4
/// filter and the §5 engine.
pub(crate) struct Term {
    pub(crate) coef: i64,
    pub(crate) expr: SpjExpr,
    /// Lazily built relevance filters, one per *base* operand relation.
    pub(crate) filters: HashMap<String, RelevanceFilter>,
}

impl Term {
    pub(crate) fn new(coef: i64, expr: SpjExpr) -> Self {
        Term {
            coef,
            expr,
            filters: HashMap::new(),
        }
    }
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

    /// Register and materialize a view. Operands may be base relations
    /// *or previously registered views* (SPJ or tree) — registrations
    /// form a dependency DAG (acyclic by construction: operands must
    /// already exist and definitions are immutable; self-reference is
    /// rejected here, and `ivm-lint`'s Frontend B additionally
    /// cycle-checks whole definition sets ahead of registration). View
    /// operands must be [`RefreshPolicy::Immediate`] so their deltas are
    /// available within the registering transaction; the stacked view
    /// itself may use any policy.
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
        if expr.relations.is_empty() {
            return Err(IvmError::UnsupportedView(
                "an SPJ view needs at least one operand relation".into(),
            ));
        }
        self.register(name.into(), vec![Term::new(1, expr)], None, policy)
    }

    /// Register a general-algebra view: any [`Expr`] tree of σ, π, ⋈, ∪
    /// and −, over base relations and immediate views. The tree is
    /// compiled to a signed sum of SPJ terms ([`Expr::signed_terms`]),
    /// materialized as `Σ c·eval(term)` and maintained immediately like
    /// an SPJ view: each term through the §4 filter and the §5 engine.
    ///
    /// A difference must stay *well-formed*: no counter may go negative.
    /// A transaction that would drive one negative fails with
    /// `NegativeCount` before anything is logged or applied. A projection
    /// under a join that drops an attribute of the other operand has no
    /// SPJ form and fails with [`IvmError::UnsupportedView`]; register
    /// the projection as its own view and join that view instead.
    ///
    /// ```
    /// use ivm::prelude::*;
    ///
    /// let mut m = ViewManager::new();
    /// m.create_relation("R", Schema::new(["A"]).unwrap()).unwrap();
    /// m.create_relation("T", Schema::new(["A"]).unwrap()).unwrap();
    /// m.load("R", [[1], [2]]).unwrap();
    /// m.load("T", [[2], [3]]).unwrap();
    ///
    /// // A counted-union view — outside the SPJ normal form.
    /// m.register_tree_view("u", Expr::base("R").union(Expr::base("T")))
    ///     .unwrap();
    /// assert_eq!(m.view_contents("u").unwrap().count(&Tuple::from([2])), 2);
    ///
    /// let mut txn = Transaction::new();
    /// txn.delete("R", [2]).unwrap();
    /// m.execute(&txn).unwrap();
    /// assert_eq!(m.view_contents("u").unwrap().count(&Tuple::from([2])), 1);
    /// m.verify_consistency().unwrap();
    /// ```
    pub fn register_tree_view(&mut self, name: impl Into<String>, expr: Expr) -> Result<()> {
        let terms = self.compile_tree(&expr, |leaf| {
            self.views.get(leaf).map(|mv| mv.contents.schema().clone())
        })?;
        self.register(name.into(), terms, Some(expr), RefreshPolicy::Immediate)
    }

    /// Compile a tree view into its terms. `view_schema` resolves a leaf
    /// that is not a base relation.
    pub(crate) fn compile_tree(
        &self,
        expr: &Expr,
        view_schema: impl Fn(&str) -> Option<Schema>,
    ) -> Result<Vec<Term>> {
        let scheme_of = |leaf: &str| match self.db.schema(leaf) {
            Ok(schema) => Ok(schema.clone()),
            Err(e) => view_schema(leaf).ok_or(e),
        };
        let terms = expr.signed_terms(&scheme_of).map_err(|e| match e {
            RelError::ProjectionUnderJoin(_) => IvmError::UnsupportedView(e.to_string()),
            e => e.into(),
        })?;
        if terms.is_empty() {
            return Err(IvmError::UnsupportedView(
                "the tree's terms cancel: the view is empty in every state".into(),
            ));
        }
        Ok(terms.into_iter().map(|(c, e)| Term::new(c, e)).collect())
    }

    /// Check, materialize and index a new view, log its registration,
    /// and add it to the DAG. All fallible work happens before the WAL
    /// record so a failed registration leaves no trace.
    fn register(
        &mut self,
        name: String,
        terms: Vec<Term>,
        tree: Option<Expr>,
        policy: RefreshPolicy,
    ) -> Result<()> {
        self.check_new_view_name(&name)?;
        for term in &terms {
            self.check_operands(&name, &term.expr)?;
        }
        let contents = self.eval_terms(&terms, Self::eval_current)?;
        let mut built = 0;
        for term in &terms {
            built += self.derive_indexes_for(&term.expr)?;
        }
        if built > 0 {
            self.options.recorder.add(names::INDEX_BUILDS, built as u64);
        }
        if self.durability.is_some() {
            let record = match &tree {
                Some(expr) => ivm_storage::WalRecord::RegisterTreeView {
                    name: name.clone(),
                    expr: expr.clone(),
                },
                None => ivm_storage::WalRecord::RegisterView {
                    name: name.clone(),
                    expr: terms[0].expr.clone(),
                    policy: policy.to_byte(),
                },
            };
            self.log_record(record)?;
        }
        // Commit point: everything below is infallible.
        self.views
            .insert(name, ManagedView::new(contents, terms, tree, policy));
        self.rebuild_dag();
        self.publish_snapshot();
        Ok(())
    }

    /// Each operand of a new view's term must be a base relation or an
    /// already-registered immediate view, and the term must resolve
    /// against their schemes.
    fn check_operands(&self, name: &str, expr: &SpjExpr) -> Result<()> {
        for op in &expr.relations {
            if op == name {
                return Err(IvmError::UnsupportedView(format!(
                    "view {name} cannot reference itself"
                )));
            }
            if self.db.contains_relation(op) {
                continue;
            }
            match self.views.get(op) {
                Some(up) if up.policy == RefreshPolicy::Immediate => {}
                Some(_) => {
                    return Err(IvmError::UnsupportedView(format!(
                        "view operand {op} must be an immediate view (a deferred operand \
                         would feed stale deltas downstream)"
                    )))
                }
                None => return Err(RelError::UnknownRelation(op.clone()).into()),
            }
        }
        let op_schemas = expr
            .relations
            .iter()
            .map(|op| self.operand_schema(op))
            .collect::<Result<Vec<Schema>>>()?;
        let refs: Vec<&Schema> = op_schemas.iter().collect();
        expr.validate_with(&refs)?;
        Ok(())
    }

    /// The scheme of a base relation or registered view.
    fn operand_schema(&self, name: &str) -> Result<Schema> {
        if self.db.contains_relation(name) {
            return Ok(self.db.schema(name)?.clone());
        }
        Ok(self.managed(name)?.contents.schema().clone())
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

    /// The current contents of a base relation or registered view.
    fn operand_contents(&self, name: &str) -> Result<&Relation> {
        if self.db.contains_relation(name) {
            return Ok(self.db.relation(name)?);
        }
        Ok(&self.managed(name)?.contents)
    }

    /// Evaluate a term against current operand state (base relations and
    /// materialized upstream views).
    fn eval_current(&self, expr: &SpjExpr) -> Result<Relation> {
        let mut inputs: Vec<&Relation> = Vec::with_capacity(expr.arity());
        for op in &expr.relations {
            inputs.push(self.operand_contents(op)?);
        }
        Ok(expr.eval_with(&inputs)?)
    }

    /// `Σ c·eval(term)` with each term evaluated by `eval`. A single
    /// `+1` term is its own value; a sum whose counter goes negative — an
    /// ill-formed difference — fails with `NegativeCount`.
    fn eval_terms(
        &self,
        terms: &[Term],
        eval: impl Fn(&Self, &SpjExpr) -> Result<Relation>,
    ) -> Result<Relation> {
        let (first, rest) = terms.split_first().expect("a view has at least one term");
        let value = eval(self, &first.expr)?;
        if first.coef == 1 && rest.is_empty() {
            return Ok(value);
        }
        let mut sum = DeltaRelation::empty(value.schema().clone());
        add_scaled(&mut sum, &value.to_delta(), first.coef)?;
        for term in rest {
            add_scaled(&mut sum, &eval(self, &term.expr)?.to_delta(), term.coef)?;
        }
        let mut out = Relation::empty(value.schema().clone());
        out.apply_delta(&sum)?;
        Ok(out)
    }

    /// Flattened-oracle evaluation: recursively re-evaluate a term from
    /// base relations only, resolving view operands by re-evaluating
    /// *their* terms from scratch (no materialized view state is
    /// consulted).
    fn eval_scratch(&self, expr: &SpjExpr) -> Result<Relation> {
        let mut owned: Vec<Option<Relation>> = Vec::with_capacity(expr.arity());
        for op in &expr.relations {
            if self.db.contains_relation(op) {
                owned.push(None);
            } else {
                let up = self.managed(op)?;
                owned.push(Some(self.eval_terms(&up.terms, Self::eval_scratch)?));
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

    /// Recompute `depends_on`/`stratum` for every node and the manager's
    /// stratum list + reverse edges from the terms. Called after every
    /// registration and after recovery restores the registry.
    pub(crate) fn rebuild_dag(&mut self) {
        let names: Vec<String> = self.views.keys().cloned().collect();
        let mut depends: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for name in &names {
            let mut ups: Vec<String> = Vec::new();
            for op in self.views[name].operands() {
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
    /// order within a stratum): one node per registered view.
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
                    expr: mv.terms[0].expr.clone(),
                    terms: mv.terms.iter().map(|t| (t.coef, t.expr.clone())).collect(),
                    tree: mv.tree.clone(),
                    rows: mv.contents.len(),
                    stats: mv.stats,
                });
            }
        }
        out
    }

    /// The name checks every view registration makes: the name is not
    /// taken by another view and not a base relation's.
    fn check_new_view_name(&self, name: &str) -> Result<()> {
        if self.views.contains_key(name) {
            return Err(IvmError::DuplicateView(name.to_owned()));
        }
        if self.db.contains_relation(name) {
            return Err(IvmError::UnsupportedView(format!(
                "view name {name} collides with a base relation"
            )));
        }
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

    /// The refresh policy of a registered view.
    pub fn view_policy(&self, name: &str) -> Result<RefreshPolicy> {
        Ok(self.managed(name)?.policy)
    }

    /// Names of registered views, in name order.
    pub fn view_names(&self) -> impl Iterator<Item = &str> {
        self.views.keys().map(String::as_str)
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
        mv.operands()
            .map(|op| txn.changes_to(op) + emitted.get(op.as_str()).map_or(0, DeltaRelation::len))
            .sum()
    }

    /// Execute a transaction: validate, maintain immediate views, apply to
    /// the base relations, and queue changes for deferred views.
    ///
    /// Durable managers follow the *log before apply* discipline: once the
    /// transaction validates and every view delta is computed (which
    /// reads but changes nothing), a WAL record is appended and synced
    /// before any in-memory state changes. A transaction the views refuse
    /// (an ill-formed difference in a tree view) is never logged. A crash
    /// after the sync point replays the transaction on recovery; a crash
    /// before it loses only work that was never acknowledged.
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
        // Phase 1: stratified delta computation against the
        // pre-transaction state, bottom-up over the dependency DAG. Each
        // maintained node's delta (`emitted`) becomes the input delta of
        // its dependents in the next strata — topological delta flow.
        // Nodes within one stratum are independent (their operands live
        // strictly below). Phase 1 only reads, and runs before the WAL
        // append: a transaction it rejects (an ill-formed difference, a
        // counter overflow) leaves nothing logged and nothing changed.
        let mut outcomes: Vec<(String, NodeOutcome)> = Vec::new();
        let mut emitted: HashMap<String, DeltaRelation> = HashMap::new();
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
            for name in touched {
                let outcome = self.compute_node_outcome(name, txn, &mut emitted)?;
                outcomes.push((name.clone(), outcome));
            }
        }
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
        // Phase 1's writes: statistics, newly built filters and queued
        // deferred changes.
        let mut nodes_maintained: u64 = 0;
        for (name, outcome) in &mut outcomes {
            let mv = self.views.get_mut(name.as_str()).expect("view exists");
            mv.stats.transactions_seen += 1;
            report.views_touched += 1;
            for (term, op, f) in outcome.new_filters.drain(..) {
                mv.terms[term].filters.insert(op, f);
            }
            mv.stats.filter += outcome.fstats;
            report.filter += outcome.fstats;
            match &mut outcome.action {
                NodeAction::Skipped => {
                    mv.stats.skipped_by_filter += 1;
                    report.views_skipped += 1;
                    obs.add(names::MANAGER_SKIPPED_BY_FILTER, 1);
                }
                NodeAction::Deferred(adds) => {
                    report.views_deferred += 1;
                    for (op, d) in adds.drain(..) {
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
                }
                NodeAction::Maintained(stats) => {
                    mv.stats.maintenance_runs += 1;
                    mv.stats.diff += *stats;
                    mv.stats.last_rows_evaluated = stats.rows_evaluated;
                    mv.stats.last_delta_tuples = emitted[name.as_str()].len();
                    report.views_maintained += 1;
                    report.diff += *stats;
                    obs.add(names::MANAGER_MAINTENANCE_RUNS, 1);
                    nodes_maintained += 1;
                }
            }
        }
        if nodes_maintained > 0 {
            obs.add(names::DAG_NODES_MAINTAINED, nodes_maintained);
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
        // listeners. `outcomes` is in strata order, so a full
        // re-evaluation of a stacked node sees its upstream views already
        // up to date.
        for (name, outcome) in outcomes {
            let delta = match outcome.action {
                NodeAction::FullRecompute => {
                    // Full re-evaluation against the new state (operands
                    // resolve to updated base relations and upstream
                    // views); the delta is still derived so listeners see
                    // a change stream. Only dependent-free nodes without
                    // negative terms take this path — see `prefers_full`.
                    let new_contents =
                        self.eval_terms(&self.views[&name].terms, Self::eval_current)?;
                    let mv = self.views.get_mut(&name).expect("view exists");
                    let mut d = new_contents.to_delta();
                    for (t, c) in mv.contents.iter() {
                        d.add(t.clone(), -crate::differential::spj::signed_count(c)?);
                    }
                    mv.contents = Arc::new(new_contents);
                    mv.stats.last_delta_tuples = d.len();
                    d
                }
                NodeAction::Maintained(_) => {
                    let d = emitted.remove(&name).expect("delta emitted in phase 1");
                    self.views.get_mut(&name).expect("view exists").apply(&d)?;
                    d
                }
                NodeAction::Skipped | NodeAction::Deferred(_) => continue,
            };
            if !delta.is_empty() {
                let mv = &self.views[&name];
                for l in &mv.listeners {
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
        let options = self.options.diff;
        let mv = self.managed_mut(name)?;
        if mv.pending.is_empty() {
            return Ok(());
        }
        let pending = std::mem::take(&mut mv.pending);
        // Only SPJ views can be deferred, so the view is its one term.
        let expr = mv.terms[0].expr.clone();
        // Run the engine backwards from the live state: with `old` = the
        // current operands C and `updates` = −P (P the queued changes), it
        // yields V(C − P) − V(C), whose negation is the refresh delta
        // V(C) − V(C − P). No operand is copied, so a refresh costs
        // O(|P|) probes, not O(|r|). The engine's `d_r ⊆ r` precondition
        // holds: the deletes of −P are P's inserts, which are in C.
        //
        // Soundness note: `pending` is relevance-filtered, so C − P
        // differs from the true state at the last refresh by exactly the
        // irrelevant tuples. By Theorem 4.1 those tuples cannot appear in
        // any view tuple (their substituted condition is unsatisfiable in
        // every state), so V(C − P) = V(true old) and the delta is exact.
        let old: Vec<&Relation> = expr
            .relations
            .iter()
            .map(|op| self.operand_contents(op))
            .collect::<Result<_>>()?;
        // Queued view deltas may carry |count| > 1; the engine is
        // count-linear, so multiplicities flow through exactly.
        let undo: HashMap<&str, DeltaRelation> = pending
            .iter()
            .map(|(op, d)| (op.as_str(), d.negated()))
            .collect();
        let updates: Vec<Option<&DeltaRelation>> = expr
            .relations
            .iter()
            .map(|op| undo.get(op.as_str()))
            .collect();
        let obs = self.options.recorder.clone();
        let mut result = {
            let _diff_span = obs.span(names::SPAN_DIFFERENTIATE);
            crate::differential::differential_delta_parts_observed(
                &expr, &old, &updates, &options, &obs,
            )?
        };
        result.delta = result.delta.negated();
        let s = &mut result.stats;
        std::mem::swap(&mut s.output_inserts, &mut s.output_deletes);
        obs.add(names::MANAGER_MAINTENANCE_RUNS, 1);
        let mv = self.managed_mut(name)?;
        mv.stats.maintenance_runs += 1;
        mv.stats.diff += result.stats;
        mv.stats.last_rows_evaluated = result.stats.rows_evaluated;
        mv.stats.last_delta_tuples = result.delta.len();
        mv.apply(&result.delta)?;
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
        let mv = self.managed(name)?;
        Ok(mv.policy == RefreshPolicy::OnDemand && !mv.pending.is_empty())
    }

    /// The shared pointer to a view's current contents, without
    /// refreshing.
    fn shared_contents(&self, name: &str) -> Result<Arc<Relation>> {
        Ok(Arc::clone(&self.managed(name)?.contents))
    }

    /// Check every view against a recursive from-scratch re-evaluation
    /// over base relations only (the flattened oracle; test/debug
    /// helper). Deferred views are compared after an implicit refresh.
    pub fn verify_consistency(&mut self) -> Result<()> {
        let names: Vec<String> = self.views.keys().cloned().collect();
        for name in names {
            self.refresh(&name)?;
            let mv = self.managed(&name)?;
            let expected = self.eval_terms(&mv.terms, Self::eval_scratch)?;
            if expected != *mv.contents {
                return Err(IvmError::UnsupportedView(format!(
                    "view {name} diverged from full re-evaluation"
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
    /// Relevance filters built during this computation, as (term index,
    /// operand, filter), cached onto the view when the outcome is applied.
    new_filters: Vec<(usize, String, RelevanceFilter)>,
    action: NodeAction,
}

enum NodeAction {
    /// Touched, but the §4 filter proved every changed tuple irrelevant.
    Skipped,
    /// Differential delta computed (in `emitted`, applied in phase 3).
    Maintained(DiffStats),
    /// Strategy chose full re-evaluation (runs post-apply in phase 3).
    FullRecompute,
    /// Deferred policy: per-operand deltas to queue for a later refresh.
    Deferred(Vec<(String, DeltaRelation)>),
}

impl ViewManager {
    /// Compute what maintaining node `name` for `txn` requires, without
    /// mutating the manager. Each term's base operands go through its §4
    /// relevance filter; view operands consume the delta their node
    /// emitted earlier this transaction. A maintained node's delta,
    /// `Σ c·Δterm`, goes into `emitted`.
    fn compute_node_outcome(
        &self,
        name: &str,
        txn: &Transaction,
        emitted: &mut HashMap<String, DeltaRelation>,
    ) -> Result<NodeOutcome> {
        let (obs, options) = (&self.options.recorder, &self.options.diff);
        let mv = &self.views[name];
        let mut fstats = FilterStats::default();
        let mut new_filters: Vec<(usize, String, RelevanceFilter)> = Vec::new();
        let mut touched = false;
        let mut full = false;
        let mut adds: Vec<(String, DeltaRelation)> = Vec::new();
        let mut sum: Option<DifferentialResult> = None;
        for (i, term) in mv.terms.iter().enumerate() {
            let base = self.base_changes(i, term, txn, &mut fstats, &mut new_filters)?;
            let expr = &term.expr;
            // Each position reads its operand's change: the filtered base
            // delta or the upstream view's emitted delta, borrowed, so a
            // self-join's positions share one.
            let updates: Vec<Option<&DeltaRelation>> = expr
                .relations
                .iter()
                .map(|op| {
                    base.iter()
                        .find(|(n, _)| n == op)
                        .map(|(_, d)| d)
                        .or_else(|| emitted.get(op.as_str()))
                        .filter(|d| !d.is_empty())
                })
                .collect();
            if !updates.iter().any(Option::is_some) {
                continue;
            }
            touched = true;
            if mv.policy != RefreshPolicy::Immediate {
                // Queue per-operand deltas for a later refresh: filtered
                // base deltas plus upstream view deltas, one entry per
                // distinct operand.
                for (op, update) in expr.relations.iter().zip(&updates) {
                    let Some(d) = update else { continue };
                    if !adds.iter().any(|(n, _)| n == op) {
                        adds.push((op.clone(), (*d).clone()));
                    }
                }
                continue;
            }
            let old: Vec<&Relation> = expr
                .relations
                .iter()
                .map(|op| self.operand_contents(op))
                .collect::<Result<_>>()?;
            full = full || self.prefers_full(name, mv, expr, &old, &updates)?;
            if full {
                continue;
            }
            let result = {
                let _diff_span = obs.span(names::SPAN_DIFFERENTIATE);
                differential_delta_parts_observed(expr, &old, &updates, options, obs)?
            };
            sum = Some(match sum {
                None if term.coef == 1 => result,
                None => {
                    let mut delta = DeltaRelation::empty(result.delta.schema().clone());
                    add_scaled(&mut delta, &result.delta, term.coef)?;
                    DifferentialResult {
                        delta,
                        stats: result.stats,
                    }
                }
                Some(mut acc) => {
                    add_scaled(&mut acc.delta, &result.delta, term.coef)?;
                    acc.stats += result.stats;
                    acc
                }
            });
        }
        if obs.enabled() {
            obs.add(names::FILTER_TUPLES_CHECKED, fstats.checked as u64);
            obs.add(names::FILTER_TUPLES_ADMITTED, fstats.relevant as u64);
            obs.add(names::FILTER_TUPLES_FILTERED, fstats.irrelevant as u64);
        }
        let action = if !touched {
            NodeAction::Skipped
        } else if mv.policy != RefreshPolicy::Immediate {
            NodeAction::Deferred(adds)
        } else if full {
            NodeAction::FullRecompute
        } else {
            let result = sum.expect("a touched immediate node runs at least one term");
            if mv.terms.iter().any(|t| t.coef < 0) {
                // Only a negative term can drive a counter below zero: an
                // ill-formed difference is refused here, before the WAL
                // append, rather than when the delta is applied.
                mv.contents.check_delta(&result.delta)?;
            }
            emitted.insert(name.to_owned(), result.delta);
            NodeAction::Maintained(result.stats)
        };
        Ok(NodeOutcome {
            fstats,
            new_filters,
            action,
        })
    }

    /// The net change of each distinct touched *base* operand of term
    /// `i`, as one signed delta filtered by the term's relevance filter
    /// (built and pushed onto `new_filters` when the term has none
    /// cached).
    fn base_changes<'a>(
        &self,
        i: usize,
        term: &'a Term,
        txn: &Transaction,
        fstats: &mut FilterStats,
        new_filters: &mut Vec<(usize, String, RelevanceFilter)>,
    ) -> Result<Vec<(&'a str, DeltaRelation)>> {
        let (db, obs, options) = (&self.db, &self.options.recorder, &self.options.diff);
        let expr = &term.expr;
        let _filter_span = obs.span(names::SPAN_FILTER);
        let mut base: Vec<(&str, DeltaRelation)> = Vec::new();
        for op in &expr.relations {
            if !db.contains_relation(op)
                || base.iter().any(|(n, _)| n == op)
                || txn.changes_to(op) == 0
            {
                continue;
            }
            let schema = db.relation(op)?.schema();
            let delta = if !self.options.filtering {
                txn.delta(op, schema)?
            } else {
                let f = match term.filters.get(op.as_str()) {
                    Some(f) => {
                        obs.add(names::FILTER_GRAPH_CACHE_HITS, 1);
                        f
                    }
                    None => {
                        let built = RelevanceFilter::new_observed(expr, db, op, obs)?;
                        new_filters.push((i, op.clone(), built));
                        &new_filters.last().expect("just pushed").2
                    }
                };
                let (kept_ins, ins_stats) =
                    f.filter_with(txn.inserted(op), options.threads, obs)?;
                let (kept_del, del_stats) = f.filter_with(txn.deleted(op), options.threads, obs)?;
                *fstats += ins_stats;
                *fstats += del_stats;
                let mut delta = DeltaRelation::empty(schema.clone());
                for t in kept_ins {
                    delta.add(t, 1);
                }
                for t in kept_del {
                    delta.add(t, -1);
                }
                delta
            };
            base.push((op, delta));
        }
        Ok(base)
    }

    /// Whether the strategy maintains immediate node `name` by full
    /// re-evaluation, judged on one touched term. A node with dependents
    /// never is: they consume its delta within the same transaction, so
    /// differential is mandatory. Nor is a node with a negative term,
    /// whose delta must be checked before the WAL append.
    fn prefers_full(
        &self,
        name: &str,
        mv: &ManagedView,
        expr: &SpjExpr,
        old: &[&Relation],
        updates: &[Option<&DeltaRelation>],
    ) -> Result<bool> {
        if self.dependents.get(name).is_some_and(|d| !d.is_empty())
            || mv.terms.iter().any(|t| t.coef < 0)
        {
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
                    let changed = update.map_or(0, DeltaRelation::len) as u64;
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

/// `acc += coef · delta`, refusing a count beyond `i64`.
fn add_scaled(acc: &mut DeltaRelation, delta: &DeltaRelation, coef: i64) -> Result<()> {
    for (t, n) in delta.iter() {
        let scaled = n.checked_mul(coef).ok_or_else(|| {
            RelError::CounterOverflow(format!("{coef} × count {n} of tuple {t} exceeds i64"))
        })?;
        acc.add(t.clone(), scaled);
    }
    Ok(())
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

    /// A deferred join over indexed base operands, refreshed every third
    /// step while rows come in and old rows go out. The refresh runs the
    /// engine backwards from the live operands and their indexes; the view
    /// stays equal to full re-evaluation, and the output counters describe
    /// the delta the listeners saw, not the backward run's negation.
    #[test]
    fn deferred_refresh_over_indexed_operands_stays_consistent() {
        let mut m = ViewManager::new();
        m.create_relation("R", Schema::new(["A", "B"]).unwrap())
            .unwrap();
        m.create_relation("S", Schema::new(["B", "C"]).unwrap())
            .unwrap();
        let expr = SpjExpr::new(
            ["R", "S"],
            Atom::lt_const("A", 20).into(),
            Some(vec!["B".into(), "C".into()]),
        );
        m.register_view("v", expr, RefreshPolicy::Deferred).unwrap();
        assert!(m.database().relation("R").unwrap().index_count() > 0);
        assert!(m.database().relation("S").unwrap().index_count() > 0);
        let seen = Arc::new(std::sync::Mutex::new((0u64, 0u64)));
        let tally = Arc::clone(&seen);
        m.on_change(
            "v",
            Arc::new(move |_, d: &DeltaRelation| {
                let mut t = tally.lock().unwrap();
                for (_, c) in d.iter() {
                    if c > 0 {
                        t.0 += c as u64;
                    } else {
                        t.1 += c.unsigned_abs();
                    }
                }
            }),
        )
        .unwrap();
        let row = |s: i64| ([s, s % 4], [s % 4, 100 + s]);
        for step in 0..15i64 {
            let mut txn = Transaction::new();
            let (r, s) = row(step);
            txn.insert("R", r).unwrap();
            if step < 4 || step % 3 == 0 {
                txn.insert("S", s).unwrap();
            }
            if step >= 3 {
                txn.delete("R", row(step - 3).0).unwrap();
            }
            m.execute(&txn).unwrap();
            if step % 3 == 2 {
                m.refresh("v").unwrap();
                m.verify_consistency().unwrap();
            }
        }
        m.refresh("v").unwrap();
        m.verify_consistency().unwrap();
        let stats = m.stats("v").unwrap();
        let (ins, del) = *seen.lock().unwrap();
        assert!(ins > 0 && del > 0, "the stream both grew and shrank v");
        assert_eq!(stats.diff.output_inserts, ins);
        assert_eq!(stats.diff.output_deletes, del);
    }

    /// A deferred self-join of a projection, whose deltas carry counts
    /// above one: the backward refresh feeds the same negated delta to
    /// both positions and stays equal to full re-evaluation.
    #[test]
    fn deferred_self_join_refresh_stays_consistent() {
        let mut m = ViewManager::new();
        m.create_relation("R", Schema::new(["A", "B"]).unwrap())
            .unwrap();
        let p = SpjExpr::new(["R"], Condition::always_true(), Some(vec!["A".into()]));
        m.register_view("p", p, RefreshPolicy::Immediate).unwrap();
        let sq = SpjExpr::new(["p", "p"], Condition::always_true(), None);
        m.register_view("sq", sq, RefreshPolicy::Deferred).unwrap();
        let row = |s: i64| [s % 3, s];
        for step in 0..16i64 {
            let mut txn = Transaction::new();
            txn.insert("R", row(step)).unwrap();
            if step >= 5 {
                txn.delete("R", row(step - 5)).unwrap();
            }
            m.execute(&txn).unwrap();
            if step % 2 == 1 {
                m.refresh("sq").unwrap();
                m.verify_consistency().unwrap();
            }
        }
        let sq = m.view_contents("sq").unwrap();
        assert!(sq.iter().any(|(_, c)| c > 1), "sq = {sq}");
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
    fn tree_view_terms_run_the_relevance_filter() {
        let mut m = manager_with_data();
        // π_{A,B}(σ_{A<10}(R) ⋈ S) ∪ σ_{A<10}(R): both terms filter on
        // A < 10.
        let small = Expr::base("R").select(Atom::lt_const("A", 10));
        let expr = small
            .clone()
            .join(Expr::base("S"))
            .project(["A", "B"])
            .union(small);
        m.register_tree_view("t", expr).unwrap();
        let mut txn = Transaction::new();
        txn.insert("R", [50, 10]).unwrap(); // A = 50: irrelevant to every term
        let report = m.execute(&txn).unwrap();
        assert_eq!(report.views_touched, 1);
        assert_eq!(report.views_skipped, 1);
        assert_eq!(report.views_maintained, 0);
        assert_eq!(report.filter.irrelevant, 2, "one check per term");
        assert_eq!(m.stats("t").unwrap().skipped_by_filter, 1);
        // A relation no term reads leaves the view untouched.
        m.create_relation("U", Schema::new(["A"]).unwrap()).unwrap();
        let mut txn = Transaction::new();
        txn.insert("U", [1]).unwrap();
        assert_eq!(m.execute(&txn).unwrap().views_touched, 0);
        m.verify_consistency().unwrap();
    }

    #[test]
    fn views_without_terms_are_rejected() {
        let mut m = manager_with_data();
        let no_operands = SpjExpr::new(Vec::<String>::new(), Condition::always_true(), None);
        assert!(matches!(
            m.register_view("v", no_operands, RefreshPolicy::Immediate),
            Err(IvmError::UnsupportedView(_))
        ));
        // R − R: every term cancels, so there is nothing to maintain.
        assert!(matches!(
            m.register_tree_view("t", Expr::base("R").difference(Expr::base("R"))),
            Err(IvmError::UnsupportedView(_))
        ));
        assert_eq!(m.view_names().count(), 0);
    }

    #[test]
    fn apply_shares_rows_with_the_delta_and_the_pinned_copy() {
        let mut m = manager_with_data();
        m.register_view("v", view_expr(), RefreshPolicy::Immediate)
            .unwrap();
        let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        m.on_change("v", Arc::new(move |_, d| sink.lock().push(d.clone())))
            .unwrap();
        // A pinned reader forces the copy-on-write path.
        let pinned = m.query("v").unwrap();
        let mut txn = Transaction::new();
        txn.insert("R", [3, 10]).unwrap();
        m.execute(&txn).unwrap();
        let after = m.query("v").unwrap();
        assert!(!Arc::ptr_eq(&pinned, &after), "copied");
        let ptr_in = |rel: &Relation, row: &Tuple| {
            let (t, _) = rel.iter().find(|(t, _)| *t == row).unwrap();
            t.values().as_ptr()
        };
        let delta = seen.lock().pop().unwrap();
        let (added, _) = delta.iter().next().unwrap();
        assert_eq!(ptr_in(&after, added), added.values().as_ptr());
        // The copy duplicated table slots, not rows: old rows are shared.
        for (t, _) in pinned.iter() {
            assert_eq!(ptr_in(&after, t), t.values().as_ptr());
        }
    }

    #[test]
    fn spj_view_stacks_on_a_tree_view() {
        let mut m = manager_with_data();
        m.create_relation("T", Schema::new(["A", "B"]).unwrap())
            .unwrap();
        m.load("T", [[7, 20]]).unwrap();
        m.register_tree_view("u", Expr::base("R").union(Expr::base("T")))
            .unwrap();
        m.register_view(
            "w",
            SpjExpr::new(["u", "S"], Atom::gt_const("C", 150).into(), None),
            RefreshPolicy::Immediate,
        )
        .unwrap();
        let node = m.dag().into_iter().find(|n| n.name == "w").unwrap();
        assert_eq!(node.depends_on, ["u"]);
        assert_eq!(node.stratum, 1);
        let mut txn = Transaction::new();
        txn.insert("T", [8, 20]).unwrap();
        txn.delete("R", [2, 20]).unwrap();
        let report = m.execute(&txn).unwrap();
        assert_eq!(report.views_maintained, 2);
        let w = m.view_contents("w").unwrap();
        assert!(w.contains(&Tuple::from([8, 20, 200])));
        assert!(!w.contains(&Tuple::from([2, 20, 200])));
        assert_eq!(m.view_expr("w").unwrap().relations, ["u", "S"]);
        assert!(matches!(
            m.view_expr("u"),
            Err(IvmError::UnsupportedView(_))
        ));
        m.verify_consistency().unwrap();
    }

    #[test]
    fn tree_view_over_registered_projections() {
        // π_{A,C}(R ⋈ S) ∪ (π_A(T) ⋈ π_C(S)). Lifting π_A(T) above its
        // join would join on B, so the tree is rejected as written; with
        // the projections registered as views it compiles, cross product
        // of disjoint schemes included.
        let mut m = manager_with_data();
        m.create_relation("T", Schema::new(["A", "B"]).unwrap())
            .unwrap();
        m.load("T", [[1, 10], [7, 70]]).unwrap();
        let left = Expr::base("R").join(Expr::base("S")).project(["A", "C"]);
        let inline = left.clone().union(
            Expr::base("T")
                .project(["A"])
                .join(Expr::base("S").project(["C"])),
        );
        let err = m.register_tree_view("t", inline).unwrap_err();
        assert!(
            matches!(&err, IvmError::UnsupportedView(msg) if msg.contains("attribute B")),
            "{err}"
        );
        let project = |rel: &str, attr: &str| {
            SpjExpr::new([rel], Condition::always_true(), Some(vec![attr.into()]))
        };
        m.register_view("ta", project("T", "A"), RefreshPolicy::Immediate)
            .unwrap();
        m.register_view("sc", project("S", "C"), RefreshPolicy::Immediate)
            .unwrap();
        let stacked = left.union(Expr::base("ta").join(Expr::base("sc")));
        m.register_tree_view("t", stacked).unwrap();
        for step in 0..10i64 {
            let mut txn = Transaction::new();
            txn.insert("R", [100 + step, 10]).unwrap();
            if step % 2 == 0 {
                txn.insert("T", [200 + step, 10]).unwrap();
            }
            if step % 3 == 0 {
                txn.insert("S", [10, 1000 + step]).unwrap();
            }
            m.execute(&txn).unwrap();
            m.verify_consistency().unwrap();
        }
        // The literal tree, evaluated over the base relations.
        let literal = Expr::base("R")
            .join(Expr::base("S"))
            .project(["A", "C"])
            .eval(m.database())
            .unwrap();
        let ta = Expr::base("T").project(["A"]).eval(m.database()).unwrap();
        let sc = Expr::base("S").project(["C"]).eval(m.database()).unwrap();
        let cross = ivm_relational::algebra::natural_join(&ta, &sc).unwrap();
        let expected = ivm_relational::algebra::union(&literal, &cross).unwrap();
        assert_eq!(*m.view_contents("t").unwrap(), expected);
        assert!(expected.total_count() > 0);
    }

    #[test]
    fn ill_formed_difference_fails_closed() {
        let dir = ivm_storage::temp::scratch_dir("ill-formed-difference");
        let mut m = ViewManager::open(&dir).unwrap();
        m.create_relation("R", Schema::new(["A"]).unwrap()).unwrap();
        m.create_relation("T", Schema::new(["A"]).unwrap()).unwrap();
        m.load("R", [[1], [2]]).unwrap();
        m.register_tree_view("d", Expr::base("R").difference(Expr::base("T")))
            .unwrap();
        let t_before = m.database().relation("T").unwrap().clone();
        let d_before = m.view_contents("d").unwrap().clone();
        let next_lsn = m.durability_status().unwrap().next_lsn;
        // (3) is in T but not in R: R − T would count it −1.
        let mut bad = Transaction::new();
        bad.insert("T", [3]).unwrap();
        assert!(matches!(
            m.execute(&bad).unwrap_err(),
            IvmError::Relational(RelError::NegativeCount(_))
        ));
        assert_eq!(
            m.durability_status().unwrap().next_lsn,
            next_lsn,
            "not logged"
        );
        assert_eq!(m.database().relation("T").unwrap(), &t_before);
        assert_eq!(m.view_contents("d").unwrap(), &d_before);
        drop(m);
        // Recovery sees nothing of it, and the next valid transaction
        // commits.
        let mut m = ViewManager::open(&dir).unwrap();
        assert_eq!(m.database().relation("T").unwrap(), &t_before);
        assert_eq!(m.view_contents("d").unwrap(), &d_before);
        let mut good = Transaction::new();
        good.insert("T", [2]).unwrap();
        m.execute(&good).unwrap();
        assert_eq!(
            m.view_contents("d").unwrap().sorted(),
            [(Tuple::from([1]), 1)]
        );
        m.verify_consistency().unwrap();
        drop(m);
        let mut m = ViewManager::open(&dir).unwrap();
        m.verify_consistency().unwrap();
        drop(m);
        std::fs::remove_dir_all(&dir).ok();
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
