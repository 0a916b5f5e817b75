//! [`ViewManager::execute`]: one transaction through the §4 filter and
//! the §5 engine, stratum by stratum over the view DAG, committed as the
//! last operation of the transaction.

use std::collections::HashMap;

use ivm_obs::names;
use ivm_relational::error::RelError;

use super::*;
use crate::cost::{prefer_differential, OperandSize};
use crate::differential::{differential_delta_parts_observed, DiffOptions, DifferentialResult};
use crate::full_reval::replacement_delta;

impl ViewManager {
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
    /// ([`ViewManager::with_recorder`]) the same numbers are also
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
        let obs = self.recorder.clone();
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
        let mut outcomes: Vec<(String, FilterStats, NodeAction)> = Vec::new();
        let mut emitted: HashMap<String, DeltaRelation> = HashMap::new();
        for stratum in &self.strata {
            // A node is touched when the transaction changes one of its
            // base operands or a view operand emitted a non-empty delta.
            let touched: Vec<&String> = stratum
                .iter()
                .filter(|n| {
                    self.views[n.as_str()].operands().any(|op| {
                        txn.changes_to(op) > 0 || emitted.get(op).is_some_and(|d| !d.is_empty())
                    })
                })
                .collect();
            if touched.is_empty() {
                continue;
            }
            if obs.enabled() {
                obs.observe(names::DAG_STRATUM_WIDTH, touched.len() as u64);
            }
            for name in touched {
                let (fstats, action) = self.compute_node_outcome(name, txn, &mut emitted)?;
                outcomes.push((name.clone(), fstats, action));
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
        // Phase 1's writes: statistics and queued deferred changes.
        let mut nodes_maintained: u64 = 0;
        for (name, fstats, action) in &mut outcomes {
            let mv = self.views.get_mut(name.as_str()).expect("view exists");
            mv.stats.transactions_seen += 1;
            report.views_touched += 1;
            mv.stats.filter += *fstats;
            report.filter += *fstats;
            match action {
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
                    report.views_maintained += 1;
                    report.diff += *stats;
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
        for (name, _, action) in outcomes {
            match action {
                NodeAction::FullRecompute => {
                    // Full re-evaluation against the new state (operands
                    // resolve to updated base relations and upstream
                    // views); the delta is still derived so listeners see
                    // a change stream. Only dependent-free nodes without
                    // negative terms take this path — see `prefers_full`.
                    let mv = &self.views[&name];
                    let new_contents = self.eval_terms(&mv.terms, Self::eval_current)?;
                    let delta = replacement_delta(&new_contents, &mv.contents)?;
                    self.commit_view_delta(&name, &delta, None)?;
                }
                NodeAction::Maintained(stats) => {
                    let delta = emitted.remove(&name).expect("delta emitted in phase 1");
                    self.commit_view_delta(&name, &delta, Some(stats))?;
                }
                NodeAction::Skipped | NodeAction::Deferred(_) => {}
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

    /// The one commit path of a view delta, shared by both maintaining
    /// arms of [`ViewManager::execute`] and by [`ViewManager::refresh`]:
    /// apply the delta, record it as the view's last run and notify the
    /// view's listeners. `run` is the differential run that produced the
    /// delta, `None` for a full re-evaluation.
    pub(super) fn commit_view_delta(
        &mut self,
        name: &str,
        delta: &DeltaRelation,
        run: Option<DiffStats>,
    ) -> Result<()> {
        let mv = self.views.get_mut(name).expect("view exists");
        mv.apply(delta)?;
        mv.stats.last_delta_tuples = delta.len();
        if let Some(stats) = run {
            mv.stats.maintenance_runs += 1;
            mv.stats.diff += stats;
            mv.stats.last_rows_evaluated = stats.rows_evaluated;
            self.recorder.add(names::MANAGER_MAINTENANCE_RUNS, 1);
        }
        if !delta.is_empty() {
            for l in &mv.listeners {
                l(name, delta);
            }
        }
        Ok(())
    }
}

/// What maintaining one DAG node for a transaction takes, computed
/// against immutable pre-transaction state and applied in deterministic
/// stratum order afterwards.
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
    /// Compute what maintaining node `name` for `txn` requires, and the
    /// filter work that decided it, without mutating the manager. Each
    /// term's base operands go through its §4 relevance filters; view
    /// operands consume the delta their node emitted earlier this
    /// transaction. A maintained node's delta, `Σ c·Δterm`, goes into
    /// `emitted`.
    fn compute_node_outcome(
        &self,
        name: &str,
        txn: &Transaction,
        emitted: &mut HashMap<String, DeltaRelation>,
    ) -> Result<(FilterStats, NodeAction)> {
        let obs = &self.recorder;
        let mv = &self.views[name];
        let mut fstats = FilterStats::default();
        let mut touched = false;
        let mut full = false;
        let mut adds: Vec<(String, DeltaRelation)> = Vec::new();
        let mut sum: Option<DifferentialResult> = None;
        for term in &mv.terms {
            let base = self.base_changes(term, txn, &mut fstats)?;
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
            let old = self.operand_contents(expr)?;
            full = full || self.prefers_full(name, mv, &old, &updates);
            if full {
                continue;
            }
            let result = {
                let _diff_span = obs.span(names::SPAN_DIFFERENTIATE);
                differential_delta_parts_observed(
                    expr,
                    &old,
                    &updates,
                    &DiffOptions::default(),
                    obs,
                )?
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
        Ok((fstats, action))
    }

    /// The net change of each touched *base* operand of `term`, one
    /// signed delta per distinct operand, passed through the operand's §4
    /// relevance filter unless filtering is off.
    fn base_changes<'a>(
        &self,
        term: &'a Term,
        txn: &Transaction,
        fstats: &mut FilterStats,
    ) -> Result<Vec<(&'a str, DeltaRelation)>> {
        let obs = &self.recorder;
        let _filter_span = obs.span(names::SPAN_FILTER);
        let mut base: Vec<(&str, DeltaRelation)> = Vec::new();
        for f in &term.filters {
            let op = f.relation();
            if txn.changes_to(op) == 0 {
                continue;
            }
            let schema = self.db.relation(op)?.schema();
            let delta = if !self.filtering {
                txn.delta(op, schema)?
            } else {
                let (kept_ins, ins_stats) = f.filter_with(txn.inserted(op), self.threads, obs)?;
                let (kept_del, del_stats) = f.filter_with(txn.deleted(op), self.threads, obs)?;
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
        old: &[&Relation],
        updates: &[Option<&DeltaRelation>],
    ) -> bool {
        if self.dependents.get(name).is_some_and(|d| !d.is_empty())
            || mv.terms.iter().any(|t| t.coef < 0)
        {
            return false;
        }
        match self.strategy {
            MaintenanceStrategy::AlwaysDifferential => false,
            MaintenanceStrategy::AlwaysFull => true,
            // §6 sizes: a view operand prices in its upstream cardinality
            // and delta; only base relations carry indexes.
            MaintenanceStrategy::CostBased => {
                let sizes: Vec<OperandSize> = old
                    .iter()
                    .zip(updates)
                    .map(|(r, update)| OperandSize {
                        old: r.len() as u64,
                        changed: update.map_or(0, DeltaRelation::len) as u64,
                        indexed: r.index_count() > 0,
                    })
                    .collect();
                !prefer_differential(&sizes)
            }
        }
    }
}

/// `acc += coef · delta`, refusing a count beyond `i64`.
pub(super) fn add_scaled(acc: &mut DeltaRelation, delta: &DeltaRelation, coef: i64) -> Result<()> {
    for (t, n) in delta.iter() {
        let scaled = n.checked_mul(coef).ok_or_else(|| {
            RelError::CounterOverflow(format!("{coef} × count {n} of tuple {t} exceeds i64"))
        })?;
        acc.add(t.clone(), scaled);
    }
    Ok(())
}
