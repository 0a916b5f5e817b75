//! Reading views: the §6 snapshot refresh of deferred views,
//! [`ViewManager::query`] and the from-scratch consistency oracle.

use std::borrow::Cow;
use std::collections::HashMap;

use ivm_obs::names;

use super::*;
use crate::differential::spj::emit_run_counters;
use crate::differential::{differential_delta_parts_observed, DiffOptions};

impl ViewManager {
    /// Refresh a deferred/on-demand view by folding in its accumulated
    /// changes with one differential pass (snapshot refresh, §6). No-op for
    /// immediate views or when nothing is pending.
    pub fn refresh(&mut self, name: &str) -> Result<()> {
        let mv = self.managed_mut(name)?;
        if mv.pending.is_empty() {
            return Ok(());
        }
        let pending = std::mem::take(&mut mv.pending);
        // Only SPJ views can be deferred, so the view is its one term.
        let expr = &self.managed(name)?.terms[0].expr;
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
        let old = self.operand_contents(expr)?;
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
        // The backward run's own counters and tags describe
        // V(C − P) − V(C), not the refresh, so it runs unobserved; the
        // refresh's counters are emitted from its corrected statistics.
        let obs = self.recorder.clone();
        let mut result = {
            let _diff_span = obs.span(names::SPAN_DIFFERENTIATE);
            differential_delta_parts_observed(
                expr,
                &old,
                &updates,
                &DiffOptions::default(),
                &Obs::disabled(),
            )?
        };
        result.delta = result.delta.negated();
        let s = &mut result.stats;
        std::mem::swap(&mut s.output_inserts, &mut s.output_deletes);
        let updated = updates.iter().flatten().filter(|d| !d.is_empty()).count();
        emit_run_counters(&obs, &result.stats, updated);
        self.commit_view_delta(name, &result.delta, Some(result.stats))?;
        if !result.delta.is_empty() {
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
        Ok(Arc::clone(&self.managed(name)?.contents))
    }

    /// Whether [`ViewManager::query`] must fold queued changes in first:
    /// an on-demand view with changes pending.
    pub(super) fn query_refreshes(&self, name: &str) -> Result<bool> {
        let mv = self.managed(name)?;
        Ok(mv.policy == RefreshPolicy::OnDemand && !mv.pending.is_empty())
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

    /// Flattened-oracle evaluation: recursively re-evaluate a term from
    /// base relations only, resolving view operands by re-evaluating
    /// *their* terms from scratch (no materialized view state is
    /// consulted).
    fn eval_scratch(&self, expr: &SpjExpr) -> Result<Relation> {
        let inputs = expr
            .relations
            .iter()
            .map(|op| match self.views.get(op) {
                Some(up) => Ok(Cow::Owned(self.eval_terms(&up.terms, Self::eval_scratch)?)),
                None => Ok(Cow::Borrowed(self.db.relation(op)?)),
            })
            .collect::<Result<Vec<Cow<'_, Relation>>>>()?;
        let inputs: Vec<&Relation> = inputs.iter().map(AsRef::as_ref).collect();
        Ok(expr.eval_with(&inputs)?)
    }
}
