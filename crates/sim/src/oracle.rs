//! The from-scratch oracle: a second, independent model of what every
//! view must contain.
//!
//! The engine under test maintains views *differentially* (Algorithm 5.1)
//! behind a relevance filter (Algorithm 4.1), through a WAL, checkpoints
//! and an optional thread pool. The oracle does none of that: it keeps its
//! own [`Database`], applies committed transactions directly, and
//! recomputes each view's expected contents by full re-evaluation at the
//! view's materialization points — resolving view operands recursively,
//! so a stacked (view-over-view) definition is flattened down to base
//! relations rather than maintained level by level. The paper's
//! central claim — differential maintenance is *equivalent* to full
//! re-evaluation — becomes the checkable invariant `engine state ==
//! oracle state` after every step.
//!
//! Materialization points per policy:
//!
//! * `Immediate` — after every committed transaction;
//! * `Deferred` — at registration and at every explicit refresh (between
//!   refreshes the engine's materialization is deliberately stale, and the
//!   oracle's snapshot is exactly that stale state);
//! * `OnDemand` — at registration and at every query.
//!
//! Refreshes are **not** durable events (the WAL logs transactions and
//! DDL, not refresh timing), so after a crash the engine's deferred views
//! roll back to their last *checkpointed* materialization. Rather than
//! model checkpoint timing, the harness refreshes every non-immediate
//! view right after recovery and re-materializes the oracle to match —
//! which additionally checks that recovery + refresh converges.

use std::collections::BTreeMap;

use ivm::prelude::RefreshPolicy;
use ivm_relational::prelude::*;

use crate::workload::{Scenario, TxnSpec};

/// The independent expected-state model.
#[derive(Debug, Clone)]
pub struct Oracle {
    /// The oracle's own base state (committed transactions only).
    pub db: Database,
    /// Per view: definition, policy, and the expected contents as of the
    /// view's last materialization point.
    views: BTreeMap<String, OracleView>,
}

#[derive(Debug, Clone)]
struct OracleView {
    expr: SpjExpr,
    policy: RefreshPolicy,
    expected: Relation,
}

impl Oracle {
    /// Build the oracle for a scenario: empty relations, views
    /// materialized against the empty state.
    pub fn new(scenario: &Scenario) -> Result<Self> {
        let mut db = Database::new();
        for r in &scenario.relations {
            db.create(r.name.clone(), r.schema())?;
        }
        let mut oracle = Oracle {
            db,
            views: BTreeMap::new(),
        };
        // Scenario views arrive in dependency order (stacked views only
        // reference earlier ones), so each definition can be evaluated as
        // it is inserted.
        for v in &scenario.views {
            let expected = oracle.eval_from_scratch(&v.expr)?;
            oracle.views.insert(
                v.name.clone(),
                OracleView {
                    expr: v.expr.clone(),
                    policy: v.policy,
                    expected,
                },
            );
        }
        Ok(oracle)
    }

    /// Evaluate a definition from scratch, resolving view operands
    /// recursively — a stacked view flattens to its base relations. The
    /// engine only accepts *immediate* views as operands, so the current
    /// base state is always the correct input for every level.
    fn eval_from_scratch(&self, expr: &SpjExpr) -> Result<Relation> {
        self.literal_tree(expr)?.eval(&self.db)
    }

    /// The definition as the literal tree `π_X(σ_C(R₁ ⋈ … ⋈ R_p))`, each
    /// view operand replaced by its own literal tree. [`Expr::eval`] joins
    /// before it selects, so the oracle shares no selection pushdown with
    /// the engine or with [`SpjExpr::eval_with`].
    fn literal_tree(&self, expr: &SpjExpr) -> Result<Expr> {
        let mut operands = expr.relations.iter().map(|op| match self.views.get(op) {
            Some(ov) => self.literal_tree(&ov.expr),
            None => Ok(Expr::base(op.as_str())),
        });
        let first = operands
            .next()
            .ok_or_else(|| RelError::UnknownRelation("<empty SPJ expression>".into()))??;
        let joined = operands.try_fold(first, |acc, op| Ok::<_, RelError>(acc.join(op?)))?;
        let selected = joined.select(expr.condition.clone());
        Ok(match &expr.projection {
            Some(attrs) => selected.project(attrs.iter().cloned()),
            None => selected,
        })
    }

    /// Would this transaction be accepted? The engine validates before its
    /// commit point; the harness asserts engine and oracle always agree.
    pub fn accepts(&self, txn: &Transaction) -> bool {
        self.db.validate(txn).is_ok()
    }

    /// Apply a *committed* transaction: update the base state and
    /// re-materialize every immediate view from scratch.
    pub fn commit(&mut self, spec: &TxnSpec) -> Result<()> {
        self.db.apply(&spec.to_transaction())?;
        self.rematerialize(|policy| policy == RefreshPolicy::Immediate)
    }

    /// Re-materialize one view against the current base state (refresh,
    /// on-demand query, or post-recovery convergence).
    pub fn materialize(&mut self, view: &str) -> Result<()> {
        if let Some(ov) = self.views.get(view) {
            let expected = self.eval_from_scratch(&ov.expr.clone())?;
            if let Some(ov) = self.views.get_mut(view) {
                ov.expected = expected;
            }
        }
        Ok(())
    }

    /// Re-materialize every non-immediate view (used right after crash
    /// recovery, paired with engine-side refreshes).
    pub fn materialize_stale(&mut self) -> Result<()> {
        self.rematerialize(|policy| policy != RefreshPolicy::Immediate)
    }

    /// Re-materialize every view whose policy matches the filter.
    fn rematerialize(&mut self, want: impl Fn(RefreshPolicy) -> bool) -> Result<()> {
        let updates: Vec<(String, Relation)> = self
            .views
            .iter()
            .filter(|(_, ov)| want(ov.policy))
            .map(|(name, ov)| Ok((name.clone(), self.eval_from_scratch(&ov.expr)?)))
            .collect::<Result<_>>()?;
        for (name, expected) in updates {
            if let Some(ov) = self.views.get_mut(&name) {
                ov.expected = expected;
            }
        }
        Ok(())
    }

    /// Expected contents of a view as of its last materialization point.
    pub fn expected(&self, view: &str) -> &Relation {
        &self.views[view].expected
    }

    /// View names in deterministic order.
    pub fn view_names(&self) -> impl Iterator<Item = &str> {
        self.views.keys().map(String::as_str)
    }

    /// The refresh policy a view was registered with.
    pub fn policy(&self, view: &str) -> RefreshPolicy {
        self.views[view].policy
    }
}

/// Compare the engine against the oracle; `None` means equivalent.
///
/// Checks, in order: every base relation is identical and its join-key
/// indexes agree with a from-scratch rebuild of its contents; every
/// view's counted materialization equals the oracle's expected relation
/// (multiset equality — multiplicities included); no view stores a
/// zero or negative multiplicity.
pub fn check(mgr: &ivm::prelude::ViewManager, oracle: &Oracle) -> Option<String> {
    for name in oracle.db.relation_names() {
        let ours = match mgr.database().relation(name) {
            Ok(r) => r,
            Err(e) => return Some(format!("engine lost relation {name}: {e}")),
        };
        let expected = oracle.db.relation(name).expect("oracle has relation");
        if ours != expected {
            return Some(format!(
                "base relation {name} diverged:\n  engine:   {}\n  expected: {}",
                render(ours),
                render(expected)
            ));
        }
        if let Err(e) = ours.verify_indexes() {
            return Some(format!("base relation {name} index diverged: {e}"));
        }
    }
    for name in oracle.view_names() {
        let ours = match mgr.view_contents(name) {
            Ok(r) => r,
            Err(e) => return Some(format!("engine lost view {name}: {e}")),
        };
        let expected = oracle.expected(name);
        for (tuple, count) in ours.sorted() {
            if count == 0 {
                return Some(format!(
                    "view {name} stores tuple {tuple} with multiplicity 0"
                ));
            }
        }
        if ours != expected {
            return Some(format!(
                "view {name} [{:?}] diverged from full re-evaluation:\n  \
                 engine:   {}\n  expected: {}",
                oracle.policy(name),
                render(ours),
                render(expected)
            ));
        }
    }
    None
}

/// Deterministic one-line rendering of a counted relation.
fn render(rel: &Relation) -> String {
    let rows: Vec<String> = rel
        .sorted()
        .into_iter()
        .map(|(t, c)| format!("{t}×{c}"))
        .collect();
    format!("{{{}}}", rows.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::generate;

    #[test]
    fn oracle_tracks_a_committed_transaction() {
        let scenario = generate(3, 0);
        let mut oracle = Oracle::new(&scenario).unwrap();
        let spec = TxnSpec {
            ops: vec![(
                scenario.relations[0].name.clone(),
                true,
                vec![1; scenario.relations[0].attrs.len()],
            )],
        };
        oracle.commit(&spec).unwrap();
        assert_eq!(
            oracle
                .db
                .relation(&scenario.relations[0].name)
                .unwrap()
                .len(),
            1
        );
    }
}
