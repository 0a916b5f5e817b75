//! Differential maintenance for arbitrary algebra trees.
//!
//! The paper restricts its algorithm to SPJ views in normal form; this
//! module extends maintenance to the whole [`Expr`] language — arbitrary
//! nestings of σ, π, ⋈, ∪ and − — by structural recursion with the delta
//! rules the §5 identities induce (all over signed counted multisets,
//! where they are exact):
//!
//! ```text
//! Δ(R)        = i_R − d_R                      (base relation)
//! Δ(σ_C e)    = σ_C(Δe)                        (σ is linear)
//! Δ(π_X e)    = π_X(Δe)                        (counted π is linear)
//! Δ(l ⋈ r)   = Δl ⋈ r₀ + l₀ ⋈ Δr + Δl ⋈ Δr   (⋈ is bilinear; X₀ = old X)
//! Δ(l ∪ r)    = Δl + Δr
//! Δ(l − r)    = Δl − Δr                        (see the caveat below)
//! ```
//!
//! The join rule is exactly the paper's p = 2 truth table; the recursion
//! generalizes it to any tree shape. For `−` the rule is exact whenever
//! the difference is *well-formed* (no counter would go negative) in both
//! the old and new states — the same condition under which the expression
//! itself evaluates; [`MaterializedExpr::update`] surfaces a
//! `NegativeCount` error otherwise rather than silently truncating.
//!
//! This is a clean reference implementation: old subexpression values are
//! recomputed from the pre-transaction database during the recursion (the
//! SPJ engine in [`crate::differential::spj`] remains the optimized path).
//! Subtrees whose bases were not touched short-circuit to an empty delta
//! without descending.
//!
//! ```
//! use ivm::differential::MaterializedExpr;
//! use ivm::prelude::*;
//!
//! let mut db = Database::new();
//! db.create("R", Schema::new(["A"]).unwrap()).unwrap();
//! db.create("T", Schema::new(["A"]).unwrap()).unwrap();
//! db.load("R", [[1], [2]]).unwrap();
//! db.load("T", [[2], [3]]).unwrap();
//!
//! // A counted-union view — outside the SPJ normal form.
//! let expr = Expr::base("R").union(Expr::base("T"));
//! let mut view = MaterializedExpr::materialize(expr, &db).unwrap();
//! assert_eq!(view.contents().count(&Tuple::from([2])), 2);
//!
//! let mut txn = Transaction::new();
//! txn.delete("R", [2]).unwrap();
//! view.update(&db, &txn).unwrap();
//! db.apply(&txn).unwrap();
//! assert_eq!(view.contents().count(&Tuple::from([2])), 1);
//! assert!(view.consistent_with(&db).unwrap());
//! ```

use std::collections::BTreeSet;
use std::sync::Arc;

use ivm_relational::algebra;
use ivm_relational::database::Database;
use ivm_relational::delta::DeltaRelation;
use ivm_relational::expr::Expr;
use ivm_relational::relation::Relation;
use ivm_relational::transaction::Transaction;

use crate::error::Result;

/// Compute the maintenance delta for an arbitrary expression tree against
/// the pre-transaction database.
pub fn tree_delta(expr: &Expr, db_before: &Database, txn: &Transaction) -> Result<DeltaRelation> {
    let touched: BTreeSet<&str> = txn.touched().into_iter().collect();
    let (_, delta) = recurse(expr, db_before, txn, &touched)?;
    Ok(delta)
}

/// Returns `(old value, delta)` for a subtree.
fn recurse(
    expr: &Expr,
    db: &Database,
    txn: &Transaction,
    touched: &BTreeSet<&str>,
) -> Result<(Relation, DeltaRelation)> {
    match expr {
        Expr::Base(name) => {
            let old = db.relation(name)?;
            let delta = if touched.contains(name.as_str()) {
                txn.delta(name, old.schema())?
            } else {
                DeltaRelation::empty(old.schema().clone())
            };
            Ok((old.clone(), delta))
        }
        Expr::Select { input, cond } => {
            let (old_in, d_in) = recurse(input, db, txn, touched)?;
            let old = algebra::select(&old_in, cond)?;
            let delta = if d_in.is_empty() {
                DeltaRelation::empty(old.schema().clone())
            } else {
                algebra::select_delta(&d_in, cond)?
            };
            Ok((old, delta))
        }
        Expr::Project { input, attrs } => {
            let (old_in, d_in) = recurse(input, db, txn, touched)?;
            let old = algebra::project(&old_in, attrs)?;
            let delta = if d_in.is_empty() {
                DeltaRelation::empty(old.schema().clone())
            } else {
                algebra::project_delta(&d_in, attrs)?
            };
            Ok((old, delta))
        }
        Expr::Join(l, r) => {
            let (ol, dl) = recurse(l, db, txn, touched)?;
            let (or, dr) = recurse(r, db, txn, touched)?;
            let old = algebra::natural_join(&ol, &or)?;
            let mut delta = DeltaRelation::empty(old.schema().clone());
            if !dl.is_empty() {
                delta.merge(&algebra::natural_join_delta(&dl, &or.to_delta())?)?;
            }
            if !dr.is_empty() {
                delta.merge(&algebra::natural_join_delta(&ol.to_delta(), &dr)?)?;
            }
            if !dl.is_empty() && !dr.is_empty() {
                delta.merge(&algebra::natural_join_delta(&dl, &dr)?)?;
            }
            Ok((old, delta))
        }
        Expr::Union(l, r) => {
            let (ol, dl) = recurse(l, db, txn, touched)?;
            let (or, dr) = recurse(r, db, txn, touched)?;
            let old = algebra::union(&ol, &or)?;
            let mut delta = dl;
            delta.merge(&dr)?;
            Ok((old, delta))
        }
        Expr::Difference(l, r) => {
            let (ol, dl) = recurse(l, db, txn, touched)?;
            let (or, dr) = recurse(r, db, txn, touched)?;
            let old = algebra::difference(&ol, &or)?;
            let mut delta = dl;
            delta.merge(&dr.negated())?;
            Ok((old, delta))
        }
    }
}

/// A materialized general-algebra view maintained by [`tree_delta`].
/// Like [`crate::view::MaterializedView`], it keeps its contents behind a
/// copy-on-write `Arc` that readers share.
#[derive(Debug, Clone)]
pub struct MaterializedExpr {
    expr: Expr,
    data: Arc<Relation>,
}

impl MaterializedExpr {
    /// Materialize by full evaluation.
    pub fn materialize(expr: Expr, db: &Database) -> Result<Self> {
        let data = Arc::new(expr.eval(db)?);
        Ok(MaterializedExpr { expr, data })
    }

    /// Reinstall from persisted state without re-evaluating: `data` is
    /// trusted to be the materialization `expr` had when it was
    /// checkpointed (the recovery path).
    pub fn from_saved(expr: Expr, data: Relation) -> Self {
        MaterializedExpr {
            expr,
            data: Arc::new(data),
        }
    }

    /// The defining expression.
    pub fn expr(&self) -> &Expr {
        &self.expr
    }

    /// Current contents.
    pub fn contents(&self) -> &Relation {
        &self.data
    }

    /// The current contents as a shared pointer (see
    /// [`crate::view::MaterializedView::shared_contents`]).
    pub fn shared_contents(&self) -> &Arc<Relation> {
        &self.data
    }

    /// Fold a transaction in differentially. `db_before` must be the
    /// database state the current contents correspond to.
    pub fn update(&mut self, db_before: &Database, txn: &Transaction) -> Result<()> {
        let delta = tree_delta(&self.expr, db_before, txn)?;
        self.apply(&delta)
    }

    /// Apply a precomputed maintenance delta (e.g. from [`tree_delta`]),
    /// copying the contents first only if another holder shares them.
    pub fn apply(&mut self, delta: &DeltaRelation) -> Result<()> {
        if delta.is_empty() {
            return Ok(());
        }
        Arc::make_mut(&mut self.data).apply_delta(delta)?;
        Ok(())
    }

    /// Debug helper: contents equal a fresh evaluation.
    pub fn consistent_with(&self, db: &Database) -> Result<bool> {
        Ok(self.expr.eval(db)? == *self.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivm_relational::predicate::Atom;
    use ivm_relational::schema::Schema;
    use ivm_relational::tuple::Tuple;

    fn db() -> Database {
        let mut db = Database::new();
        db.create("R", Schema::new(["A", "B"]).unwrap()).unwrap();
        db.create("S", Schema::new(["B", "C"]).unwrap()).unwrap();
        db.create("T", Schema::new(["A", "B"]).unwrap()).unwrap();
        db.load("R", [[1, 10], [2, 20], [3, 10]]).unwrap();
        db.load("S", [[10, 5], [20, 9]]).unwrap();
        db.load("T", [[1, 10], [7, 70]]).unwrap();
        db
    }

    fn check(expr: Expr, txn: &Transaction) {
        let before = db();
        let mut mv = MaterializedExpr::materialize(expr, &before).unwrap();
        mv.update(&before, txn).unwrap();
        let mut after = before;
        after.apply(txn).unwrap();
        assert!(mv.consistent_with(&after).unwrap(), "expr {:?}", mv.expr());
    }

    fn sample_txn() -> Transaction {
        let mut txn = Transaction::new();
        txn.insert("R", [4, 20]).unwrap();
        txn.delete("R", [1, 10]).unwrap();
        txn.insert("S", [10, 6]).unwrap();
        txn.insert("T", [2, 20]).unwrap();
        txn
    }

    #[test]
    fn maintains_select_project_join_tree() {
        let e = Expr::base("R")
            .join(Expr::base("S"))
            .select(Atom::gt_const("C", 4))
            .project(["A", "C"]);
        check(e, &sample_txn());
    }

    #[test]
    fn maintains_union_view() {
        // R ∪ T (same scheme).
        check(Expr::base("R").union(Expr::base("T")), &sample_txn());
    }

    #[test]
    fn maintains_difference_view() {
        // (R ∪ T) − T is well-formed in any state.
        let e = Expr::base("R")
            .union(Expr::base("T"))
            .difference(Expr::base("T"));
        check(e, &sample_txn());
    }

    #[test]
    fn maintains_nested_mixed_tree() {
        // π_A((σ_{B=10}(R) ∪ σ_{B=10}(T)) ⋈ S − needs join on B first)
        let left = Expr::base("R")
            .select(Atom::eq_const("B", 10))
            .union(Expr::base("T").select(Atom::eq_const("B", 10)));
        let e = left.join(Expr::base("S")).project(["A", "C"]);
        check(e, &sample_txn());
    }

    #[test]
    fn maintains_self_difference_pattern() {
        // e − σ_C(e): always well-formed; the delta rules must agree.
        let base = Expr::base("R").join(Expr::base("S"));
        let e = base.clone().difference(base.select(Atom::lt_const("C", 7)));
        check(e, &sample_txn());
    }

    #[test]
    fn untouched_tree_short_circuits() {
        let before = db();
        let e = Expr::base("R").join(Expr::base("S"));
        let mut txn = Transaction::new();
        txn.insert("T", [9, 90]).unwrap();
        let delta = tree_delta(&e, &before, &txn).unwrap();
        assert!(delta.is_empty());
    }

    #[test]
    fn tree_delta_matches_spj_engine_on_spj_shapes() {
        use crate::differential::{differential_delta, DiffOptions};
        let before = db();
        let tree = Expr::base("R")
            .join(Expr::base("S"))
            .select(Atom::gt_const("C", 4))
            .project(["A", "C"]);
        let spj = tree.normalize().expect("pure SPJ tree");
        let txn = sample_txn();
        let via_tree = tree_delta(&tree, &before, &txn).unwrap();
        let via_spj = differential_delta(&spj, &before, &txn, &DiffOptions::default())
            .unwrap()
            .delta;
        assert_eq!(via_tree, via_spj);
    }

    #[test]
    fn repeated_updates_stay_consistent() {
        let mut state = db();
        let e = Expr::base("R")
            .join(Expr::base("S"))
            .project(["A", "C"])
            .union(
                Expr::base("T")
                    .project(["A", "B"])
                    .project(["A"])
                    .join(Expr::base("S").project(["C"])),
            );
        // The right branch is a cross product of projections — exercises
        // disjoint-scheme joins too. Build it carefully: π_A(T) ⋈ π_C(S).
        let mut mv = MaterializedExpr::materialize(e, &state).unwrap();
        for step in 0..10i64 {
            let mut txn = Transaction::new();
            txn.insert("R", [100 + step, 10]).unwrap();
            if step % 2 == 0 {
                txn.insert("T", [200 + step, 10]).unwrap();
            }
            if step % 3 == 0 {
                txn.insert("S", [10, 100 + step]).unwrap();
            }
            mv.update(&state, &txn).unwrap();
            state.apply(&txn).unwrap();
            assert!(mv.consistent_with(&state).unwrap(), "step {step}");
        }
        assert!(mv.contents().total_count() > 0);
    }

    #[test]
    fn delete_through_projection_counts() {
        let before = db();
        // π_B(R): B=10 has count 2; deleting (1,10) must decrement, not
        // remove.
        let e = Expr::base("R").project(["B"]);
        let mut mv = MaterializedExpr::materialize(e, &before).unwrap();
        assert_eq!(mv.contents().count(&Tuple::from([10])), 2);
        let mut txn = Transaction::new();
        txn.delete("R", [1, 10]).unwrap();
        mv.update(&before, &txn).unwrap();
        assert_eq!(mv.contents().count(&Tuple::from([10])), 1);
    }

    #[test]
    fn contents_are_copied_on_write_only_when_shared() {
        let before = db();
        let e = Expr::base("R").project(["B"]);
        let mut mv = MaterializedExpr::materialize(e, &before).unwrap();
        let held = Arc::clone(mv.shared_contents());
        // An empty delta writes nothing, so even a shared view keeps its
        // pointer.
        mv.apply(&DeltaRelation::empty(held.schema().clone()))
            .unwrap();
        assert!(Arc::ptr_eq(&held, mv.shared_contents()));
        // A real change while `held` is alive goes to a fresh copy.
        let mut txn = Transaction::new();
        txn.delete("R", [1, 10]).unwrap();
        mv.update(&before, &txn).unwrap();
        assert!(!Arc::ptr_eq(&held, mv.shared_contents()));
        assert_eq!(
            held.count(&Tuple::from([10])),
            2,
            "the holder's copy is intact"
        );
        assert_eq!(mv.contents().count(&Tuple::from([10])), 1);
        // Unshared, the next change is made in place.
        drop(held);
        let ptr = Arc::as_ptr(mv.shared_contents());
        let mut delta = DeltaRelation::empty(mv.contents().schema().clone());
        delta.add(Tuple::from([10]), -1);
        mv.apply(&delta).unwrap();
        assert_eq!(Arc::as_ptr(mv.shared_contents()), ptr);
        assert!(!mv.contents().contains(&Tuple::from([10])));
    }
}
