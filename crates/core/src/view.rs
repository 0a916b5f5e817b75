//! View definitions and materializations (§3).
//!
//! "A view definition V corresponds to a relational algebra expression on
//! the database scheme. A view materialization v is a stored relation
//! resulting from the evaluation of this relational algebra expression
//! against an instance of the database." Views here are SPJ expressions in
//! the normal form `π_X(σ_C(R₁ ⋈ … ⋈ R_p))`; per §5.2 every materialized
//! tuple carries a multiplicity counter.

use std::fmt;
use std::sync::Arc;

use ivm_relational::database::Database;
use ivm_relational::delta::DeltaRelation;
use ivm_relational::expr::SpjExpr;
use ivm_relational::relation::Relation;
use ivm_relational::schema::Schema;

use crate::error::{IvmError, Result};

/// A named SPJ view definition.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewDefinition {
    name: String,
    expr: SpjExpr,
}

impl ViewDefinition {
    /// Create a named view from an SPJ expression.
    pub fn new(name: impl Into<String>, expr: SpjExpr) -> Result<Self> {
        if expr.relations.is_empty() {
            return Err(IvmError::UnsupportedView(
                "an SPJ view needs at least one operand relation".into(),
            ));
        }
        Ok(ViewDefinition {
            name: name.into(),
            expr,
        })
    }

    /// The view's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The defining expression.
    pub fn expr(&self) -> &SpjExpr {
        &self.expr
    }

    /// Check the definition against a database (relations exist, condition
    /// and projection attributes resolve).
    pub fn validate(&self, db: &Database) -> Result<()> {
        self.expr.validate(db)?;
        Ok(())
    }

    /// The view's scheme.
    pub fn schema(&self, db: &Database) -> Result<Schema> {
        Ok(self.expr.output_schema(db)?)
    }
}

impl fmt::Display for ViewDefinition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} := {}", self.name, self.expr)
    }
}

/// A stored view materialization: the definition plus the counted relation
/// it currently holds.
///
/// The contents live behind an `Arc` so readers share them instead of
/// copying: [`MaterializedView::shared_contents`] hands out the pointer,
/// and maintenance writes through [`Arc::make_mut`]. A write copies the
/// relation only while some reader (a published snapshot, a `query`
/// result) still holds the previous version; an empty delta never writes.
#[derive(Debug, Clone)]
pub struct MaterializedView {
    def: ViewDefinition,
    data: Arc<Relation>,
}

impl MaterializedView {
    /// Materialize a view by full evaluation against the database.
    pub fn materialize(def: ViewDefinition, db: &Database) -> Result<Self> {
        def.validate(db)?;
        let data = Arc::new(def.expr().eval(db)?);
        Ok(MaterializedView { def, data })
    }

    /// Materialize a view by full evaluation over explicit positional
    /// operands — the registration path for stacked views, whose operands
    /// are other views' materializations rather than base relations.
    pub fn materialize_with(def: ViewDefinition, operands: &[&Relation]) -> Result<Self> {
        let schemas: Vec<&Schema> = operands.iter().map(|r| r.schema()).collect();
        def.expr().validate_with(&schemas)?;
        let data = Arc::new(def.expr().eval_with(operands)?);
        Ok(MaterializedView { def, data })
    }

    /// Reinstall a view from persisted state **without re-evaluating it**:
    /// `data` is trusted to be the materialization the definition had when
    /// it was checkpointed. This is the recovery path — re-evaluating here
    /// would defeat differential replay.
    pub fn from_saved(def: ViewDefinition, data: Relation) -> Self {
        MaterializedView {
            def,
            data: Arc::new(data),
        }
    }

    /// The definition.
    pub fn definition(&self) -> &ViewDefinition {
        &self.def
    }

    /// The current contents.
    pub fn contents(&self) -> &Relation {
        &self.data
    }

    /// The current contents as a shared pointer: cloning it is O(1), and
    /// the relation it points to never changes under the holder.
    pub fn shared_contents(&self) -> &Arc<Relation> {
        &self.data
    }

    /// Apply a maintenance delta (the "transaction to update the view" that
    /// Algorithm 5.1 outputs). Copies the relation first only if another
    /// holder shares it; an empty delta leaves it, and its pointer, alone.
    pub fn apply(&mut self, delta: &DeltaRelation) -> Result<()> {
        if delta.is_empty() {
            return Ok(());
        }
        Arc::make_mut(&mut self.data).apply_delta(delta)?;
        Ok(())
    }

    /// Replace the contents wholesale (full re-evaluation refresh).
    pub fn replace(&mut self, data: Relation) {
        self.data = Arc::new(data);
    }

    /// True when the stored contents equal a full re-evaluation against
    /// `db` — the consistency invariant every maintenance path must
    /// preserve.
    pub fn consistent_with(&self, db: &Database) -> Result<bool> {
        Ok(self.def.expr().eval(db)? == *self.data)
    }
}

impl fmt::Display for MaterializedView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.def)?;
        write!(f, "{}", self.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivm_relational::predicate::Atom;
    use ivm_relational::tuple::Tuple;

    fn db() -> Database {
        let mut db = Database::new();
        db.create("R", Schema::new(["A", "B"]).unwrap()).unwrap();
        db.create("S", Schema::new(["B", "C"]).unwrap()).unwrap();
        db.load("R", [[1, 10], [2, 20]]).unwrap();
        db.load("S", [[10, 7], [20, 3]]).unwrap();
        db
    }

    fn def() -> ViewDefinition {
        ViewDefinition::new(
            "v",
            SpjExpr::new(
                ["R", "S"],
                Atom::lt_const("A", 10).into(),
                Some(vec!["A".into()]),
            ),
        )
        .unwrap()
    }

    #[test]
    fn empty_view_rejected() {
        let e = SpjExpr::new(Vec::<String>::new(), Atom::lt_const("A", 1).into(), None);
        assert!(matches!(
            ViewDefinition::new("v", e).unwrap_err(),
            IvmError::UnsupportedView(_)
        ));
    }

    #[test]
    fn materialize_and_consistency() {
        let d = db();
        let mv = MaterializedView::materialize(def(), &d).unwrap();
        assert_eq!(mv.contents().total_count(), 2);
        assert!(mv.consistent_with(&d).unwrap());
    }

    #[test]
    fn apply_delta_maintains() {
        let mut d = db();
        let mut mv = MaterializedView::materialize(def(), &d).unwrap();
        // Remove (2,20) from R by hand and apply the matching view delta.
        let mut txn = ivm_relational::transaction::Transaction::new();
        txn.delete("R", [2, 20]).unwrap();
        d.apply(&txn).unwrap();
        let mut delta = DeltaRelation::empty(mv.contents().schema().clone());
        delta.add(Tuple::from([2]), -1);
        mv.apply(&delta).unwrap();
        assert!(mv.consistent_with(&d).unwrap());
    }

    #[test]
    fn apply_shares_rows_with_the_delta_and_the_pinned_copy() {
        let d = db();
        let mut mv = MaterializedView::materialize(def(), &d).unwrap();
        // A pinned reader forces the copy-on-write path in `apply`.
        let pinned = Arc::clone(mv.shared_contents());
        let mut delta = DeltaRelation::empty(mv.contents().schema().clone());
        delta.add(Tuple::from([5]), 1);
        mv.apply(&delta).unwrap();
        assert!(!Arc::ptr_eq(&pinned, mv.shared_contents()), "copied");
        let ptr_in = |rel: &Relation, row: &Tuple| {
            let (t, _) = rel.iter().find(|(t, _)| *t == row).unwrap();
            t.values().as_ptr()
        };
        let (added, _) = delta.iter().next().unwrap();
        assert_eq!(ptr_in(mv.contents(), added), added.values().as_ptr());
        // The copy duplicated table slots, not rows: old rows are shared.
        for (t, _) in pinned.iter() {
            assert_eq!(ptr_in(mv.contents(), t), t.values().as_ptr());
        }
    }

    #[test]
    fn schema_of_view() {
        let d = db();
        assert_eq!(def().schema(&d).unwrap(), Schema::new(["A"]).unwrap());
    }

    #[test]
    fn validate_catches_bad_refs() {
        let d = db();
        let bad = ViewDefinition::new(
            "v",
            SpjExpr::new(["R", "Z"], Atom::lt_const("A", 10).into(), None),
        )
        .unwrap();
        assert!(bad.validate(&d).is_err());
    }

    #[test]
    fn display() {
        let s = def().to_string();
        assert!(s.starts_with("v :="));
    }
}
