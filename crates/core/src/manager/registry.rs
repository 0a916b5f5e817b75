//! Registration: checking, materializing and indexing new views, and the
//! view dependency DAG they form.

use ivm_obs::names;
use ivm_relational::attribute::AttrName;
use ivm_relational::error::RelError;

use super::maintain::add_scaled;
use super::*;

impl ViewManager {
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
        self.register(name.into(), vec![(1, expr)], None, policy)
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

    /// Compile a tree view into its signed terms. `view_schema` resolves
    /// a leaf that is not a base relation.
    pub(crate) fn compile_tree(
        &self,
        expr: &Expr,
        view_schema: impl Fn(&str) -> Option<Schema>,
    ) -> Result<Vec<(i64, SpjExpr)>> {
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
        Ok(terms)
    }

    /// Build a new view's terms from its signed SPJ terms, each with its
    /// §4 relevance filters: one per distinct base operand. A filter reads
    /// only the term and its operands' schemes, so it is built once, here,
    /// and never on a write. Registration and checkpoint recovery both
    /// build every view's terms through this one constructor.
    pub(crate) fn build_terms(&self, defs: Vec<(i64, SpjExpr)>) -> Result<Vec<Term>> {
        defs.into_iter()
            .map(|(coef, expr)| {
                if expr.relations.is_empty() {
                    return Err(IvmError::UnsupportedView(
                        "an SPJ view needs at least one operand relation".into(),
                    ));
                }
                let mut filters: Vec<RelevanceFilter> = Vec::new();
                for op in &expr.relations {
                    if self.db.contains_relation(op) && !filters.iter().any(|f| f.relation() == op)
                    {
                        let f = RelevanceFilter::new_observed(&expr, &self.db, op, &self.recorder)?;
                        filters.push(f);
                    }
                }
                Ok(Term {
                    coef,
                    expr,
                    filters,
                })
            })
            .collect()
    }

    /// Check, materialize and index a new view, log its registration,
    /// and add it to the DAG. All fallible work happens before the WAL
    /// record so a failed registration leaves no trace.
    fn register(
        &mut self,
        name: String,
        defs: Vec<(i64, SpjExpr)>,
        tree: Option<Expr>,
        policy: RefreshPolicy,
    ) -> Result<()> {
        if self.views.contains_key(&name) {
            return Err(IvmError::DuplicateView(name));
        }
        if self.db.contains_relation(&name) {
            return Err(IvmError::UnsupportedView(format!(
                "view name {name} collides with a base relation"
            )));
        }
        let terms = self.build_terms(defs)?;
        for term in &terms {
            self.check_operands(&name, &term.expr)?;
        }
        let contents = self.eval_terms(&terms, Self::eval_current)?;
        let mut built = 0;
        for term in &terms {
            built += self.derive_indexes_for(&term.expr)?;
        }
        if built > 0 {
            self.recorder.add(names::INDEX_BUILDS, built as u64);
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
        let schemas: Vec<&Schema> = self
            .operand_contents(expr)?
            .into_iter()
            .map(Relation::schema)
            .collect();
        expr.validate_with(&schemas)?;
        Ok(())
    }

    /// Ensure the join-key indexes of `expr`'s *base* operands, derived
    /// from its equijoin structure (views are not indexed: their deltas
    /// arrive pre-joined from upstream maintenance). For every base
    /// operand `X` the candidate keys are
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
    ///
    /// [`Database::ensure_index`]: ivm_relational::database::Database::ensure_index
    pub(crate) fn derive_indexes_for(&mut self, expr: &SpjExpr) -> Result<usize> {
        let schemas: Vec<Schema> = self
            .operand_contents(expr)?
            .into_iter()
            .map(|r| r.schema().clone())
            .collect();
        let mut built = 0;
        for (i, (op, own)) in expr.relations.iter().zip(&schemas).enumerate() {
            if !self.db.contains_relation(op) {
                continue;
            }
            let others: Vec<&Schema> = schemas
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, s)| s)
                .collect();
            let mut keys: Vec<Vec<AttrName>> = others.iter().map(|o| own.intersection(o)).collect();
            keys.push(
                own.attrs()
                    .iter()
                    .filter(|a| others.iter().any(|o| o.position(a).is_some()))
                    .cloned()
                    .collect(),
            );
            for key in keys.iter().filter(|k| !k.is_empty()) {
                if self.db.ensure_index(op, key)? {
                    built += 1;
                }
            }
        }
        Ok(built)
    }

    /// The current contents of each operand of `expr`, base relation or
    /// registered view, in operand order.
    pub(super) fn operand_contents(&self, expr: &SpjExpr) -> Result<Vec<&Relation>> {
        expr.relations
            .iter()
            .map(|op| match self.views.get(op) {
                Some(mv) => Ok(&*mv.contents),
                None => Ok(self.db.relation(op)?),
            })
            .collect()
    }

    /// Evaluate a term against current operand state (base relations and
    /// materialized upstream views).
    pub(super) fn eval_current(&self, expr: &SpjExpr) -> Result<Relation> {
        Ok(expr.eval_with(&self.operand_contents(expr)?)?)
    }

    /// `Σ c·eval(term)` with each term evaluated by `eval`. A single
    /// `+1` term is its own value; a sum whose counter goes negative — an
    /// ill-formed difference — fails with `NegativeCount`.
    pub(super) fn eval_terms(
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

    /// Recompute every node's `depends_on` and `stratum`, and the
    /// manager's strata and reverse edges, from the terms. Called after
    /// every registration and after recovery restores the registry.
    pub(crate) fn rebuild_dag(&mut self) {
        let names: Vec<String> = self.views.keys().cloned().collect();
        for name in &names {
            let mut ups: Vec<String> = Vec::new();
            for op in self.views[name].operands() {
                if self.views.contains_key(op) && !ups.contains(op) {
                    ups.push(op.clone());
                }
            }
            let mv = self.views.get_mut(name).expect("view exists");
            (mv.depends_on, mv.stratum) = (ups, 0);
        }
        // stratum(v) = 0 if base-only, else 1 + max(stratum(upstream)).
        // The registry is acyclic by construction, so the fixpoint
        // terminates; the pass cap is a belt-and-braces guard.
        for _ in 0..=names.len() {
            let mut changed = false;
            for name in &names {
                let ups = &self.views[name].depends_on;
                let want = ups
                    .iter()
                    .map(|u| self.views[u].stratum + 1)
                    .max()
                    .unwrap_or(0);
                let mv = self.views.get_mut(name).expect("view exists");
                changed |= mv.stratum != want;
                mv.stratum = want;
            }
            if !changed {
                break;
            }
        }
        self.strata.clear();
        self.dependents.clear();
        for (name, mv) in &self.views {
            if self.strata.len() <= mv.stratum {
                self.strata.resize(mv.stratum + 1, Vec::new());
            }
            self.strata[mv.stratum].push(name.clone());
            for up in &mv.depends_on {
                self.dependents
                    .entry(up.clone())
                    .or_default()
                    .push(name.clone());
            }
        }
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
}
