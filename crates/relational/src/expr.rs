//! SPJ expressions.
//!
//! The paper considers views defined by *SPJ expressions* — combinations of
//! selections, projections and joins (§3) — and its algorithms work on the
//! normal form `π_X(σ_C(R₁ ⋈ R₂ ⋈ … ⋈ R_p))` (§4 uses × of
//! disjoint-scheme relations, §5.3 uses ⋈; with nominal attribute identity
//! ⋈ degenerates to × exactly when the schemes are disjoint, so
//! [`SpjExpr`] covers both).
//!
//! [`push_selections`] decomposes a normal-form condition over the
//! operands: it is the one selection pushdown, used both by full
//! evaluation ([`SpjExpr::eval_with`] filters each operand before it
//! joins) and by the differential engine in the `ivm` crate.
//!
//! A general expression tree [`Expr`] is also provided for ad-hoc queries
//! and as the literal, unoptimized evaluator. [`Expr::signed_terms`]
//! compiles a σ/π/⋈/∪/− tree into a signed sum of [`SpjExpr`] terms:
//! over counted multisets ∪ is `+` and − is `−`, σ and π are linear and ⋈
//! is bilinear, so every such tree is `Σ cᵢ·termᵢ`, and a view maintains
//! it by maintaining each term.

use std::borrow::Cow;
use std::fmt;

use crate::algebra;
use crate::attribute::AttrName;
use crate::database::Database;
use crate::error::{RelError, Result};
use crate::predicate::{Condition, Conjunction};
use crate::relation::Relation;
use crate::schema::Schema;

/// A view definition in the paper's normal form
/// `π_X(σ_C(R₁ ⋈ … ⋈ R_p))`.
#[derive(Debug, Clone, PartialEq)]
pub struct SpjExpr {
    /// Names of the base relations `R₁ … R_p`, in join order.
    pub relations: Vec<String>,
    /// The selection condition `C(Y)` in DNF.
    pub condition: Condition,
    /// The projection list `X`; `None` projects every attribute.
    pub projection: Option<Vec<AttrName>>,
}

impl SpjExpr {
    /// Build an SPJ expression.
    pub fn new<R: Into<String>>(
        relations: impl IntoIterator<Item = R>,
        condition: Condition,
        projection: Option<Vec<AttrName>>,
    ) -> Self {
        SpjExpr {
            relations: relations.into_iter().map(Into::into).collect(),
            condition,
            projection,
        }
    }

    /// Number of operand relations (`p`).
    pub fn arity(&self) -> usize {
        self.relations.len()
    }

    /// Position of a base relation in the operand list.
    pub fn position_of(&self, relation: &str) -> Option<usize> {
        self.relations.iter().position(|r| r == relation)
    }

    /// Scheme of the join `R₁ ⋈ … ⋈ R_p` before projection.
    pub fn join_schema(&self, db: &Database) -> Result<Schema> {
        let mut schemas = Vec::with_capacity(self.relations.len());
        for name in &self.relations {
            schemas.push(db.relation(name)?.schema().clone());
        }
        let refs: Vec<&Schema> = schemas.iter().collect();
        self.join_schema_with(&refs)
    }

    /// [`SpjExpr::join_schema`] over explicit positional operand schemes —
    /// the operands need not live in a [`Database`] (view-over-view
    /// operands resolve to other views' output schemes).
    pub fn join_schema_with(&self, schemas: &[&Schema]) -> Result<Schema> {
        assert_eq!(
            schemas.len(),
            self.relations.len(),
            "operand count mismatch"
        );
        let mut schema: Option<Schema> = None;
        for s in schemas {
            schema = Some(match schema {
                None => (*s).clone(),
                Some(acc) => acc.join(s),
            });
        }
        schema.ok_or_else(|| RelError::UnknownRelation("<empty SPJ expression>".into()))
    }

    /// Scheme of the view this expression defines.
    pub fn output_schema(&self, db: &Database) -> Result<Schema> {
        let joined = self.join_schema(db)?;
        self.project_schema(joined)
    }

    /// [`SpjExpr::output_schema`] over explicit positional operand schemes.
    pub fn output_schema_with(&self, schemas: &[&Schema]) -> Result<Schema> {
        let joined = self.join_schema_with(schemas)?;
        self.project_schema(joined)
    }

    fn project_schema(&self, joined: Schema) -> Result<Schema> {
        match &self.projection {
            None => Ok(joined),
            Some(attrs) => joined.project(attrs.iter()),
        }
    }

    /// Check the expression is well formed against a database: relations
    /// exist, condition variables and projection attributes are in the
    /// joined scheme.
    pub fn validate(&self, db: &Database) -> Result<()> {
        let joined = self.join_schema(db)?;
        self.validate_against(&joined)
    }

    /// [`SpjExpr::validate`] over explicit positional operand schemes:
    /// condition variables and projection attributes must resolve in the
    /// joined scheme.
    pub fn validate_with(&self, schemas: &[&Schema]) -> Result<()> {
        let joined = self.join_schema_with(schemas)?;
        self.validate_against(&joined)
    }

    fn validate_against(&self, joined: &Schema) -> Result<()> {
        for v in self.condition.vars() {
            joined.require(&v)?;
        }
        if let Some(attrs) = &self.projection {
            for a in attrs {
                joined.require(a)?;
            }
        }
        Ok(())
    }

    /// Full evaluation against the database (the paper's "complete
    /// re-evaluation" baseline).
    pub fn eval(&self, db: &Database) -> Result<Relation> {
        let inputs: Vec<&Relation> = self
            .relations
            .iter()
            .map(|n| db.relation(n))
            .collect::<Result<_>>()?;
        self.eval_with(&inputs)
    }

    /// Evaluate with explicit positional operands (base relations or
    /// upstream views' contents).
    ///
    /// Selections are applied before the joins: [`push_selections`]
    /// decomposes the condition, each operand is filtered by its pushed
    /// conjunction while it is scanned (an operand with nothing pushed is
    /// borrowed as is), the filtered operands are joined in definition
    /// order, and the residual condition and the projection finish the
    /// result. The result equals the literal `π_X(σ_C(R₁ ⋈ … ⋈ R_p))`,
    /// with one difference in failures: a pushed atom also sees operand
    /// tuples that join with nothing, so a non-integer value there raises
    /// [`RelError::TypeError`] where the literal tree would not look at
    /// it. An atom naming an attribute of no operand stays in the
    /// residual and fails only if some joined row reaches it.
    pub fn eval_with(&self, inputs: &[&Relation]) -> Result<Relation> {
        assert_eq!(inputs.len(), self.relations.len(), "operand count mismatch");
        let schemas: Vec<&Schema> = inputs.iter().map(|r| r.schema()).collect();
        let pushdown = push_selections(&self.condition, &schemas);
        let mut filtered = inputs.iter().zip(&pushdown.per_operand).map(|(rel, cond)| {
            if cond.is_trivially_true() {
                Ok(Cow::Borrowed(*rel))
            } else {
                algebra::select(rel, cond).map(Cow::Owned)
            }
        });
        let mut acc = filtered
            .next()
            .ok_or_else(|| RelError::UnknownRelation("<empty SPJ expression>".into()))??;
        for rel in filtered {
            acc = Cow::Owned(algebra::natural_join(&acc, &*rel?)?);
        }
        // A result still borrowing its operand goes through `select`,
        // which copies the tuples into a fresh relation without the
        // operand's indexes.
        let selected = match acc {
            Cow::Owned(rel) if pushdown.residual.is_trivially_true() => rel,
            acc => algebra::select(&acc, &pushdown.residual)?,
        };
        match &self.projection {
            None => Ok(selected),
            Some(attrs) => algebra::project(&selected, attrs),
        }
    }
}

/// A condition decomposed for selection pushdown by [`push_selections`].
#[derive(Debug, Clone)]
pub struct Pushdown {
    /// Per-operand condition to apply before joining
    /// ([`Condition::always_true`] when nothing pushes).
    pub per_operand: Vec<Condition>,
    /// The residual condition evaluated on joined rows.
    pub residual: Condition,
}

/// Decompose `condition` over the operand schemes.
///
/// For a single-conjunction condition, every atom whose variables all fall
/// within one operand's scheme is pushed onto that operand and removed from
/// the residual. An atom is pushed to *every* operand that can evaluate it
/// — for natural-join views a bound on a shared attribute prunes both
/// sides. A multi-disjunct DNF is returned unchanged as the residual
/// (pushing per-disjunct atoms independently would be unsound).
pub fn push_selections(condition: &Condition, schemas: &[&Schema]) -> Pushdown {
    if condition.disjuncts.len() != 1 {
        return Pushdown {
            per_operand: vec![Condition::always_true(); schemas.len()],
            residual: condition.clone(),
        };
    }
    let conj = &condition.disjuncts[0];
    let mut pushed: Vec<Vec<_>> = vec![Vec::new(); schemas.len()];
    let mut residual = Vec::new();
    for atom in &conj.atoms {
        let mut placed = false;
        for (i, schema) in schemas.iter().enumerate() {
            if atom.vars().all(|v| schema.contains(v)) {
                pushed[i].push(atom.clone());
                placed = true;
            }
        }
        if !placed {
            residual.push(atom.clone());
        }
    }
    Pushdown {
        per_operand: pushed
            .into_iter()
            .map(|atoms| {
                if atoms.is_empty() {
                    Condition::always_true()
                } else {
                    Condition::from(Conjunction::new(atoms))
                }
            })
            .collect(),
        residual: Condition::from(Conjunction::new(residual)),
    }
}

impl fmt::Display for SpjExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(attrs) = &self.projection {
            write!(f, "π[")?;
            for (i, a) in attrs.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{a}")?;
            }
            write!(f, "](")?;
        }
        write!(f, "σ[{}](", self.condition)?;
        for (i, r) in self.relations.iter().enumerate() {
            if i > 0 {
                write!(f, " ⋈ ")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, ")")?;
        if self.projection.is_some() {
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// A general relational-algebra expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A named base relation.
    Base(String),
    /// σ_C(input)
    Select {
        /// Operand.
        input: Box<Expr>,
        /// Selection condition.
        cond: Condition,
    },
    /// π_X(input)
    Project {
        /// Operand.
        input: Box<Expr>,
        /// Projection attributes.
        attrs: Vec<AttrName>,
    },
    /// Natural join of two subexpressions.
    Join(Box<Expr>, Box<Expr>),
    /// Union (schemes must match).
    Union(Box<Expr>, Box<Expr>),
    /// Difference (schemes must match; counters subtract).
    Difference(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// A base-relation leaf.
    pub fn base(name: impl Into<String>) -> Expr {
        Expr::Base(name.into())
    }

    /// Wrap in a selection.
    pub fn select(self, cond: impl Into<Condition>) -> Expr {
        Expr::Select {
            input: Box::new(self),
            cond: cond.into(),
        }
    }

    /// Wrap in a projection.
    pub fn project<A: Into<AttrName>>(self, attrs: impl IntoIterator<Item = A>) -> Expr {
        Expr::Project {
            input: Box::new(self),
            attrs: attrs.into_iter().map(Into::into).collect(),
        }
    }

    /// Natural join with another expression.
    pub fn join(self, other: Expr) -> Expr {
        Expr::Join(Box::new(self), Box::new(other))
    }

    /// Union with another expression.
    pub fn union(self, other: Expr) -> Expr {
        Expr::Union(Box::new(self), Box::new(other))
    }

    /// Difference with another expression.
    pub fn difference(self, other: Expr) -> Expr {
        Expr::Difference(Box::new(self), Box::new(other))
    }

    /// Evaluate against a database.
    pub fn eval(&self, db: &Database) -> Result<Relation> {
        match self {
            Expr::Base(n) => Ok(db.relation(n)?.clone()),
            Expr::Select { input, cond } => algebra::select(&input.eval(db)?, cond),
            Expr::Project { input, attrs } => algebra::project(&input.eval(db)?, attrs),
            Expr::Join(l, r) => algebra::natural_join(&l.eval(db)?, &r.eval(db)?),
            Expr::Union(l, r) => algebra::union(&l.eval(db)?, &r.eval(db)?),
            Expr::Difference(l, r) => algebra::difference(&l.eval(db)?, &r.eval(db)?),
        }
    }

    /// Compile the tree into a signed sum of SPJ terms, `Σ cᵢ·termᵢ`,
    /// equal to [`Expr::eval`] wherever that evaluates. `scheme_of`
    /// resolves a leaf name to its scheme.
    ///
    /// σ and π distribute over ∪ and −, and ⋈ distributes bilinearly.
    /// Nested projections compose, σ lifts above π, and π lifts above ⋈
    /// when none of the attributes it drops is in the other side's join
    /// scheme. Equal terms merge their coefficients and zero terms drop,
    /// so `(t ∪ s) − s` compiles to exactly `t`; a tree whose terms all
    /// cancel compiles to none. A π under a ⋈ that drops an attribute of
    /// the other side, as in `π_A(R(A,B)) ⋈ S(B,C)`, has no SPJ form:
    /// it fails with [`RelError::ProjectionUnderJoin`] naming the
    /// attribute.
    ///
    /// Every term's output scheme is the tree's, in the same order.
    pub fn signed_terms(
        &self,
        scheme_of: &impl Fn(&str) -> Result<Schema>,
    ) -> Result<Vec<(i64, SpjExpr)>> {
        let (_, terms) = self.compile(scheme_of)?;
        Ok(terms
            .into_iter()
            .map(|t| {
                let projection = (t.out.as_slice() != t.join.attrs()).then_some(t.out);
                (t.coef, SpjExpr::new(t.relations, t.condition, projection))
            })
            .collect())
    }

    fn compile(&self, scheme_of: &impl Fn(&str) -> Result<Schema>) -> Result<(Schema, Vec<Term>)> {
        Ok(match self {
            Expr::Base(name) => {
                let schema = scheme_of(name)?;
                let term = Term {
                    coef: 1,
                    relations: vec![name.clone()],
                    condition: Condition::always_true(),
                    out: schema.attrs().to_vec(),
                    join: schema.clone(),
                };
                (schema, vec![term])
            }
            Expr::Select { input, cond } => {
                let (schema, mut terms) = input.compile(scheme_of)?;
                for v in cond.vars() {
                    schema.require(&v)?;
                }
                for t in &mut terms {
                    t.condition = t.condition.and(cond);
                }
                (schema, terms)
            }
            Expr::Project { input, attrs } => {
                let (schema, mut terms) = input.compile(scheme_of)?;
                let schema = schema.project(attrs)?;
                for t in &mut terms {
                    t.out = attrs.clone();
                }
                (schema, terms)
            }
            Expr::Join(l, r) => {
                let (ls, lt) = l.compile(scheme_of)?;
                let (rs, rt) = r.compile(scheme_of)?;
                let schema = ls.join(&rs);
                let mut terms = Vec::with_capacity(lt.len() * rt.len());
                for a in &lt {
                    for b in &rt {
                        a.check_lifts_over(b)?;
                        b.check_lifts_over(a)?;
                        let mut relations = a.relations.clone();
                        relations.extend(b.relations.iter().cloned());
                        push_merged(
                            &mut terms,
                            Term {
                                coef: checked_coef(a.coef.checked_mul(b.coef))?,
                                relations,
                                condition: a.condition.and(&b.condition),
                                out: schema.attrs().to_vec(),
                                join: a.join.join(&b.join),
                            },
                        )?;
                    }
                }
                (schema, terms)
            }
            Expr::Union(l, r) | Expr::Difference(l, r) => {
                let (schema, mut terms) = l.compile(scheme_of)?;
                let (rs, rt) = r.compile(scheme_of)?;
                schema.require_same(&rs)?;
                let sign = if matches!(self, Expr::Union(..)) {
                    1
                } else {
                    -1
                };
                for mut t in rt {
                    t.coef = checked_coef(t.coef.checked_mul(sign))?;
                    push_merged(&mut terms, t)?;
                }
                (schema, terms)
            }
        })
    }
}

/// One signed SPJ term under compilation: `coef · π_out(σ_condition(⋈
/// relations))`, with `join` the scheme of `⋈ relations`.
struct Term {
    coef: i64,
    relations: Vec<String>,
    condition: Condition,
    out: Vec<AttrName>,
    join: Schema,
}

impl Term {
    /// This term's projection may lift above a join with `other` only if
    /// none of the attributes it drops is in `other`'s join scheme:
    /// lifting would otherwise join on it.
    fn check_lifts_over(&self, other: &Term) -> Result<()> {
        match self
            .join
            .attrs()
            .iter()
            .find(|a| !self.out.contains(a) && other.join.contains(a))
        {
            Some(a) => Err(RelError::ProjectionUnderJoin(a.clone())),
            None => Ok(()),
        }
    }
}

/// Add `term` to `terms`, merging it into an equal term (same relations,
/// condition and output); a merged coefficient of zero drops the term.
fn push_merged(terms: &mut Vec<Term>, term: Term) -> Result<()> {
    let equal = terms.iter().position(|t| {
        t.relations == term.relations && t.condition == term.condition && t.out == term.out
    });
    match equal {
        Some(i) => {
            terms[i].coef = checked_coef(terms[i].coef.checked_add(term.coef))?;
            if terms[i].coef == 0 {
                terms.remove(i);
            }
        }
        None => terms.push(term),
    }
    Ok(())
}

/// A term coefficient, or `CounterOverflow` past `i64`.
fn checked_coef(coef: Option<i64>) -> Result<i64> {
    coef.ok_or_else(|| RelError::CounterOverflow("a term coefficient exceeds i64".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Atom;
    use crate::tuple::Tuple;

    fn db() -> Database {
        let mut db = Database::new();
        db.create("R", Schema::new(["A", "B"]).unwrap()).unwrap();
        db.create("S", Schema::new(["B", "C"]).unwrap()).unwrap();
        db.load("R", [[1, 10], [2, 20], [11, 10]]).unwrap();
        db.load("S", [[10, 6], [20, 3]]).unwrap();
        db
    }

    fn spj() -> SpjExpr {
        // π_{A,C}( σ_{A<10}( R ⋈ S ) )
        SpjExpr::new(
            ["R", "S"],
            Atom::lt_const("A", 10).into(),
            Some(vec!["A".into(), "C".into()]),
        )
    }

    #[test]
    fn spj_eval_joins_selects_projects() {
        let v = spj().eval(&db()).unwrap();
        assert!(v.contains(&Tuple::from([1, 6])));
        assert!(v.contains(&Tuple::from([2, 3])));
        assert!(!v.contains(&Tuple::from([11, 6])), "A<10 filtered");
        assert_eq!(v.total_count(), 2);
    }

    fn s(attrs: &[&str]) -> Schema {
        Schema::new(attrs.iter().copied()).unwrap()
    }

    #[test]
    fn pushdown_splits_by_scheme() {
        let r = s(&["A", "B"]);
        let t = s(&["B", "C"]);
        let cond = Condition::conjunction([
            Atom::lt_const("A", 10), // → R only
            Atom::gt_const("B", 0),  // → both (shared)
            Atom::eq_attr("A", "C"), // residual (spans)
        ]);
        let p = push_selections(&cond, &[&r, &t]);
        assert_eq!(p.per_operand[0].disjuncts[0].atoms.len(), 2); // A<10, B>0
        assert_eq!(p.per_operand[1].disjuncts[0].atoms.len(), 1); // B>0
        assert_eq!(p.residual.disjuncts[0].atoms.len(), 1); // A=C
    }

    #[test]
    fn pushdown_skips_multi_disjunct_dnf() {
        let r = s(&["A"]);
        let cond = Condition::dnf([
            Conjunction::new([Atom::lt_const("A", 0)]),
            Conjunction::new([Atom::gt_const("A", 10)]),
        ]);
        let p = push_selections(&cond, &[&r]);
        assert_eq!(p.residual, cond);
        assert_eq!(p.per_operand[0], Condition::always_true());
    }

    #[test]
    fn pushdown_of_trivial_condition() {
        let r = s(&["A"]);
        let p = push_selections(&Condition::always_true(), &[&r]);
        assert!(p.residual.disjuncts[0].atoms.is_empty());
    }

    #[test]
    fn eval_with_result_carries_no_operand_index() {
        // σ_true(R) with no projection is a copy of R's tuples, not of R:
        // the operand's join index stays behind.
        let mut d = db();
        d.ensure_index("R", &["B".into()]).unwrap();
        let all = SpjExpr::new(["R"], Condition::always_true(), None);
        let v = all.eval(&d).unwrap();
        assert_eq!(v, *d.relation("R").unwrap());
        assert_eq!(d.relation("R").unwrap().index_count(), 1);
        assert_eq!(v.index_count(), 0);
    }

    #[test]
    fn spj_schema_and_validation() {
        let d = db();
        let e = spj();
        assert_eq!(
            e.output_schema(&d).unwrap(),
            Schema::new(["A", "C"]).unwrap()
        );
        e.validate(&d).unwrap();
        let bad = SpjExpr::new(["R", "S"], Atom::lt_const("Z", 1).into(), None);
        assert!(bad.validate(&d).is_err());
    }

    #[test]
    fn spj_display() {
        let s = spj().to_string();
        assert!(s.contains("π[A, C]"), "{s}");
        assert!(s.contains("R ⋈ S"), "{s}");
    }

    #[test]
    fn expr_tree_eval_matches_spj() {
        let d = db();
        let tree = Expr::base("R")
            .join(Expr::base("S"))
            .select(Atom::lt_const("A", 10))
            .project(["A", "C"]);
        assert_eq!(tree.eval(&d).unwrap(), spj().eval(&d).unwrap());
    }

    fn schemes(d: &Database) -> impl Fn(&str) -> Result<Schema> + '_ {
        move |name: &str| Ok(d.relation(name)?.schema().clone())
    }

    /// `Σ c·eval(term)`, the compiled tree's value, over `schema`.
    fn eval_terms(d: &Database, schema: &Schema, terms: &[(i64, SpjExpr)]) -> Relation {
        let mut sum = crate::delta::DeltaRelation::empty(schema.clone());
        for (c, term) in terms {
            for (t, n) in term.eval(d).unwrap().iter() {
                sum.add(t.clone(), c * n as i64);
            }
        }
        let mut out = Relation::empty(schema.clone());
        out.apply_delta(&sum).unwrap();
        out
    }

    fn db_rst() -> Database {
        let mut d = db();
        d.create("T", Schema::new(["A", "B"]).unwrap()).unwrap();
        d.load("T", [[1, 10], [7, 20]]).unwrap();
        d
    }

    #[test]
    fn signed_terms_of_a_pure_spj_tree() {
        let tree = Expr::base("R")
            .select(Atom::gt_const("B", 0))
            .join(Expr::base("S"))
            .select(Atom::lt_const("A", 10))
            .project(["A", "C"]);
        let d = db();
        let terms = tree.signed_terms(&schemes(&d)).unwrap();
        assert_eq!(terms.len(), 1);
        let (c, n) = &terms[0];
        assert_eq!(*c, 1);
        assert_eq!(n.relations, vec!["R".to_string(), "S".to_string()]);
        assert_eq!(n.projection, Some(vec!["A".into(), "C".into()]));
        // Both selections got conjoined.
        assert_eq!(n.condition.disjuncts.len(), 1);
        assert_eq!(n.condition.disjuncts[0].atoms.len(), 2);
        assert_eq!(n.eval(&d).unwrap(), tree.eval(&d).unwrap());
    }

    #[test]
    fn projections_compose_and_selections_lift_above_them() {
        let d = db();
        // σ_{A<10}(π_A(π_{A,B}(R))): one term, condition over the join,
        // one projection.
        let tree = Expr::base("R")
            .project(["A", "B"])
            .project(["A"])
            .select(Atom::lt_const("A", 10));
        let terms = tree.signed_terms(&schemes(&d)).unwrap();
        assert_eq!(terms.len(), 1);
        assert_eq!(terms[0].1.projection, Some(vec!["A".into()]));
        assert_eq!(terms[0].1.condition.disjuncts[0].atoms.len(), 1);
        assert_eq!(terms[0].1.eval(&d).unwrap(), tree.eval(&d).unwrap());
        // A projection onto every attribute in join order is no projection.
        let terms = Expr::base("R")
            .project(["A", "B"])
            .signed_terms(&schemes(&d))
            .unwrap();
        assert_eq!(terms[0].1.projection, None);
    }

    #[test]
    fn selection_and_projection_distribute_over_union_and_difference() {
        let d = db_rst();
        let tree = Expr::base("R")
            .union(Expr::base("T"))
            .difference(Expr::base("T").select(Atom::lt_const("A", 5)))
            .select(Atom::gt_const("B", 0))
            .project(["B"]);
        let schema = Schema::new(["B"]).unwrap();
        let terms = tree.signed_terms(&schemes(&d)).unwrap();
        let coefs: Vec<i64> = terms.iter().map(|(c, _)| *c).collect();
        assert_eq!(coefs, [1, 1, -1]);
        for (_, t) in &terms {
            assert_eq!(t.projection, Some(vec!["B".into()]));
        }
        assert_eq!(eval_terms(&d, &schema, &terms), tree.eval(&d).unwrap());
    }

    #[test]
    fn join_distributes_bilinearly() {
        let d = db_rst();
        // (R ∪ T) ⋈ (S − σ_{C<5}(S)) = R⋈S − R⋈σS + T⋈S − T⋈σS.
        let s = Expr::base("S");
        let tree = Expr::base("R")
            .union(Expr::base("T"))
            .join(s.clone().difference(s.select(Atom::lt_const("C", 5))));
        let schema = Schema::new(["A", "B", "C"]).unwrap();
        let terms = tree.signed_terms(&schemes(&d)).unwrap();
        let coefs: Vec<i64> = terms.iter().map(|(c, _)| *c).collect();
        assert_eq!(coefs, [1, -1, 1, -1]);
        assert_eq!(terms[3].1.relations, vec!["T".to_string(), "S".to_string()]);
        assert_eq!(eval_terms(&d, &schema, &terms), tree.eval(&d).unwrap());
        // A projection lifts above a join when what it drops is not in
        // the other side: π_B(R) ⋈ S drops A, which S lacks.
        let lifted = Expr::base("R").project(["B"]).join(Expr::base("S"));
        let terms = lifted.signed_terms(&schemes(&d)).unwrap();
        assert_eq!(terms.len(), 1);
        assert_eq!(terms[0].1.projection, Some(vec!["B".into(), "C".into()]));
        let schema = Schema::new(["B", "C"]).unwrap();
        assert_eq!(eval_terms(&d, &schema, &terms), lifted.eval(&d).unwrap());
    }

    #[test]
    fn equal_terms_merge_and_cancel() {
        let d = db_rst();
        let terms = Expr::base("R")
            .union(Expr::base("R"))
            .signed_terms(&schemes(&d))
            .unwrap();
        assert_eq!(terms.len(), 1);
        assert_eq!(terms[0].0, 2);
        // (t ∪ s) − s compiles to exactly t.
        let t = Expr::base("R").select(Atom::lt_const("A", 5));
        let s = Expr::base("T");
        let terms = t
            .clone()
            .union(s.clone())
            .difference(s)
            .signed_terms(&schemes(&d))
            .unwrap();
        assert_eq!(terms, t.signed_terms(&schemes(&d)).unwrap());
        // A tree whose terms all cancel has none.
        let terms = Expr::base("R")
            .difference(Expr::base("R"))
            .signed_terms(&schemes(&d))
            .unwrap();
        assert!(terms.is_empty());
    }

    #[test]
    fn coefficient_overflow_is_refused() {
        // (R ∪ R) ⋈ … ⋈ (R ∪ R), 62 factors: the one term's coefficient
        // is 2⁶²; a 63rd factor passes i64::MAX.
        let d = db();
        let twice = Expr::base("R").union(Expr::base("R"));
        let mut tree = twice.clone();
        for _ in 1..62 {
            tree = tree.join(twice.clone());
        }
        let terms = tree.signed_terms(&schemes(&d)).unwrap();
        assert_eq!(terms[0].0, 1 << 62);
        assert!(matches!(
            tree.join(twice).signed_terms(&schemes(&d)),
            Err(RelError::CounterOverflow(_))
        ));
    }

    #[test]
    fn projection_under_join_that_drops_a_join_attribute_is_rejected() {
        let d = db();
        // π_A(R(A,B)) ⋈ S(B,C): lifting π_A would join on B.
        let tree = Expr::base("R").project(["A"]).join(Expr::base("S"));
        assert_eq!(
            tree.signed_terms(&schemes(&d)).unwrap_err(),
            RelError::ProjectionUnderJoin("B".into())
        );
        // Either side: S ⋈ π_A(R) as well.
        let tree = Expr::base("S").join(Expr::base("R").project(["A"]));
        assert!(matches!(
            tree.signed_terms(&schemes(&d)),
            Err(RelError::ProjectionUnderJoin(_))
        ));
        // Unknown leaves and mismatched union schemes fail as eval does.
        assert!(Expr::base("Z").signed_terms(&schemes(&d)).is_err());
        assert!(matches!(
            Expr::base("R")
                .union(Expr::base("S"))
                .signed_terms(&schemes(&d)),
            Err(RelError::SchemeMismatch { .. })
        ));
    }

    #[test]
    fn union_difference_eval() {
        let mut d = Database::new();
        d.create("X", Schema::new(["A"]).unwrap()).unwrap();
        d.create("Y", Schema::new(["A"]).unwrap()).unwrap();
        d.load("X", [[1], [2]]).unwrap();
        d.load("Y", [[2]]).unwrap();
        let u = Expr::base("X").union(Expr::base("Y")).eval(&d).unwrap();
        assert_eq!(u.count(&Tuple::from([2])), 2);
        let m = Expr::base("X")
            .difference(Expr::base("Y"))
            .eval(&d)
            .unwrap();
        assert_eq!(m.count(&Tuple::from([2])), 0);
        assert_eq!(m.count(&Tuple::from([1])), 1);
    }
}
