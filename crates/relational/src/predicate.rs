//! Selection conditions.
//!
//! §4 of the paper works with the Rosenkrantz–Hunt class: conjunctions of
//! atomic formulae of the form `x op y`, `x op c` and `x op y + c`, where
//! `x`, `y` are variables (attributes) over discrete infinite integer
//! domains, `c` is a constant and `op ∈ {=, <, >, ≤, ≥}` (`≠` is excluded —
//! that exclusion is what makes satisfiability polynomial). Disjunctions of
//! such conjunctions (`C₁ ∨ … ∨ C_m`) are also supported (end of §4).
//!
//! This module defines the AST for those conditions and their evaluation
//! against tuples. Satisfiability lives in the `ivm-satisfiability` crate;
//! the translation from these atoms into constraint-graph formulae is done
//! by `ivm::relevance`.

use std::collections::BTreeSet;
use std::fmt;

use crate::attribute::AttrName;
use crate::error::{RelError, Result};
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;

/// Comparison operator of an atomic formula. `≠` is deliberately absent
/// (§4: "the improved efficiency arises from not allowing the operator ≠").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompOp {
    /// `=`
    Eq,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `≤`
    Le,
    /// `≥`
    Ge,
}

impl CompOp {
    /// Apply the comparison to two integers.
    pub fn eval(self, l: i64, r: i64) -> bool {
        match self {
            CompOp::Eq => l == r,
            CompOp::Lt => l < r,
            CompOp::Gt => l > r,
            CompOp::Le => l <= r,
            CompOp::Ge => l >= r,
        }
    }

    /// The operator with its operands swapped (`x < y` ⟺ `y > x`).
    pub fn flipped(self) -> CompOp {
        match self {
            CompOp::Eq => CompOp::Eq,
            CompOp::Lt => CompOp::Gt,
            CompOp::Gt => CompOp::Lt,
            CompOp::Le => CompOp::Ge,
            CompOp::Ge => CompOp::Le,
        }
    }
}

impl fmt::Display for CompOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CompOp::Eq => "=",
            CompOp::Lt => "<",
            CompOp::Gt => ">",
            CompOp::Le => "<=",
            CompOp::Ge => ">=",
        })
    }
}

/// Right-hand side of an atomic formula.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Rhs {
    /// A constant: the atom is `x op c`.
    Const(i64),
    /// A variable plus offset: the atom is `x op y + c` (`c` may be 0,
    /// giving the plain `x op y`).
    AttrPlus(AttrName, i64),
}

impl fmt::Display for Rhs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rhs::Const(c) => write!(f, "{c}"),
            Rhs::AttrPlus(a, 0) => write!(f, "{a}"),
            Rhs::AttrPlus(a, c) if *c > 0 => write!(f, "{a}+{c}"),
            Rhs::AttrPlus(a, c) => write!(f, "{a}{c}"),
        }
    }
}

/// An atomic formula `left op rhs` in the Rosenkrantz–Hunt class.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Atom {
    /// Left variable.
    pub left: AttrName,
    /// Comparison operator.
    pub op: CompOp,
    /// Right-hand side.
    pub rhs: Rhs,
}

impl Atom {
    /// `x op c`
    pub fn cmp_const(left: impl Into<AttrName>, op: CompOp, c: i64) -> Atom {
        Atom {
            left: left.into(),
            op,
            rhs: Rhs::Const(c),
        }
    }

    /// `x op y + c`
    pub fn cmp_attr(
        left: impl Into<AttrName>,
        op: CompOp,
        right: impl Into<AttrName>,
        c: i64,
    ) -> Atom {
        Atom {
            left: left.into(),
            op,
            rhs: Rhs::AttrPlus(right.into(), c),
        }
    }

    /// `x = c`
    pub fn eq_const(left: impl Into<AttrName>, c: i64) -> Atom {
        Atom::cmp_const(left, CompOp::Eq, c)
    }

    /// `x < c`
    pub fn lt_const(left: impl Into<AttrName>, c: i64) -> Atom {
        Atom::cmp_const(left, CompOp::Lt, c)
    }

    /// `x > c`
    pub fn gt_const(left: impl Into<AttrName>, c: i64) -> Atom {
        Atom::cmp_const(left, CompOp::Gt, c)
    }

    /// `x ≤ c`
    pub fn le_const(left: impl Into<AttrName>, c: i64) -> Atom {
        Atom::cmp_const(left, CompOp::Le, c)
    }

    /// `x ≥ c`
    pub fn ge_const(left: impl Into<AttrName>, c: i64) -> Atom {
        Atom::cmp_const(left, CompOp::Ge, c)
    }

    /// `x = y`
    pub fn eq_attr(left: impl Into<AttrName>, right: impl Into<AttrName>) -> Atom {
        Atom::cmp_attr(left, CompOp::Eq, right, 0)
    }

    /// The variables mentioned by this atom.
    pub fn vars(&self) -> impl Iterator<Item = &AttrName> {
        let second = match &self.rhs {
            Rhs::AttrPlus(a, _) => Some(a),
            Rhs::Const(_) => None,
        };
        std::iter::once(&self.left).chain(second)
    }

    /// Rename the variables through `f` (used when renaming apart natural
    /// joins).
    pub fn rename(&self, f: &impl Fn(&AttrName) -> AttrName) -> Atom {
        Atom {
            left: f(&self.left),
            op: self.op,
            rhs: match &self.rhs {
                Rhs::Const(c) => Rhs::Const(*c),
                Rhs::AttrPlus(a, c) => Rhs::AttrPlus(f(a), *c),
            },
        }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.left, self.op, self.rhs)
    }
}

/// A conjunction `f₁ ∧ … ∧ f_n` of atomic formulae. The empty conjunction
/// is `true`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Conjunction {
    /// The conjoined atoms.
    pub atoms: Vec<Atom>,
}

impl Conjunction {
    /// Build from atoms.
    pub fn new(atoms: impl IntoIterator<Item = Atom>) -> Self {
        Conjunction {
            atoms: atoms.into_iter().collect(),
        }
    }

    /// The always-true conjunction.
    pub fn always_true() -> Self {
        Conjunction::default()
    }

    /// The set of variables mentioned (the paper's `α(C)`).
    pub fn vars(&self) -> BTreeSet<AttrName> {
        self.atoms.iter().flat_map(Atom::vars).cloned().collect()
    }

    /// Rename all variables through `f`.
    pub fn rename(&self, f: &impl Fn(&AttrName) -> AttrName) -> Conjunction {
        Conjunction::new(self.atoms.iter().map(|a| a.rename(f)))
    }

    /// Conjunction of this and another conjunction.
    pub fn and(&self, other: &Conjunction) -> Conjunction {
        Conjunction::new(self.atoms.iter().chain(&other.atoms).cloned())
    }
}

impl fmt::Display for Conjunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.atoms.is_empty() {
            return f.write_str("true");
        }
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                f.write_str(" AND ")?;
            }
            write!(f, "({a})")?;
        }
        Ok(())
    }
}

impl From<Atom> for Conjunction {
    fn from(a: Atom) -> Self {
        Conjunction::new([a])
    }
}

/// A selection condition in disjunctive normal form,
/// `C = C₁ ∨ C₂ ∨ … ∨ C_m` (§4). The empty disjunction is `false`; use
/// [`Condition::always_true`] for the trivial condition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Condition {
    /// The disjuncts.
    pub disjuncts: Vec<Conjunction>,
}

impl Condition {
    /// A single-conjunction condition.
    pub fn conjunction(atoms: impl IntoIterator<Item = Atom>) -> Self {
        Condition {
            disjuncts: vec![Conjunction::new(atoms)],
        }
    }

    /// A DNF condition from disjuncts.
    pub fn dnf(disjuncts: impl IntoIterator<Item = Conjunction>) -> Self {
        Condition {
            disjuncts: disjuncts.into_iter().collect(),
        }
    }

    /// The always-true condition (one empty conjunction).
    pub fn always_true() -> Self {
        Condition {
            disjuncts: vec![Conjunction::always_true()],
        }
    }

    /// The always-false condition (no disjuncts).
    pub fn always_false() -> Self {
        Condition { disjuncts: vec![] }
    }

    /// The set of variables mentioned across all disjuncts.
    pub fn vars(&self) -> BTreeSet<AttrName> {
        self.disjuncts.iter().flat_map(Conjunction::vars).collect()
    }

    /// True when the condition is syntactically the constant `true`
    /// (exactly one empty conjunction) — lets evaluators skip per-tuple
    /// work.
    pub fn is_trivially_true(&self) -> bool {
        self.disjuncts.len() == 1 && self.disjuncts[0].atoms.is_empty()
    }

    /// Resolve every variable to its position in `schema` once, so a scan
    /// evaluates each tuple by position ([`BoundCondition::eval`]).
    pub fn bind(&self, schema: &Schema) -> BoundCondition<'_> {
        let disjuncts = self
            .disjuncts
            .iter()
            .map(|conj| {
                conj.atoms
                    .iter()
                    .map(|atom| BoundAtom {
                        atom,
                        left: schema.position(&atom.left),
                        right: match &atom.rhs {
                            Rhs::Const(_) => None,
                            Rhs::AttrPlus(a, _) => schema.position(a),
                        },
                    })
                    .collect()
            })
            .collect();
        BoundCondition {
            schema: schema.clone(),
            disjuncts,
        }
    }

    /// Evaluate against a tuple under a scheme (logical OR of disjuncts):
    /// [`Condition::bind`], then [`BoundCondition::eval`].
    pub fn eval(&self, schema: &Schema, tuple: &Tuple) -> Result<bool> {
        self.bind(schema).eval(tuple)
    }

    /// Rename all variables through `f`.
    pub fn rename(&self, f: &impl Fn(&AttrName) -> AttrName) -> Condition {
        Condition {
            disjuncts: self.disjuncts.iter().map(|c| c.rename(f)).collect(),
        }
    }

    /// Conjoin with another condition, distributing over the disjuncts
    /// (stays in DNF).
    pub fn and(&self, other: &Condition) -> Condition {
        let mut out = Vec::with_capacity(self.disjuncts.len() * other.disjuncts.len());
        for a in &self.disjuncts {
            for b in &other.disjuncts {
                out.push(a.and(b));
            }
        }
        Condition { disjuncts: out }
    }

    /// Disjoin with another condition.
    pub fn or(&self, other: &Condition) -> Condition {
        Condition {
            disjuncts: self
                .disjuncts
                .iter()
                .chain(&other.disjuncts)
                .cloned()
                .collect(),
        }
    }
}

impl From<Atom> for Condition {
    fn from(a: Atom) -> Self {
        Condition::conjunction([a])
    }
}

impl From<Conjunction> for Condition {
    fn from(c: Conjunction) -> Self {
        Condition { disjuncts: vec![c] }
    }
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.disjuncts.is_empty() {
            return f.write_str("false");
        }
        for (i, c) in self.disjuncts.iter().enumerate() {
            if i > 0 {
                f.write_str(" OR ")?;
            }
            if self.disjuncts.len() > 1 {
                write!(f, "[{c}]")?;
            } else {
                write!(f, "{c}")?;
            }
        }
        Ok(())
    }
}

/// A [`Condition`] bound to one scheme by [`Condition::bind`]: each
/// variable is resolved to its tuple position once, so evaluating a scan
/// costs no name lookup per tuple. Evaluation keeps the by-name
/// semantics: atoms are evaluated left to right, disjuncts short-circuit,
/// and an attribute the scheme lacks is reported (as
/// [`RelError::UnknownAttribute`]) only when an atom that mentions it is
/// evaluated.
#[derive(Debug, Clone)]
pub struct BoundCondition<'a> {
    /// The bound scheme, kept to name it in errors.
    schema: Schema,
    disjuncts: Vec<Vec<BoundAtom<'a>>>,
}

/// An atom with its variables' positions (`None`: not in the scheme).
#[derive(Debug, Clone)]
struct BoundAtom<'a> {
    atom: &'a Atom,
    left: Option<usize>,
    /// Position of the right-hand variable of an `x op y + c` atom.
    right: Option<usize>,
}

impl BoundCondition<'_> {
    /// Evaluate against a tuple of the bound scheme. Every variable an
    /// evaluated atom mentions must be an integer attribute of the scheme.
    pub fn eval(&self, tuple: &Tuple) -> Result<bool> {
        'disjuncts: for conj in &self.disjuncts {
            for bound in conj {
                if !self.eval_atom(bound, tuple)? {
                    continue 'disjuncts;
                }
            }
            return Ok(true);
        }
        Ok(false)
    }

    #[inline]
    fn eval_atom(&self, bound: &BoundAtom<'_>, tuple: &Tuple) -> Result<bool> {
        let atom = bound.atom;
        let l = self.int_at(bound.left, &atom.left, tuple)?;
        let r = match &atom.rhs {
            Rhs::Const(c) => *c,
            Rhs::AttrPlus(a, c) => self.int_at(bound.right, a, tuple)?.saturating_add(*c),
        };
        Ok(atom.op.eval(l, r))
    }

    #[inline]
    fn int_at(&self, pos: Option<usize>, attr: &AttrName, tuple: &Tuple) -> Result<i64> {
        match pos.and_then(|p| tuple.values().get(p)) {
            Some(Value::Int(i)) => Ok(*i),
            _ => Err(self.int_error(pos, attr, tuple)),
        }
    }

    /// Why `attr` has no integer value in `tuple`.
    #[cold]
    fn int_error(&self, pos: Option<usize>, attr: &AttrName, tuple: &Tuple) -> RelError {
        match pos.map(|p| tuple.values().get(p)) {
            None => RelError::UnknownAttribute {
                attr: attr.clone(),
                scheme: self.schema.to_string(),
            },
            Some(None) => RelError::ArityMismatch {
                expected: self.schema.arity(),
                got: tuple.arity(),
            },
            Some(Some(value)) => RelError::TypeError(format!(
                "attribute {attr} holds non-integer value {value}; selection conditions \
                 are defined over integer domains (§3)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(["A", "B", "C"]).unwrap()
    }

    /// The condition from Example 4.1: (A < 10) ∧ (C > 5) ∧ (B = C).
    fn example_41() -> Conjunction {
        Conjunction::new([
            Atom::lt_const("A", 10),
            Atom::gt_const("C", 5),
            Atom::eq_attr("B", "C"),
        ])
    }

    #[test]
    fn comp_op_eval() {
        assert!(CompOp::Eq.eval(3, 3));
        assert!(CompOp::Lt.eval(2, 3));
        assert!(CompOp::Gt.eval(4, 3));
        assert!(CompOp::Le.eval(3, 3));
        assert!(CompOp::Ge.eval(3, 3));
        assert!(!CompOp::Lt.eval(3, 3));
    }

    #[test]
    fn comp_op_flip() {
        assert_eq!(CompOp::Lt.flipped(), CompOp::Gt);
        assert_eq!(CompOp::Le.flipped(), CompOp::Ge);
        assert_eq!(CompOp::Eq.flipped(), CompOp::Eq);
        // x < y ⟺ y > x for all small pairs
        for l in -3..3 {
            for r in -3..3 {
                for op in [CompOp::Eq, CompOp::Lt, CompOp::Gt, CompOp::Le, CompOp::Ge] {
                    assert_eq!(op.eval(l, r), op.flipped().eval(r, l));
                }
            }
        }
    }

    /// Evaluate one atom by name (bind-then-evaluate).
    fn holds(atom: Atom, s: &Schema, t: &Tuple) -> Result<bool> {
        Condition::from(atom).eval(s, t)
    }

    #[test]
    fn atom_eval_const_and_attr() {
        let s = schema();
        let t = Tuple::from([9, 10, 10]);
        assert!(holds(Atom::lt_const("A", 10), &s, &t).unwrap());
        assert!(holds(Atom::eq_attr("B", "C"), &s, &t).unwrap());
        // 10 >= 9+1, but not 10 > 9+1.
        assert!(holds(Atom::cmp_attr("C", CompOp::Ge, "A", 1), &s, &t).unwrap());
        assert!(!holds(Atom::cmp_attr("C", CompOp::Gt, "A", 1), &s, &t).unwrap());
    }

    #[test]
    fn atom_eval_rejects_strings() {
        let s = Schema::new(["A"]).unwrap();
        let t = Tuple::new(vec![Value::str("x")]);
        assert!(matches!(
            holds(Atom::lt_const("A", 10), &s, &t).unwrap_err(),
            RelError::TypeError(_)
        ));
    }

    #[test]
    fn atom_eval_unknown_attr() {
        let t = Tuple::from([1, 2, 3]);
        assert!(holds(Atom::lt_const("Z", 10), &schema(), &t).is_err());
    }

    #[test]
    fn example_41_condition_evaluation() {
        let s = schema();
        let c = Condition::from(example_41());
        // (9, 10, 10): satisfies all three conjuncts.
        assert!(c.eval(&s, &Tuple::from([9, 10, 10])).unwrap());
        // (11, 10, 10): fails A < 10.
        assert!(!c.eval(&s, &Tuple::from([11, 10, 10])).unwrap());
        // (9, 10, 4): fails C > 5 (and B = C).
        assert!(!c.eval(&s, &Tuple::from([9, 10, 4])).unwrap());
    }

    #[test]
    fn bound_eval_equals_named_eval() {
        // Every operator, constant and attribute-plus-offset atoms, one
        // and several disjuncts, over a small grid of tuples.
        let s = schema();
        let ops = [CompOp::Eq, CompOp::Lt, CompOp::Gt, CompOp::Le, CompOp::Ge];
        let mut conds = vec![Condition::always_true(), Condition::always_false()];
        for op in ops {
            conds.push(Atom::cmp_const("B", op, 2).into());
            conds.push(Atom::cmp_attr("C", op, "A", -1).into());
            conds.push(Condition::dnf([
                Conjunction::new([Atom::cmp_const("A", op, 1), Atom::cmp_attr("B", op, "C", 0)]),
                Conjunction::new([Atom::cmp_attr("A", op.flipped(), "B", 2)]),
            ]));
        }
        for cond in &conds {
            let bound = cond.bind(&s);
            for a in 0..4 {
                for b in 0..4 {
                    for c in 0..4 {
                        let t = Tuple::from([a, b, c]);
                        let named = cond.disjuncts.iter().any(|conj| {
                            conj.atoms.iter().all(|atom| {
                                let at = |x: &AttrName| t.get(&s, x).unwrap().as_int().unwrap();
                                let r = match &atom.rhs {
                                    Rhs::Const(k) => *k,
                                    Rhs::AttrPlus(y, k) => at(y) + k,
                                };
                                atom.op.eval(at(&atom.left), r)
                            })
                        });
                        assert_eq!(bound.eval(&t).unwrap(), named, "{cond} on {t}");
                        assert_eq!(cond.eval(&s, &t).unwrap(), named, "{cond} on {t}");
                    }
                }
            }
        }
    }

    #[test]
    fn bound_attr_plus_saturates_at_i64_max() {
        let s = Schema::new(["A", "B"]).unwrap();
        // B + 10 saturates to i64::MAX rather than wrapping negative.
        let cond = Condition::from(Atom::cmp_attr("A", CompOp::Eq, "B", 10));
        let bound = cond.bind(&s);
        assert!(bound.eval(&Tuple::from([i64::MAX, i64::MAX - 3])).unwrap());
        assert!(bound.eval(&Tuple::from([i64::MAX, i64::MAX])).unwrap());
        let lt = Condition::from(Atom::cmp_attr("A", CompOp::Lt, "B", 1));
        assert!(!lt
            .bind(&s)
            .eval(&Tuple::from([i64::MAX, i64::MAX]))
            .unwrap());
    }

    #[test]
    fn bound_string_value_names_the_attribute() {
        let s = Schema::new(["A", "NAME"]).unwrap();
        let cond = Condition::from(Atom::cmp_attr("A", CompOp::Lt, "NAME", 0));
        let t = Tuple::new(vec![Value::Int(1), Value::str("x")]);
        match cond.bind(&s).eval(&t).unwrap_err() {
            RelError::TypeError(msg) => assert!(msg.contains("NAME"), "{msg}"),
            other => panic!("expected a TypeError, got {other:?}"),
        }
    }

    #[test]
    fn bound_unknown_attribute_errors_only_when_reached() {
        let s = Schema::new(["A"]).unwrap();
        // The first disjunct holds, so the one naming Z is never reached —
        // as with a by-name lookup.
        let cond = Condition::dnf([
            Conjunction::new([Atom::lt_const("A", 5)]),
            Conjunction::new([Atom::lt_const("Z", 5)]),
        ]);
        let bound = cond.bind(&s);
        assert!(bound.eval(&Tuple::from([1])).unwrap());
        assert!(matches!(
            bound.eval(&Tuple::from([9])).unwrap_err(),
            RelError::UnknownAttribute { .. }
        ));
    }

    #[test]
    fn conjunction_vars() {
        let vars = example_41().vars();
        assert_eq!(
            vars.into_iter().collect::<Vec<_>>(),
            vec!["A".into(), "B".into(), "C".into()]
        );
    }

    #[test]
    fn empty_conjunction_is_true() {
        assert!(Condition::from(Conjunction::always_true())
            .eval(&schema(), &Tuple::from([1, 2, 3]))
            .unwrap());
    }

    #[test]
    fn condition_dnf_or_semantics() {
        let c = Condition::dnf([
            Conjunction::new([Atom::lt_const("A", 0)]),
            Conjunction::new([Atom::gt_const("B", 100)]),
        ]);
        let s = schema();
        assert!(c.eval(&s, &Tuple::from([-1, 0, 0])).unwrap());
        assert!(c.eval(&s, &Tuple::from([5, 101, 0])).unwrap());
        assert!(!c.eval(&s, &Tuple::from([5, 5, 0])).unwrap());
    }

    #[test]
    fn trivially_true_detection() {
        assert!(Condition::always_true().is_trivially_true());
        assert!(!Condition::always_false().is_trivially_true());
        assert!(!Condition::from(Atom::lt_const("A", 1)).is_trivially_true());
        let two_empty = Condition::dnf([Conjunction::always_true(), Conjunction::always_true()]);
        assert!(
            !two_empty.is_trivially_true(),
            "only the canonical form counts"
        );
    }

    #[test]
    fn always_false_and_true() {
        let s = schema();
        let t = Tuple::from([1, 2, 3]);
        assert!(!Condition::always_false().eval(&s, &t).unwrap());
        assert!(Condition::always_true().eval(&s, &t).unwrap());
    }

    #[test]
    fn and_distributes_over_dnf() {
        let left = Condition::dnf([
            Conjunction::new([Atom::lt_const("A", 0)]),
            Conjunction::new([Atom::gt_const("A", 10)]),
        ]);
        let right = Condition::from(Atom::eq_attr("B", "C"));
        let both = left.and(&right);
        assert_eq!(both.disjuncts.len(), 2);
        let s = schema();
        assert!(both.eval(&s, &Tuple::from([-1, 7, 7])).unwrap());
        assert!(!both.eval(&s, &Tuple::from([-1, 7, 8])).unwrap());
        assert!(both.eval(&s, &Tuple::from([11, 7, 7])).unwrap());
    }

    #[test]
    fn rename_traverses_atoms() {
        let c = example_41().rename(&|a: &AttrName| a.qualify("R"));
        let vars: Vec<String> = c.vars().iter().map(|v| v.as_str().to_owned()).collect();
        assert_eq!(vars, vec!["R.A", "R.B", "R.C"]);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Atom::lt_const("A", 10).to_string(), "A < 10");
        assert_eq!(
            Atom::cmp_attr("A", CompOp::Le, "B", -2).to_string(),
            "A <= B-2"
        );
        assert_eq!(
            Atom::cmp_attr("A", CompOp::Ge, "B", 2).to_string(),
            "A >= B+2"
        );
        assert_eq!(Atom::eq_attr("B", "C").to_string(), "B = C");
        assert_eq!(Conjunction::always_true().to_string(), "true");
        assert_eq!(Condition::always_false().to_string(), "false");
    }
}
