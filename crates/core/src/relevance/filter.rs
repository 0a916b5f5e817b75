//! The relevance filter — Algorithm 4.1.
//!
//! Input: the view's selection condition `C` (DNF), the scheme `R` of the
//! updated relation, and the set of inserted/deleted tuples `T_in`. Output:
//! the subset `T_out ⊆ T_in` of tuples *relevant* to the view. By Theorem
//! 4.1 a tuple is irrelevant — on **every** database instance — iff the
//! substituted condition `C(t, Y₂)` is unsatisfiable; for a DNF condition,
//! iff every substituted disjunct is unsatisfiable.
//!
//! Construction cost is paid once per (view, relation) pair: each
//! disjunct's invariant subexpression becomes a prebuilt
//! [`InvariantGraph`] (one O(n³) Floyd–Warshall pass). Each tuple then
//! costs O(k²) in the number of variant atoms (see
//! `ivm_satisfiability::incremental`).
//!
//! ```
//! use ivm::prelude::*;
//!
//! let mut db = Database::new();
//! db.create("R", Schema::new(["A", "B"]).unwrap()).unwrap();
//! db.create("S", Schema::new(["C", "D"]).unwrap()).unwrap();
//! // Example 4.1's view condition.
//! let view = SpjExpr::new(
//!     ["R", "S"],
//!     Condition::conjunction([
//!         Atom::lt_const("A", 10),
//!         Atom::gt_const("C", 5),
//!         Atom::eq_attr("B", "C"),
//!     ]),
//!     Some(vec!["A".into(), "D".into()]),
//! );
//! let filter = RelevanceFilter::new(&view, &db, "R").unwrap();
//! assert!(filter.is_relevant(&Tuple::from([9, 10])).unwrap());
//! assert!(!filter.is_relevant(&Tuple::from([11, 10])).unwrap());
//! ```

use ivm_obs::Obs;
use ivm_parallel::Pool;
use ivm_relational::database::Database;
use ivm_relational::expr::SpjExpr;
use ivm_relational::schema::Schema;
use ivm_relational::tuple::Tuple;
use ivm_satisfiability::atom::Atom as SatAtom;
use ivm_satisfiability::conjunctive::ConjunctiveFormula;
use ivm_satisfiability::incremental::InvariantGraph;

use crate::error::{IvmError, Result};
use crate::relevance::classify::{split_conjunction, to_sat_atom, VarMap};

/// Statistics from one filtering pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FilterStats {
    /// Tuples examined.
    pub checked: usize,
    /// Tuples found relevant (kept).
    pub relevant: usize,
    /// Tuples proved irrelevant (dropped).
    pub irrelevant: usize,
}

impl std::ops::AddAssign for FilterStats {
    fn add_assign(&mut self, o: FilterStats) {
        self.checked += o.checked;
        self.relevant += o.relevant;
        self.irrelevant += o.irrelevant;
    }
}

/// One disjunct's precomputed state.
#[derive(Debug, Clone)]
struct DisjunctFilter {
    /// Prebuilt graph + APSP over the invariant subexpression.
    invariant: InvariantGraph,
    /// Variant atom templates (to be substituted per tuple).
    variant: Vec<SatAtom>,
}

/// A prepared relevance filter for updates to one relation of one view.
#[derive(Debug, Clone)]
pub struct RelevanceFilter {
    view_name: String,
    relation: String,
    updated_schema: Schema,
    varmap: VarMap,
    /// `(tuple position, satisfiability variable)` pairs for `Y₁ = R ∩ Y`.
    bindings: Vec<(usize, usize)>,
    disjuncts: Vec<DisjunctFilter>,
}

impl RelevanceFilter {
    /// [`RelevanceFilter::new`] with metrics: counts the construction
    /// (`filter.graphs_built`) and times it (`filter.apsp_build_micros`,
    /// dominated by the per-disjunct Floyd–Warshall APSP pass) through
    /// `obs`. With the disabled handle this is exactly
    /// [`RelevanceFilter::new`] — no clock is read.
    pub fn new_observed(view: &SpjExpr, db: &Database, relation: &str, obs: &Obs) -> Result<Self> {
        if !obs.enabled() {
            return Self::new(view, db, relation);
        }
        let started = std::time::Instant::now();
        let filter = Self::new(view, db, relation)?;
        obs.add(ivm_obs::names::FILTER_GRAPHS_BUILT, 1);
        obs.observe(
            ivm_obs::names::FILTER_APSP_BUILD_MICROS,
            started.elapsed().as_micros().min(u64::MAX as u128) as u64,
        );
        Ok(filter)
    }

    /// Prepare a filter for updates to `relation` against `view`
    /// (Algorithm 4.1 steps 1–3).
    pub fn new(view: &SpjExpr, db: &Database, relation: &str) -> Result<Self> {
        if view.position_of(relation).is_none() {
            return Err(IvmError::RelationNotInView {
                relation: relation.to_owned(),
                view: view.to_string(),
            });
        }
        let updated_schema = db.schema(relation)?.clone();
        let varmap = VarMap::from_condition(&view.condition);
        let bindings: Vec<(usize, usize)> = updated_schema
            .attrs()
            .iter()
            .enumerate()
            .filter_map(|(pos, attr)| varmap.get(attr).map(|var| (pos, var)))
            .collect();
        let mut disjuncts = Vec::with_capacity(view.condition.disjuncts.len());
        for conj in &view.condition.disjuncts {
            let (inv_atoms, var_atoms) = split_conjunction(conj, &updated_schema);
            let invariant = ConjunctiveFormula::with_atoms(
                varmap.len(),
                inv_atoms.iter().map(|a| to_sat_atom(a, &varmap)),
            )?;
            let variant = var_atoms.iter().map(|a| to_sat_atom(a, &varmap)).collect();
            disjuncts.push(DisjunctFilter {
                invariant: InvariantGraph::new(invariant)?,
                variant,
            });
        }
        Ok(RelevanceFilter {
            view_name: view.to_string(),
            relation: relation.to_owned(),
            updated_schema,
            varmap,
            bindings,
            disjuncts,
        })
    }

    /// The relation this filter is for.
    pub fn relation(&self) -> &str {
        &self.relation
    }

    /// The view expression this filter was built from (rendered).
    pub fn view_name(&self) -> &str {
        &self.view_name
    }

    /// Number of condition variables (`|Y|`).
    pub fn num_vars(&self) -> usize {
        self.varmap.len()
    }

    /// The substituted variant atoms `C_VEVAL ∧ C_VNEVAL` of one disjunct
    /// for one tuple.
    fn substituted_variant(&self, d: &DisjunctFilter, values: &[(usize, i64)]) -> Vec<SatAtom> {
        d.variant
            .iter()
            .map(|a| {
                values
                    .iter()
                    .fold(*a, |acc, &(var, v)| acc.substitute(var, v))
            })
            .collect()
    }

    /// Extract the `Y₁` substitution values from a tuple.
    fn tuple_bindings(&self, tuple: &Tuple) -> Result<Vec<(usize, i64)>> {
        tuple.check_arity(&self.updated_schema)?;
        self.bindings
            .iter()
            .map(|&(pos, var)| {
                tuple.at(pos).as_int().map(|v| (var, v)).ok_or_else(|| {
                    IvmError::Relational(ivm_relational::error::RelError::TypeError(format!(
                        "attribute {} of {} holds a non-integer value; relevance \
                         analysis needs integer condition attributes",
                        self.updated_schema.attrs()[pos],
                        self.relation
                    )))
                })
            })
            .collect()
    }

    /// Theorem 4.1 decision for one inserted or deleted tuple: `true` iff
    /// the update may affect the view in some database state.
    pub fn is_relevant(&self, tuple: &Tuple) -> Result<bool> {
        let values = self.tuple_bindings(tuple)?;
        for d in &self.disjuncts {
            let variant = self.substituted_variant(d, &values);
            if d.invariant.check_variant(&variant) {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Algorithm 4.1: filter an update set down to the relevant tuples
    /// (`T_out`).
    pub fn filter<'a>(
        &self,
        tuples: impl IntoIterator<Item = &'a Tuple>,
    ) -> Result<(Vec<Tuple>, FilterStats)> {
        self.filter_with(tuples, 1, &Obs::disabled())
    }

    /// [`RelevanceFilter::filter`] fanned out over up to `threads`
    /// workers. The Theorem 4.1 decision is independent per tuple and the
    /// prebuilt APSP matrix is shared read-only, so tuples are checked in
    /// parallel chunks once the batch clears the pool's grain
    /// ([`Pool::for_work`]); the kept set, its order, and the stats are
    /// identical at every width. `1` runs on the calling thread, `0` uses
    /// up to one worker per core; `obs` times the chunks of a fan-out.
    pub fn filter_with<'a>(
        &self,
        tuples: impl IntoIterator<Item = &'a Tuple>,
        threads: usize,
        obs: &Obs,
    ) -> Result<(Vec<Tuple>, FilterStats)> {
        let tuples: Vec<&Tuple> = tuples.into_iter().collect();
        let pool = Pool::for_work(threads, tuples.len());
        let flags: Vec<bool> = if pool.is_sequential() {
            let mut flags = Vec::with_capacity(tuples.len());
            for t in &tuples {
                flags.push(self.is_relevant(t)?);
            }
            flags
        } else {
            pool.try_map_observed(&tuples, |t| self.is_relevant(t), obs)?
        };
        let mut stats = FilterStats::default();
        let mut out = Vec::new();
        for (t, keep) in tuples.iter().zip(flags) {
            stats.checked += 1;
            if keep {
                stats.relevant += 1;
                out.push((*t).clone());
            } else {
                stats.irrelevant += 1;
            }
        }
        Ok((out, stats))
    }

    /// Reference decision via a full per-tuple Bellman–Ford solve (the
    /// invariant graph is rebuilt but the cheap sparse algorithm is used) —
    /// the moderate baseline raced against the prepared filter in the
    /// `relevance_filter` bench.
    pub fn is_relevant_naive(&self, tuple: &Tuple) -> Result<bool> {
        let values = self.tuple_bindings(tuple)?;
        for d in &self.disjuncts {
            let variant = self.substituted_variant(d, &values);
            if d.invariant.check_full(&variant) {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// The paper-literal per-tuple cost: substitute, rebuild the whole
    /// constraint graph, and run Floyd's O(n³) algorithm from scratch —
    /// what Algorithm 4.1 avoids by precomputing the invariant portion.
    pub fn is_relevant_floyd_from_scratch(&self, tuple: &Tuple) -> Result<bool> {
        use ivm_satisfiability::conjunctive::Solver;
        let values = self.tuple_bindings(tuple)?;
        for d in &self.disjuncts {
            let variant = self.substituted_variant(d, &values);
            let mut formula = d.invariant.invariant_formula().clone();
            for atom in variant {
                formula.push(atom)?;
            }
            if formula.is_satisfiable(Solver::FloydWarshall) {
                return Ok(true);
            }
        }
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivm_relational::predicate::{Atom, Condition, Conjunction};

    /// Example 4.1's database: R(A,B), S(C,D),
    /// view u = π_{A,D}(σ_{(A<10)∧(C>5)∧(B=C)}(R × S)).
    fn setup() -> (Database, SpjExpr) {
        let mut db = Database::new();
        db.create("R", Schema::new(["A", "B"]).unwrap()).unwrap();
        db.create("S", Schema::new(["C", "D"]).unwrap()).unwrap();
        db.load("R", [[1, 2], [5, 10], [10, 20]]).unwrap();
        db.load("S", [[10, 5], [20, 12]]).unwrap();
        let view = SpjExpr::new(
            ["R", "S"],
            Condition::conjunction([
                Atom::lt_const("A", 10),
                Atom::gt_const("C", 5),
                Atom::eq_attr("B", "C"),
            ]),
            Some(vec!["A".into(), "D".into()]),
        );
        (db, view)
    }

    #[test]
    fn example_41_verbatim() {
        let (db, view) = setup();
        let f = RelevanceFilter::new(&view, &db, "R").unwrap();
        // Inserting (9, 10): C(9,10,C) satisfiable ⇒ relevant.
        assert!(f.is_relevant(&Tuple::from([9, 10])).unwrap());
        // Inserting (11, 10): (11 < 10) false ⇒ provably irrelevant.
        assert!(!f.is_relevant(&Tuple::from([11, 10])).unwrap());
    }

    #[test]
    fn irrelevant_via_cross_attribute_conflict() {
        let (db, view) = setup();
        let f = RelevanceFilter::new(&view, &db, "R").unwrap();
        // (5, 3): A<10 fine, but B=C forces C=3, contradicting C>5.
        assert!(!f.is_relevant(&Tuple::from([5, 3])).unwrap());
        // (5, 6): C=6 > 5 — fine.
        assert!(f.is_relevant(&Tuple::from([5, 6])).unwrap());
    }

    #[test]
    fn filter_batch_and_stats() {
        let (db, view) = setup();
        let f = RelevanceFilter::new(&view, &db, "R").unwrap();
        let tuples = [
            Tuple::from([9, 10]),  // relevant
            Tuple::from([11, 10]), // irrelevant (A)
            Tuple::from([5, 3]),   // irrelevant (B=C vs C>5)
            Tuple::from([0, 100]), // relevant
        ];
        let (out, stats) = f.filter(tuples.iter()).unwrap();
        assert_eq!(out, vec![Tuple::from([9, 10]), Tuple::from([0, 100])]);
        assert_eq!(
            stats,
            FilterStats {
                checked: 4,
                relevant: 2,
                irrelevant: 2
            }
        );
    }

    #[test]
    fn parallel_filter_matches_sequential() {
        let (db, view) = setup();
        let f = RelevanceFilter::new(&view, &db, "R").unwrap();
        let tuples: Vec<Tuple> = (0..200).map(|i| Tuple::from([i % 23, i % 17])).collect();
        let seq = f.filter_with(tuples.iter(), 1, &Obs::disabled()).unwrap();
        for threads in [2, 3, 8] {
            let par = f
                .filter_with(tuples.iter(), threads, &Obs::disabled())
                .unwrap();
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    /// `filter_with` at `threads`, with the chunks its fan-out dispatched.
    fn observed_filter(
        f: &RelevanceFilter,
        tuples: &[Tuple],
        threads: usize,
    ) -> (Result<(Vec<Tuple>, FilterStats)>, u64) {
        let rec = std::sync::Arc::new(ivm_obs::InMemoryRecorder::new());
        let out = f.filter_with(tuples.iter(), threads, &Obs::new(rec.clone()));
        (out, rec.counter(ivm_obs::names::POOL_CHUNKS))
    }

    #[test]
    fn batches_above_the_grain_fan_out() {
        let (db, view) = setup();
        let f = RelevanceFilter::new(&view, &db, "R").unwrap();
        let big: Vec<Tuple> = (0..5000).map(|i| Tuple::from([i % 23, i % 17])).collect();
        let (seq, seq_chunks) = observed_filter(&f, &big, 1);
        let seq = seq.unwrap();
        assert_eq!(seq_chunks, 0);
        assert!(seq.1.relevant > 0 && seq.1.irrelevant > 0);
        for threads in [2, 3, 8] {
            let (par, chunks) = observed_filter(&f, &big, threads);
            assert_eq!(par.unwrap(), seq, "threads={threads}");
            // 5,000 tuples are four grains: up to four workers.
            assert_eq!(chunks, threads.min(4) as u64, "threads={threads}");
        }
        // The 200-tuple batch above stays on the caller at every width.
        let small: Vec<Tuple> = big[..200].to_vec();
        let (_, chunks) = observed_filter(&f, &small, 8);
        assert_eq!(chunks, 0);
    }

    #[test]
    fn first_error_survives_a_fan_out() {
        use ivm_relational::value::Value;
        let mut db = Database::new();
        db.create("R", Schema::new(["A"]).unwrap()).unwrap();
        let view = SpjExpr::new(["R"], Atom::lt_const("A", 10).into(), None);
        let f = RelevanceFilter::new(&view, &db, "R").unwrap();
        // Two different failures in different chunks: an arity error
        // early, a type error late. Input order says the arity error.
        let mut tuples: Vec<Tuple> = (0..5000).map(|i| Tuple::from([i])).collect();
        tuples[3100] = Tuple::new(vec![Value::str("late")]);
        tuples[1700] = Tuple::from([1, 2]);
        let (seq, _) = observed_filter(&f, &tuples, 1);
        let seq_err = seq.unwrap_err().to_string();
        assert!(!seq_err.contains("non-integer"), "{seq_err}");
        for threads in [2, 8] {
            let (par, chunks) = observed_filter(&f, &tuples, threads);
            assert_eq!(par.unwrap_err().to_string(), seq_err, "threads={threads}");
            assert!(chunks > 1, "threads={threads}");
        }
    }

    #[test]
    fn parallel_filter_surfaces_first_error_in_order() {
        use ivm_relational::value::Value;
        let mut db = Database::new();
        db.create("R", Schema::new(["A"]).unwrap()).unwrap();
        let view = SpjExpr::new(["R"], Atom::lt_const("A", 10).into(), None);
        let f = RelevanceFilter::new(&view, &db, "R").unwrap();
        let mut tuples: Vec<Tuple> = (0..100).map(|i| Tuple::from([i])).collect();
        tuples[33] = Tuple::new(vec![Value::str("bad")]);
        let seq_err = f
            .filter_with(tuples.iter(), 1, &Obs::disabled())
            .unwrap_err()
            .to_string();
        for threads in [2, 8] {
            let par_err = f
                .filter_with(tuples.iter(), threads, &Obs::disabled())
                .unwrap_err()
                .to_string();
            assert_eq!(par_err, seq_err, "threads={threads}");
        }
    }

    #[test]
    fn filter_for_other_operand() {
        let (db, view) = setup();
        let f = RelevanceFilter::new(&view, &db, "S").unwrap();
        // Inserting (6, 1) into S: C=6>5, B=C satisfiable with B=6, A<10 free.
        assert!(f.is_relevant(&Tuple::from([6, 1])).unwrap());
        // Inserting (5, 1): C>5 fails.
        assert!(!f.is_relevant(&Tuple::from([5, 1])).unwrap());
    }

    #[test]
    fn relation_not_in_view() {
        let (mut db, view) = setup();
        db.create("T", Schema::new(["E"]).unwrap()).unwrap();
        assert!(matches!(
            RelevanceFilter::new(&view, &db, "T").unwrap_err(),
            IvmError::RelationNotInView { .. }
        ));
    }

    #[test]
    fn condition_not_mentioning_relation_keeps_everything() {
        let mut db = Database::new();
        db.create("R", Schema::new(["A"]).unwrap()).unwrap();
        db.create("S", Schema::new(["B"]).unwrap()).unwrap();
        let view = SpjExpr::new(["R", "S"], Atom::gt_const("B", 0).into(), None);
        let f = RelevanceFilter::new(&view, &db, "R").unwrap();
        // No atom mentions A: every R-update is (potentially) relevant.
        assert!(f.is_relevant(&Tuple::from([123])).unwrap());
    }

    #[test]
    fn unsatisfiable_condition_drops_everything() {
        let mut db = Database::new();
        db.create("R", Schema::new(["A"]).unwrap()).unwrap();
        db.create("S", Schema::new(["B"]).unwrap()).unwrap();
        let view = SpjExpr::new(
            ["R", "S"],
            Condition::conjunction([Atom::gt_const("B", 0), Atom::lt_const("B", 0)]),
            None,
        );
        let f = RelevanceFilter::new(&view, &db, "R").unwrap();
        assert!(!f.is_relevant(&Tuple::from([1])).unwrap());
    }

    #[test]
    fn dnf_relevant_if_any_disjunct_satisfiable() {
        let mut db = Database::new();
        db.create("R", Schema::new(["A"]).unwrap()).unwrap();
        let view = SpjExpr::new(
            ["R"],
            Condition::dnf([
                Conjunction::new([Atom::lt_const("A", 0)]),
                Conjunction::new([Atom::gt_const("A", 10)]),
            ]),
            None,
        );
        let f = RelevanceFilter::new(&view, &db, "R").unwrap();
        assert!(f.is_relevant(&Tuple::from([-1])).unwrap());
        assert!(f.is_relevant(&Tuple::from([11])).unwrap());
        assert!(!f.is_relevant(&Tuple::from([5])).unwrap());
    }

    #[test]
    fn naive_agrees_with_prepared() {
        let (db, view) = setup();
        let f = RelevanceFilter::new(&view, &db, "R").unwrap();
        for a in 0..15 {
            for b in 0..15 {
                let t = Tuple::from([a, b]);
                let fast = f.is_relevant(&t).unwrap();
                assert_eq!(fast, f.is_relevant_naive(&t).unwrap(), "({a},{b})");
                assert_eq!(
                    fast,
                    f.is_relevant_floyd_from_scratch(&t).unwrap(),
                    "FW ({a},{b})"
                );
            }
        }
    }

    #[test]
    fn string_payloads_outside_condition_are_fine() {
        use ivm_relational::value::Value;
        let mut db = Database::new();
        db.create("R", Schema::new(["A", "NAME"]).unwrap()).unwrap();
        let view = SpjExpr::new(["R"], Atom::lt_const("A", 10).into(), None);
        let f = RelevanceFilter::new(&view, &db, "R").unwrap();
        let t = Tuple::new(vec![Value::Int(5), Value::str("widget")]);
        assert!(f.is_relevant(&t).unwrap());
        // …but a string in a condition attribute is a type error.
        let t = Tuple::new(vec![Value::str("oops"), Value::Int(5)]);
        assert!(f.is_relevant(&t).is_err());
    }
}
