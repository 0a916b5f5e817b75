//! Frontend B: definition-time view analysis.
//!
//! The paper's §4 relevance test is a static analysis — it decides,
//! independent of database state, that an update cannot affect a view.
//! This module applies the same machinery to the view *definition* at
//! registration time:
//!
//! * **`unsat-view`** — the condition is statically unsatisfiable
//!   (negative cycle in every disjunct's RH constraint digraph): the
//!   materialization is empty forever, for every database instance.
//!   Individual dead disjuncts of an otherwise-live DNF are reported too.
//! * **`always-irrelevant`** — a `(view, relation)` pair where the
//!   relation's *local* predicates (the variant-evaluable class of
//!   Definition 4.2) are contradictory in every disjunct: Algorithm 4.1
//!   rejects **every** update tuple at the substitution step. This is the
//!   degenerate case of Theorem 4.2 — maintenance for this pair is
//!   provably a no-op, so the view should not subscribe to the relation.
//! * **`redundant-atom`** — an atom implied by the transitive closure
//!   (all-pairs shortest paths) of the digraph built from the *other*
//!   atoms of its disjunct: deleting it leaves the view's contents
//!   identical on every instance, and the maintenance engine faster.
//!
//! A second, structural analysis works on definition *sets* rather than
//! single conditions: [`analyze_dag`] checks that a set of view
//! definitions (which may reference each other as operands) forms a
//! dependency DAG — reporting **`view-cycle`** findings for definition
//! cycles, unresolved operands, and the topological strata a maintainer
//! would use (see `docs/PIPELINES.md`).
//!
//! Results surface as a [`ViewAnalysisReport`] / [`DagAnalysis`] (the
//! `MaintenanceReport`s of this crate) and through the shell's
//! `\analyze` command.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use ivm::relevance::classify::{to_sat_atom, VarMap};
use ivm::relevance::{classify_atom, FormulaClass};
use ivm_relational::database::Database;
use ivm_relational::expr::SpjExpr;
use ivm_relational::predicate::{Atom as RelAtom, Conjunction};
use ivm_satisfiability::conjunctive::{ConjunctiveFormula, Solver};
use ivm_satisfiability::constraint::{normalize_atom, Normalized};
use ivm_satisfiability::floyd::floyd_warshall;
use ivm_satisfiability::graph::ConstraintGraph;

use crate::diag::{Finding, Report, RuleId};

/// One redundant atom: implied by the rest of its disjunct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RedundantAtom {
    /// Which disjunct of the DNF condition (0-based).
    pub disjunct: usize,
    /// Display form of the implied atom.
    pub atom: String,
}

/// The definition-time analysis verdict for one view — the static
/// analogue of the manager's `MaintenanceReport`.
#[derive(Debug, Clone, Default)]
pub struct ViewAnalysisReport {
    /// View name.
    pub view: String,
    /// Number of disjuncts in the DNF condition.
    pub disjuncts: usize,
    /// True when at least one disjunct is satisfiable.
    pub satisfiable: bool,
    /// 0-based indices of unsatisfiable (dead) disjuncts.
    pub dead_disjuncts: Vec<usize>,
    /// Relations whose every update is provably irrelevant.
    pub always_irrelevant: Vec<String>,
    /// Atoms implied by the transitive closure of their disjunct.
    pub redundant: Vec<RedundantAtom>,
}

impl ViewAnalysisReport {
    /// True when the analysis found nothing to complain about.
    pub fn is_clean(&self) -> bool {
        self.satisfiable
            && self.dead_disjuncts.is_empty()
            && self.always_irrelevant.is_empty()
            && self.redundant.is_empty()
    }

    /// Lower into the shared diagnostic model (the `view:<name>`
    /// pseudo-file), so both frontends report through one engine.
    pub fn to_report(&self) -> Report {
        let mut report = Report {
            scanned: 1,
            ..Report::default()
        };
        let mut push = |rule: RuleId, message: String| {
            report.findings.push(Finding {
                rule,
                file: format!("view:{}", self.view),
                line: 0,
                col: 0,
                message,
            });
        };
        if !self.satisfiable {
            push(
                RuleId::UnsatView,
                "condition is statically unsatisfiable: the view is empty for every database instance".into(),
            );
        } else {
            for &d in &self.dead_disjuncts {
                push(
                    RuleId::UnsatView,
                    format!(
                        "disjunct #{d} is unsatisfiable (dead); it can never contribute tuples"
                    ),
                );
            }
        }
        for rel in &self.always_irrelevant {
            push(
                RuleId::AlwaysIrrelevant,
                format!(
                    "every update to `{rel}` is provably irrelevant: its local predicates are contradictory in every disjunct (degenerate Theorem 4.2)"
                ),
            );
        }
        for r in &self.redundant {
            push(
                RuleId::RedundantAtom,
                format!(
                    "atom `{}` in disjunct #{} is implied by the transitive closure of the remaining atoms",
                    r.atom, r.disjunct
                ),
            );
        }
        report
    }
}

impl fmt::Display for ViewAnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "view {}: {} disjunct(s), {}",
            self.view,
            self.disjuncts,
            if self.satisfiable {
                "satisfiable"
            } else {
                "UNSATISFIABLE (empty forever)"
            }
        )?;
        for &d in &self.dead_disjuncts {
            if self.satisfiable {
                writeln!(f, "  dead disjunct #{d}: unsatisfiable, never contributes")?;
            }
        }
        for rel in &self.always_irrelevant {
            writeln!(
                f,
                "  always-irrelevant: every update to `{rel}` provably cannot affect this view"
            )?;
        }
        for r in &self.redundant {
            writeln!(
                f,
                "  redundant: atom `{}` (disjunct #{}) is implied by the others",
                r.atom, r.disjunct
            )?;
        }
        if self.is_clean() {
            writeln!(f, "  clean: no definition-time findings")?;
        }
        Ok(())
    }
}

/// Translate one disjunct into a satisfiability formula under the
/// condition-wide variable map.
fn to_formula(conj: &Conjunction, vars: &VarMap) -> ConjunctiveFormula {
    let mut f = ConjunctiveFormula::new(vars.len());
    for atom in &conj.atoms {
        // The map is built from the same condition, so pushing cannot
        // reference an out-of-range variable.
        if f.push(to_sat_atom(atom, vars)).is_err() {
            debug_assert!(false, "VarMap missed a condition variable");
        }
    }
    f
}

/// Are this disjunct's `relation`-local atoms (variant evaluable w.r.t.
/// the relation's scheme) contradictory on their own?
fn local_atoms_unsat(
    conj: &Conjunction,
    schema: &ivm_relational::schema::Schema,
    vars: &VarMap,
) -> bool {
    let local: Vec<&RelAtom> = conj
        .atoms
        .iter()
        .filter(|a| classify_atom(a, schema) == FormulaClass::VariantEvaluable)
        .collect();
    if local.is_empty() {
        return false;
    }
    let mut f = ConjunctiveFormula::new(vars.len());
    for atom in local {
        if f.push(to_sat_atom(atom, vars)).is_err() {
            return false;
        }
    }
    !f.is_satisfiable(Solver::FloydWarshall)
}

/// Find atoms implied by the rest of their (satisfiable) disjunct, via
/// the all-pairs shortest-path closure of the remaining atoms' digraph.
fn redundant_atoms(conj: &Conjunction, vars: &VarMap, disjunct: usize) -> Vec<RedundantAtom> {
    let sat_atoms: Vec<_> = conj.atoms.iter().map(|a| to_sat_atom(a, vars)).collect();
    let mut out = Vec::new();
    for (i, cand) in sat_atoms.iter().enumerate() {
        let Normalized::Constraints(cand_cs) = normalize_atom(cand) else {
            continue; // constant-false atoms belong to unsat-view, not here
        };
        if cand_cs.is_empty() {
            // Constant-true after normalization: trivially redundant.
            out.push(RedundantAtom {
                disjunct,
                atom: conj.atoms[i].to_string(),
            });
            continue;
        }
        // Digraph of everything else.
        let mut g = ConstraintGraph::new(vars.len());
        let mut rest_ok = true;
        for (j, other) in sat_atoms.iter().enumerate() {
            if i == j {
                continue;
            }
            match normalize_atom(other) {
                Normalized::False => {
                    rest_ok = false;
                    break;
                }
                Normalized::Constraints(cs) => g.add_constraints(cs.iter()),
            }
        }
        if !rest_ok {
            continue;
        }
        let apsp = floyd_warshall(&g);
        if apsp.has_negative_cycle {
            continue; // the rest is already unsat; implication is vacuous
        }
        // `x − y ≤ c` is implied iff the shortest x→y path is ≤ c.
        let implied = cand_cs.iter().all(|c| {
            let from = g.index(c.x);
            let to = g.index(c.y);
            apsp.distance(from, to) <= c.c
        });
        if implied {
            out.push(RedundantAtom {
                disjunct,
                atom: conj.atoms[i].to_string(),
            });
        }
    }
    out
}

/// Run the full definition-time analysis of one view against the
/// database's schemas (contents are never consulted — the verdicts hold
/// for every instance).
pub fn analyze_view(name: &str, expr: &SpjExpr, db: &Database) -> ViewAnalysisReport {
    let vars = VarMap::from_condition(&expr.condition);
    let disjuncts = &expr.condition.disjuncts;

    let mut report = ViewAnalysisReport {
        view: name.to_owned(),
        disjuncts: disjuncts.len(),
        ..ViewAnalysisReport::default()
    };

    let formulas: Vec<ConjunctiveFormula> =
        disjuncts.iter().map(|c| to_formula(c, &vars)).collect();
    let sat: Vec<bool> = formulas
        .iter()
        .map(|f| f.is_satisfiable(Solver::FloydWarshall))
        .collect();
    report.satisfiable = sat.iter().any(|&s| s);
    report.dead_disjuncts = sat
        .iter()
        .enumerate()
        .filter(|(_, &s)| !s)
        .map(|(i, _)| i)
        .collect();

    // always-irrelevant: only meaningful when the whole condition is
    // unsatisfiable (otherwise some update can always matter), and
    // attributed to the relations whose local predicates carry the
    // contradiction in every disjunct.
    if !report.satisfiable && !disjuncts.is_empty() {
        for rel in &expr.relations {
            let Ok(schema) = db.schema(rel) else { continue };
            if disjuncts
                .iter()
                .all(|c| local_atoms_unsat(c, schema, &vars))
            {
                report.always_irrelevant.push(rel.clone());
            }
        }
    }

    // redundant-atom: only within satisfiable disjuncts (inside a dead
    // disjunct everything is vacuously implied).
    for (d, conj) in disjuncts.iter().enumerate() {
        if sat[d] {
            report.redundant.extend(redundant_atoms(conj, &vars, d));
        }
    }
    report
}

/// Structural verdict over a *set* of view definitions that may
/// reference each other: does it admit a topological maintenance order?
#[derive(Debug, Clone, Default)]
pub struct DagAnalysis {
    /// Views by stratum: `strata[0]` depends only on base relations,
    /// `strata[i]` has its deepest operand in `strata[i-1]`. Views in a
    /// cycle or behind an unresolved operand are absent.
    pub strata: Vec<Vec<String>>,
    /// Definition cycles, each listed in traversal order starting from
    /// its lexicographically smallest member.
    pub cycles: Vec<Vec<String>>,
    /// `(view, operand)` pairs where the operand is neither a base
    /// relation nor a defined view.
    pub unresolved: Vec<(String, String)>,
}

impl DagAnalysis {
    /// True when every view is stratifiable (no cycles, no unresolved
    /// operands).
    pub fn is_stratified(&self) -> bool {
        self.cycles.is_empty() && self.unresolved.is_empty()
    }

    /// Lower cycle findings into the shared diagnostic model (one
    /// `view-cycle` finding per cycle, attributed to its smallest
    /// member).
    pub fn to_report(&self) -> Report {
        let mut report = Report::default();
        for cycle in &self.cycles {
            let path = cycle.join(" -> ");
            let first = cycle.first().map(String::as_str).unwrap_or("?");
            report.findings.push(Finding {
                rule: RuleId::ViewCycle,
                file: format!("view:{first}"),
                line: 0,
                col: 0,
                message: format!(
                    "definition cycle {path} -> {first}: no topological maintenance order exists"
                ),
            });
        }
        report
    }
}

impl fmt::Display for DagAnalysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n: usize = self.strata.iter().map(Vec::len).sum();
        writeln!(
            f,
            "dependency DAG: {n} stratified view(s) across {} stratum(s), {}",
            self.strata.len(),
            if self.is_stratified() {
                "acyclic"
            } else {
                "NOT stratifiable"
            }
        )?;
        for (i, level) in self.strata.iter().enumerate() {
            writeln!(f, "  stratum {}: {}", i + 1, level.join(" "))?;
        }
        for cycle in &self.cycles {
            let first = cycle.first().map(String::as_str).unwrap_or("?");
            writeln!(f, "  CYCLE: {} -> {first}", cycle.join(" -> "))?;
        }
        for (view, op) in &self.unresolved {
            writeln!(
                f,
                "  unresolved: `{view}` references `{op}`, which is neither a base relation nor a defined view"
            )?;
        }
        Ok(())
    }
}

/// Analyze a definition *set* for DAG structure: stratify what can be
/// stratified, extract the cycles that block the rest, and flag
/// unresolved operands.
///
/// The database supplies base-relation names only; contents are never
/// consulted. Definitions may arrive in any order — unlike the
/// manager's registration path, operands may be defined later in the
/// set.
pub fn analyze_dag<'a>(
    views: impl IntoIterator<Item = (&'a str, &'a SpjExpr)>,
    db: &Database,
) -> DagAnalysis {
    let defs: BTreeMap<&str, &SpjExpr> = views.into_iter().collect();
    let mut analysis = DagAnalysis::default();

    // Unresolved operands disqualify a view from stratification.
    for (&name, expr) in &defs {
        for op in &expr.relations {
            if !db.contains_relation(op) && !defs.contains_key(op.as_str()) {
                analysis.unresolved.push((name.to_owned(), op.clone()));
            }
        }
    }
    let blocked: BTreeSet<&str> = analysis
        .unresolved
        .iter()
        .map(|(v, _)| v.as_str())
        .collect();

    // Stratification fixpoint, exactly the manager's rule: a view's
    // stratum is 1 + the deepest view operand (base operands count 0).
    let mut stratum: BTreeMap<&str, usize> = BTreeMap::new();
    loop {
        let mut progressed = false;
        for (&name, expr) in &defs {
            if stratum.contains_key(name) || blocked.contains(name) {
                continue;
            }
            let mut depth = Some(0usize);
            for op in &expr.relations {
                if defs.contains_key(op.as_str()) {
                    match stratum.get(op.as_str()) {
                        Some(&d) => depth = depth.map(|cur| cur.max(d + 1)),
                        None => depth = None, // operand not placed (yet)
                    }
                }
                if depth.is_none() {
                    break;
                }
            }
            if let Some(d) = depth {
                stratum.insert(name, d);
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    let max_stratum = stratum.values().copied().max().unwrap_or(0);
    if !stratum.is_empty() {
        analysis.strata = vec![Vec::new(); max_stratum + 1];
        for (name, &d) in &stratum {
            analysis.strata[d].push((*name).to_owned());
        }
    }

    // Whatever is neither stratified nor blocked on an unknown operand
    // depends (transitively) on a cycle. Walk each leftover's operand
    // chain until a node repeats on the path: that slice is the cycle.
    let mut in_cycle: BTreeSet<&str> = BTreeSet::new();
    for &start in defs.keys() {
        if stratum.contains_key(start) || blocked.contains(start) || in_cycle.contains(start) {
            continue;
        }
        let mut path: Vec<&str> = Vec::new();
        let mut cur = start;
        let cycle = loop {
            if let Some(pos) = path.iter().position(|&n| n == cur) {
                break &path[pos..];
            }
            path.push(cur);
            // Follow the first operand that is itself an unplaced view —
            // every leftover has one, or it would have stratified.
            let Some(next) = defs[cur].relations.iter().find(|op| {
                defs.contains_key(op.as_str())
                    && !stratum.contains_key(op.as_str())
                    && !blocked.contains(op.as_str())
            }) else {
                break &path[path.len()..]; // blocked transitively, not cyclic itself
            };
            cur = next.as_str();
        };
        if cycle.is_empty() {
            continue;
        }
        if cycle.iter().any(|n| in_cycle.contains(n)) {
            continue; // reached an already-reported cycle
        }
        in_cycle.extend(cycle.iter().copied());
        // Rotate so the smallest member leads: deterministic output.
        let min_pos = cycle
            .iter()
            .enumerate()
            .min_by_key(|(_, n)| **n)
            .map(|(i, _)| i)
            .unwrap_or(0);
        let rotated: Vec<String> = cycle[min_pos..]
            .iter()
            .chain(&cycle[..min_pos])
            .map(|n| (*n).to_owned())
            .collect();
        analysis.cycles.push(rotated);
    }
    analysis.cycles.sort();
    analysis
}

/// Analyze every `(name, expr)` pair and merge into one [`Report`] for
/// the shared baseline/diagnostic pipeline.
pub fn analyze_all<'a>(
    views: impl IntoIterator<Item = (&'a str, &'a SpjExpr)>,
    db: &Database,
) -> (Vec<ViewAnalysisReport>, Report) {
    let mut reports = Vec::new();
    let mut merged = Report::default();
    for (name, expr) in views {
        let r = analyze_view(name, expr, db);
        merged.merge(r.to_report());
        reports.push(r);
    }
    (reports, merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivm_relational::predicate::{Atom, CompOp, Condition};
    use ivm_relational::schema::Schema;

    /// R(A,B) ⋈ S(C,D) test database (schemas only — analysis never reads
    /// contents).
    fn db() -> Database {
        let mut db = Database::new();
        db.create("R", Schema::new(["A", "B"]).unwrap()).unwrap();
        db.create("S", Schema::new(["C", "D"]).unwrap()).unwrap();
        db
    }

    fn view(cond: Condition) -> SpjExpr {
        SpjExpr::new(["R", "S"], cond, None)
    }

    #[test]
    fn satisfiable_view_is_clean() {
        let v = view(Condition::conjunction([
            Atom::lt_const("A", 10),
            Atom::gt_const("C", 5),
        ]));
        let r = analyze_view("v", &v, &db());
        assert!(r.is_clean(), "{r}");
        assert!(r.satisfiable);
        assert!(r.to_report().is_clean());
    }

    #[test]
    fn unsatisfiable_view_flagged() {
        // A < 5 ∧ A > 10: empty forever.
        let v = view(Condition::conjunction([
            Atom::lt_const("A", 5),
            Atom::gt_const("A", 10),
        ]));
        let r = analyze_view("dead", &v, &db());
        assert!(!r.satisfiable);
        let rep = r.to_report();
        assert!(rep.findings.iter().any(|f| f.rule == RuleId::UnsatView));
    }

    #[test]
    fn always_irrelevant_attributed_to_the_contradictory_relation() {
        // The contradiction lives entirely in R's attributes; S carries
        // a satisfiable predicate.
        let v = view(Condition::conjunction([
            Atom::lt_const("A", 5),
            Atom::gt_const("A", 10),
            Atom::gt_const("C", 0),
        ]));
        let r = analyze_view("dead", &v, &db());
        assert_eq!(r.always_irrelevant, ["R"]);
        let rep = r.to_report();
        assert!(rep
            .findings
            .iter()
            .any(|f| f.rule == RuleId::AlwaysIrrelevant && f.message.contains("`R`")));
    }

    #[test]
    fn cross_relation_contradiction_has_no_local_culprit() {
        // A < C ∧ C < A: unsat, but neither relation's local atoms are.
        let v = view(Condition::conjunction([
            Atom::cmp_attr("A", CompOp::Lt, "C", 0),
            Atom::cmp_attr("C", CompOp::Lt, "A", 0),
        ]));
        let r = analyze_view("cross", &v, &db());
        assert!(!r.satisfiable);
        assert!(r.always_irrelevant.is_empty());
    }

    #[test]
    fn dead_disjunct_in_live_dnf_flagged() {
        let live = Conjunction::new([Atom::lt_const("A", 10)]);
        let dead = Conjunction::new([Atom::lt_const("C", 0), Atom::gt_const("C", 0)]);
        let v = view(Condition::dnf([live, dead]));
        let r = analyze_view("v", &v, &db());
        assert!(r.satisfiable);
        assert_eq!(r.dead_disjuncts, [1]);
        let rep = r.to_report();
        assert!(rep
            .findings
            .iter()
            .any(|f| f.rule == RuleId::UnsatView && f.message.contains("disjunct #1")));
    }

    #[test]
    fn duplicate_atom_is_redundant() {
        let v = view(Condition::conjunction([
            Atom::lt_const("A", 10),
            Atom::lt_const("A", 10),
        ]));
        let r = analyze_view("v", &v, &db());
        assert_eq!(r.redundant.len(), 2, "each copy implied by the other: {r}");
    }

    #[test]
    fn weaker_bound_is_redundant() {
        // A < 5 implies A < 10.
        let v = view(Condition::conjunction([
            Atom::lt_const("A", 5),
            Atom::lt_const("A", 10),
        ]));
        let r = analyze_view("v", &v, &db());
        assert_eq!(r.redundant.len(), 1);
        assert!(r.redundant[0].atom.contains("10"), "{:?}", r.redundant);
    }

    #[test]
    fn transitive_closure_implication() {
        // A ≤ C ∧ C ≤ D ⟹ A ≤ D: the third atom is implied via a 2-hop
        // path in the digraph — exactly the transitive-closure case.
        let v = view(Condition::conjunction([
            Atom::cmp_attr("A", CompOp::Le, "C", 0),
            Atom::cmp_attr("C", CompOp::Le, "D", 0),
            Atom::cmp_attr("A", CompOp::Le, "D", 0),
        ]));
        let r = analyze_view("v", &v, &db());
        assert_eq!(r.redundant.len(), 1);
        assert!(r.redundant[0].atom.contains("A"));
        assert!(r.redundant[0].atom.contains("D"));
    }

    #[test]
    fn independent_atoms_not_redundant() {
        let v = view(Condition::conjunction([
            Atom::lt_const("A", 10),
            Atom::gt_const("C", 5),
            Atom::cmp_attr("B", CompOp::Eq, "D", 0),
        ]));
        let r = analyze_view("v", &v, &db());
        assert!(r.redundant.is_empty(), "{:?}", r.redundant);
    }

    #[test]
    fn equality_implies_both_inequalities() {
        // A = C makes A ≤ C redundant.
        let v = view(Condition::conjunction([
            Atom::cmp_attr("A", CompOp::Eq, "C", 0),
            Atom::cmp_attr("A", CompOp::Le, "C", 0),
        ]));
        let r = analyze_view("v", &v, &db());
        assert_eq!(r.redundant.len(), 1);
        assert!(r.redundant[0].atom.contains("<="));
    }

    #[test]
    fn always_true_condition_clean() {
        let v = view(Condition::always_true());
        let r = analyze_view("v", &v, &db());
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn always_false_condition_is_unsat() {
        let v = view(Condition::always_false());
        let r = analyze_view("v", &v, &db());
        assert!(!r.satisfiable);
        assert!(r.always_irrelevant.is_empty());
    }

    #[test]
    fn analyze_all_merges() {
        let good = view(Condition::conjunction([Atom::lt_const("A", 10)]));
        let bad = view(Condition::conjunction([
            Atom::lt_const("A", 0),
            Atom::gt_const("A", 0),
        ]));
        let (reports, merged) = analyze_all([("g", &good), ("b", &bad)], &db());
        assert_eq!(reports.len(), 2);
        assert_eq!(merged.scanned, 2);
        assert!(merged.findings.iter().all(|f| f.file == "view:b"));
    }

    fn named(rels: &[&str]) -> SpjExpr {
        SpjExpr::new(
            rels.iter().map(|r| r.to_string()),
            Condition::always_true(),
            None,
        )
    }

    #[test]
    fn dag_stratifies_a_stacked_definition_set() {
        let l1 = named(&["R", "S"]);
        let l2 = named(&["l1", "S"]);
        let l3 = named(&["l2"]);
        // Definition order does not matter: l3 arrives before l1.
        let a = analyze_dag([("l3", &l3), ("l1", &l1), ("l2", &l2)], &db());
        assert!(a.is_stratified(), "{a}");
        assert_eq!(a.strata, [vec!["l1"], vec!["l2"], vec!["l3"]]);
        assert!(a.to_report().is_clean());
    }

    #[test]
    fn dag_reports_cycles() {
        let va = named(&["vb", "R"]);
        let vb = named(&["vc"]);
        let vc = named(&["va"]);
        let ok = named(&["R"]);
        let a = analyze_dag([("va", &va), ("vb", &vb), ("vc", &vc), ("ok", &ok)], &db());
        assert!(!a.is_stratified());
        assert_eq!(a.strata, [vec!["ok"]]);
        assert_eq!(a.cycles, [vec!["va", "vb", "vc"]]);
        let rep = a.to_report();
        assert_eq!(rep.findings.len(), 1);
        assert_eq!(rep.findings[0].rule, RuleId::ViewCycle);
        assert!(rep.findings[0].message.contains("va -> vb -> vc -> va"));
        assert!(a.to_string().contains("CYCLE: va -> vb -> vc -> va"));
    }

    #[test]
    fn dag_self_reference_is_a_unit_cycle() {
        let v = named(&["v"]);
        let a = analyze_dag([("v", &v)], &db());
        assert_eq!(a.cycles, [vec!["v"]]);
    }

    #[test]
    fn dag_flags_unresolved_operands() {
        let v = named(&["ghost"]);
        let over = named(&["v"]); // transitively blocked, not cyclic
        let a = analyze_dag([("v", &v), ("over", &over)], &db());
        assert_eq!(a.unresolved, [("v".to_owned(), "ghost".to_owned())]);
        assert!(a.cycles.is_empty());
        assert!(a.strata.is_empty());
        assert!(a.to_string().contains("unresolved: `v` references `ghost`"));
    }

    #[test]
    fn display_renders_verdicts() {
        let v = view(Condition::conjunction([
            Atom::lt_const("A", 5),
            Atom::gt_const("A", 10),
        ]));
        let s = analyze_view("dead", &v, &db()).to_string();
        assert!(s.contains("UNSATISFIABLE"));
        assert!(s.contains("always-irrelevant"));
    }
}
