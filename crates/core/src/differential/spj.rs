//! Differential re-evaluation of SPJ views — Algorithm 5.1 (§5.4).
//!
//! Input: the view `V = π_X(σ_C(R₁ ⋈ … ⋈ R_p))`, the contents of the
//! operands *before* the transaction, and each operand's net change as one
//! signed [`DeltaRelation`]: `+c` entries are its inserts `i_r`, `−c`
//! entries its deletes `d_r`. Output: a view transaction (a signed
//! `DeltaRelation`) that brings the materialization up to date.
//!
//! 1. Build the truth-table rows for the updated relations only
//!    (O(2^k), [`crate::differential::truth_table`]).
//! 2. For each row, evaluate the SPJ expression substituting for each
//!    operand either its unchanged portion (`B_i = 0`) or its tagged change
//!    set (`B_i = 1`); σ and π distribute over the union of rows.
//! 3. The union of the row results, read through the tags, is the view
//!    transaction: "insert all tuples tagged insert, delete all tuples
//!    tagged delete".
//!
//! Step 2 is the paper-literal tagged pipeline. `B_i = 0` substitutes the
//! *surviving* old tuples `r_i − d_{r_i}` tagged `old`, subtracting the
//! change's negative counts; `B_i = 1` substitutes the whole change, its
//! positive entries tagged `insert` and its negative ones `delete`; joins combine
//! tags by the §5.3 table (mixed insert/delete tuples are ignored). Summed
//! over all non-zero rows this yields exactly `V(new) − V(old)`: a row's
//! all-insert choices contribute the new-only terms, all-delete choices
//! the old-only terms, and mixed choices cancel — the "ignore" entries of
//! the tag table.
//!
//! The engine runs one plan, validated against full re-evaluation by
//! property tests, with and without maintained indexes:
//!
//! * **prefix sharing** — rows are evaluated as a DFS over operand
//!   positions so every shared join prefix is computed once, and prefixes
//!   that cannot reach a non-zero row are never extended (§5.3's "re-using
//!   partial subexpressions appearing in multiple rows");
//! * **selection pushdown** — single-operand atoms of the condition filter
//!   operands before any join
//!   ([`ivm_relational::expr::push_selections`], shared with full
//!   evaluation);
//! * **operand reordering: pivot groups** — the rows are split into one
//!   group per updated operand `u`: the rows whose first `B = 1` operand
//!   (in definition order) is `u`. In its group, earlier updated operands
//!   offer only `B = 0`, `u` only `B = 1`, later ones both, so the groups
//!   partition the 2^k − 1 rows exactly. Each group is one DFS in its own
//!   connectivity-preserving greedy order that starts at `Δu`
//!   ([`plan::order_operands_from`], §5.3's "good order for execution of
//!   the joins"): every row is rooted at a change set and no `B = 0`
//!   operand ever sits at position 0;
//! * **lazy operands** — when only one relation changed (`k = 1`), the
//!   single row never touches that relation's old contents, so they are
//!   never copied; a materialized operand is built at most once per run
//!   and shared by every group;
//! * **index probing** — when a `B = 0` operand carries a maintained
//!   [`JoinIndex`] covering the join key against the group's accumulated
//!   prefix, the engine neither materializes the operand nor hash-builds
//!   it: each prefix tuple probes the persistent index directly
//!   (`IndexedZero`, `probe_join_tagged`), subtracting `d_r` and applying
//!   the operand's pushed selection per posting. At the last operand
//!   position the probe is additionally fused with the residual selection
//!   and final projection, emitting straight into the signed output,
//!   with or without a metrics recorder installed.
//!   Falls back to the materialized build when no index covers the key —
//!   with identical deltas, rows and joins either way. Only the probe
//!   counters differ, and `operand_tuples` when a selection was pushed:
//!   an indexed operand charges `|r − d_r|`, the fallback its filtered
//!   size.

use ivm_obs::{names, Obs};
use ivm_relational::algebra;
use ivm_relational::attribute::AttrName;
use ivm_relational::database::Database;
use ivm_relational::delta::DeltaRelation;
use ivm_relational::error::RelError;
use ivm_relational::expr::{push_selections, SpjExpr};
use ivm_relational::index::JoinIndex;
use ivm_relational::predicate::{BoundCondition, Condition};
use ivm_relational::relation::Relation;
use ivm_relational::schema::Schema;
use ivm_relational::tagged::{Tag, TaggedRelation};
use ivm_relational::transaction::Transaction;
use ivm_relational::tuple::Tuple;
use ivm_relational::value::Value;

use crate::differential::plan;
use crate::error::Result;
use crate::stats::DiffStats;

/// Options of a maintenance run. The differential engine itself has one
/// plan and reads none of them; the `differential_delta*` functions take
/// them for the callers that pass them through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DiffOptions {
    /// Maximum worker threads for the §4 relevance filter that a
    /// [`crate::manager::ViewManager`] runs before this engine
    /// ([`crate::relevance::RelevanceFilter::filter_with`]), which uses
    /// fewer when its tuples are few: `0` (the default) means one worker
    /// per available core, `1` forces the sequential filter. The
    /// differential engine always runs on the calling thread.
    pub threads: usize,
}

/// A computed view transaction plus its work counters.
#[derive(Debug, Clone)]
pub struct DifferentialResult {
    /// The signed view delta (`+` = insert into the view, `−` = delete).
    pub delta: DeltaRelation,
    /// Work performed.
    pub stats: DiffStats,
}

/// Algorithm 5.1: compute the view transaction for `txn` against the
/// pre-transaction database `db_before`.
pub fn differential_delta(
    view: &SpjExpr,
    db_before: &Database,
    txn: &Transaction,
    opts: &DiffOptions,
) -> Result<DifferentialResult> {
    differential_delta_observed(view, db_before, txn, opts, &Obs::disabled())
}

/// [`differential_delta`] with metrics: emits the `diff.*` counters and
/// per-row histograms of `docs/OBSERVABILITY.md` through `obs`. With the
/// disabled handle this is exactly [`differential_delta`].
pub fn differential_delta_observed(
    view: &SpjExpr,
    db_before: &Database,
    txn: &Transaction,
    opts: &DiffOptions,
    obs: &Obs,
) -> Result<DifferentialResult> {
    let mut old: Vec<&Relation> = Vec::with_capacity(view.arity());
    let mut deltas: Vec<DeltaRelation> = Vec::with_capacity(view.arity());
    for name in &view.relations {
        let rel = db_before.relation(name)?;
        old.push(rel);
        deltas.push(txn.delta(name, rel.schema())?);
    }
    let updates: Vec<Option<&DeltaRelation>> = deltas.iter().map(Some).collect();
    differential_delta_parts_observed(view, &old, &updates, opts, obs)
}

/// Algorithm 5.1 over explicit positional operands: `old[i]` is the
/// pre-transaction state of `view.relations[i]` and `updates[i]` its net
/// change, `None` or an empty delta when untouched. A change's positive
/// counts are inserts `i_r`; its negative counts are deletes `d_r`, which
/// must be covered by `old[i]` (`d_r ⊆ r`). Counts above one flow through
/// exactly, so an upstream view's delta is a valid change. Useful when
/// the old states are not held in one [`Database`]: view operands, and
/// snapshot refresh, which runs the engine backwards from the live state.
/// Emits metrics through `obs` as [`differential_delta_observed`] does.
/// The engine does not read `_opts`.
pub fn differential_delta_parts_observed(
    view: &SpjExpr,
    old: &[&Relation],
    updates: &[Option<&DeltaRelation>],
    _opts: &DiffOptions,
    obs: &Obs,
) -> Result<DifferentialResult> {
    assert_eq!(old.len(), view.arity(), "one old state per operand");
    assert_eq!(updates.len(), view.arity(), "one update slot per operand");
    let p = view.arity();
    let out_schema = output_schema(view, old)?;

    let changes: Vec<Option<&DeltaRelation>> = updates
        .iter()
        .map(|u| u.filter(|d| !d.is_empty()))
        .collect();
    let updated: Vec<usize> = (0..p).filter(|&i| changes[i].is_some()).collect();
    if updated.is_empty() {
        return Ok(DifferentialResult {
            delta: DeltaRelation::empty(out_schema),
            stats: DiffStats::default(),
        });
    }

    // --- planning -----------------------------------------------------
    let schemas: Vec<&Schema> = old.iter().map(|r| r.schema()).collect();
    let pushdown = push_selections(&view.condition, &schemas);
    let planner = Planner {
        old,
        changes: &changes,
        pushed: &pushdown.per_operand,
        projection: view.projection.as_deref(),
        out_schema: &out_schema,
    };
    // One pivot group per updated operand, each rooted at its change set.
    let groups: Vec<Group<'_>> = updated
        .iter()
        .map(|&u| planner.group(u, &pivot_order(&schemas, old, &changes, u)))
        .collect();
    let operands = Operands::build(old, &changes, &pushdown.per_operand, &groups)?;
    let result = evaluate(&pushdown.residual, &out_schema, &operands, &groups, obs)?;

    emit_run_counters(obs, &result.stats, updated.len());
    Ok(result)
}

/// Emit one run's aggregate work counters (`diff.*`, `index.probes`,
/// `index.probe_rows`) from its statistics; `updated` is the number of
/// operand positions with a change, which sizes the truth table. Emitted
/// once per run, so the disabled path costs nothing in the hot loops.
pub(crate) fn emit_run_counters(obs: &Obs, s: &DiffStats, updated: usize) {
    if !obs.enabled() {
        return;
    }
    let total_rows = (1u64 << updated.min(63)) - 1;
    obs.add(names::DIFF_ROWS_EVALUATED, s.rows_evaluated as u64);
    obs.add(
        names::DIFF_ROWS_PRUNED,
        total_rows.saturating_sub(s.rows_evaluated as u64),
    );
    obs.add(names::DIFF_JOINS_PERFORMED, s.joins_performed as u64);
    obs.add(names::DIFF_JOINS_SKIPPED, s.joins_skipped as u64);
    obs.add(names::DIFF_OPERAND_TUPLES, s.operand_tuples);
    obs.add(names::DIFF_OUTPUT_INSERTS, s.output_inserts);
    obs.add(names::DIFF_OUTPUT_DELETES, s.output_deletes);
    obs.add(names::INDEX_PROBES, s.index_probes);
    obs.add(names::INDEX_PROBE_ROWS, s.index_probe_rows);
}

/// Shared per-group context: the residual condition and final projection
/// applied at each row leaf, plus the metrics handle.
struct RowCtx<'a> {
    residual: &'a Condition,
    final_proj: Option<&'a [AttrName]>,
    obs: &'a Obs,
}

/// Scheme of the view, derived from the operand relations in definition
/// order.
fn output_schema(view: &SpjExpr, old: &[&Relation]) -> Result<Schema> {
    // ivm-lint: allow(no-unchecked-index) — SPJ views have p ≥ 1 operands, enforced at registration
    let mut joined = old[0].schema().clone();
    for rel in &old[1..] {
        joined = joined.join(rel.schema());
    }
    Ok(match &view.projection {
        None => joined,
        Some(attrs) => joined.project(attrs.iter())?,
    })
}

// ---------------------------------------------------------------------
// Pivot groups
// ---------------------------------------------------------------------

/// Evaluation order of the pivot group rooted at updated operand `u`:
/// `Δu` first, then the connected greedy order of [`plan`] over what the
/// group reads — later updated operands weighed by their change sets,
/// every other operand (earlier updated ones offer only `B = 0` here) by
/// its old size.
fn pivot_order(
    schemas: &[&Schema],
    old: &[&Relation],
    changes: &[Option<&DeltaRelation>],
    u: usize,
) -> Vec<usize> {
    let offers_one = |i: usize| i >= u && changes[i].is_some();
    let metric: Vec<usize> = (0..old.len())
        .map(|i| match changes[i] {
            Some(c) if offers_one(i) => c.len(),
            _ => old[i].len(),
        })
        .collect();
    let flags: Vec<bool> = (0..old.len()).map(offers_one).collect();
    plan::order_operands_from(schemas, &metric, &flags, u)
}

/// How the `B = 0` side of a slot is read.
enum ZeroPlan<'a> {
    /// The materialized operand, built once per run and shared by every
    /// group ([`Operands::zeros`]).
    Mat,
    /// Probed through a maintained index; never materialized.
    Idx(IndexedZero<'a>),
}

/// One evaluation position of a group.
struct Slot<'a> {
    /// The operand's position in the view definition.
    rel: usize,
    /// The `B = 0` side, when some row of the group reads it.
    zero: Option<ZeroPlan<'a>>,
    /// Whether some row of the group reads the `B = 1` side.
    one: bool,
}

/// A set of truth-table rows evaluated as one prefix-sharing DFS in one
/// operand order. The group of updated operand `u` holds the rows whose
/// first `B = 1` operand in definition order is `u`: earlier updated
/// operands offer only `B = 0`, `u` only `B = 1`, later ones both. The
/// groups of all updated operands partition the 2^k − 1 rows.
struct Group<'a> {
    slots: Vec<Slot<'a>>,
    /// The view's projection or, when the group's order disturbs the
    /// natural layout, an explicit projection back onto the canonical
    /// scheme.
    final_proj: Option<Vec<AttrName>>,
}

/// What planning a group needs to know about the run.
struct Planner<'a> {
    old: &'a [&'a Relation],
    changes: &'a [Option<&'a DeltaRelation>],
    pushed: &'a [Condition],
    projection: Option<&'a [AttrName]>,
    out_schema: &'a Schema,
}

impl<'a> Planner<'a> {
    /// Plan the group rooted at `pivot` over `order`: each slot's sides,
    /// and an index probe for each `B = 0` side whose join key against
    /// the group's prefix is covered.
    fn group(&self, pivot: usize, order: &[usize]) -> Group<'a> {
        let mut slots = Vec::with_capacity(order.len());
        let mut prefix: Option<Schema> = None;
        for &i in order {
            let change = self.changes[i];
            let one = change.is_some() && i >= pivot;
            let zero = (i != pivot).then(|| {
                indexed_zero(prefix.as_ref(), self.old[i], change, &self.pushed[i])
                    .map_or(ZeroPlan::Mat, ZeroPlan::Idx)
            });
            let schema = self.old[i].schema();
            prefix = Some(match prefix {
                None => schema.clone(),
                Some(s) => s.join(schema),
            });
            slots.push(Slot { rel: i, zero, one });
        }
        let identity = order.iter().enumerate().all(|(j, &i)| j == i);
        let final_proj = match self.projection {
            Some(attrs) => Some(attrs.to_vec()),
            None if !identity => Some(self.out_schema.attrs().to_vec()),
            None => None,
        };
        Group { slots, final_proj }
    }
}

/// The materialized operands of a run, by definition position, each
/// built at most once and shared by every group.
struct Operands {
    /// `B = 0`: surviving old tuples, pre-filtered, tagged `old` — only
    /// where some group reads the side unindexed.
    zeros: Vec<Option<TaggedRelation>>,
    /// `B = 1`: the tagged, pre-filtered change set of each updated
    /// operand.
    ones: Vec<Option<TaggedRelation>>,
}

impl Operands {
    fn build(
        old: &[&Relation],
        changes: &[Option<&DeltaRelation>],
        pushed: &[Condition],
        groups: &[Group<'_>],
    ) -> Result<Operands> {
        let p = old.len();
        let mut zeros: Vec<Option<TaggedRelation>> = (0..p).map(|_| None).collect();
        for slot in groups.iter().flat_map(|g| &g.slots) {
            if matches!(slot.zero, Some(ZeroPlan::Mat)) && zeros[slot.rel].is_none() {
                let i = slot.rel;
                zeros[i] = Some(tagged_zero(old[i], with_deletes(changes[i]), &pushed[i])?);
            }
        }
        let ones = (0..p)
            .map(|i| changes[i].map(|u| tagged_one(u, &pushed[i])).transpose())
            .collect::<Result<_>>()?;
        Ok(Operands { zeros, ones })
    }
}

// ---------------------------------------------------------------------
// Indexed B = 0 operands
// ---------------------------------------------------------------------

/// A probe plan for a `B = 0` operand backed by a maintained [`JoinIndex`]:
/// instead of materializing the unchanged side and hash-building it per
/// join term, each prefix tuple looks its join-key values up in the
/// persistent index. Valid only at positions `j ≥ 1` (there must be a
/// prefix to probe from).
struct IndexedZero<'a> {
    /// The maintained index on the old relation, keyed exactly by the
    /// natural-join columns against the accumulated prefix.
    index: &'a JoinIndex,
    /// The operand's change, whose negative counts are subtracted per
    /// posting (§5.3 `r − d_r`); `None` when it has no negative count.
    deletes: Option<&'a DeltaRelation>,
    /// The selection pushed onto the operand, bound to the operand's
    /// scheme and checked on each surviving posting; `None` when nothing
    /// was pushed.
    filter: Option<BoundCondition<'a>>,
    /// Prefix-tuple positions supplying the key values, aligned with
    /// `index.positions()` order.
    probe_positions: Vec<usize>,
    /// Operand positions appended to each prefix tuple on a match
    /// (the non-key columns, in scheme order).
    r_rest: Vec<usize>,
    /// Scheme of the probe-join output: `prefix.join(operand)`.
    schema: Schema,
    /// Distinct entries of `r − d_r` (before any pushed selection) — what
    /// the indexed side charges `operand_tuples`.
    logical_len: u64,
}

/// Plan an indexed `B = 0` operand, or `None` when the materialized
/// fallback must be used: no prefix yet (position 0), the join against
/// the prefix is a cross product, or no maintained index covers the join
/// key. A pushed selection `cond` is applied per posting.
fn indexed_zero<'a>(
    prefix_schema: Option<&Schema>,
    old: &'a Relation,
    change: Option<&'a DeltaRelation>,
    cond: &'a Condition,
) -> Option<IndexedZero<'a>> {
    let prefix = prefix_schema?;
    let (l_key, r_key, r_rest) = algebra::join_key_positions(prefix, old.schema()).ok()?;
    if r_key.is_empty() {
        return None;
    }
    let index = old.index_covering(&r_key)?;
    // Align the prefix's key positions with the index's (sorted) layout.
    let mut probe_positions = Vec::with_capacity(index.positions().len());
    for p in index.positions() {
        let i = r_key.iter().position(|rp| rp == p)?;
        probe_positions.push(*l_key.get(i)?);
    }
    let deletes = with_deletes(change);
    let logical_len = match deletes {
        None => old.len() as u64,
        Some(d) => {
            // `d_r ⊆ r`, so fully-deleted tuples drop whole entries.
            let fully = d
                .iter()
                .filter(|(t, dc)| *dc < 0 && dc.unsigned_abs() >= old.count(t))
                .count() as u64;
            (old.len() as u64).saturating_sub(fully)
        }
    };
    let filter = (!cond.is_trivially_true()).then(|| cond.bind(old.schema()));
    let schema = prefix.join(old.schema());
    Some(IndexedZero {
        index,
        deletes,
        filter,
        probe_positions,
        r_rest,
        schema,
        logical_len,
    })
}

/// The probe loop behind [`probe_join_tagged`] and [`probe_emit_tagged`]:
/// for each prefix tuple, build its join key, walk the matching postings
/// of the index, subtract the net deletes (§5.3 `r − d_r`), apply the
/// pushed selection and hand `sink` the joined tuple, the prefix tag and
/// the checked product count. The operand side is tagged `Old`, the
/// identity of [`Tag::combine`], so the prefix tag carries through
/// unchanged and no combination is ignored.
fn probe_each<F>(
    left: &TaggedRelation,
    ix: &IndexedZero<'_>,
    stats: &mut DiffStats,
    mut sink: F,
) -> Result<()>
where
    F: FnMut(Tuple, Tag, u64) -> Result<()>,
{
    stats.index_probes += left.len() as u64;
    let mut key: Vec<Value> = Vec::with_capacity(ix.probe_positions.len());
    for (lt, ltag, lc) in left.iter() {
        key.clear();
        for &p in &ix.probe_positions {
            key.push(lt.at(p).clone());
        }
        for (rt, rc) in ix.index.probe(&key) {
            stats.index_probe_rows += 1;
            let rc = match ix.deletes {
                None => rc,
                Some(d) => {
                    let dc = deleted_count(d.count(rt));
                    if dc >= rc {
                        continue; // fully deleted
                    }
                    rc - dc
                }
            };
            if let Some(filter) = &ix.filter {
                if !filter.eval(rt)? {
                    continue;
                }
            }
            let count = lc
                .checked_mul(rc)
                .ok_or_else(|| RelError::CounterOverflow("probe-join count exceeds u64".into()))?;
            sink(lt.concat_positions(rt, &ix.r_rest), ltag, count)?;
        }
    }
    Ok(())
}

/// Probe-join a tagged prefix against an indexed `B = 0` operand.
/// Produces exactly `natural_join_tagged(prefix, tagged_zero(old, deletes, cond))`.
fn probe_join_tagged(
    left: &TaggedRelation,
    ix: &IndexedZero<'_>,
    stats: &mut DiffStats,
) -> Result<TaggedRelation> {
    let mut out = TaggedRelation::empty(ix.schema.clone());
    probe_each(left, ix, stats, |tuple, tag, count| {
        out.add(tuple, tag, count);
        Ok(())
    })?;
    Ok(out)
}

/// Fused last-operand probe: probe, residual selection, final projection
/// and tag-to-sign conversion in one pass, emitting straight into the
/// final signed delta without materializing the joined relation *or* the
/// tagged accumulator entry. Semantically identical to
/// [`probe_join_tagged`] → [`emit_tagged_leaf`] → `into_delta`. With
/// metrics on, the leaf's distinct `(tuple, tag)` entries are collected
/// on the side so it reports what [`emit_tagged_leaf`] would.
fn probe_emit_tagged(
    ctx: &RowCtx<'_>,
    left: &TaggedRelation,
    ix: &IndexedZero<'_>,
    fused: &mut DeltaRelation,
    stats: &mut DiffStats,
) -> Result<()> {
    let residual = (!ctx.residual.is_trivially_true()).then(|| ctx.residual.bind(&ix.schema));
    let proj: Option<Vec<usize>> = match ctx.final_proj {
        None => None,
        Some(attrs) => Some(
            attrs
                .iter()
                .map(|a| ix.schema.require(a))
                .collect::<ivm_relational::error::Result<_>>()?,
        ),
    };
    let mut leaf = ctx
        .obs
        .enabled()
        .then(|| TaggedRelation::empty(fused.schema().clone()));
    probe_each(left, ix, stats, |tuple, tag, count| {
        if let Some(residual) = &residual {
            if !residual.eval(&tuple)? {
                return Ok(());
            }
        }
        let tuple = match &proj {
            None => tuple,
            Some(ps) => tuple.project_positions(ps),
        };
        if let Some(leaf) = &mut leaf {
            leaf.add(tuple.clone(), tag, 1);
        }
        // The prefix holds the row's one-substituted operands (the zero
        // here is last), so its tag is Insert or Delete — Old is the
        // combine identity and contributes nothing regardless.
        fused.add(tuple, tag.delta_count(count)?);
        Ok(())
    })?;
    if let Some(leaf) = &leaf {
        observe_leaf(ctx.obs, leaf);
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Operands and row evaluation
// ---------------------------------------------------------------------

/// One operand chosen for a truth-table row position.
enum TaggedPick<'b, 'a> {
    Rel(&'b TaggedRelation),
    Idx(&'b IndexedZero<'a>),
}

impl TaggedPick<'_, '_> {
    /// Distinct entries the operand contributes (`operand_tuples`): the
    /// materialized operand's size, or `|r − d_r|` for an indexed one.
    fn logical_len(&self) -> u64 {
        match self {
            TaggedPick::Rel(r) => r.len() as u64,
            TaggedPick::Idx(ix) => ix.logical_len,
        }
    }
}

/// What `r − d_r` subtracts: `change` when some count is negative, else
/// `None`, so an insert-only change subtracts nothing and costs no
/// lookup.
fn with_deletes(change: Option<&DeltaRelation>) -> Option<&DeltaRelation> {
    change.filter(|d| d.iter().any(|(_, c)| c < 0))
}

/// Copies of a tuple that a signed change count deletes: `|c|` for a
/// negative count, `0` for an insert.
fn deleted_count(c: i64) -> u64 {
    if c < 0 {
        c.unsigned_abs()
    } else {
        0
    }
}

/// Materialize the `B = 0` operand: old minus deletions, filtered, tagged
/// `old` — fusing §5.3's `r − d_r` with the pushed selection in one pass.
/// `deletes` is the operand's change when it has a negative count.
fn tagged_zero(
    old: &Relation,
    deletes: Option<&DeltaRelation>,
    cond: &Condition,
) -> Result<TaggedRelation> {
    let trivial = cond.is_trivially_true();
    let cond = cond.bind(old.schema());
    let mut out = TaggedRelation::empty(old.schema().clone());
    for (t, c) in old.iter() {
        if let Some(d) = deletes {
            let dc = deleted_count(d.count(t));
            if dc >= c {
                continue; // fully deleted
            }
            if trivial || cond.eval(t)? {
                out.add(t.clone(), Tag::Old, c - dc);
            }
            continue;
        }
        if trivial || cond.eval(t)? {
            out.add(t.clone(), Tag::Old, c);
        }
    }
    Ok(out)
}

/// Materialize the `B = 1` operand: the change filtered, its positive
/// counts tagged `insert` and its negative ones `delete`.
fn tagged_one(change: &DeltaRelation, cond: &Condition) -> Result<TaggedRelation> {
    let trivial = cond.is_trivially_true();
    let schema = change.schema().clone();
    let cond = cond.bind(&schema);
    let mut out = TaggedRelation::empty(schema);
    for (t, c) in change.iter() {
        if trivial || cond.eval(t)? {
            let tag = if c > 0 { Tag::Insert } else { Tag::Delete };
            out.add(t.clone(), tag, c.unsigned_abs());
        }
    }
    Ok(out)
}

/// Output of the groups: the tagged accumulator, the signed output of
/// fused last-operand probes, and the work counters.
struct GroupOut {
    acc: TaggedRelation,
    fused: DeltaRelation,
    stats: DiffStats,
}

impl GroupOut {
    fn empty(schema: &Schema) -> Self {
        GroupOut {
            acc: TaggedRelation::empty(schema.clone()),
            fused: DeltaRelation::empty(schema.clone()),
            stats: DiffStats::default(),
        }
    }
}

/// Evaluate every group into one accumulator and read the view
/// transaction off it.
fn evaluate(
    residual: &Condition,
    out_schema: &Schema,
    operands: &Operands,
    groups: &[Group<'_>],
    obs: &Obs,
) -> Result<DifferentialResult> {
    let mut out = GroupOut::empty(out_schema);
    for group in groups {
        GroupRun::new(residual, obs, operands, group).dfs(0, None, false, &mut out)?;
    }
    let GroupOut {
        acc,
        fused,
        mut stats,
    } = out;

    // Consume the accumulator into the delta (no tuple clones), fold in
    // the fused probe output, and read the output tallies off the signed
    // counts — identical sums to splitting into insert/delete sets,
    // without materializing them.
    let mut delta = acc.into_delta()?;
    if !fused.is_empty() {
        if delta.is_empty() {
            delta = fused;
        } else {
            delta.merge(&fused).map_err(crate::error::IvmError::from)?;
        }
    }
    for (_, c) in delta.iter() {
        if c > 0 {
            stats.output_inserts += c as u64;
        } else {
            stats.output_deletes += c.unsigned_abs();
        }
    }
    Ok(DifferentialResult { delta, stats })
}

/// Apply the residual condition and final projection to a row result and
/// merge it into the accumulator.
fn emit_tagged_leaf(
    ctx: &RowCtx<'_>,
    joined: &TaggedRelation,
    acc: &mut TaggedRelation,
) -> Result<()> {
    let selected = algebra::select_tagged(joined, ctx.residual)?;
    let projected = match ctx.final_proj {
        None => selected,
        Some(attrs) => algebra::project_tagged(&selected, attrs)?,
    };
    if ctx.obs.enabled() {
        observe_leaf(ctx.obs, &projected);
    }
    acc.merge(&projected).map_err(crate::error::IvmError::from)
}

/// Report one row leaf's output: its distinct `(tuple, tag)` entries,
/// and how many of them carried each tag. `old` entries are context that
/// cancels out of the delta — pure carrying cost.
fn observe_leaf(obs: &Obs, leaf: &TaggedRelation) {
    obs.observe(names::DIFF_ROW_OUTPUT_TUPLES, leaf.len() as u64);
    let (tag_ins, tag_del, tag_old) = leaf.tag_counts();
    obs.add(names::DIFF_TAG_INSERTS, tag_ins);
    obs.add(names::DIFF_TAG_DELETES, tag_del);
    obs.add(names::DIFF_TAG_OLDS, tag_old);
}

/// The sequential evaluation of one group.
struct GroupRun<'r, 'a> {
    ctx: RowCtx<'r>,
    operands: &'r Operands,
    group: &'r Group<'a>,
    /// `updated_after[j]`: some slot at `j` or later offers `B = 1`.
    updated_after: Vec<bool>,
}

impl<'r, 'a> GroupRun<'r, 'a> {
    fn new(
        residual: &'r Condition,
        obs: &'r Obs,
        operands: &'r Operands,
        group: &'r Group<'a>,
    ) -> Self {
        let p = group.slots.len();
        let mut updated_after = vec![false; p + 1];
        for j in (0..p).rev() {
            updated_after[j] = updated_after[j + 1] || group.slots[j].one;
        }
        GroupRun {
            ctx: RowCtx {
                residual,
                final_proj: group.final_proj.as_deref(),
                obs,
            },
            operands,
            group,
            updated_after,
        }
    }

    fn pick(&self, j: usize, one: bool) -> TaggedPick<'r, 'a> {
        let slot = &self.group.slots[j];
        let materialized = if one {
            &self.operands.ones[slot.rel]
        } else {
            // ivm-lint: allow(no-panic) — the DFS only picks B = 0 where the slot offers it
            match slot.zero.as_ref().expect("zero side offered") {
                ZeroPlan::Idx(ix) => return TaggedPick::Idx(ix),
                ZeroPlan::Mat => &self.operands.zeros[slot.rel],
            }
        };
        // ivm-lint: allow(no-panic) — Operands::build materializes every side a slot plans as Mat or one
        TaggedPick::Rel(materialized.as_ref().expect("side materialized"))
    }

    /// Prefix-sharing DFS over the slots: every shared join prefix is
    /// computed once, a zero branch is taken only while it can still
    /// reach a row with some `B = 1`, and empty prefixes are never
    /// extended.
    fn dfs(
        &self,
        j: usize,
        prefix: Option<&TaggedRelation>,
        any_one: bool,
        out: &mut GroupOut,
    ) -> Result<()> {
        let slots = &self.group.slots;
        if j == slots.len() {
            // Reached only on useful rows (pruning guarantees any_one).
            debug_assert!(any_one);
            out.stats.rows_evaluated += 1;
            // ivm-lint: allow(no-panic) — descend only reaches j = p with a prefix built at depth 0
            let joined = prefix.expect("p ≥ 1 so prefix exists at leaf");
            return emit_tagged_leaf(&self.ctx, joined, &mut out.acc);
        }
        if slots[j].zero.is_some() && (any_one || self.updated_after[j + 1]) {
            self.descend(j, prefix, any_one, self.pick(j, false), out)?;
        }
        if slots[j].one {
            self.descend(j, prefix, true, self.pick(j, true), out)?;
        }
        Ok(())
    }

    /// Extend `prefix` by the operand picked for slot `j` and recurse. At
    /// the last slot an index probe is fused with the residual selection
    /// and final projection, emitting straight into the signed output —
    /// the row result is never materialized.
    fn descend(
        &self,
        j: usize,
        prefix: Option<&TaggedRelation>,
        any_one: bool,
        pick: TaggedPick<'_, '_>,
        out: &mut GroupOut,
    ) -> Result<()> {
        out.stats.operand_tuples += pick.logical_len();
        let Some(prev) = prefix else {
            return match pick {
                TaggedPick::Rel(r) => self.dfs(j + 1, Some(r), any_one, out),
                // ivm-lint: allow(no-panic) — position 0 has no prefix, so indexed_zero never plans an index there
                TaggedPick::Idx(_) => unreachable!("indexed zero requires a prefix"),
            };
        };
        if prev.is_empty() {
            // Empty prefixes stay empty; skip the whole subtree.
            out.stats.joins_skipped += 1;
            return Ok(());
        }
        out.stats.joins_performed += 1;
        if let TaggedPick::Idx(ix) = pick {
            if j + 1 == self.group.slots.len() {
                // Last slot: a zero choice here is only descended when a
                // one was already chosen.
                debug_assert!(any_one);
                out.stats.rows_evaluated += 1;
                return probe_emit_tagged(&self.ctx, prev, ix, &mut out.fused, &mut out.stats);
            }
        }
        let next = match pick {
            TaggedPick::Rel(r) => algebra::natural_join_tagged(prev, r)?,
            TaggedPick::Idx(ix) => probe_join_tagged(prev, ix, &mut out.stats)?,
        };
        self.dfs(j + 1, Some(&next), any_one, out)
    }
}

/// A §5.2 counter as a signed delta count, or `CounterOverflow` — the
/// unchecked `c as i64` wrapped to a huge negative count above `i64::MAX`.
pub(crate) fn signed_count(c: u64) -> Result<i64> {
    i64::try_from(c).map_err(|_| {
        ivm_relational::error::RelError::CounterOverflow(format!("counter {c} exceeds i64")).into()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivm_relational::predicate::Atom;
    use ivm_relational::tuple::Tuple;

    fn setup() -> (Database, SpjExpr) {
        let mut db = Database::new();
        db.create("R", Schema::new(["A", "B"]).unwrap()).unwrap();
        db.create("S", Schema::new(["B", "C"]).unwrap()).unwrap();
        db.load("R", [[1, 10], [2, 20], [9, 10]]).unwrap();
        db.load("S", [[10, 11], [20, 3], [10, 15]]).unwrap();
        let view = SpjExpr::new(
            ["R", "S"],
            Atom::gt_const("C", 10).into(),
            Some(vec!["A".into(), "C".into()]),
        );
        (db, view)
    }

    /// The central invariant: differential result + old view = new view.
    fn check_equivalence(db: &Database, view: &SpjExpr, txn: &Transaction) {
        let mut db_after = db.clone();
        db_after.apply(txn).unwrap();
        let expected = view.eval(&db_after).unwrap();
        let mut v = view.eval(db).unwrap();
        let result = differential_delta(view, db, txn, &DiffOptions::default()).unwrap();
        v.apply_delta(&result.delta).unwrap();
        assert_eq!(v, expected);
    }

    #[test]
    fn insert_only_single_relation() {
        let (db, view) = setup();
        let mut txn = Transaction::new();
        txn.insert_all("R", [[5, 10], [6, 20]]).unwrap();
        check_equivalence(&db, &view, &txn);
    }

    #[test]
    fn delete_only_single_relation() {
        let (db, view) = setup();
        let mut txn = Transaction::new();
        txn.delete("R", [1, 10]).unwrap();
        check_equivalence(&db, &view, &txn);
    }

    #[test]
    fn mixed_updates_both_relations() {
        let (db, view) = setup();
        let mut txn = Transaction::new();
        txn.insert("R", [7, 10]).unwrap();
        txn.delete("R", [2, 20]).unwrap();
        txn.insert("S", [20, 99]).unwrap();
        txn.delete("S", [10, 15]).unwrap();
        check_equivalence(&db, &view, &txn);
        // k = 2: the two pivot groups hold the 2² − 1 = 3 rows.
        let r = differential_delta(&view, &db, &txn, &DiffOptions::default()).unwrap();
        assert_eq!(r.stats.rows_evaluated, 3);
    }

    #[test]
    fn duplicate_producing_projection() {
        let (db, _) = setup();
        let view = SpjExpr::new(["R", "S"], Condition::always_true(), Some(vec!["C".into()]));
        let mut txn = Transaction::new();
        txn.delete("R", [1, 10]).unwrap();
        txn.insert("R", [3, 10]).unwrap();
        check_equivalence(&db, &view, &txn);
    }

    #[test]
    fn untouched_view_relations_empty_delta() {
        let (mut db, view) = setup();
        db.create("T", Schema::new(["Z"]).unwrap()).unwrap();
        let mut txn = Transaction::new();
        txn.insert("T", [1]).unwrap();
        let r = differential_delta(&view, &db, &txn, &DiffOptions::default()).unwrap();
        assert!(r.delta.is_empty());
        assert_eq!(r.stats.rows_evaluated, 0);
    }

    #[test]
    fn example_52_insert_only_join() {
        let mut db = Database::new();
        db.create("R", Schema::new(["A", "B"]).unwrap()).unwrap();
        db.create("S", Schema::new(["B", "C"]).unwrap()).unwrap();
        db.load("R", [[1, 10]]).unwrap();
        db.load("S", [[10, 100], [20, 200]]).unwrap();
        let view = SpjExpr::new(["R", "S"], Condition::always_true(), None);
        let mut txn = Transaction::new();
        txn.insert("R", [2, 20]).unwrap();
        let r = differential_delta(&view, &db, &txn, &DiffOptions::default()).unwrap();
        assert_eq!(r.delta.count(&Tuple::from([2, 20, 200])), 1);
        assert_eq!(r.delta.len(), 1);
        assert_eq!(r.stats.rows_evaluated, 1, "one updated relation ⇒ one row");
        check_equivalence(&db, &view, &txn);
    }

    #[test]
    fn example_53_delete_only_join() {
        let mut db = Database::new();
        db.create("R", Schema::new(["A", "B"]).unwrap()).unwrap();
        db.create("S", Schema::new(["B", "C"]).unwrap()).unwrap();
        db.load("R", [[1, 10], [2, 20]]).unwrap();
        db.load("S", [[10, 100], [20, 200]]).unwrap();
        let view = SpjExpr::new(["R", "S"], Condition::always_true(), None);
        let mut txn = Transaction::new();
        txn.delete("R", [2, 20]).unwrap();
        let r = differential_delta(&view, &db, &txn, &DiffOptions::default()).unwrap();
        assert_eq!(r.delta.count(&Tuple::from([2, 20, 200])), -1);
        assert_eq!(r.delta.len(), 1);
        check_equivalence(&db, &view, &txn);
    }

    #[test]
    fn three_way_join_rows() {
        let mut db = Database::new();
        db.create("R1", Schema::new(["A", "B"]).unwrap()).unwrap();
        db.create("R2", Schema::new(["B", "C"]).unwrap()).unwrap();
        db.create("R3", Schema::new(["C", "D"]).unwrap()).unwrap();
        db.load("R1", [[1, 2], [3, 4]]).unwrap();
        db.load("R2", [[2, 5], [4, 6]]).unwrap();
        db.load("R3", [[5, 7], [6, 8]]).unwrap();
        let view = SpjExpr::new(["R1", "R2", "R3"], Condition::always_true(), None);
        let mut txn = Transaction::new();
        txn.insert("R1", [9, 2]).unwrap();
        txn.insert("R2", [4, 5]).unwrap();
        let r = differential_delta(&view, &db, &txn, &DiffOptions::default()).unwrap();
        // Of the 3 rows, `ΔR1 ⋈ ΔR2 ⋈ R3` has an empty prefix (B = 2 vs
        // B = 4): the DFS skips its last join instead of evaluating it.
        assert_eq!(r.stats.rows_evaluated, 2);
        assert_eq!(r.stats.joins_skipped, 1);
        check_equivalence(&db, &view, &txn);
    }

    #[test]
    fn prefix_sharing_reduces_joins() {
        let mut db = Database::new();
        for (i, name) in ["R1", "R2", "R3", "R4"].iter().enumerate() {
            let a = format!("A{i}");
            let b = format!("A{}", i + 1);
            db.create(*name, Schema::new([a.as_str(), b.as_str()]).unwrap())
                .unwrap();
            db.load(name, [[1, 1], [2, 2]]).unwrap();
        }
        let view = SpjExpr::new(["R1", "R2", "R3", "R4"], Condition::always_true(), None);
        let mut txn = Transaction::new();
        txn.insert("R1", [3, 3]).unwrap();
        txn.insert("R2", [4, 4]).unwrap();
        txn.insert("R3", [5, 5]).unwrap();
        txn.insert("R4", [6, 6]).unwrap();
        let r = differential_delta(&view, &db, &txn, &DiffOptions::default()).unwrap();
        check_equivalence(&db, &view, &txn);
        // Evaluating each of the 15 rows on its own would join 15 × 3 = 45
        // times. The DFS computes each shared prefix once and extends no
        // empty one: every inserted tuple is dangling here.
        assert_eq!(r.stats.joins_performed, 7);
        assert!(r.stats.joins_performed < 45);
    }

    #[test]
    fn k1_never_touches_old_contents_of_changed_relation() {
        let mut db = Database::new();
        db.create("R", Schema::new(["A", "B"]).unwrap()).unwrap();
        db.create("S", Schema::new(["B", "C"]).unwrap()).unwrap();
        for i in 0..100 {
            db.load("R", [[i, i % 10]]).unwrap();
        }
        db.load("S", [[0, 1], [1, 2]]).unwrap();
        let view = SpjExpr::new(["R", "S"], Condition::always_true(), None);
        let mut txn = Transaction::new();
        txn.insert("R", [1000, 0]).unwrap();
        let r = differential_delta(&view, &db, &txn, &DiffOptions::default()).unwrap();
        // 1 change tuple + 2 tuples of S; never the 100 old R rows.
        assert_eq!(r.stats.operand_tuples, 3);
        assert_eq!(r.stats.rows_evaluated, 1);
    }

    #[test]
    fn all_zero_prefix_is_pruned() {
        // p = 2, only the last relation updated: the expensive old ⋈ old
        // path must never be joined.
        let (db, view) = setup();
        let mut txn = Transaction::new();
        txn.insert("S", [10, 99]).unwrap();
        let r = differential_delta(&view, &db, &txn, &DiffOptions::default()).unwrap();
        assert_eq!(r.stats.rows_evaluated, 1);
        assert_eq!(r.stats.joins_performed, 1);
        check_equivalence(&db, &view, &txn);
    }

    #[test]
    fn pushdown_shrinks_operands() {
        // Condition A < 2 pushes onto R: the zero operand of R must carry
        // only the rows with A < 2.
        let (db, _) = setup();
        let view = SpjExpr::new(["R", "S"], Atom::lt_const("A", 2).into(), None);
        let mut txn = Transaction::new();
        txn.insert("S", [10, 99]).unwrap();
        let r = differential_delta(&view, &db, &txn, &DiffOptions::default()).unwrap();
        check_equivalence(&db, &view, &txn);
        // ΔS (1 tuple) and the one R tuple with A < 2; unpushed, the
        // zero side of R would carry all 3 of its tuples: 1 + 3 = 4.
        assert_eq!(r.stats.operand_tuples, 2);
        assert!(r.stats.operand_tuples < 4);
    }

    #[test]
    fn reorder_puts_changes_first() {
        // Chain of 3, only the last updated: the row starts at ΔR2 and
        // reaches R1, then R0, each with a prefix to probe from.
        let mut db = Database::new();
        db.create("R0", Schema::new(["A0", "A1"]).unwrap()).unwrap();
        db.create("R1", Schema::new(["A1", "A2"]).unwrap()).unwrap();
        db.create("R2", Schema::new(["A2", "A3"]).unwrap()).unwrap();
        for i in 0..50 {
            db.load("R0", [[i, i % 7]]).unwrap();
            db.load("R1", [[i % 7, i % 5]]).unwrap_or(());
            db.load("R2", [[i % 5, i]]).unwrap_or(());
        }
        let view = SpjExpr::new(["R0", "R1", "R2"], Condition::always_true(), None);
        let mut txn = Transaction::new();
        txn.insert("R2", [2, 999]).unwrap();
        let r = differential_delta(&view, &db, &txn, &DiffOptions::default()).unwrap();
        check_equivalence(&db, &view, &txn);
        // Unindexed, both old operands are materialized: 1 + 35 + 50.
        assert_eq!(r.stats.operand_tuples, 86);
        assert_eq!(r.stats.joins_performed, 2);
        // The delta has the canonical scheme despite reordering.
        assert_eq!(
            r.delta.schema().attrs(),
            &["A0".into(), "A1".into(), "A2".into(), "A3".into()]
        );

        // Indexed on the join keys: ΔR2 probes R1 once, and the 7 R1
        // tuples with A2 = 2 probe R0. In definition order R0 would sit at
        // position 0 with no prefix, and its 50 tuples would each probe R1.
        db.ensure_index("R1", &["A2".into()]).unwrap();
        db.ensure_index("R0", &["A1".into()]).unwrap();
        let indexed = differential_delta(&view, &db, &txn, &DiffOptions::default()).unwrap();
        assert_eq!(indexed.delta, r.delta);
        assert_eq!(indexed.stats.index_probes, 8);
        assert!(indexed.stats.index_probes < 50);
    }

    #[test]
    fn self_join_view() {
        let mut db = Database::new();
        db.create("R", Schema::new(["A", "B"]).unwrap()).unwrap();
        db.load("R", [[1, 10], [2, 20]]).unwrap();
        let view = SpjExpr::new(["R", "R"], Atom::lt_const("A", 100).into(), None);
        let mut txn = Transaction::new();
        txn.insert("R", [3, 30]).unwrap();
        txn.delete("R", [1, 10]).unwrap();
        check_equivalence(&db, &view, &txn);
    }

    #[test]
    fn dnf_condition() {
        use ivm_relational::predicate::Conjunction;
        let (db, _) = setup();
        let view = SpjExpr::new(
            ["R", "S"],
            Condition::dnf([
                Conjunction::new([Atom::lt_const("A", 2)]),
                Conjunction::new([Atom::gt_const("C", 12)]),
            ]),
            Some(vec!["A".into()]),
        );
        let mut txn = Transaction::new();
        txn.insert("R", [0, 10]).unwrap();
        txn.delete("S", [10, 15]).unwrap();
        check_equivalence(&db, &view, &txn);
    }

    #[test]
    fn parts_api_matches_database_api() {
        let (db, view) = setup();
        let mut txn = Transaction::new();
        txn.insert("R", [7, 10]).unwrap();
        txn.delete("S", [10, 15]).unwrap();
        let via_db = differential_delta(&view, &db, &txn, &DiffOptions::default()).unwrap();

        let r = db.relation("R").unwrap();
        let s = db.relation("S").unwrap();
        let dr = txn.delta("R", r.schema()).unwrap();
        let ds = txn.delta("S", s.schema()).unwrap();
        let via_parts = differential_delta_parts_observed(
            &view,
            &[r, s],
            &[Some(&dr), Some(&ds)],
            &DiffOptions::default(),
            &Obs::disabled(),
        )
        .unwrap();
        assert_eq!(via_db.delta, via_parts.delta);
    }

    #[test]
    fn stats_outputs_match_delta() {
        let (db, view) = setup();
        let mut txn = Transaction::new();
        txn.insert("R", [7, 10]).unwrap();
        txn.delete("R", [1, 10]).unwrap();
        let r = differential_delta(&view, &db, &txn, &DiffOptions::default()).unwrap();
        let (ins, del) = r.delta.split();
        assert_eq!(
            r.stats.output_inserts,
            ins.iter().map(|(_, c)| c).sum::<u64>()
        );
        assert_eq!(
            r.stats.output_deletes,
            del.iter().map(|(_, c)| c).sum::<u64>()
        );
    }

    /// The pivot groups partition the truth table: for every set of
    /// updated operands, on data where no join prefix is empty, the DFS
    /// evaluates each of the 2^k − 1 rows exactly once and the delta
    /// matches full re-evaluation.
    #[test]
    fn pivot_groups_cover_every_row_once() {
        let mut db = Database::new();
        let names = ["R1", "R2", "R3", "R4"];
        for (i, name) in names.iter().enumerate() {
            let a = format!("A{i}");
            let b = format!("A{}", i + 1);
            db.create(*name, Schema::new([a.as_str(), b.as_str()]).unwrap())
                .unwrap();
            // Every pair over 0..4 but the four `(a, a + 1 mod 4)` ones:
            // each value has at least two partners on either side, so no
            // prefix of any row is empty.
            for a in 0..4i64 {
                for b in (0..4).filter(|&b| b != (a + 1) % 4) {
                    db.load(name, [[a, b]]).unwrap();
                }
            }
        }
        let view = SpjExpr::new(names, Atom::lt_const("A2", 3).into(), None);
        for mask in 1u32..16 {
            let mut txn = Transaction::new();
            for (i, name) in names.iter().enumerate() {
                if mask >> i & 1 == 1 {
                    for a in 0..4i64 {
                        txn.insert(*name, [a, (a + 1) % 4]).unwrap();
                    }
                    txn.delete(*name, [2, 2]).unwrap();
                }
            }
            let k = mask.count_ones();
            let grouped = differential_delta(&view, &db, &txn, &DiffOptions::default()).unwrap();
            let mut db_after = db.clone();
            db_after.apply(&txn).unwrap();
            let full =
                crate::full_reval::recompute_delta(&view, &db_after, &view.eval(&db).unwrap())
                    .unwrap();
            assert_eq!(grouped.delta, full, "mask {mask:04b}");
            assert_eq!(grouped.stats.joins_skipped, 0, "mask {mask:04b}");
            assert_eq!(
                grouped.stats.rows_evaluated,
                (1 << k) - 1,
                "mask {mask:04b}"
            );
        }
    }

    /// An old tuple with `u64::MAX` copies joined with one inserted tuple
    /// is an insert of `u64::MAX` view tuples, which no signed delta can
    /// hold. Both `B = 0` paths — the index probe and the materialized
    /// fallback — must reject it instead of wrapping the count to `-1`,
    /// with and without metrics (the fused probe runs either way).
    #[test]
    fn counts_beyond_i64_are_rejected() {
        for covering_index in [true, false] {
            let mut db = Database::new();
            db.create("S", Schema::new(["B", "C"]).unwrap()).unwrap();
            let mut huge = Relation::empty(Schema::new(["A", "B"]).unwrap());
            huge.insert(Tuple::from([1, 10]), u64::MAX).unwrap();
            if covering_index {
                huge.create_index(&[1]).unwrap();
            }
            db.adopt("R", huge).unwrap();
            db.load("S", [[10, 100]]).unwrap();
            let view = SpjExpr::new(["R", "S"], Condition::always_true(), None);
            let mut txn = Transaction::new();
            txn.insert("S", [10, 200]).unwrap();
            let recorder = Obs::new(std::sync::Arc::new(ivm_obs::InMemoryRecorder::new()));
            for obs in [Obs::disabled(), recorder] {
                let res =
                    differential_delta_observed(&view, &db, &txn, &DiffOptions::default(), &obs);
                let ctx = format!("index {covering_index} metrics {}: {res:?}", obs.enabled());
                assert!(
                    matches!(
                        res,
                        Err(crate::error::IvmError::Relational(
                            RelError::CounterOverflow(_)
                        ))
                    ),
                    "{ctx}"
                );
            }
        }
    }
}
