//! Differential re-evaluation of SPJ views — Algorithm 5.1 (§5.4).
//!
//! Input: the view `V = π_X(σ_C(R₁ ⋈ … ⋈ R_p))`, the contents of the
//! base relations *before* the transaction, and the per-relation net update
//! sets. Output: a view transaction (a signed [`DeltaRelation`]) that
//! brings the materialization up to date.
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
//! *surviving* old tuples `r_i − d_{r_i}` tagged `old`; `B_i = 1`
//! substitutes `i_{r_i} ∪ d_{r_i}` tagged `insert`/`delete`; joins combine
//! tags by the §5.3 table (mixed insert/delete tuples are ignored). Summed
//! over all non-zero rows this yields exactly `V(new) − V(old)`: a row's
//! all-insert choices contribute the new-only terms, all-delete choices
//! the old-only terms, and mixed choices cancel — the "ignore" entries of
//! the tag table.
//!
//! Optimizations (each individually switchable in [`DiffOptions`], all
//! validated against each other and against full re-evaluation by
//! property tests):
//!
//! * **prefix sharing** — rows are evaluated as a DFS over operand
//!   positions so every shared join prefix is computed once, and prefixes
//!   that cannot reach a non-zero row are never extended (§5.3's "re-using
//!   partial subexpressions appearing in multiple rows");
//! * **selection pushdown** — single-operand atoms of the condition filter
//!   operands before any join ([`crate::differential::plan`]);
//! * **operand reordering** — change sets join first, in a
//!   connectivity-preserving greedy order (§5.3's "good order for
//!   execution of the joins");
//! * **lazy operands** — when only one relation changed (`k = 1`), the
//!   single row never touches that relation's old contents, so they are
//!   never copied;
//! * **parallel rows** — the 2^k − 1 truth-table rows are independent, so
//!   when the operand tuples they read clear the pool's grain rule
//!   ([`Pool::for_work`]) they are fanned out over a scoped worker pool in
//!   contiguous chunks (each chunk keeps an incremental join stack, the
//!   chunk-local analogue of DFS prefix sharing) and the chunk results are
//!   merged in row order. Below the grain the sequential DFS runs at every
//!   width. The accumulators are keyed tagged maps and
//!   row merging is additive, so the delta is identical to the sequential
//!   engine for every thread count; when there are fewer rows than workers
//!   (`k = 1` in particular) the spare parallelism is spent inside the
//!   joins instead via the hash-partitioned `natural_join_tagged_with`;
//! * **index probing** — when a `B_i = 0` operand carries a maintained
//!   [`JoinIndex`] covering the join key against the accumulated prefix,
//!   the engine neither materializes the operand nor hash-builds it:
//!   each prefix tuple probes the persistent index directly
//!   (`IndexedZero`, `probe_join_tagged`). At the last operand position
//!   the probe is additionally fused with the residual selection and final
//!   projection, emitting straight into the row accumulator. Falls back
//!   to the materialized build when no index covers the key, a selection
//!   was pushed onto the operand, or `use_indexes` is off — with
//!   bit-identical deltas and work counters either way (only the
//!   `index_probes`/`index_probe_rows` stats differ, by construction).

use ivm_obs::{names, Obs};
use ivm_parallel::Pool;
use ivm_relational::algebra;
use ivm_relational::attribute::AttrName;
use ivm_relational::database::Database;
use ivm_relational::delta::DeltaRelation;
use ivm_relational::error::RelError;
use ivm_relational::expr::SpjExpr;
use ivm_relational::index::JoinIndex;
use ivm_relational::predicate::Condition;
use ivm_relational::relation::Relation;
use ivm_relational::schema::Schema;
use ivm_relational::tagged::{Tag, TaggedRelation};
use ivm_relational::transaction::Transaction;
use ivm_relational::tuple::Tuple;
use ivm_relational::value::Value;

use crate::differential::{plan, truth_table};
use crate::error::Result;
use crate::stats::DiffStats;

/// Options controlling a differential run. The defaults enable every
/// optimization; the flags exist for the ablation benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiffOptions {
    /// Share join prefixes across truth-table rows; `false` evaluates each
    /// row independently.
    pub share_prefixes: bool,
    /// Apply single-operand condition atoms before joining.
    pub push_selections: bool,
    /// Join change sets first in a connectivity-preserving greedy order.
    pub reorder_operands: bool,
    /// Maximum worker threads for views of one stratum, relevance
    /// filtering, truth-table rows and partitioned joins; each fan-out
    /// uses fewer when its work is small ([`Pool::for_work`]). `1` forces
    /// the sequential path (the deterministic oracle the tests compare
    /// against); `0` means one worker per available core. The resulting
    /// delta is identical at every width.
    pub threads: usize,
    /// Probe maintained [`JoinIndex`]es for `B = 0` operands instead of
    /// materializing and hash-building them, where one covers the join
    /// key. `false` forces the materialized fallback everywhere (the
    /// oracle the indexed-vs-fallback equivalence tests compare against).
    pub use_indexes: bool,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            share_prefixes: true,
            push_selections: true,
            reorder_operands: true,
            threads: 1,
            use_indexes: true,
        }
    }
}

impl DiffOptions {
    /// The paper's plain algorithm with no optimizations beyond the truth
    /// table itself (ablation baseline).
    pub fn plain() -> Self {
        DiffOptions {
            share_prefixes: false,
            push_selections: false,
            reorder_operands: false,
            threads: 1,
            use_indexes: false,
        }
    }
}

/// A computed view transaction plus its work counters.
#[derive(Debug, Clone)]
pub struct DifferentialResult {
    /// The signed view delta (`+` = insert into the view, `−` = delete).
    pub delta: DeltaRelation,
    /// Work performed.
    pub stats: DiffStats,
}

/// The net change to one operand position.
#[derive(Debug, Clone)]
pub struct OperandUpdate {
    /// Net inserted tuples (`i_r`), disjoint from the old relation.
    pub inserts: Relation,
    /// Net deleted tuples (`d_r ⊆ r`).
    pub deletes: Relation,
}

impl OperandUpdate {
    /// True when both change sets are empty.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// Total number of changed tuples.
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }
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
    let mut updates: Vec<Option<OperandUpdate>> = Vec::with_capacity(view.arity());
    for name in &view.relations {
        let rel = db_before.relation(name)?;
        old.push(rel);
        let inserts = txn.insert_set(name, rel.schema())?;
        let deletes = txn.delete_set(name, rel.schema())?;
        if inserts.is_empty() && deletes.is_empty() {
            updates.push(None);
        } else {
            updates.push(Some(OperandUpdate { inserts, deletes }));
        }
    }
    differential_delta_parts_observed(view, &old, &updates, opts, obs)
}

/// Algorithm 5.1 over explicit positional operands: `old[i]` is the
/// pre-transaction state of `view.relations[i]`, `updates[i]` its net
/// change (or `None` if untouched). Useful when the old states are
/// reconstructed rather than held in a [`Database`] (e.g. snapshot
/// refresh).
pub fn differential_delta_parts(
    view: &SpjExpr,
    old: &[&Relation],
    updates: &[Option<OperandUpdate>],
    opts: &DiffOptions,
) -> Result<DifferentialResult> {
    differential_delta_parts_observed(view, old, updates, opts, &Obs::disabled())
}

/// [`differential_delta_parts`] with metrics (see
/// [`differential_delta_observed`]).
pub fn differential_delta_parts_observed(
    view: &SpjExpr,
    old: &[&Relation],
    updates: &[Option<OperandUpdate>],
    opts: &DiffOptions,
    obs: &Obs,
) -> Result<DifferentialResult> {
    assert_eq!(old.len(), view.arity(), "one old state per operand");
    assert_eq!(updates.len(), view.arity(), "one update slot per operand");
    let p = view.arity();
    let out_schema = output_schema(view, old)?;

    let updated: Vec<usize> = updates
        .iter()
        .enumerate()
        .filter_map(|(i, u)| u.as_ref().filter(|u| !u.is_empty()).map(|_| i))
        .collect();
    if updated.is_empty() {
        return Ok(DifferentialResult {
            delta: DeltaRelation::empty(out_schema),
            stats: DiffStats::default(),
        });
    }

    // --- planning -----------------------------------------------------
    let schemas: Vec<&Schema> = old.iter().map(|r| r.schema()).collect();
    let pushdown = if opts.push_selections {
        plan::push_selections(&view.condition, &schemas)
    } else {
        plan::Pushdown {
            per_operand: vec![Condition::always_true(); p],
            residual: view.condition.clone(),
        }
    };
    let order: Vec<usize> = if opts.reorder_operands {
        let metric: Vec<usize> = (0..p)
            .map(|i| match &updates[i] {
                Some(u) if !u.is_empty() => u.len(),
                _ => old[i].len(),
            })
            .collect();
        let updated_flags: Vec<bool> = (0..p).map(|i| updated.contains(&i)).collect();
        plan::order_operands(&schemas, &metric, &updated_flags)
    } else {
        (0..p).collect()
    };
    let identity_order = order.iter().enumerate().all(|(i, &o)| i == o);

    // Final projection: the view's own, or — when reordering disturbed the
    // natural layout — an explicit projection back onto the canonical
    // scheme.
    let final_proj: Option<Vec<AttrName>> = match &view.projection {
        Some(attrs) => Some(attrs.clone()),
        None if !identity_order => Some(out_schema.attrs().to_vec()),
        None => None,
    };

    // Permute operands into evaluation order.
    let ordered_old: Vec<&Relation> = order.iter().map(|&i| old[i]).collect();
    let ordered_updates: Vec<Option<&OperandUpdate>> = order
        .iter()
        .map(|&i| updates[i].as_ref().filter(|u| !u.is_empty()))
        .collect();
    let ordered_push: Vec<&Condition> = order.iter().map(|&i| &pushdown.per_operand[i]).collect();

    let ctx = RowCtx {
        residual: &pushdown.residual,
        final_proj: final_proj.as_deref(),
        out_schema: &out_schema,
        obs,
    };

    let result = tagged_differential(&ctx, &ordered_old, &ordered_updates, &ordered_push, opts)?;

    if obs.enabled() {
        // Aggregate work counters, emitted once per run so the disabled
        // path costs nothing in the hot loops.
        let s = &result.stats;
        let total_rows = (1u64 << updated.len().min(63)) - 1;
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
    Ok(result)
}

/// Shared per-run context: the residual condition and final projection
/// applied at each row leaf, plus the metrics handle (shared read-only
/// with pool workers — per-row observations come from whichever thread
/// evaluated the row).
struct RowCtx<'a> {
    residual: &'a Condition,
    final_proj: Option<&'a [AttrName]>,
    out_schema: &'a Schema,
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

/// Does any row use the `B_i = 0` operand of position `i` (in evaluation
/// order)? Non-updated positions always do; an updated position does only
/// when another relation is also updated (`k ≥ 2`).
fn zero_operand_needed(i: usize, ordered_updates: &[Option<&OperandUpdate>]) -> bool {
    let k = ordered_updates.iter().filter(|u| u.is_some()).count();
    ordered_updates[i].is_none() || k >= 2
}

// ---------------------------------------------------------------------
// Indexed B = 0 operands
// ---------------------------------------------------------------------

/// A probe plan for a `B = 0` operand backed by a maintained [`JoinIndex`]:
/// instead of materializing the unchanged side and hash-building it per
/// join term, each prefix tuple looks its join-key values up in the
/// persistent index. Valid only at positions `j ≥ 1` (there must be a
/// prefix to probe from) with no pushed selection on the operand.
struct IndexedZero<'a> {
    /// The maintained index on the old relation, keyed exactly by the
    /// natural-join columns against the accumulated prefix.
    index: &'a JoinIndex,
    /// Net deletes to subtract per posting (§5.3 `r − d_r`); `None` when
    /// the operand has none.
    deletes: Option<&'a Relation>,
    /// Prefix-tuple positions supplying the key values, aligned with
    /// `index.positions()` order.
    probe_positions: Vec<usize>,
    /// Operand positions appended to each prefix tuple on a match
    /// (the non-key columns, in scheme order).
    r_rest: Vec<usize>,
    /// Scheme of the probe-join output: `prefix.join(operand)`.
    schema: Schema,
    /// Distinct entries the materialized fallback operand would hold —
    /// keeps `operand_tuples` identical between the two paths.
    logical_len: u64,
}

/// Plan an indexed `B = 0` operand, or `None` when the materialized
/// fallback must be used: no prefix yet (position 0), a pushed selection
/// filters the operand, the join against the prefix is a cross product,
/// or no maintained index covers the join key.
fn indexed_zero<'a>(
    prefix_schema: Option<&Schema>,
    old: &'a Relation,
    update: Option<&'a OperandUpdate>,
    cond: &Condition,
) -> Option<IndexedZero<'a>> {
    if !cond.is_trivially_true() {
        return None;
    }
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
    let deletes = update.map(|u| &u.deletes).filter(|d| !d.is_empty());
    let logical_len = match deletes {
        None => old.len() as u64,
        Some(d) => {
            // `d_r ⊆ r`, so fully-deleted tuples drop whole entries.
            let fully = d.iter().filter(|(t, dc)| *dc >= old.count(t)).count() as u64;
            (old.len() as u64).saturating_sub(fully)
        }
    };
    let schema = prefix.join(old.schema());
    Some(IndexedZero {
        index,
        deletes,
        probe_positions,
        r_rest,
        schema,
        logical_len,
    })
}

/// The probe loop behind [`probe_join_tagged`] and [`probe_emit_tagged`]:
/// for each prefix tuple, build its join key, walk the matching postings
/// of the index, subtract the net deletes (§5.3 `r − d_r`) and hand `sink`
/// the joined tuple, the prefix tag and the checked product count. The
/// operand side is tagged `Old`, the identity of [`Tag::combine`], so the
/// prefix tag carries through unchanged and no combination is ignored.
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
                    let dc = d.count(rt);
                    if dc >= rc {
                        continue; // fully deleted
                    }
                    rc - dc
                }
            };
            let count = lc
                .checked_mul(rc)
                .ok_or_else(|| RelError::CounterOverflow("probe-join count exceeds u64".into()))?;
            let mut vals = Vec::with_capacity(lt.values().len() + ix.r_rest.len());
            vals.extend_from_slice(lt.values());
            for &p in &ix.r_rest {
                vals.push(rt.at(p).clone());
            }
            sink(Tuple::new(vals), ltag, count)?;
        }
    }
    Ok(())
}

/// Probe-join a tagged prefix against an indexed `B = 0` operand.
/// Produces exactly `natural_join_tagged(prefix, tagged_zero(old, deletes))`.
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
/// tagged accumulator entry. Only used when metrics are disabled — the
/// fused path cannot observe the per-row output histogram or the tag
/// tallies. Semantically identical to [`probe_join_tagged`] →
/// [`emit_tagged_leaf`] → `into_delta`.
fn probe_emit_tagged(
    ctx: &RowCtx<'_>,
    left: &TaggedRelation,
    ix: &IndexedZero<'_>,
    fused: &mut DeltaRelation,
    stats: &mut DiffStats,
) -> Result<()> {
    let trivial = ctx.residual.is_trivially_true();
    let proj: Option<Vec<usize>> = match ctx.final_proj {
        None => None,
        Some(attrs) => Some(
            attrs
                .iter()
                .map(|a| ix.schema.require(a))
                .collect::<ivm_relational::error::Result<_>>()?,
        ),
    };
    probe_each(left, ix, stats, |tuple, tag, count| {
        if !trivial && !ctx.residual.eval(&ix.schema, &tuple)? {
            return Ok(());
        }
        let tuple = match &proj {
            None => tuple,
            Some(ps) => tuple.project_positions(ps),
        };
        // The prefix holds the row's one-substituted operands (the zero
        // here is last), so its tag is Insert or Delete — Old is the
        // combine identity and contributes nothing regardless.
        fused.add(tuple, tag.delta_count(count)?);
        Ok(())
    })
}

// ---------------------------------------------------------------------
// Operands and row evaluation
// ---------------------------------------------------------------------

/// The `B = 0` operand of one position: materialized, or a probe plan
/// against a maintained index.
enum TaggedZero<'a> {
    /// Materialized fallback: surviving old tuples tagged `old`,
    /// pre-filtered by the pushed condition.
    Mat(TaggedRelation),
    /// Indexed: never materialized, probed per prefix tuple.
    Idx(IndexedZero<'a>),
}

struct TaggedOperands<'a> {
    /// `B = 0` operand. `None` when no row needs it.
    zero: Option<TaggedZero<'a>>,
    /// `B = 1` operand: tagged, pre-filtered change set. `None` for
    /// untouched relations.
    one: Option<TaggedRelation>,
}

/// One operand chosen for a truth-table row position.
enum TaggedPick<'b, 'a> {
    Rel(&'b TaggedRelation),
    Idx(&'b IndexedZero<'a>),
}

impl TaggedPick<'_, '_> {
    /// Distinct entries the operand contributes (`operand_tuples` parity
    /// between the indexed and materialized paths).
    fn logical_len(&self) -> u64 {
        match self {
            TaggedPick::Rel(r) => r.len() as u64,
            TaggedPick::Idx(ix) => ix.logical_len,
        }
    }
}

fn pick_tagged<'b, 'a>(
    operands: &'b [TaggedOperands<'a>],
    j: usize,
    one: bool,
) -> TaggedPick<'b, 'a> {
    if one {
        // ivm-lint: allow(no-panic) — truth_table::rows sets B=1 only at updated positions, whose `one` operand is always materialized
        TaggedPick::Rel(operands[j].one.as_ref().expect("B=1 only for updated"))
    } else {
        // ivm-lint: allow(no-panic) — every operand's zero plan is built before differentiation starts
        match operands[j].zero.as_ref().expect("zero operand needed") {
            TaggedZero::Mat(r) => TaggedPick::Rel(r),
            TaggedZero::Idx(ix) => TaggedPick::Idx(ix),
        }
    }
}

/// Materialize the `B = 0` operand: old minus deletions, filtered, tagged
/// `old` — fusing §5.3's `r − d_r` with the pushed selection in one pass.
fn tagged_zero(
    old: &Relation,
    deletes: Option<&Relation>,
    cond: &Condition,
) -> Result<TaggedRelation> {
    let trivial = cond.is_trivially_true();
    let mut out = TaggedRelation::empty(old.schema().clone());
    for (t, c) in old.iter() {
        if let Some(d) = deletes {
            let dc = d.count(t);
            if dc >= c {
                continue; // fully deleted
            }
            if trivial || cond.eval(old.schema(), t)? {
                out.add(t.clone(), Tag::Old, c - dc);
            }
            continue;
        }
        if trivial || cond.eval(old.schema(), t)? {
            out.add(t.clone(), Tag::Old, c);
        }
    }
    Ok(out)
}

/// Materialize the `B = 1` operand: inserts/deletes filtered and tagged.
fn tagged_one(u: &OperandUpdate, cond: &Condition) -> Result<TaggedRelation> {
    let trivial = cond.is_trivially_true();
    let schema = u.inserts.schema().clone();
    let mut out = TaggedRelation::empty(schema.clone());
    for (t, c) in u.inserts.iter() {
        if trivial || cond.eval(&schema, t)? {
            out.add(t.clone(), Tag::Insert, c);
        }
    }
    for (t, c) in u.deletes.iter() {
        if trivial || cond.eval(&schema, t)? {
            out.add(t.clone(), Tag::Delete, c);
        }
    }
    Ok(out)
}

fn tagged_differential<'a>(
    ctx: &RowCtx<'_>,
    old: &[&'a Relation],
    updates: &[Option<&'a OperandUpdate>],
    pushed: &[&Condition],
    opts: &DiffOptions,
) -> Result<DifferentialResult> {
    let p = old.len();
    let mut operands: Vec<TaggedOperands<'a>> = Vec::with_capacity(p);
    let mut prefix_schema: Option<Schema> = None;
    for i in 0..p {
        let zero = if zero_operand_needed(i, updates) {
            let idx = if opts.use_indexes {
                indexed_zero(prefix_schema.as_ref(), old[i], updates[i], pushed[i])
            } else {
                None
            };
            Some(match idx {
                Some(ix) => TaggedZero::Idx(ix),
                None => TaggedZero::Mat(tagged_zero(
                    old[i],
                    updates[i].map(|u| &u.deletes),
                    pushed[i],
                )?),
            })
        } else {
            None
        };
        let one = match updates[i] {
            None => None,
            Some(u) => Some(tagged_one(u, pushed[i])?),
        };
        prefix_schema = Some(match prefix_schema {
            None => old[i].schema().clone(),
            Some(s) => s.join(old[i].schema()),
        });
        operands.push(TaggedOperands { zero, one });
    }

    let mut stats = DiffStats::default();
    let mut acc = TaggedRelation::empty(ctx.out_schema.clone());
    // Signed output of fused last-operand probes (sequential DFS only);
    // merged into the accumulator's delta at the end.
    let mut fused = DeltaRelation::empty(ctx.out_schema.clone());

    let pool = Pool::for_work(opts.threads, row_work(&operands));
    if !pool.is_sequential() {
        let updated: Vec<usize> = (0..p).filter(|&i| operands[i].one.is_some()).collect();
        let rows = truth_table::rows(p, &updated);
        // Fewer rows than workers (k = 1 in particular): spend the spare
        // parallelism inside the joins instead of across rows.
        let join_threads = if rows.len() < pool.threads() {
            pool.threads()
        } else {
            1
        };
        let chunks = pool.map_chunks_observed(
            rows.len(),
            |range| {
                eval_tagged_rows(
                    ctx,
                    &operands,
                    &rows[range],
                    opts.share_prefixes,
                    join_threads,
                )
            },
            ctx.obs,
        );
        for chunk in chunks {
            let (chunk_acc, chunk_stats) = chunk?;
            stats += chunk_stats;
            acc.merge(&chunk_acc)
                .map_err(crate::error::IvmError::from)?;
        }
    } else if opts.share_prefixes {
        let mut updated_after = vec![false; p + 1];
        for j in (0..p).rev() {
            updated_after[j] = updated_after[j + 1] || operands[j].one.is_some();
        }
        dfs_tagged(
            ctx,
            &operands,
            &updated_after,
            0,
            None,
            false,
            &mut acc,
            &mut fused,
            &mut stats,
        )?;
    } else {
        let updated: Vec<usize> = (0..p).filter(|&i| operands[i].one.is_some()).collect();
        for row in truth_table::rows(p, &updated) {
            stats.rows_evaluated += 1;
            let picks: Vec<TaggedPick<'_, 'a>> = row
                .iter()
                .enumerate()
                .map(|(j, &one)| pick_tagged(&operands, j, one))
                .collect();
            stats.operand_tuples += picks.iter().map(TaggedPick::logical_len).sum::<u64>();
            // ivm-lint: allow(no-unchecked-index) — p ≥ 1 operands, so every truth-table row has a first input
            let mut joined = match &picks[0] {
                TaggedPick::Rel(r) => (*r).clone(),
                // ivm-lint: allow(no-panic) — position 0 has no prefix, so indexed_zero never plans an index there
                TaggedPick::Idx(_) => unreachable!("indexed zero requires a prefix"),
            };
            for pick in &picks[1..] {
                stats.joins_performed += 1;
                joined = match pick {
                    TaggedPick::Rel(r) => algebra::natural_join_tagged(&joined, r)?,
                    TaggedPick::Idx(ix) => probe_join_tagged(&joined, ix, &mut stats)?,
                };
            }
            emit_tagged_leaf(ctx, &joined, &mut acc)?;
        }
    }

    if ctx.obs.enabled() {
        // Tag-algebra outcome of the whole run: how many distinct row
        // output entries carried each tag. `old` entries are context that
        // cancels out of the delta below — pure carrying cost.
        let (tag_ins, tag_del, tag_old) = acc.tag_counts();
        ctx.obs.add(names::DIFF_TAG_INSERTS, tag_ins);
        ctx.obs.add(names::DIFF_TAG_DELETES, tag_del);
        ctx.obs.add(names::DIFF_TAG_OLDS, tag_old);
    }
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

/// Operand tuples the truth-table rows read in all — the work estimate
/// the pool's grain rule sizes the row fan-out by. Of the 2^k − 1 rows, an
/// updated position reads its `B = 1` operand in 2^(k−1) of them and its
/// `B = 0` operand in the other 2^(k−1) − 1; an unchanged position reads
/// its `B = 0` operand in every row.
fn row_work(operands: &[TaggedOperands<'_>]) -> usize {
    let k = operands.iter().filter(|o| o.one.is_some()).count();
    if k == 0 {
        return 0;
    }
    let rows = truth_table::row_count(k);
    let ones = 1usize << (k - 1);
    operands
        .iter()
        .map(|o| {
            let zero = match &o.zero {
                None => 0,
                Some(TaggedZero::Mat(r)) => r.len(),
                Some(TaggedZero::Idx(ix)) => usize::try_from(ix.logical_len).unwrap_or(usize::MAX),
            };
            match &o.one {
                Some(one) => ones
                    .saturating_mul(one.len())
                    .saturating_add((rows - ones).saturating_mul(zero)),
                None => rows.saturating_mul(zero),
            }
        })
        .fold(0, usize::saturating_add)
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
        ctx.obs
            .observe(names::DIFF_ROW_OUTPUT_TUPLES, projected.len() as u64);
    }
    acc.merge(&projected).map_err(crate::error::IvmError::from)
}

/// Evaluate a contiguous chunk of truth-table rows into a chunk-local
/// accumulator — the unit of work one pool worker runs. With `share` an
/// incremental join stack is kept across consecutive rows (truncated to
/// the common prefix, then extended), the chunk-local analogue of the DFS
/// prefix sharing; rows inside a chunk are in truth-table order, so the
/// sharing opportunities are the same ones the DFS exploits. `join_threads`
/// flows into the hash-partitioned joins for the few-rows case.
fn eval_tagged_rows(
    ctx: &RowCtx<'_>,
    operands: &[TaggedOperands<'_>],
    rows: &[truth_table::Row],
    share: bool,
    join_threads: usize,
) -> Result<(TaggedRelation, DiffStats)> {
    let p = operands.len();
    let mut acc = TaggedRelation::empty(ctx.out_schema.clone());
    let mut stats = DiffStats::default();
    // stack[j] = join of the operands chosen for positions 0..=j of the
    // current row; reusable entries survive row-to-row truncation.
    // pruned[j] = some prefix 0..=j went empty without a join — the same
    // subtrees the sequential DFS prunes, kept so `rows_evaluated` reports
    // the identical number at every thread count.
    let mut stack: Vec<TaggedRelation> = Vec::with_capacity(p);
    let mut pruned: Vec<bool> = Vec::with_capacity(p);
    let mut prev: Option<&truth_table::Row> = None;
    for row in rows {
        let keep = if !share {
            0
        } else {
            match prev {
                None => 0,
                Some(pr) => pr
                    .iter()
                    .zip(row.iter())
                    .take_while(|(a, b)| a == b)
                    .count(),
            }
        };
        stack.truncate(keep);
        pruned.truncate(keep);
        for (j, &one) in row.iter().enumerate().skip(keep) {
            let next = match pick_tagged(operands, j, one) {
                TaggedPick::Rel(operand) => {
                    stats.operand_tuples += operand.len() as u64;
                    if j == 0 {
                        operand.clone()
                    } else if stack[j - 1].is_empty() {
                        // Empty prefixes stay empty; skip the join but keep
                        // the stack aligned for later rows.
                        stats.joins_skipped += 1;
                        TaggedRelation::empty(stack[j - 1].schema().join(operand.schema()))
                    } else {
                        stats.joins_performed += 1;
                        algebra::natural_join_tagged_with(
                            &stack[j - 1],
                            operand,
                            join_threads,
                            ctx.obs,
                        )?
                    }
                }
                TaggedPick::Idx(ix) => {
                    // Indexed zeros only exist at positions j ≥ 1.
                    stats.operand_tuples += ix.logical_len;
                    if stack[j - 1].is_empty() {
                        stats.joins_skipped += 1;
                        TaggedRelation::empty(ix.schema.clone())
                    } else {
                        stats.joins_performed += 1;
                        probe_join_tagged(&stack[j - 1], ix, &mut stats)?
                    }
                }
            };
            pruned.push(
                pruned.last().copied().unwrap_or(false) || (j > 0 && stack[j - 1].is_empty()),
            );
            stack.push(next);
        }
        // With sharing, rows the DFS would prune (empty prefix) do not
        // count as evaluated; without it the flat loop counts every row.
        if !share || !pruned[p - 1] {
            stats.rows_evaluated += 1;
        }
        emit_tagged_leaf(ctx, &stack[p - 1], &mut acc)?;
        prev = Some(row);
    }
    Ok((acc, stats))
}

#[allow(clippy::too_many_arguments)]
fn dfs_tagged(
    ctx: &RowCtx<'_>,
    operands: &[TaggedOperands<'_>],
    updated_after: &[bool],
    j: usize,
    prefix: Option<&TaggedRelation>,
    any_one: bool,
    acc: &mut TaggedRelation,
    fused: &mut DeltaRelation,
    stats: &mut DiffStats,
) -> Result<()> {
    if j == operands.len() {
        // Reached only on useful rows (pruning guarantees any_one).
        debug_assert!(any_one);
        stats.rows_evaluated += 1;
        // ivm-lint: allow(no-panic) — descend only reaches j = p with a prefix built at depth 0
        let joined = prefix.expect("p ≥ 1 so prefix exists at leaf");
        return emit_tagged_leaf(ctx, joined, acc);
    }
    // Zero branch — pruned when it can never flip any_one.
    if let Some(zero) = &operands[j].zero {
        if any_one || updated_after[j + 1] {
            match zero {
                TaggedZero::Mat(rel) => descend_tagged(
                    ctx,
                    operands,
                    updated_after,
                    j,
                    prefix,
                    any_one,
                    rel,
                    acc,
                    fused,
                    stats,
                )?,
                TaggedZero::Idx(ix) => descend_tagged_indexed(
                    ctx,
                    operands,
                    updated_after,
                    j,
                    prefix,
                    any_one,
                    ix,
                    acc,
                    fused,
                    stats,
                )?,
            }
        }
    }
    // One branch.
    if let Some(one) = &operands[j].one {
        descend_tagged(
            ctx,
            operands,
            updated_after,
            j,
            prefix,
            true,
            one,
            acc,
            fused,
            stats,
        )?;
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn descend_tagged(
    ctx: &RowCtx<'_>,
    operands: &[TaggedOperands<'_>],
    updated_after: &[bool],
    j: usize,
    prefix: Option<&TaggedRelation>,
    any_one: bool,
    operand: &TaggedRelation,
    acc: &mut TaggedRelation,
    fused: &mut DeltaRelation,
    stats: &mut DiffStats,
) -> Result<()> {
    stats.operand_tuples += operand.len() as u64;
    match prefix {
        None => dfs_tagged(
            ctx,
            operands,
            updated_after,
            j + 1,
            Some(operand),
            any_one,
            acc,
            fused,
            stats,
        ),
        Some(prev) => {
            if prev.is_empty() {
                // Empty prefixes stay empty; skip the whole subtree.
                stats.joins_skipped += 1;
                return Ok(());
            }
            stats.joins_performed += 1;
            let next = algebra::natural_join_tagged(prev, operand)?;
            dfs_tagged(
                ctx,
                operands,
                updated_after,
                j + 1,
                Some(&next),
                any_one,
                acc,
                fused,
                stats,
            )
        }
    }
}

/// DFS descent through an indexed `B = 0` operand: probe-join the prefix
/// instead of hash-joining a materialized operand. At the last operand
/// position (and with metrics off) the probe is fused with the residual
/// selection and final projection, emitting straight into the
/// accumulator — the row result is never materialized at all.
#[allow(clippy::too_many_arguments)]
fn descend_tagged_indexed(
    ctx: &RowCtx<'_>,
    operands: &[TaggedOperands<'_>],
    updated_after: &[bool],
    j: usize,
    prefix: Option<&TaggedRelation>,
    any_one: bool,
    ix: &IndexedZero<'_>,
    acc: &mut TaggedRelation,
    fused: &mut DeltaRelation,
    stats: &mut DiffStats,
) -> Result<()> {
    stats.operand_tuples += ix.logical_len;
    let Some(prev) = prefix else {
        debug_assert!(false, "indexed zero requires a prefix (j ≥ 1)");
        return Ok(());
    };
    if prev.is_empty() {
        stats.joins_skipped += 1;
        return Ok(());
    }
    stats.joins_performed += 1;
    if j + 1 == operands.len() && !ctx.obs.enabled() {
        // Last operand: `any_one` is guaranteed — a zero choice here is
        // only descended when a one was already chosen (`updated_after`
        // past the end is false).
        debug_assert!(any_one);
        stats.rows_evaluated += 1;
        return probe_emit_tagged(ctx, prev, ix, fused, stats);
    }
    let next = probe_join_tagged(prev, ix, stats)?;
    dfs_tagged(
        ctx,
        operands,
        updated_after,
        j + 1,
        Some(&next),
        any_one,
        acc,
        fused,
        stats,
    )
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

    fn all_option_combos() -> Vec<DiffOptions> {
        let mut v = Vec::new();
        for share in [true, false] {
            for push in [true, false] {
                for reorder in [true, false] {
                    for threads in [1, 4] {
                        v.push(DiffOptions {
                            share_prefixes: share,
                            push_selections: push,
                            reorder_operands: reorder,
                            threads,
                            use_indexes: true,
                        });
                    }
                }
            }
        }
        v
    }

    /// The central invariant: differential result + old view = new view,
    /// for every option combination.
    fn check_equivalence(db: &Database, view: &SpjExpr, txn: &Transaction) {
        let mut db_after = db.clone();
        db_after.apply(txn).unwrap();
        let expected = view.eval(&db_after).unwrap();
        for opts in all_option_combos() {
            let mut v = view.eval(db).unwrap();
            let result = differential_delta(view, db, txn, &opts).unwrap();
            v.apply_delta(&result.delta).unwrap();
            assert_eq!(v, expected, "options {opts:?}");
        }
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
        for opts in all_option_combos() {
            let r = differential_delta(&view, &db, &txn, &opts).unwrap();
            assert!(r.delta.is_empty());
            assert_eq!(r.stats.rows_evaluated, 0);
        }
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
        let opts = DiffOptions {
            share_prefixes: false,
            ..DiffOptions::default()
        };
        let r = differential_delta(&view, &db, &txn, &opts).unwrap();
        assert_eq!(r.stats.rows_evaluated, 3);
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
        let shared = differential_delta(
            &view,
            &db,
            &txn,
            &DiffOptions {
                share_prefixes: true,
                reorder_operands: false,
                ..DiffOptions::default()
            },
        )
        .unwrap();
        let naive = differential_delta(
            &view,
            &db,
            &txn,
            &DiffOptions {
                share_prefixes: false,
                reorder_operands: false,
                ..DiffOptions::default()
            },
        )
        .unwrap();
        assert_eq!(shared.delta, naive.delta);
        // Naive: 15 rows × 3 joins = 45; shared DFS: ≤ 2 + 4 + 8 = 14.
        assert_eq!(naive.stats.joins_performed, 45);
        assert!(
            shared.stats.joins_performed <= 14,
            "shared joins = {}",
            shared.stats.joins_performed
        );
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
        // path must never be joined even without reordering.
        let (db, view) = setup();
        let mut txn = Transaction::new();
        txn.insert("S", [10, 99]).unwrap();
        let r = differential_delta(
            &view,
            &db,
            &txn,
            &DiffOptions {
                reorder_operands: false,
                ..DiffOptions::default()
            },
        )
        .unwrap();
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
        let with = differential_delta(
            &view,
            &db,
            &txn,
            &DiffOptions {
                push_selections: true,
                ..DiffOptions::default()
            },
        )
        .unwrap();
        let without = differential_delta(
            &view,
            &db,
            &txn,
            &DiffOptions {
                push_selections: false,
                ..DiffOptions::default()
            },
        )
        .unwrap();
        assert_eq!(with.delta, without.delta);
        assert!(
            with.stats.operand_tuples < without.stats.operand_tuples,
            "pushdown must shrink operands: {} vs {}",
            with.stats.operand_tuples,
            without.stats.operand_tuples
        );
    }

    #[test]
    fn reorder_puts_changes_first() {
        // Chain of 3, only the last updated: with reordering the first
        // join is change ⋈ R1 (small), without it the DFS still prunes but
        // must join R0 ⋈ R1 for the useful row.
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
        let reordered = differential_delta(
            &view,
            &db,
            &txn,
            &DiffOptions {
                reorder_operands: true,
                ..DiffOptions::default()
            },
        )
        .unwrap();
        let in_order = differential_delta(
            &view,
            &db,
            &txn,
            &DiffOptions {
                reorder_operands: false,
                ..DiffOptions::default()
            },
        )
        .unwrap();
        assert_eq!(reordered.delta, in_order.delta);
        assert!(
            reordered.stats.operand_tuples <= in_order.stats.operand_tuples,
            "change-first order must not read more tuples"
        );
        // And the delta has the canonical scheme despite reordering.
        assert_eq!(
            reordered.delta.schema().attrs(),
            &["A0".into(), "A1".into(), "A2".into(), "A3".into()]
        );
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
    fn dnf_condition_all_options() {
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
        let updates = vec![
            Some(OperandUpdate {
                inserts: txn.insert_set("R", r.schema()).unwrap(),
                deletes: txn.delete_set("R", r.schema()).unwrap(),
            }),
            Some(OperandUpdate {
                inserts: txn.insert_set("S", s.schema()).unwrap(),
                deletes: txn.delete_set("S", s.schema()).unwrap(),
            }),
        ];
        let via_parts =
            differential_delta_parts(&view, &[r, s], &updates, &DiffOptions::default()).unwrap();
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

    #[test]
    fn parallel_rows_match_sequential_delta() {
        // Four-way chain with three updated operands → 7 truth-table
        // rows; the delta must be bit-identical at every width, with and
        // without intra-chunk prefix sharing.
        let mut db = Database::new();
        for (i, name) in ["R1", "R2", "R3", "R4"].iter().enumerate() {
            let a = format!("A{i}");
            let b = format!("A{}", i + 1);
            db.create(*name, Schema::new([a.as_str(), b.as_str()]).unwrap())
                .unwrap();
            for v in 0..20 {
                db.load(name, [[v, v % 6]]).unwrap();
            }
        }
        let view = SpjExpr::new(
            ["R1", "R2", "R3", "R4"],
            Atom::lt_const("A0", 18).into(),
            Some(vec!["A0".into(), "A4".into()]),
        );
        let mut txn = Transaction::new();
        txn.insert("R1", [50, 3]).unwrap();
        txn.delete("R2", [4, 4]).unwrap();
        txn.insert("R3", [2, 5]).unwrap();
        for share in [true, false] {
            let seq = differential_delta(
                &view,
                &db,
                &txn,
                &DiffOptions {
                    share_prefixes: share,
                    threads: 1,
                    ..DiffOptions::default()
                },
            )
            .unwrap();
            for threads in [2, 3, 8] {
                let par = differential_delta(
                    &view,
                    &db,
                    &txn,
                    &DiffOptions {
                        share_prefixes: share,
                        threads,
                        ..DiffOptions::default()
                    },
                )
                .unwrap();
                assert_eq!(par.delta, seq.delta, "share {share} threads {threads}");
                assert_eq!(par.stats.rows_evaluated, seq.stats.rows_evaluated);
                if !share {
                    assert_eq!(par.stats.rows_evaluated, 7);
                }
            }
        }
    }

    /// An old tuple with `u64::MAX` copies joined with one inserted tuple
    /// is an insert of `u64::MAX` view tuples, which no signed delta can
    /// hold. Both `B = 0` paths — the index probe and the materialized
    /// fallback — must reject it instead of wrapping the count to `-1`,
    /// with and without metrics (which disable the fused probe) and at
    /// every thread count.
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
            for use_indexes in [true, false] {
                for threads in [1, 2] {
                    for obs in [Obs::disabled(), recorder.clone()] {
                        let opts = DiffOptions {
                            use_indexes,
                            threads,
                            ..DiffOptions::default()
                        };
                        let res = differential_delta_observed(&view, &db, &txn, &opts, &obs);
                        let ctx = format!(
                            "index {covering_index} use_indexes {use_indexes} \
                             threads {threads} metrics {}: {res:?}",
                            obs.enabled()
                        );
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
    }

    #[test]
    fn plain_options_reproduce_paper_algorithm() {
        let (db, view) = setup();
        let mut txn = Transaction::new();
        txn.insert("R", [7, 10]).unwrap();
        txn.insert("S", [20, 50]).unwrap();
        let plain = differential_delta(&view, &db, &txn, &DiffOptions::plain()).unwrap();
        let tuned = differential_delta(&view, &db, &txn, &DiffOptions::default()).unwrap();
        assert_eq!(plain.delta, tuned.delta);
        assert_eq!(plain.stats.rows_evaluated, 3);
    }
}
