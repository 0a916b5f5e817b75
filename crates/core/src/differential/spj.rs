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
//!   operand ever sits at position 0. Without reordering there is one
//!   group in definition order — the paper-literal table;
//! * **lazy operands** — when only one relation changed (`k = 1`), the
//!   single row never touches that relation's old contents, so they are
//!   never copied; a materialized operand is built at most once per run
//!   and shared by every group;
//! * **parallel groups** — the groups are independent, so when the
//!   operand tuples they read clear the pool's grain rule
//!   ([`Pool::for_work`]) they are fanned out over a scoped worker pool in
//!   contiguous chunks, each running the same sequential code as width 1,
//!   and the results are merged. An indexed operand is priced by the
//!   change-set tuples that probe it, not by its |r|. The accumulators are
//!   keyed tagged maps and merging is additive, so the delta and every
//!   work counter are identical for every thread count. This is the
//!   engine's only fan-out: a group's joins run on the thread that
//!   evaluates the group;
//! * **index probing** — when a `B = 0` operand carries a maintained
//!   [`JoinIndex`] covering the join key against the group's accumulated
//!   prefix, the engine neither materializes the operand nor hash-builds
//!   it: each prefix tuple probes the persistent index directly
//!   (`IndexedZero`, `probe_join_tagged`), subtracting `d_r` and applying
//!   the operand's pushed selection per posting. At the last operand
//!   position the probe is additionally fused with the residual selection
//!   and final projection, emitting straight into the signed output,
//!   with or without a metrics recorder installed.
//!   Falls back to the materialized build when no index covers the key or
//!   `use_indexes` is off — with identical deltas, rows and joins either
//!   way. Only the probe counters differ, and `operand_tuples` when a
//!   selection was pushed: an indexed operand charges `|r − d_r|`, the
//!   fallback its filtered size.

use ivm_obs::{names, Obs};
use ivm_parallel::Pool;
use ivm_relational::algebra;
use ivm_relational::attribute::AttrName;
use ivm_relational::database::Database;
use ivm_relational::delta::DeltaRelation;
use ivm_relational::error::RelError;
use ivm_relational::expr::{push_selections, Pushdown, SpjExpr};
use ivm_relational::index::JoinIndex;
use ivm_relational::predicate::{BoundCondition, Condition};
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
    /// Maximum worker threads for relevance filtering and pivot groups;
    /// each fan-out uses fewer when its work is small ([`Pool::for_work`]).
    /// `1` forces the sequential path (the deterministic oracle the tests
    /// compare against); `0` means one worker per available core. The
    /// resulting delta is identical at every width.
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

    let changes: Vec<Option<&OperandUpdate>> = updates
        .iter()
        .map(|u| u.as_ref().filter(|u| !u.is_empty()))
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
    let pushdown = if opts.push_selections {
        push_selections(&view.condition, &schemas)
    } else {
        Pushdown {
            per_operand: vec![Condition::always_true(); p],
            residual: view.condition.clone(),
        }
    };
    let planner = Planner {
        old,
        changes: &changes,
        pushed: &pushdown.per_operand,
        k: updated.len(),
        use_indexes: opts.use_indexes,
        projection: view.projection.as_deref(),
        out_schema: &out_schema,
    };
    // With reordering, one pivot group per updated operand, each rooted
    // at its change set; without, the paper's single table in definition
    // order.
    let groups: Vec<Group<'_>> = if opts.reorder_operands {
        updated
            .iter()
            .map(|&u| planner.group(Some(u), &pivot_order(&schemas, old, &changes, u)))
            .collect()
    } else {
        vec![planner.group(None, &(0..p).collect::<Vec<_>>())]
    };
    let operands = Operands::build(old, &changes, &pushdown.per_operand, &groups)?;
    let result = evaluate(
        &pushdown.residual,
        &out_schema,
        &operands,
        &groups,
        opts,
        obs,
    )?;

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

/// Shared per-group context: the residual condition and final projection
/// applied at each row leaf, plus the metrics handle (shared read-only
/// with pool workers — per-row observations come from whichever thread
/// evaluated the row).
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
    changes: &[Option<&OperandUpdate>],
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

impl Slot<'_> {
    /// Rows of the group choose either side here.
    fn free(&self) -> bool {
        self.one && self.zero.is_some()
    }

    /// Every row of the group reads `B = 1` here.
    fn forced(&self) -> bool {
        self.one && self.zero.is_none()
    }
}

/// A set of truth-table rows evaluated as one prefix-sharing DFS in one
/// operand order. The group of updated operand `u` holds the rows whose
/// first `B = 1` operand in definition order is `u`: earlier updated
/// operands offer only `B = 0`, `u` only `B = 1`, later ones both. The
/// groups of all updated operands partition the 2^k − 1 rows. Without
/// reordering there is one group (no pivot) holding every row.
struct Group<'a> {
    slots: Vec<Slot<'a>>,
    /// The view's projection or, when the group's order disturbs the
    /// natural layout, an explicit projection back onto the canonical
    /// scheme.
    final_proj: Option<Vec<AttrName>>,
}

impl Group<'_> {
    /// The group's rows in evaluation order (`row[j]` is `B` of slot
    /// `j`), for the flat loop: every choice over the slots offering both
    /// sides, the forced sides fixed, the all-zero row left out.
    fn rows(&self) -> Vec<truth_table::Row> {
        let forced: truth_table::Row = self.slots.iter().map(Slot::forced).collect();
        let free: Vec<usize> = (0..self.slots.len())
            .filter(|&j| self.slots[j].free())
            .collect();
        let mut rows = truth_table::rows(self.slots.len(), &free);
        if forced.contains(&true) {
            for row in &mut rows {
                for (b, &f) in row.iter_mut().zip(&forced) {
                    *b |= f;
                }
            }
            rows.insert(0, forced);
        }
        rows
    }

    /// Operand tuples the group's rows read — the work estimate the
    /// pool's grain rule sizes the group fan-out by. With `f` slots
    /// offering both sides the group has 2^f rows (less the all-zero one
    /// when no slot is forced to `B = 1`), and such a slot reads `B = 1`
    /// in 2^(f−1) of them. An indexed zero is priced by the change-set
    /// tuples that reach it through the prefix — the probes it serves —
    /// not by its |r|.
    fn work(&self, operands: &Operands) -> usize {
        let free = self.slots.iter().filter(|s| s.free()).count();
        let all = u32::try_from(free)
            .ok()
            .and_then(|f| 1usize.checked_shl(f))
            .unwrap_or(usize::MAX);
        let rows = if self.slots.iter().any(Slot::forced) {
            all
        } else {
            all - 1
        };
        let half = all / 2;
        let len = |r: &Option<TaggedRelation>| r.as_ref().map_or(0, TaggedRelation::len);
        let mut probing = 0usize;
        let mut total = 0usize;
        for s in &self.slots {
            let one = if s.one { len(&operands.ones[s.rel]) } else { 0 };
            let zero = match &s.zero {
                None => 0,
                Some(ZeroPlan::Mat) => len(&operands.zeros[s.rel]),
                Some(ZeroPlan::Idx(_)) if probing > 0 => probing,
                Some(ZeroPlan::Idx(ix)) => usize::try_from(ix.logical_len).unwrap_or(usize::MAX),
            };
            let (one_rows, zero_rows) = if s.free() {
                (half, rows - half)
            } else if s.one {
                (rows, 0)
            } else {
                (0, rows)
            };
            total = total
                .saturating_add(one_rows.saturating_mul(one))
                .saturating_add(zero_rows.saturating_mul(zero));
            probing = probing.saturating_add(one);
        }
        total
    }
}

/// What planning a group needs to know about the run.
struct Planner<'a> {
    old: &'a [&'a Relation],
    changes: &'a [Option<&'a OperandUpdate>],
    pushed: &'a [Condition],
    /// Number of updated operands.
    k: usize,
    use_indexes: bool,
    projection: Option<&'a [AttrName]>,
    out_schema: &'a Schema,
}

impl<'a> Planner<'a> {
    /// Plan the group rooted at `pivot` (or the single pivot-less group)
    /// over `order`: each slot's sides, and an index probe for each
    /// `B = 0` side whose join key against the group's prefix is covered.
    fn group(&self, pivot: Option<usize>, order: &[usize]) -> Group<'a> {
        let mut slots = Vec::with_capacity(order.len());
        let mut prefix: Option<Schema> = None;
        for &i in order {
            let change = self.changes[i];
            let (zero_needed, one) = match pivot {
                Some(u) => (i != u, change.is_some() && i >= u),
                // `B = 0` of an updated operand is only read when another
                // relation is also updated (`k ≥ 2`).
                None => (change.is_none() || self.k >= 2, change.is_some()),
            };
            let zero = zero_needed.then(|| {
                let probe = if self.use_indexes {
                    indexed_zero(prefix.as_ref(), self.old[i], change, &self.pushed[i])
                } else {
                    None
                };
                probe.map_or(ZeroPlan::Mat, ZeroPlan::Idx)
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
        changes: &[Option<&OperandUpdate>],
        pushed: &[Condition],
        groups: &[Group<'_>],
    ) -> Result<Operands> {
        let p = old.len();
        let mut zeros: Vec<Option<TaggedRelation>> = (0..p).map(|_| None).collect();
        for slot in groups.iter().flat_map(|g| &g.slots) {
            if matches!(slot.zero, Some(ZeroPlan::Mat)) && zeros[slot.rel].is_none() {
                let i = slot.rel;
                zeros[i] = Some(tagged_zero(
                    old[i],
                    changes[i].map(|u| &u.deletes),
                    &pushed[i],
                )?);
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
    /// Net deletes to subtract per posting (§5.3 `r − d_r`); `None` when
    /// the operand has none.
    deletes: Option<&'a Relation>,
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
    update: Option<&'a OperandUpdate>,
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
    let deletes = update.map(|u| &u.deletes).filter(|d| !d.is_empty());
    let logical_len = match deletes {
        None => old.len() as u64,
        Some(d) => {
            // `d_r ⊆ r`, so fully-deleted tuples drop whole entries.
            let fully = d.iter().filter(|(t, dc)| *dc >= old.count(t)).count() as u64;
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
                    let dc = d.count(rt);
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

/// Materialize the `B = 0` operand: old minus deletions, filtered, tagged
/// `old` — fusing §5.3's `r − d_r` with the pushed selection in one pass.
fn tagged_zero(
    old: &Relation,
    deletes: Option<&Relation>,
    cond: &Condition,
) -> Result<TaggedRelation> {
    let trivial = cond.is_trivially_true();
    let cond = cond.bind(old.schema());
    let mut out = TaggedRelation::empty(old.schema().clone());
    for (t, c) in old.iter() {
        if let Some(d) = deletes {
            let dc = d.count(t);
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

/// Materialize the `B = 1` operand: inserts/deletes filtered and tagged.
fn tagged_one(u: &OperandUpdate, cond: &Condition) -> Result<TaggedRelation> {
    let trivial = cond.is_trivially_true();
    let schema = u.inserts.schema().clone();
    let cond = cond.bind(&schema);
    let mut out = TaggedRelation::empty(schema);
    for (t, c) in u.inserts.iter() {
        if trivial || cond.eval(t)? {
            out.add(t.clone(), Tag::Insert, c);
        }
    }
    for (t, c) in u.deletes.iter() {
        if trivial || cond.eval(t)? {
            out.add(t.clone(), Tag::Delete, c);
        }
    }
    Ok(out)
}

/// Output of one or more groups: the tagged accumulator, the signed
/// output of fused last-operand probes, and the work counters.
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

    fn merge(&mut self, other: GroupOut) -> Result<()> {
        self.stats += other.stats;
        self.acc
            .merge(&other.acc)
            .map_err(crate::error::IvmError::from)?;
        self.fused
            .merge(&other.fused)
            .map_err(crate::error::IvmError::from)
    }
}

/// Evaluate every group and fold the results into the view transaction.
/// Groups are the unit of parallelism: when their operand tuples clear
/// the pool's grain rule ([`Pool::for_work`]) they fan out over the pool
/// in contiguous chunks, each running the same sequential code as one
/// thread. Accumulators are keyed tagged maps and merging is additive, so
/// the delta and every work counter are identical at every width.
fn evaluate(
    residual: &Condition,
    out_schema: &Schema,
    operands: &Operands,
    groups: &[Group<'_>],
    opts: &DiffOptions,
    obs: &Obs,
) -> Result<DifferentialResult> {
    let work = groups
        .iter()
        .map(|g| g.work(operands))
        .fold(0, usize::saturating_add);
    let pool = Pool::for_work(opts.threads, work);
    let chunks = pool.map_chunks_observed(
        groups.len(),
        |range| -> Result<GroupOut> {
            let mut out = GroupOut::empty(out_schema);
            for group in &groups[range] {
                let run = GroupRun::new(residual, obs, operands, group);
                if opts.share_prefixes {
                    run.dfs(0, None, false, &mut out)?;
                } else {
                    run.flat(&mut out)?;
                }
            }
            Ok(out)
        },
        obs,
    );
    let mut total: Option<GroupOut> = None;
    for chunk in chunks {
        let chunk = chunk?;
        match &mut total {
            None => total = Some(chunk),
            Some(t) => t.merge(chunk)?,
        }
    }
    let GroupOut {
        acc,
        fused,
        mut stats,
    } = total.unwrap_or_else(|| GroupOut::empty(out_schema));

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
            // ivm-lint: allow(no-panic) — the DFS and the row set only pick B = 0 where the slot offers it
            match slot.zero.as_ref().expect("zero side offered") {
                ZeroPlan::Idx(ix) => return TaggedPick::Idx(ix),
                ZeroPlan::Mat => &self.operands.zeros[slot.rel],
            }
        };
        // ivm-lint: allow(no-panic) — Operands::build materializes every side a slot plans as Mat or one
        TaggedPick::Rel(materialized.as_ref().expect("side materialized"))
    }

    fn join(
        &self,
        prev: &TaggedRelation,
        pick: &TaggedPick<'_, '_>,
        stats: &mut DiffStats,
    ) -> Result<TaggedRelation> {
        match pick {
            TaggedPick::Rel(r) => Ok(algebra::natural_join_tagged(prev, r)?),
            TaggedPick::Idx(ix) => probe_join_tagged(prev, ix, stats),
        }
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
        let next = self.join(prev, &pick, &mut out.stats)?;
        self.dfs(j + 1, Some(&next), any_one, out)
    }

    /// Evaluate each row of the group independently (no prefix sharing).
    fn flat(&self, out: &mut GroupOut) -> Result<()> {
        for row in self.group.rows() {
            out.stats.rows_evaluated += 1;
            let picks: Vec<TaggedPick<'r, 'a>> = row
                .iter()
                .enumerate()
                .map(|(j, &one)| self.pick(j, one))
                .collect();
            out.stats.operand_tuples += picks.iter().map(TaggedPick::logical_len).sum::<u64>();
            // ivm-lint: allow(no-unchecked-index) — p ≥ 1 operands, so every truth-table row has a first input
            let mut joined = match &picks[0] {
                TaggedPick::Rel(r) => (*r).clone(),
                // ivm-lint: allow(no-panic) — position 0 has no prefix, so indexed_zero never plans an index there
                TaggedPick::Idx(_) => unreachable!("indexed zero requires a prefix"),
            };
            for pick in &picks[1..] {
                out.stats.joins_performed += 1;
                joined = self.join(&joined, pick, &mut out.stats)?;
            }
            emit_tagged_leaf(&self.ctx, &joined, &mut out.acc)?;
        }
        Ok(())
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

    /// The pivot groups partition the truth table: for every set of
    /// updated operands the flat loop evaluates each of the 2^k − 1 rows
    /// exactly once, the delta matches the single-table engine, and
    /// every work counter is identical at every width.
    #[test]
    fn pivot_groups_cover_every_row_once() {
        let mut db = Database::new();
        let names = ["R1", "R2", "R3", "R4"];
        for (i, name) in names.iter().enumerate() {
            let a = format!("A{i}");
            let b = format!("A{}", i + 1);
            db.create(*name, Schema::new([a.as_str(), b.as_str()]).unwrap())
                .unwrap();
            for v in 0..12 {
                db.load(name, [[v, v % 4]]).unwrap();
            }
        }
        let view = SpjExpr::new(names, Atom::lt_const("A2", 3).into(), None);
        for mask in 1u32..16 {
            let mut txn = Transaction::new();
            for (i, name) in names.iter().enumerate() {
                if mask >> i & 1 == 1 {
                    let v = i as i64 + 1;
                    txn.insert(*name, [v, (v + 1) % 4]).unwrap();
                    txn.delete(*name, [2, 2]).unwrap();
                }
            }
            let k = mask.count_ones();
            let single = differential_delta(&view, &db, &txn, &DiffOptions::plain()).unwrap();
            for share_prefixes in [false, true] {
                let opts = |threads| DiffOptions {
                    share_prefixes,
                    threads,
                    ..DiffOptions::default()
                };
                let seq = differential_delta(&view, &db, &txn, &opts(1)).unwrap();
                assert_eq!(seq.delta, single.delta, "mask {mask:04b}");
                if !share_prefixes {
                    assert_eq!(seq.stats.rows_evaluated, (1 << k) - 1, "mask {mask:04b}");
                }
                for threads in [2, 8] {
                    let par = differential_delta(&view, &db, &txn, &opts(threads)).unwrap();
                    assert_eq!(par.delta, seq.delta, "mask {mask:04b} threads {threads}");
                    assert_eq!(par.stats, seq.stats, "mask {mask:04b} threads {threads}");
                }
            }
        }
    }

    /// An old tuple with `u64::MAX` copies joined with one inserted tuple
    /// is an insert of `u64::MAX` view tuples, which no signed delta can
    /// hold. Both `B = 0` paths — the index probe and the materialized
    /// fallback — must reject it instead of wrapping the count to `-1`,
    /// with and without metrics (the fused probe runs either way) and at
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
