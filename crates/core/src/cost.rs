//! Cost estimation for choosing between differential and complete
//! re-evaluation.
//!
//! §6: "a next step in this direction is to determine under what
//! circumstances differential re-evaluation is more efficient than
//! complete re-evaluation of the expression defining the view." This
//! module supplies the simple estimator behind
//! [`crate::manager::MaintenanceStrategy::CostBased`]: both strategies are
//! charged their worst-case join work (product of operand sizes), which
//! cancels the common join-selectivity factor and leaves the ratio the
//! decision actually depends on — how large the change sets are relative
//! to the base relations.

/// Per-operand sizes for one maintenance decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OperandSize {
    /// Tuples in the pre-transaction relation.
    pub old: u64,
    /// Net changed tuples (`|i_r| + |d_r|`; 0 when untouched).
    pub changed: u64,
    /// A maintained join-key index covers this relation: its `B = 0`
    /// substitution is probed instead of materialized and hash-built, so
    /// the differential path charges a constant probe overhead in place
    /// of the relation's size. The engine roots every truth-table row at
    /// a change set and applies a pushed selection per posting, so this
    /// holds for selected operands too. Full re-evaluation still scans
    /// it.
    pub indexed: bool,
}

/// Constant charged for an indexed `B = 0` operand in a differential row
/// product, replacing the relation's cardinality: the unchanged side
/// contributes hash probes per prefix tuple, not a scan or build.
pub const INDEX_PROBE_COST: u64 = 4;

/// An operand's contribution to a differential row product when any row
/// may pick either substitution: the changed portion is always
/// materialized; the old portion is a scan/build (its size) or, indexed,
/// a constant probe overhead.
fn differential_weight(s: &OperandSize) -> u64 {
    if s.indexed {
        (s.changed + probe_weight(s)).max(1)
    } else {
        (s.old + s.changed).max(1)
    }
}

/// An operand's contribution to the (never-evaluated) all-old row.
fn all_old_weight(s: &OperandSize) -> u64 {
    if s.indexed {
        probe_weight(s)
    } else {
        s.old.max(1)
    }
}

/// Probing can never cost more than scanning the relation outright, so
/// the constant is capped at the relation's size (tiny indexed relations
/// must not be priced above their unindexed selves).
fn probe_weight(s: &OperandSize) -> u64 {
    INDEX_PROBE_COST.min(s.old.max(1))
}

/// Estimated work for the differential truth-table evaluation:
/// the sum over all non-zero rows of the product of the substituted
/// operand sizes, which telescopes to
/// `Π_j (old_j + changed_j·[j updated]) − Π_j old_j` — with indexed
/// operands priced per-probe instead of per-tuple in both products.
pub fn estimate_differential(sizes: &[OperandSize]) -> u64 {
    let with_changes: u64 = sizes
        .iter()
        .map(differential_weight)
        .fold(1u64, u64::saturating_mul);
    let all_old: u64 = sizes
        .iter()
        .map(all_old_weight)
        .fold(1u64, u64::saturating_mul);
    with_changes.saturating_sub(all_old)
}

/// Estimated work for complete re-evaluation: the product of the
/// post-transaction operand sizes (deletions only shrink this, so `old +
/// changed` is a safe proxy of the same order).
pub fn estimate_full(sizes: &[OperandSize]) -> u64 {
    sizes
        .iter()
        .map(|s| (s.old + s.changed).max(1))
        .fold(1u64, u64::saturating_mul)
}

/// Constant-factor overhead of the differential path relative to a plain
/// re-join: tagging/delta materialization, per-row accumulation, and
/// applying the delta to the stored view. Calibrated against the measured
/// E8 crossover (differential stops winning when the change set reaches
/// roughly two thirds of the base relation).
pub const DIFFERENTIAL_OVERHEAD_X10: u64 = 25; // 2.5×

/// The §6 decision: should this transaction be folded in differentially?
///
/// Compares overhead-adjusted differential work against the full re-join:
/// in raw join work the truth-table sum is *always* ≤ the full product
/// (it is the full product minus the all-old row), so the decision hinges
/// on the differential path's constant factors.
pub fn prefer_differential(sizes: &[OperandSize]) -> bool {
    let diff = estimate_differential(sizes).saturating_mul(DIFFERENTIAL_OVERHEAD_X10);
    let full = estimate_full(sizes).saturating_mul(10);
    diff <= full
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(old: u64, changed: u64) -> OperandSize {
        OperandSize {
            old,
            changed,
            indexed: false,
        }
    }

    fn ix(old: u64, changed: u64) -> OperandSize {
        OperandSize {
            old,
            changed,
            indexed: true,
        }
    }

    #[test]
    fn small_changes_prefer_differential() {
        // 10 changes against 100k ⋈ 100k: differential is ~2·10·100k,
        // full is 100k².
        let sizes = [s(100_000, 10), s(100_000, 10)];
        assert!(estimate_differential(&sizes) < estimate_full(&sizes));
        assert!(prefer_differential(&sizes));
    }

    #[test]
    fn wholesale_replacement_prefers_full() {
        // Changing as many tuples as the relation holds: join work
        // (2n·n − n² = n²) is half of full (2n²), but the 2.5× overhead
        // flips the decision to full — matching the measured crossover.
        let sizes = [s(1_000, 1_000), s(1_000, 0)];
        assert!(!prefer_differential(&sizes));
    }

    #[test]
    fn crossover_sits_below_the_base_size() {
        // Sweep the change ratio on a two-relation join: the decision must
        // be differential for small changes, full near wholesale, with a
        // single flip in between.
        let n = 10_000u64;
        let mut last = true;
        let mut flips = 0;
        for changed in [1u64, 10, 100, 1_000, 5_000, 7_000, 10_000] {
            let now = prefer_differential(&[s(n, changed), s(n, 0)]);
            if now != last {
                flips += 1;
                assert!(!now, "must flip from differential to full, not back");
            }
            last = now;
        }
        assert_eq!(flips, 1, "exactly one crossover");
        assert!(!last, "wholesale change ends on full");
    }

    #[test]
    fn untouched_view_costs_nothing_differentially() {
        let sizes = [s(5_000, 0), s(3_000, 0)];
        assert_eq!(estimate_differential(&sizes), 0);
        assert!(prefer_differential(&sizes));
    }

    #[test]
    fn single_relation_select_view() {
        // σ(R): differential cost = |changes|, full = |R| + |changes|.
        let sizes = [s(10_000, 7)];
        assert_eq!(estimate_differential(&sizes), 7);
        assert_eq!(estimate_full(&sizes), 10_007);
    }

    #[test]
    fn estimates_saturate_instead_of_overflowing() {
        let sizes = [s(u64::MAX / 2, u64::MAX / 2); 4];
        let _ = estimate_differential(&sizes);
        let _ = estimate_full(&sizes);
    }

    #[test]
    fn index_keeps_large_ratio_differential() {
        // The measured E8 regime: 20k-tuple relations, a change set as
        // large as the base (update ratio 1000). Unindexed, the 2.5×
        // overhead sends this to full re-evaluation; with the unchanged
        // side probed through its index, differential work collapses to
        // O(|changes| · probe) and stays preferred.
        let unindexed = [s(20_000, 20_000), s(20_000, 0)];
        assert!(!prefer_differential(&unindexed));
        let indexed = [s(20_000, 20_000), ix(20_000, 0)];
        assert!(prefer_differential(&indexed));
        assert!(estimate_differential(&indexed) < estimate_differential(&unindexed));
    }

    #[test]
    fn index_on_small_changes_still_differential() {
        let sizes = [s(100_000, 10), ix(100_000, 0)];
        assert!(prefer_differential(&sizes));
    }

    #[test]
    fn empty_base_relations_use_floor_of_one() {
        // Degenerate sizes must not panic or divide by zero; raw join work
        // of the differential path stays below full.
        let sizes = [s(0, 5), s(0, 0)];
        assert!(estimate_differential(&sizes) <= estimate_full(&sizes));
        let _ = prefer_differential(&sizes);
    }
}
