//! Row-evaluation planning: join ordering.
//!
//! §5.3 closes with two open optimizations: "we can further reduce the
//! cost of materializing the view by using an algorithm to determine a
//! good order for execution of the joins" (efficient solutions "are being
//! investigated"), and §5.4 points at Wong–Youssefi-style decomposition
//! for evaluating each row's SPJ expression. The engine uses practical
//! versions of both:
//!
//! * **Operand ordering** ([`order_operands`], this module): a greedy
//!   smallest-change-first order that starts from the cheapest *updated*
//!   operand and grows only through operands connected by shared
//!   attributes (avoiding accidental cross products). Because change sets
//!   are small, putting them first keeps every intermediate result small —
//!   the dominant effect in differential evaluation.
//!   [`order_operands_from`] forces the first operand: the engine roots
//!   each pivot group of truth-table rows at that group's change set.
//! * **Selection pushdown**
//!   ([`ivm_relational::expr::push_selections`]): for single-conjunction
//!   conditions, every atom whose variables fall within one operand's
//!   scheme is applied to that operand *before* any join (and removed from
//!   the residual condition evaluated on the joined rows). Atoms are
//!   pushed to every operand that can evaluate them — for natural-join
//!   views a bound on a shared attribute prunes both sides. It lives next
//!   to `SpjExpr` because full evaluation pushes selections the same way.

use ivm_relational::attribute::AttrName;
use ivm_relational::schema::Schema;

/// Greedy connected operand order for differential row evaluation.
///
/// `metric[i]` is the expected operand size along the rows that matter:
/// the change-set size for updated operands, the old size otherwise.
/// `updated[i]` marks changed operands. The order starts from the
/// smallest-metric updated operand and repeatedly appends, among operands
/// sharing an attribute with what has been joined so far, first any
/// updated one (smallest metric), then the smallest connected one; a
/// disconnected operand is taken only when nothing connected remains.
///
/// Returns the identity permutation when no operand is updated.
pub fn order_operands(schemas: &[&Schema], metric: &[usize], updated: &[bool]) -> Vec<usize> {
    let p = schemas.len();
    let Some(start) = (0..p).filter(|&i| updated[i]).min_by_key(|&i| metric[i]) else {
        return (0..p).collect();
    };
    order_operands_from(schemas, metric, updated, start)
}

/// [`order_operands`] with a forced first operand: the order starts at
/// `start` and grows by the same connected preference tiers. The
/// differential engine roots each pivot group at its change set this way
/// (`start` is the pivot, `updated` marks the operands whose `B = 1` side
/// the group reads).
pub fn order_operands_from(
    schemas: &[&Schema],
    metric: &[usize],
    updated: &[bool],
    start: usize,
) -> Vec<usize> {
    let p = schemas.len();
    debug_assert_eq!(metric.len(), p);
    debug_assert_eq!(updated.len(), p);
    debug_assert!(start < p, "start operand out of range");

    let mut order = Vec::with_capacity(p);
    let mut taken = vec![false; p];
    let mut joined_attrs: Vec<AttrName> = schemas[start].attrs().to_vec();
    order.push(start);
    taken[start] = true;

    while order.len() < p {
        let connected = |i: usize| schemas[i].attrs().iter().any(|a| joined_attrs.contains(a));
        // Preference tiers: connected+updated, connected, updated, any —
        // each resolved by smallest metric, then position (stable).
        let next = (0..p)
            .filter(|&i| !taken[i])
            .min_by_key(|&i| {
                let tier = match (connected(i), updated[i]) {
                    (true, true) => 0,
                    (true, false) => 1,
                    (false, true) => 2,
                    (false, false) => 3,
                };
                (tier, metric[i], i)
            })
            .expect("operands remain");
        for a in schemas[next].attrs() {
            if !joined_attrs.contains(a) {
                joined_attrs.push(a.clone());
            }
        }
        order.push(next);
        taken[next] = true;
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(attrs: &[&str]) -> Schema {
        Schema::new(attrs.iter().copied()).unwrap()
    }

    #[test]
    fn order_starts_at_smallest_updated_and_stays_connected() {
        // Chain R0(A0,A1) R1(A1,A2) R2(A2,A3) R3(A3,A4), updated = {R3}.
        let schemas = [
            s(&["A0", "A1"]),
            s(&["A1", "A2"]),
            s(&["A2", "A3"]),
            s(&["A3", "A4"]),
        ];
        let refs: Vec<&Schema> = schemas.iter().collect();
        let order = order_operands(&refs, &[1000, 1000, 1000, 5], &[false, false, false, true]);
        // Must walk the chain backwards from R3: 3, 2, 1, 0.
        assert_eq!(order, vec![3, 2, 1, 0]);
    }

    #[test]
    fn order_prefers_updated_then_small() {
        // Star: R0(K,X0) R1(K,X1) R2(K,X2); R1 updated (size 3), R2 small.
        let schemas = [s(&["K", "X0"]), s(&["K", "X1"]), s(&["K", "X2"])];
        let refs: Vec<&Schema> = schemas.iter().collect();
        let order = order_operands(&refs, &[100, 3, 10], &[false, true, false]);
        assert_eq!(order[0], 1, "start at updated");
        assert_eq!(order[1], 2, "then smallest connected");
        assert_eq!(order[2], 0);
    }

    #[test]
    fn order_identity_when_nothing_updated() {
        let schemas = [s(&["A"]), s(&["B"])];
        let refs: Vec<&Schema> = schemas.iter().collect();
        assert_eq!(order_operands(&refs, &[1, 1], &[false, false]), vec![0, 1]);
    }

    #[test]
    fn order_handles_disconnected_components() {
        // R0(A) and R1(B) share nothing; both must still appear.
        let schemas = [s(&["A"]), s(&["B"])];
        let refs: Vec<&Schema> = schemas.iter().collect();
        let order = order_operands(&refs, &[5, 9], &[true, false]);
        assert_eq!(order.len(), 2);
        assert_eq!(order[0], 0);
    }

    /// Every operand after the first shares an attribute with the
    /// operands before it (when the view's join graph is connected).
    fn assert_connected(schemas: &[Schema], order: &[usize]) {
        let mut sorted = order.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..schemas.len()).collect::<Vec<_>>(), "{order:?}");
        for (n, &i) in order.iter().enumerate().skip(1) {
            let joined = order[..n]
                .iter()
                .any(|&j| !schemas[i].intersection(&schemas[j]).is_empty());
            assert!(joined, "operand {i} disconnected in {order:?}");
        }
    }

    #[test]
    fn forced_first_operand_stays_connected_for_every_pivot() {
        // A chain and a star with a tail: R0(A,B) R1(B,C) R2(C,D) R3(D,E)
        // and S0(K,X) S1(K,Y) S2(Y,Z) S3(K,W).
        let chain = vec![
            s(&["A", "B"]),
            s(&["B", "C"]),
            s(&["C", "D"]),
            s(&["D", "E"]),
        ];
        let star = vec![
            s(&["K", "X"]),
            s(&["K", "Y"]),
            s(&["Y", "Z"]),
            s(&["K", "W"]),
        ];
        for schemas in [chain, star] {
            let refs: Vec<&Schema> = schemas.iter().collect();
            let metric = [500, 3, 1000, 7];
            for start in 0..schemas.len() {
                // Pivot-group flags: the pivot and later operands updated.
                let updated: Vec<bool> = (0..schemas.len()).map(|i| i >= start).collect();
                let order = order_operands_from(&refs, &metric, &updated, start);
                assert_eq!(order[0], start);
                assert_connected(&schemas, &order);
            }
        }
    }

    #[test]
    fn order_two_updated_relations() {
        let schemas = [s(&["A", "B"]), s(&["B", "C"]), s(&["C", "D"])];
        let refs: Vec<&Schema> = schemas.iter().collect();
        let order = order_operands(&refs, &[4, 1000, 2], &[true, false, true]);
        // Start at R2 (metric 2 < 4); R1 connects; prefer updated R0? R0 is
        // not connected to {C,D} — R1 is. Then R0.
        assert_eq!(order, vec![2, 1, 0]);
    }
}
