//! Instrumentation counters for maintenance runs.
//!
//! The paper's efficiency arguments ("it is cheaper to update the view by
//! the above sequence of operations than recomputing the expression from
//! scratch", §5.1) are about work proportional to change-set size versus
//! base-relation size. These counters expose that work so the experiments
//! can report it alongside wall-clock times.

use std::fmt;
use std::ops::AddAssign;

/// Work counters for one differential (or full) maintenance pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiffStats {
    /// Truth-table rows evaluated (§5.3; ≤ 2^k − 1 for k updated
    /// relations).
    pub rows_evaluated: usize,
    /// Binary join operations performed across all rows.
    pub joins_performed: usize,
    /// Join operations skipped thanks to prefix sharing or empty-operand
    /// pruning.
    pub joins_skipped: usize,
    /// Tuples fed into row evaluations: each materialized operand's
    /// distinct entries; an index-probed `B = 0` operand charges
    /// `|r − d_r|`, before any selection pushed onto it.
    pub operand_tuples: u64,
    /// Net inserted tuple occurrences in the produced view delta.
    pub output_inserts: u64,
    /// Net deleted tuple occurrences in the produced view delta.
    pub output_deletes: u64,
    /// Join-index probes issued (one per prefix tuple per probe join).
    /// Zero on the materialized fallback path — the only stats field,
    /// with `index_probe_rows`, allowed to differ between the indexed
    /// and fallback executions of the same maintenance pass (and
    /// `operand_tuples`, when a selection was pushed onto a probed
    /// operand).
    pub index_probes: u64,
    /// Index postings visited by probes (including fully-deleted postings
    /// skipped during §5.3 `r − d_r` subtraction).
    pub index_probe_rows: u64,
}

impl DiffStats {
    /// Total net change magnitude.
    pub fn output_changes(&self) -> u64 {
        self.output_inserts + self.output_deletes
    }
}

impl AddAssign for DiffStats {
    fn add_assign(&mut self, o: DiffStats) {
        self.rows_evaluated += o.rows_evaluated;
        self.joins_performed += o.joins_performed;
        self.joins_skipped += o.joins_skipped;
        self.operand_tuples += o.operand_tuples;
        self.output_inserts += o.output_inserts;
        self.output_deletes += o.output_deletes;
        self.index_probes += o.index_probes;
        self.index_probe_rows += o.index_probe_rows;
    }
}

impl fmt::Display for DiffStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rows={} joins={} (skipped {}) operand_tuples={} probes={}/{} out=+{}/-{}",
            self.rows_evaluated,
            self.joins_performed,
            self.joins_skipped,
            self.operand_tuples,
            self.index_probes,
            self.index_probe_rows,
            self.output_inserts,
            self.output_deletes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_assign_accumulates() {
        let mut a = DiffStats {
            rows_evaluated: 1,
            joins_performed: 2,
            joins_skipped: 1,
            operand_tuples: 10,
            output_inserts: 3,
            output_deletes: 4,
            index_probes: 5,
            index_probe_rows: 7,
        };
        a += a;
        assert_eq!(a.rows_evaluated, 2);
        assert_eq!(a.operand_tuples, 20);
        assert_eq!(a.output_changes(), 14);
        assert_eq!(a.index_probes, 10);
        assert_eq!(a.index_probe_rows, 14);
    }

    #[test]
    fn display_mentions_counts() {
        let s = DiffStats::default().to_string();
        assert!(s.contains("rows=0"));
    }
}
