//! Page-based cost model.
//!
//! All costs are in the paper's work units `U` (one page of processing).
//! CPU-side per-tuple work is folded into units through
//! [`CPU_TICKS_PER_UNIT`], mirroring what
//! the executor actually charges, so optimizer estimates and measured work
//! are directly comparable — which is exactly what a progress indicator
//! needs.

use crate::meter::CPU_TICKS_PER_UNIT;
use crate::stats::TableStats;

/// Convert a tuple count into CPU work units.
pub fn cpu_units(tuples: f64) -> f64 {
    tuples.max(0.0) / CPU_TICKS_PER_UNIT as f64
}

/// Shape of an index used for probe-cost estimation.
#[derive(Debug, Clone, Copy)]
pub struct IndexMeta {
    /// Height of the tree in node levels.
    pub height: u32,
    /// Average entries per leaf node.
    pub entries_per_leaf: f64,
}

/// Cost of a full sequential scan: one unit per page plus per-tuple CPU.
pub fn seq_scan_cost(stats: &TableStats) -> f64 {
    stats.page_count as f64 + cpu_units(stats.row_count as f64)
}

/// Cost of one index equality probe returning `matches` rows: B-tree descent
/// plus leaves touched plus one heap fetch per match (unclustered index) plus
/// per-match CPU.
pub fn index_probe_cost(meta: IndexMeta, matches: f64) -> f64 {
    let leaves = (matches / meta.entries_per_leaf.max(1.0)).ceil().max(0.0);
    meta.height as f64 + leaves + matches + cpu_units(matches)
}

/// Cost of sorting `rows` tuples (comparison CPU; input cost excluded).
pub fn sort_cost(rows: f64) -> f64 {
    if rows <= 1.0 {
        return 0.0;
    }
    cpu_units(rows * rows.log2())
}

/// Cost of a hash join given probe-side and build-side cardinalities
/// (input costs excluded): build + probe CPU.
pub fn hash_join_cost(probe_rows: f64, build_rows: f64) -> f64 {
    cpu_units(build_rows) + cpu_units(probe_rows)
}

/// Cost of a materialized nested-loop join (input costs excluded): one pass
/// of CPU over the cross product.
pub fn nested_loop_cost(outer_rows: f64, inner_rows: f64) -> f64 {
    cpu_units(outer_rows * inner_rows.max(1.0))
}

/// Cost of aggregation over `rows` input tuples emitting `groups` rows.
pub fn aggregate_cost(rows: f64, groups: f64) -> f64 {
    cpu_units(rows) + cpu_units(groups)
}

/// Cost of filtering/projecting `rows` tuples.
pub fn per_tuple_cost(rows: f64) -> f64 {
    cpu_units(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> IndexMeta {
        IndexMeta {
            height: 3,
            entries_per_leaf: 170.0,
        }
    }

    #[test]
    fn probe_cost_is_dominated_by_heap_fetches() {
        // 30 matches ⇒ ~3 (descent) + 1 (leaf) + 30 (heap): heap dominates.
        let c = index_probe_cost(meta(), 30.0);
        assert!(c > 30.0 && c < 40.0, "cost = {c}");
    }

    #[test]
    fn zero_match_probe_still_costs_the_descent() {
        let c = index_probe_cost(meta(), 0.0);
        assert!((c - 3.0).abs() < 1e-9);
    }

    #[test]
    fn seq_scan_counts_pages_and_cpu() {
        let stats = TableStats {
            row_count: 12_800,
            page_count: 100,
            columns: vec![],
        };
        let c = seq_scan_cost(&stats);
        assert!((c - (100.0 + 100.0)).abs() < 1e-9); // 12800/128 = 100 cpu units
    }

    #[test]
    fn sort_cost_grows_superlinearly() {
        assert_eq!(sort_cost(1.0), 0.0);
        assert!(sort_cost(10_000.0) > 2.0 * sort_cost(5_000.0));
    }

    #[test]
    fn join_costs_positive_and_monotone() {
        assert!(hash_join_cost(1000.0, 500.0) > hash_join_cost(100.0, 50.0));
        assert!(nested_loop_cost(100.0, 100.0) > hash_join_cost(100.0, 100.0));
    }
}
