//! Search statistics (instrumentation).

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Counters collected during a search.
///
/// These feed the paper's Table 1 (fraction of grid-index cells searched)
/// and make the pruning behaviour of DS-Search observable in tests and
/// benchmark reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct SearchStats {
    /// Number of sub-spaces popped from the heap and discretised
    /// (invocations of Function `Discretize`).
    pub spaces_processed: u64,
    /// Number of grid cells examined across all discretisations.
    pub cells_examined: u64,
    /// Number of clean cells evaluated.
    pub clean_cells: u64,
    /// Number of dirty cells whose lower bound was computed.
    pub dirty_cells: u64,
    /// Number of dirty cells pruned by the Equation-1 lower bound.
    pub dirty_cells_pruned: u64,
    /// Number of split operations (Function `Split`).
    pub splits: u64,
    /// Number of spaces dropped because they satisfied the drop condition.
    pub drops: u64,
    /// Number of candidate points evaluated by the exact fallback applied
    /// to dropped spaces and to cells few rectangles cross: one per
    /// arrangement piece of the *active* rectangles (those crossing the
    /// cell and covering the strip) in each x-strip whose Equation-1
    /// bound does not exceed the cutoff.  The naive oracle counts one per
    /// probe of its full arrangement grid.
    pub fallback_points: u64,
    /// Number of sub-spaces pushed onto the heap.
    pub heap_pushes: u64,
    /// Number of ASP rectangles considered (equals the number of objects
    /// overlapping the search space).
    pub rectangles: u64,
    /// Total number of grid-index cells (GI-DS only).
    pub index_cells_total: u64,
    /// Number of grid-index cells actually searched by DS-Search
    /// (GI-DS only; the numerator of Table 1's ratio).
    pub index_cells_searched: u64,
    /// Number of candidates rejected at the [`BestSet`](crate) insertion
    /// boundary because their distance was not finite (a pathological
    /// aggregator produced NaN/∞).  Always zero for well-behaved
    /// aggregators.
    pub non_finite_candidates: u64,
    /// Query-result cache hits.  Zero on per-response statistics (a cached
    /// response is byte-identical to the original computation, counters
    /// included); populated on engine-level aggregate snapshots such as the
    /// serving `/metrics` endpoint.
    pub cache_hits: u64,
    /// Query-result cache misses (see [`SearchStats::cache_hits`]).
    pub cache_misses: u64,
    /// Shards that executed part of this search (sharded engines only;
    /// zero on single-engine runs).
    pub shards_touched: u64,
    /// Shards skipped because no ASP rectangle reached their anchor slab —
    /// e.g. empty shards, or shards outside the instance's search space
    /// (sharded engines only).
    pub shards_pruned: u64,
    /// Wall-clock time of the search.
    pub elapsed: Duration,
}

impl SearchStats {
    /// Creates an empty statistics record.
    pub fn new() -> Self {
        Self::default()
    }

    /// The fraction of grid-index cells searched, or `None` when no index
    /// was involved.
    pub fn index_search_ratio(&self) -> Option<f64> {
        if self.index_cells_total == 0 {
            None
        } else {
            Some(self.index_cells_searched as f64 / self.index_cells_total as f64)
        }
    }

    /// Merges another statistics record into this one (durations add).
    pub fn merge(&mut self, other: &SearchStats) {
        self.spaces_processed += other.spaces_processed;
        self.cells_examined += other.cells_examined;
        self.clean_cells += other.clean_cells;
        self.dirty_cells += other.dirty_cells;
        self.dirty_cells_pruned += other.dirty_cells_pruned;
        self.splits += other.splits;
        self.drops += other.drops;
        self.fallback_points += other.fallback_points;
        self.heap_pushes += other.heap_pushes;
        self.rectangles += other.rectangles;
        self.index_cells_total += other.index_cells_total;
        self.index_cells_searched += other.index_cells_searched;
        self.non_finite_candidates += other.non_finite_candidates;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.shards_touched += other.shards_touched;
        self.shards_pruned += other.shards_pruned;
        self.elapsed += other.elapsed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_is_none_without_index() {
        assert_eq!(SearchStats::new().index_search_ratio(), None);
    }

    #[test]
    fn ratio_computation() {
        let stats = SearchStats {
            index_cells_total: 200,
            index_cells_searched: 25,
            ..Default::default()
        };
        assert_eq!(stats.index_search_ratio(), Some(0.125));
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = SearchStats {
            spaces_processed: 2,
            clean_cells: 10,
            elapsed: Duration::from_millis(5),
            ..Default::default()
        };
        let b = SearchStats {
            spaces_processed: 3,
            clean_cells: 7,
            elapsed: Duration::from_millis(10),
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.spaces_processed, 5);
        assert_eq!(a.clean_cells, 17);
        assert_eq!(a.elapsed, Duration::from_millis(15));
    }
}
