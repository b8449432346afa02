//! The GI-DS algorithm (Algorithm 2, Section 5).
//!
//! GI-DS exploits the locality of the ASRS problem: the representation of a
//! candidate region is determined only by the objects inside it.  A
//! query-independent grid index is consulted to compute, for every index
//! cell, a lower bound on the distance of all candidate regions whose
//! bottom-left corner lies in the cell (Section 5.3).  Index cells are then
//! searched best-first with DS-Search until the remaining cells cannot beat
//! the best distance found so far — the
//! [`Slabs::IndexCells`](crate::executor::Slabs) plan of the engine's
//! executor.

use crate::asp::{AspInstance, Contributions};
use crate::best::BestSet;
use crate::ds_search::DsSearch;
use crate::error::AsrsError;
use crate::grid_index::GridIndex;
use crate::stats::SearchStats;
use asrs_geo::{CellRange, GridEdges, GridSpec, Rect};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct CellEntry {
    lb: f64,
    col: usize,
    row: usize,
}

impl PartialEq for CellEntry {
    fn eq(&self, other: &Self) -> bool {
        self.lb == other.lb
    }
}

impl Eq for CellEntry {}

impl PartialOrd for CellEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for CellEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other.lb.partial_cmp(&self.lb).unwrap_or(Ordering::Equal)
    }
}

/// Runs `solver` over the index's slabs into `best`: the margins outside
/// the index grid unconditionally, then the index cells best-first by
/// their lower bound until no cell can improve the result (or improve it
/// by more than the (1+δ) factor).  The budget is polled at every opened
/// index cell as well as inside the kernel.
pub(crate) fn search_index_cells(
    solver: &DsSearch<'_>,
    index: &GridIndex,
    best: &mut BestSet,
    stats: &mut SearchStats,
) -> Result<(), AsrsError> {
    let (asp, table, query, aggregator) =
        (solver.asp, solver.table, solver.query, solver.aggregator);
    let spec = index.spec();
    stats.index_cells_total = spec.num_cells() as u64;
    let Some(space) = asp.space() else {
        return Ok(());
    };
    let mut scratch = solver.scratch();

    // 1. Candidate regions whose bottom-left corner lies outside the
    //    indexed area (the margin left of / below the dataset's bounding
    //    box introduced by the ASP reduction) are searched
    //    unconditionally; the margin is at most one query width tall or
    //    wide, so this is cheap.
    for margin in margin_spaces(&space, spec.space()) {
        let candidates = table.contributing(asp.rects_intersecting(&margin));
        solver.search_space(margin, candidates, best, stats, &mut scratch)?;
    }

    // 2. Rank index cells by their lower bound.
    let mut heap: BinaryHeap<CellEntry> = BinaryHeap::new();
    let eps_x = 1e-9 * (spec.cell_width() + query.size.width);
    let eps_y = 1e-9 * (spec.cell_height() + query.size.height);
    for row in 0..spec.rows() {
        for col in 0..spec.cols() {
            let cell = spec.cell_rect(col, row);
            if !cell.intersects(&space) {
                continue;
            }
            // Bounded region: covered by every candidate region anchored
            // in the cell; bounding region: covers every such candidate
            // (Definition 9).  Shrink / expand by a hair so boundary
            // objects never flip the wrong way.
            let bounded = Rect::new(
                cell.max_x + eps_x,
                cell.max_y + eps_y,
                (cell.min_x + query.size.width - eps_x).max(cell.max_x + eps_x),
                (cell.min_y + query.size.height - eps_y).max(cell.max_y + eps_y),
            );
            let bounding = Rect::new(
                cell.min_x - eps_x,
                cell.min_y - eps_y,
                cell.max_x + query.size.width + eps_x,
                cell.max_y + query.size.height + eps_y,
            );
            let lower = if bounded.width() > 2.0 * eps_x && bounded.height() > 2.0 * eps_y {
                index.stats_of_cells_contained(&bounded)
            } else {
                vec![0.0; aggregator.stats_dim()]
            };
            let upper = index.stats_of_cells_overlapping(&bounding);
            let lb = aggregator.lower_bound_distance(
                &query.target,
                &lower,
                &upper,
                &query.weights,
                query.metric,
            );
            heap.push(CellEntry { lb, col, row });
        }
    }

    // 3. Search cells best-first until no cell can improve the result.
    //    The candidates of every index cell are bucketed in one pass when
    //    the first cell opens.
    let mut buckets: Option<Vec<Vec<u32>>> = None;
    while let Some(entry) = heap.pop() {
        if let Some(b) = solver.budget {
            b.check()?;
        }
        if entry.lb >= best.cutoff() / solver.config.prune_factor() {
            break;
        }
        stats.index_cells_searched += 1;
        let cell_space = spec.cell_rect(entry.col, entry.row);
        let bucketed = buckets.get_or_insert_with(|| bucket_by_index_cell(asp, table, spec));
        let candidates = bucketed[spec.linear_index(entry.col, entry.row)].clone();
        solver.search_space(cell_space, candidates, best, stats, &mut scratch)?;
    }
    Ok(())
}

/// The contributing rectangles of each index cell (row-major): those whose
/// closed extent meets the cell's closed extent, in ascending rectangle
/// order — exactly the candidates a scan of every rectangle against the
/// cell would keep, bucketed once per query instead of once per opened
/// cell.
fn bucket_by_index_cell(
    asp: &AspInstance,
    table: &Contributions,
    spec: &GridSpec,
) -> Vec<Vec<u32>> {
    let edges = GridEdges::new(spec.clone());
    // Cells whose closed interval [edges[i], edges[i + 1]] meets the closed
    // interval [lo, hi], by binary search over the ascending edges.
    let span = |edges: &[f64], lo: f64, hi: f64| {
        let n = edges.len() - 1;
        (
            edges[1..].partition_point(|e| *e < lo),
            edges[..n].partition_point(|e| *e <= hi),
        )
    };
    let mut buckets = vec![Vec::new(); spec.num_cells()];
    for (i, r) in asp.rects().iter().enumerate() {
        if !table.contributes(i as u32) {
            continue;
        }
        let (c0, c1) = span(edges.xs(), r.rect.min_x, r.rect.max_x);
        let (r0, r1) = span(edges.ys(), r.rect.min_y, r.rect.max_y);
        for cell in CellRange::new(c0, c1, r0, r1).iter() {
            buckets[spec.linear_index(cell.col, cell.row)].push(i as u32);
        }
    }
    buckets
}

/// The parts of the ASP search space not covered by the index grid: an
/// L-shaped margin to the left of and below the indexed area.
fn margin_spaces(asp_space: &Rect, index_space: &Rect) -> Vec<Rect> {
    let mut out = Vec::new();
    if asp_space.min_x < index_space.min_x {
        out.push(Rect::new(
            asp_space.min_x,
            asp_space.min_y,
            index_space.min_x,
            asp_space.max_y,
        ));
    }
    if asp_space.min_y < index_space.min_y {
        out.push(Rect::new(
            index_space.min_x.max(asp_space.min_x),
            asp_space.min_y,
            asp_space.max_x,
            index_space.min_y,
        ));
    }
    out.retain(|r| r.width() > 0.0 && r.height() > 0.0 && r.intersects(asp_space));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SearchConfig;
    use crate::executor::{Executor, Slabs};
    use crate::query::AsrsQuery;
    use crate::result::SearchResult;
    use asrs_aggregator::{CompositeAggregator, FeatureVector, Selection, Weights};
    use asrs_data::gen::{TweetGenerator, UniformGenerator};
    use asrs_data::Dataset;
    use asrs_geo::RegionSize;

    /// The best region over `slabs`, as the engine runs a pinned backend.
    fn search(
        ds: &Dataset,
        agg: &CompositeAggregator,
        config: SearchConfig,
        slabs: Slabs<'_>,
        query: &AsrsQuery,
    ) -> Result<SearchResult, AsrsError> {
        Executor::new(ds, agg, config, slabs).best(query, None)
    }

    #[test]
    fn margin_spaces_cover_the_reduction_offset() {
        let asp_space = Rect::new(-2.0, -3.0, 10.0, 10.0);
        let index_space = Rect::new(0.0, 0.0, 10.0, 10.0);
        let margins = margin_spaces(&asp_space, &index_space);
        assert_eq!(margins.len(), 2);
        // Together with the index space, the margins cover the ASP space.
        let covered_area: f64 = margins.iter().map(|m| m.area()).sum::<f64>() + index_space.area();
        assert!((covered_area - asp_space.area()).abs() < 1e-9);
    }

    #[test]
    fn margin_spaces_empty_when_index_covers_everything() {
        let space = Rect::new(0.0, 0.0, 5.0, 5.0);
        assert!(margin_spaces(&space, &Rect::new(-1.0, -1.0, 6.0, 6.0)).is_empty());
    }

    #[test]
    fn gi_ds_matches_ds_search_exactly() {
        let ds = UniformGenerator::default().generate(600, 77);
        let agg = CompositeAggregator::builder(ds.schema())
            .distribution("category", Selection::All)
            .build()
            .unwrap();
        let index = GridIndex::build(&ds, &agg, 24, 24).unwrap();
        let query = AsrsQuery::new(
            RegionSize::new(9.0, 7.0),
            FeatureVector::new(vec![4.0, 2.0, 1.0, 3.0]),
            Weights::uniform(4),
        );
        let plain = search(&ds, &agg, SearchConfig::default(), Slabs::Whole, &query).unwrap();
        let indexed = search(
            &ds,
            &agg,
            SearchConfig::default(),
            Slabs::IndexCells(&index),
            &query,
        )
        .unwrap();
        assert!(
            (plain.distance - indexed.distance).abs() < 1e-9,
            "DS {} vs GI-DS {}",
            plain.distance,
            indexed.distance
        );
    }

    #[test]
    fn gi_ds_prunes_most_index_cells() {
        let ds = TweetGenerator::compact(8).generate(2000, 3);
        let agg = CompositeAggregator::builder(ds.schema())
            .distribution("day_of_week", Selection::All)
            .build()
            .unwrap();
        let index = GridIndex::build(&ds, &agg, 32, 32).unwrap();
        // A weekend-heavy target, as in the paper's composite aggregator F1.
        let query = AsrsQuery::new(
            RegionSize::new(60.0, 60.0),
            FeatureVector::new(vec![0.0, 0.0, 0.0, 0.0, 0.0, 40.0, 40.0]),
            Weights::new(vec![0.2, 0.2, 0.2, 0.2, 0.2, 0.5, 0.5]),
        );
        let result = search(
            &ds,
            &agg,
            SearchConfig::default(),
            Slabs::IndexCells(&index),
            &query,
        )
        .unwrap();
        let ratio = result.stats.index_search_ratio().unwrap();
        assert!(
            ratio < 0.6,
            "expected pruning, searched {:.0}%",
            ratio * 100.0
        );
        assert!(result.stats.index_cells_total >= 1024);
    }

    #[test]
    fn approximate_search_respects_guarantee_and_prunes_more() {
        let ds = UniformGenerator::default().generate(800, 11);
        let agg = CompositeAggregator::builder(ds.schema())
            .distribution("category", Selection::All)
            .build()
            .unwrap();
        let index = GridIndex::build(&ds, &agg, 32, 32).unwrap();
        let query = AsrsQuery::new(
            RegionSize::new(10.0, 10.0),
            FeatureVector::new(vec![6.0, 6.0, 6.0, 6.0]),
            Weights::uniform(4),
        );
        let slabs = Slabs::IndexCells(&index);
        let exact = search(&ds, &agg, SearchConfig::default(), slabs, &query).unwrap();
        for delta in [0.1, 0.2, 0.4] {
            let config = SearchConfig::default().with_delta(delta).unwrap();
            let approx = search(&ds, &agg, config, slabs, &query).unwrap();
            assert!(
                approx.distance <= (1.0 + delta) * exact.distance + 1e-9,
                "δ={delta}: {} vs optimal {}",
                approx.distance,
                exact.distance
            );
            assert!(
                approx.stats.index_cells_searched <= exact.stats.index_cells_searched,
                "approximation must not search more cells"
            );
        }
    }

    #[test]
    fn result_representation_is_consistent_with_the_region() {
        let ds = UniformGenerator::default().generate(400, 21);
        let agg = CompositeAggregator::builder(ds.schema())
            .distribution("category", Selection::All)
            .build()
            .unwrap();
        let index = GridIndex::build(&ds, &agg, 16, 16).unwrap();
        let example = Rect::new(5.0, 60.0, 30.0, 80.0);
        let query = AsrsQuery::from_example_region(&ds, &agg, &example).unwrap();
        let result = search(
            &ds,
            &agg,
            SearchConfig::default(),
            Slabs::IndexCells(&index),
            &query,
        )
        .unwrap();
        let rep = agg.aggregate_region(&ds, &result.region);
        let d = agg.distance(&rep, &query.target, &query.weights, query.metric);
        assert!((d - result.distance).abs() < 1e-9);
        assert!(result.distance <= 1e-9, "the example region itself matches");
    }
}
