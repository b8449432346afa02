//! The exhaustive arrangement-midpoint backend.
//!
//! The edges of the ASP rectangles partition the plane into an arrangement
//! of axis-aligned cells; every disjoint region of the paper (Lemma 2) is a
//! union of such cells, so evaluating one probe point per arrangement cell
//! visits every disjoint region.  [`NaiveSearch`] does exactly that: it
//! takes the midpoints between consecutive distinct edge coordinates,
//! evaluates every `(x, y)` combination, and adds one point outside
//! everything.  The probes are the arrangement cells' canonical
//! representatives (the intervals of the instance's edge table, see
//! [`EdgeSnapper`](crate::asp::EdgeSnapper)), the candidates the pruning
//! backends offer, so the oracle reports the same anchors as they do.
//!
//! The cost is `O(n²)` probe points, each evaluated in `O(n)` — far too
//! slow for production queries, but an unimpeachable ground truth for the
//! engine's faster backends, which is why the engine exposes it as
//! [`Backend::Naive`](crate::Backend).

use crate::asp::AspInstance;
use crate::best::BestSet;
use crate::budget::Budget;
use crate::error::AsrsError;
use crate::query::AsrsQuery;
use crate::result::SearchResult;
use crate::stats::SearchStats;
use asrs_aggregator::CompositeAggregator;
use asrs_data::Dataset;
use asrs_geo::Point;
use std::sync::Arc;
use std::time::Instant;

/// The exhaustive ASRS solver.  Intended for small instances (≲ 200
/// objects) and for validating the pruning backends.
pub struct NaiveSearch<'a> {
    dataset: &'a Dataset,
    aggregator: &'a CompositeAggregator,
}

impl<'a> NaiveSearch<'a> {
    /// Creates a solver over `dataset`; the oracle has nothing to tune.
    pub fn new(dataset: &'a Dataset, aggregator: &'a CompositeAggregator) -> Self {
        Self {
            dataset,
            aggregator,
        }
    }

    /// The `k` best candidate regions with pairwise distinct anchors, best
    /// first, found by exhaustive enumeration; the run's counters are added
    /// to `stats`.  The enumeration polls `budget` once per probe column.
    ///
    /// # Errors
    ///
    /// [`AsrsError::Query`] when the query does not match the aggregator,
    /// [`AsrsError::InvalidTopK`] when `k` is zero, and
    /// [`AsrsError::DeadlineExceeded`] once `budget` is spent.
    pub fn search(
        &self,
        query: &AsrsQuery,
        k: usize,
        budget: Option<Budget>,
        stats: &mut SearchStats,
    ) -> Result<Vec<SearchResult>, AsrsError> {
        query.validate(self.aggregator)?;
        if k == 0 {
            return Err(AsrsError::InvalidTopK);
        }
        if let Some(b) = budget {
            b.check()?;
        }
        let started = Instant::now();
        let asp = AspInstance::build(self.dataset, query.size);
        stats.rectangles += asp.rects().len() as u64;

        // Probe coordinates: the midpoints of consecutive distinct edges,
        // i.e. one point per arrangement cell inside the instance's space,
        // plus one point outside everything — where the kernel seeds the
        // empty region.
        let snapper = Arc::clone(asp.edges());
        let midpoints =
            |edges: &[f64]| -> Vec<f64> { edges.windows(2).map(|w| (w[0] + w[1]) / 2.0).collect() };
        let (px, py) = (midpoints(snapper.xs()), midpoints(snapper.ys()));
        let outside = match (snapper.xs().last(), snapper.ys().last()) {
            (Some(x), Some(y)) => Point::new(x + 1.0, y + 1.0),
            _ => Point::origin(),
        };

        let candidates = asp.all_rect_indices();
        let mut best = BestSet::new(k, snapper);
        let mut probe = |p: Point, best: &mut BestSet| {
            stats.fallback_points += 1;
            let objects = asp.objects_covering(&p, &candidates);
            let rep = self
                .aggregator
                .aggregate(objects.iter().map(|&i| self.dataset.object(i as usize)));
            let d = self
                .aggregator
                .distance(&rep, &query.target, &query.weights, query.metric);
            if d <= best.cutoff() {
                best.offer(d, p, rep);
            }
        };
        probe(outside, &mut best);
        for &x in &px {
            if let Some(b) = budget {
                b.check()?;
            }
            for &y in &py {
                probe(Point::new(x, y), &mut best);
            }
        }

        stats.elapsed += started.elapsed();
        Ok(crate::best::best_to_results(best, query.size, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SearchConfig;
    use crate::executor::{Executor, Slabs};
    use asrs_aggregator::{FeatureVector, Selection, Weights};
    use asrs_data::gen::UniformGenerator;
    use asrs_geo::RegionSize;

    #[test]
    fn matches_ds_search_on_small_instances() {
        for seed in 0..4 {
            let ds = UniformGenerator::default().generate(40, seed);
            let agg = CompositeAggregator::builder(ds.schema())
                .distribution("category", Selection::All)
                .build()
                .unwrap();
            let query = AsrsQuery::new(
                RegionSize::new(12.0, 9.0),
                FeatureVector::new(vec![2.0, 1.0, 0.0, 1.0]),
                Weights::uniform(4),
            );
            let mut stats = SearchStats::new();
            let naive = NaiveSearch::new(&ds, &agg)
                .search(&query, 1, None, &mut stats)
                .unwrap();
            let ds_result = Executor::new(
                &ds,
                &Default::default(),
                &agg,
                &SearchConfig::default(),
                Slabs::Whole,
            )
            .best(&query, 0.0, None, &mut SearchStats::new())
            .unwrap();
            assert!(
                (naive[0].distance - ds_result.distance).abs() < 1e-9,
                "seed {seed}: naive {} vs DS {}",
                naive[0].distance,
                ds_result.distance
            );
            assert!(stats.fallback_points > 0);
        }
    }

    #[test]
    fn empty_dataset_reports_the_target_distance() {
        let ds = asrs_data::Dataset::new_unchecked(asrs_data::Schema::empty(), vec![]);
        let agg = CompositeAggregator::builder(ds.schema())
            .count(Selection::All)
            .build()
            .unwrap();
        let query = AsrsQuery::new(
            RegionSize::new(1.0, 1.0),
            FeatureVector::new(vec![2.0]),
            Weights::uniform(1),
        );
        let result = NaiveSearch::new(&ds, &agg)
            .search(&query, 1, None, &mut SearchStats::new())
            .unwrap();
        assert_eq!(result[0].distance, 2.0);
    }

    #[test]
    fn top_k_is_sorted_with_distinct_anchors() {
        let ds = UniformGenerator::default().generate(30, 7);
        let agg = CompositeAggregator::builder(ds.schema())
            .distribution("category", Selection::All)
            .build()
            .unwrap();
        let query = AsrsQuery::new(
            RegionSize::new(15.0, 15.0),
            FeatureVector::new(vec![1.0, 1.0, 1.0, 1.0]),
            Weights::uniform(4),
        );
        let top = NaiveSearch::new(&ds, &agg)
            .search(&query, 4, None, &mut SearchStats::new())
            .unwrap();
        assert!(!top.is_empty());
        for pair in top.windows(2) {
            assert!(pair[0].distance <= pair[1].distance);
            assert_ne!(pair[0].anchor, pair[1].anchor);
        }
    }

    #[test]
    fn validation_errors_propagate() {
        let ds = UniformGenerator::default().generate(10, 1);
        let agg = CompositeAggregator::builder(ds.schema())
            .distribution("category", Selection::All)
            .build()
            .unwrap();
        let bad = AsrsQuery::new(
            RegionSize::new(1.0, 1.0),
            FeatureVector::new(vec![1.0]),
            Weights::uniform(1),
        );
        let naive = NaiveSearch::new(&ds, &agg);
        assert!(matches!(
            naive.search(&bad, 1, None, &mut SearchStats::new()),
            Err(AsrsError::Query(_))
        ));
        let good = AsrsQuery::new(
            RegionSize::new(1.0, 1.0),
            FeatureVector::new(vec![1.0, 0.0, 0.0, 0.0]),
            Weights::uniform(4),
        );
        assert!(matches!(
            naive.search(&good, 0, None, &mut SearchStats::new()),
            Err(AsrsError::InvalidTopK)
        ));
    }
}
