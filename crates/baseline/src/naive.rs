//! Exhaustive arrangement-midpoint oracle.
//!
//! The actual enumeration lives in `asrs-core` as
//! [`asrs_core::NaiveSearch`] (the engine's
//! [`Backend::Naive`](asrs_core::Backend) backend); this module keeps
//! the historical free-function entry points the test-suite uses, as thin
//! wrappers over it.
//!
//! The cost is `O(n²)` probe points, each evaluated in `O(n)` — far too
//! slow for benchmarks, but an unimpeachable ground truth for correctness
//! tests of DS-Search, GI-DS and the sweep-line baseline.

use asrs_aggregator::CompositeAggregator;
use asrs_core::{AsrsError, AsrsQuery, NaiveSearch, SearchStats};
use asrs_data::Dataset;
use asrs_geo::{Point, Rect};

/// The oracle's answer: the best probe point, its region, distance and
/// representation.
#[derive(Debug, Clone, PartialEq)]
pub struct NaiveAnswer {
    /// Best probe point (bottom-left corner of the best region).
    pub anchor: Point,
    /// The corresponding region.
    pub region: Rect,
    /// Its distance to the query representation.
    pub distance: f64,
    /// Number of probe points evaluated.
    pub probes: usize,
}

/// Computes the exact optimum by exhaustive enumeration of arrangement
/// cells.  Intended for small instances (≲ 200 objects).
///
/// # Errors
///
/// [`AsrsError::Query`] when the query does not match the aggregator.
pub fn naive_best_region(
    dataset: &Dataset,
    aggregator: &CompositeAggregator,
    query: &AsrsQuery,
) -> Result<NaiveAnswer, AsrsError> {
    let mut stats = SearchStats::new();
    let ranked = NaiveSearch::new(dataset, aggregator).search(query, 1, None, &mut stats)?;
    let best = ranked.first().ok_or_else(|| AsrsError::Internal {
        message: "the oracle retained no candidate: every distance was non-finite".to_string(),
    })?;
    Ok(NaiveAnswer {
        anchor: best.anchor,
        region: best.region,
        distance: best.distance,
        probes: stats.fallback_points as usize,
    })
}

/// Exhaustively computes the maximum number of objects any `a × b` region
/// can strictly enclose (naive MaxRS ground truth).
///
/// # Errors
///
/// [`AsrsError::Query`] when the size is degenerate.
pub fn naive_maxrs_count(dataset: &Dataset, width: f64, height: f64) -> Result<usize, AsrsError> {
    use asrs_aggregator::{FeatureVector, Selection, Weights};
    use asrs_geo::RegionSize;
    let aggregator = CompositeAggregator::builder(dataset.schema())
        .count(Selection::All)
        .build()
        .expect("count aggregator always builds");
    let query = AsrsQuery::new(
        RegionSize::new(width, height),
        FeatureVector::new(vec![dataset.len() as f64 + 1.0]),
        Weights::uniform(1),
    );
    let answer = naive_best_region(dataset, &aggregator, &query)?;
    Ok(dataset.count_strictly_in(&answer.region))
}

#[cfg(test)]
mod tests {
    use super::*;
    use asrs_aggregator::{FeatureVector, Selection, Weights};
    use asrs_data::{AttrValue, AttributeDef, AttributeKind, DatasetBuilder, Schema};
    use asrs_geo::RegionSize;

    fn colored_dataset() -> Dataset {
        let schema = Schema::new(vec![AttributeDef::new(
            "color",
            AttributeKind::categorical(2),
        )]);
        let mut b = DatasetBuilder::new(schema);
        b.push(2.0, 8.0, vec![AttrValue::Cat(0)]);
        b.push(3.5, 7.0, vec![AttrValue::Cat(1)]);
        b.push(1.5, 3.0, vec![AttrValue::Cat(1)]);
        b.push(5.0, 2.0, vec![AttrValue::Cat(0)]);
        b.push(7.5, 2.5, vec![AttrValue::Cat(1)]);
        b.push(8.0, 1.5, vec![AttrValue::Cat(0)]);
        b.build().unwrap()
    }

    #[test]
    fn finds_the_perfect_region_in_the_fig2_instance() {
        let ds = colored_dataset();
        let agg = CompositeAggregator::builder(ds.schema())
            .distribution("color", Selection::All)
            .build()
            .unwrap();
        let query = AsrsQuery::new(
            RegionSize::new(3.0, 3.0),
            FeatureVector::new(vec![1.0, 1.0]),
            Weights::uniform(2),
        );
        let ans = naive_best_region(&ds, &agg, &query).unwrap();
        assert!(ans.distance.abs() < 1e-9);
        let rep = agg.aggregate_region(&ds, &ans.region);
        assert_eq!(rep.as_slice(), &[1.0, 1.0]);
        assert!(ans.probes > 0);
    }

    #[test]
    fn zero_target_prefers_an_empty_region() {
        let ds = colored_dataset();
        let agg = CompositeAggregator::builder(ds.schema())
            .distribution("color", Selection::All)
            .build()
            .unwrap();
        let query = AsrsQuery::new(
            RegionSize::new(2.0, 2.0),
            FeatureVector::new(vec![0.0, 0.0]),
            Weights::uniform(2),
        );
        let ans = naive_best_region(&ds, &agg, &query).unwrap();
        assert_eq!(ans.distance, 0.0);
        assert_eq!(ds.count_strictly_in(&ans.region), 0);
    }

    #[test]
    fn naive_maxrs_counts_the_densest_region() {
        let mut b = DatasetBuilder::new(Schema::empty());
        for (x, y) in [(0.0, 0.0), (0.5, 0.5), (0.8, 0.2), (5.0, 5.0), (9.0, 9.0)] {
            b.push(x, y, vec![]);
        }
        let ds = b.build().unwrap();
        assert_eq!(naive_maxrs_count(&ds, 2.0, 2.0).unwrap(), 3);
        assert_eq!(naive_maxrs_count(&ds, 0.1, 0.1).unwrap(), 1);
    }

    #[test]
    fn empty_dataset_returns_empty_answer() {
        let ds = Dataset::new_unchecked(Schema::empty(), vec![]);
        let agg = CompositeAggregator::builder(ds.schema())
            .count(Selection::All)
            .build()
            .unwrap();
        let query = AsrsQuery::new(
            RegionSize::new(1.0, 1.0),
            FeatureVector::new(vec![2.0]),
            Weights::uniform(1),
        );
        let ans = naive_best_region(&ds, &agg, &query).unwrap();
        assert_eq!(ans.distance, 2.0);
    }

    #[test]
    fn mismatched_query_is_an_error() {
        let ds = colored_dataset();
        let agg = CompositeAggregator::builder(ds.schema())
            .distribution("color", Selection::All)
            .build()
            .unwrap();
        let query = AsrsQuery::new(
            RegionSize::new(3.0, 3.0),
            FeatureVector::new(vec![1.0]),
            Weights::uniform(1),
        );
        assert!(matches!(
            naive_best_region(&ds, &agg, &query),
            Err(AsrsError::Query(_))
        ));
    }
}
