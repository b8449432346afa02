//! Workload builders matching the paper's experimental setup (Section 7.1).

use asrs_aggregator::{CompositeAggregator, FeatureVector, Selection, Weights};
use asrs_core::AsrsQuery;
use asrs_data::gen::{PoiSynGenerator, TweetGenerator};
use asrs_data::Dataset;
use asrs_geo::RegionSize;

/// Which of the paper's two synthetic dataset analogues to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Tweet-like data with a day-of-week attribute (composite aggregator F1).
    Tweet,
    /// POISyn-like data with visits and rating attributes (composite
    /// aggregator F2).
    PoiSyn,
}

impl Workload {
    /// Generates the dataset with `n` objects.
    pub fn dataset(&self, n: usize, seed: u64) -> Dataset {
        match self {
            Workload::Tweet => tweet_dataset(n, seed),
            Workload::PoiSyn => poisyn_dataset(n, seed),
        }
    }

    /// Builds the matching composite aggregator.
    pub fn aggregator(&self, dataset: &Dataset) -> CompositeAggregator {
        match self {
            Workload::Tweet => f1_aggregator(dataset),
            Workload::PoiSyn => f2_aggregator(dataset),
        }
    }

    /// Builds the matching query for a region of `k` query units.
    ///
    /// The paper sets the query targets to "the maximum a region can have"
    /// (T6/T7 for F1, v_max for F2); the builders approximate that with the
    /// expected content of a `k·q` region in a dense cluster, so the target
    /// scales with both the cardinality and the query size.
    pub fn query(&self, dataset: &Dataset, k: f64) -> AsrsQuery {
        let size = unit_query_size(dataset).scaled(k);
        // Expected number of objects in a k·q region under uniformity,
        // boosted for the density skew of the clustered generators.
        let expected = dataset.len() as f64 * (k * k / 1_000_000.0) * 30.0;
        match self {
            Workload::Tweet => f1_query(size, expected),
            Workload::PoiSyn => f2_query(size, expected),
        }
    }

    /// Human-readable name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Tweet => "Tweet",
            Workload::PoiSyn => "POISyn",
        }
    }
}

/// The Tweet-analogue dataset (clustered, day-of-week attribute).
pub fn tweet_dataset(n: usize, seed: u64) -> Dataset {
    TweetGenerator::compact(24).generate(n, seed)
}

/// The POISyn-analogue dataset (clustered, visits + rating attributes).
pub fn poisyn_dataset(n: usize, seed: u64) -> Dataset {
    PoiSynGenerator::compact(24).generate(n, seed)
}

/// The unit query size `q`: the paper defines `q = (W/1000) × (H/1000)`
/// where `W × H` is the minimum rectangle enclosing all objects.
pub fn unit_query_size(dataset: &Dataset) -> RegionSize {
    let bbox = dataset
        .padded_bounding_box(1.0)
        .expect("datasets used in benchmarks are non-empty");
    RegionSize::new(bbox.width() / 1000.0, bbox.height() / 1000.0)
}

/// Composite aggregator F1: the distribution of objects over the day of
/// the week (7 dimensions).
pub fn f1_aggregator(dataset: &Dataset) -> CompositeAggregator {
    CompositeAggregator::builder(dataset.schema())
        .distribution("day_of_week", Selection::All)
        .build()
        .expect("Tweet-analogue schema has day_of_week")
}

/// The F1 query of Section 7.1: representation `(0, 0, 0, 0, 0, T6, T7)`
/// (only weekend posts) with weights `(1/5, …, 1/5, 1/2, 1/2)`.
///
/// `expected_in_region` approximates "the maximum number of tweets on a
/// weekend day a region of the query size can have".
pub fn f1_query(size: RegionSize, expected_in_region: f64) -> AsrsQuery {
    let t = (expected_in_region / 2.0).max(5.0);
    AsrsQuery::new(
        size,
        FeatureVector::new(vec![0.0, 0.0, 0.0, 0.0, 0.0, t, t]),
        Weights::new(vec![0.2, 0.2, 0.2, 0.2, 0.2, 0.5, 0.5]),
    )
}

/// Composite aggregator F2: the sum of visits and the average rating.
pub fn f2_aggregator(dataset: &Dataset) -> CompositeAggregator {
    CompositeAggregator::builder(dataset.schema())
        .sum("visits", Selection::All)
        .average("rating", Selection::All)
        .build()
        .expect("POISyn-analogue schema has visits and rating")
}

/// The F2 query of Section 7.1: representation `(v_max, 10)` with weights
/// `(1/v_max, 1/10)`.
///
/// `expected_in_region` approximates the number of POIs a region of the
/// query size can hold; `v_max` is the corresponding visit total.
pub fn f2_query(size: RegionSize, expected_in_region: f64) -> AsrsQuery {
    let vmax = (expected_in_region * 250.0).max(500.0);
    AsrsQuery::new(
        size,
        FeatureVector::new(vec![vmax, 10.0]),
        Weights::new(vec![1.0 / vmax, 0.1]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use asrs_core::{AsrsEngine, Backend, QueryRequest};

    #[test]
    fn unit_size_is_a_thousandth_of_the_extent() {
        let ds = tweet_dataset(500, 1);
        let bbox = ds.padded_bounding_box(1.0).unwrap();
        let q = unit_query_size(&ds);
        assert!((q.width - bbox.width() / 1000.0).abs() < 1e-9);
    }

    #[test]
    fn workload_builders_produce_consistent_queries() {
        for workload in [Workload::Tweet, Workload::PoiSyn] {
            let ds = workload.dataset(400, 7);
            let agg = workload.aggregator(&ds);
            let query = workload.query(&ds, 10.0);
            assert!(query.validate(&agg).is_ok(), "{}", workload.name());
            // The query must be solvable end to end.
            let engine = AsrsEngine::builder(ds, agg).build().unwrap();
            let request = QueryRequest::similar(query).with_backend(Backend::DsSearch);
            let response = engine.submit(&request).unwrap();
            assert!(response.best().unwrap().distance.is_finite());
        }
    }

    #[test]
    fn f1_query_targets_weekends_only() {
        let q = f1_query(RegionSize::new(1.0, 1.0), 1000.0);
        assert_eq!(&q.target.as_slice()[..5], &[0.0; 5]);
        assert!(q.target[5] > 0.0 && q.target[6] > 0.0);
    }
}
